import importlib.util
from pathlib import Path

import pytest

from btamari import enumeration

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "enumerative_report.py"


@pytest.fixture(scope="module")
def report():
    spec = importlib.util.spec_from_file_location("enumerative_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


class TestEnumerativeReport:
    def test_max_n_below_one_is_usage_error(self, report, capsys):
        with pytest.raises(SystemExit) as info:
            report(["--max-n", "0"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_threads_is_an_unknown_flag(self, report, capsys):
        # The walk is serial; there is no worker count to set.
        with pytest.raises(SystemExit) as info:
            report(["--threads", "2"])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "unrecognized arguments: --threads 2" in errors[0]
        assert "Traceback" not in captured.err

    def test_cap_refusal_is_one_line_and_exit_three(self, report, capsys, monkeypatch):
        monkeypatch.setenv("TAMARI_B_CAP", "10")
        assert report(["--max-n", "3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: enumeration needs")

    def test_non_integer_cap_env_exit_two(self, report, capsys, monkeypatch):
        monkeypatch.setenv("TAMARI_B_CAP", "ten")
        assert report(["--max-n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TAMARI_B_CAP must be an integer, got 'ten'\n"

    def test_out_of_memory_is_one_line_and_exit_three(self, report, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.delenv("TAMARI_B_CAP", raising=False)
        monkeypatch.setattr(enumeration, "count_aligned_subtree", exhausted)
        assert report(["--max-n", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: out of memory: the enumeration cap 2000000 admits more than"
            " memory holds\n"
        )

    @pytest.mark.parametrize("max_n", ["40000", "3000000000"])
    def test_degree_above_the_largest_is_usage_error(self, report, capsys, max_n):
        # Refused before the walk allocates anything of that degree.
        assert report(["--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: degree {max_n} is above the largest supported, 32766\n"
        )

    def test_small_report_completes(self, report, capsys):
        assert report(["--max-n", "2", "--max-t", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("totals over all compositions: 3,15")
        assert "MISMATCH" not in out
