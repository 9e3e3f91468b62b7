import importlib.util
import time
from pathlib import Path

import pytest

from btamari import lattice, parabolic

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("run_verification_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


class TestVerificationSweep:
    def test_max_n_below_one_is_usage_error(self, sweep, capsys):
        with pytest.raises(SystemExit) as info:
            sweep(["--max-n", "0"])
        assert info.value.code == 2
        assert "all checks passed" not in capsys.readouterr().out

    def test_sweeps_exactly_up_to_max_n(self, sweep, capsys):
        assert sweep(["--max-n", "2", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "all checks passed"
        # 2 compositions of degree 1 and 4 of degree 2
        assert len(lines) - 1 == 6

    def test_refused_composition_is_one_line_and_exit_three(
        self, sweep, capsys, monkeypatch
    ):
        # With one element per value, only the full group of degree 2 (8
        # members, Tam_B 6 elements, so a 6 x 6 order) exceeds a cap of 35.
        monkeypatch.setenv("TAMARI_B_CAP", "35")
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        assert sweep(["--max-n", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "0,1,1: refused, enumeration needs 36 elements, cap is 35"
        ]
        assert "all checks passed" not in captured.out
        assert len(captured.out.splitlines()) == 5

    def test_out_of_memory_is_one_line_and_exit_three(self, sweep, capsys, monkeypatch):
        # Tam_B of 0,1,1 (6 elements) is the first too large for memory: the
        # five reports before it are written and nothing after.
        monkeypatch.delenv("TAMARI_B_CAP", raising=False)
        original = lattice.try_lattice

        def exhausted(poset):
            if poset.n >= 6:
                raise MemoryError
            return original(poset)

        monkeypatch.setattr(lattice, "try_lattice", exhausted)
        assert sweep(["--max-n", "3", "--json"]) == 3
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 5
        assert captured.err == (
            "error: 0,1,1: out of memory: the enumeration cap 2000000 admits more"
            " than memory holds\n"
        )

    @pytest.mark.parametrize(
        "max_n,line",
        [
            (40, "--max-n 40: refused, enumeration needs at least 10^59 elements,"
                 " cap is 2000000"),
            (8, "--max-n 8: refused, enumeration needs 10321920 elements,"
                " cap is 2000000"),
        ],
    )
    def test_max_n_above_the_cap_refused_up_front(
        self, sweep, capsys, monkeypatch, max_n, line
    ):
        # The full group of degree N, 2^N N! elements, is the largest quotient.
        monkeypatch.delenv("TAMARI_B_CAP", raising=False)
        start = time.monotonic()
        assert sweep(["--max-n", str(max_n)]) == 3
        assert time.monotonic() - start < 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")

    def test_up_front_bound_reads_the_environment_cap(self, sweep, capsys, monkeypatch):
        monkeypatch.setenv("TAMARI_B_CAP", "100")
        assert sweep(["--max-n", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--max-n 4: refused, enumeration needs 384 elements, cap is 100\n"
        # 48 elements at degree 3: every composition is verified.
        assert sweep(["--max-n", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "all checks passed"
