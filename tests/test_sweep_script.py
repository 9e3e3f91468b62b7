import importlib.util
import json
from pathlib import Path

import pytest

from btamari import tamari

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

    def test_chain_search_reports_serialise(self, sweep, capsys):
        assert sweep(["--max-n", "2", "--verify-chain", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "all checks passed"
        reports = [json.loads(line) for line in lines[:-1]]
        assert len(reports) == 6
        assert all(report["checks"]["trim"] is True for report in reports)

    def test_refused_composition_is_one_line_and_exit_three(
        self, sweep, capsys, monkeypatch
    ):
        # only the full group of degree 2 (Tam_B has 6 elements) exceeds the bound
        monkeypatch.setattr(tamari, "TABLE_THRESHOLD", 5)
        assert sweep(["--max-n", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "0,1,1: refused, Tamari table needs 6 elements, bound is 5"
        ]
        assert "all checks passed" not in captured.out
        assert len(captured.out.splitlines()) == 5
