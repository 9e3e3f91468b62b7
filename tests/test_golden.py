"""Reports compared byte for byte against reference files in tests/data.

``verify_n4.jsonl`` and ``verify_n4_summary.txt`` hold ``verify_theorems``'s
``to_json()`` (one line each) and ``summary()`` for all 30 compositions with
n <= 4; ``theta_classes_n3.jsonl`` and ``theta_classes_n4.jsonl`` hold the
``theta_classes`` JSON for n <= 3 and n <= 4.
``verify_n5.jsonl`` and ``verify_n6.jsonl`` are the standard output of
``scripts/run_verification_sweep.py --max-n 5 --json`` and ``--max-n 6
--json``; CI diffs a fresh sweep against each.
A refactor must leave them as they are.  When a report is meant to change,
rewrite them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

from btamari.parabolic import all_compositions
from btamari.projection import theta_classes
from btamari.tamari import verify_theorems

DATA = Path(__file__).resolve().parent / "data"


def render_verify() -> tuple[str, str]:
    lines, summaries = [], []
    for n in range(1, 5):
        for alpha in all_compositions(n):
            report = verify_theorems(alpha)
            lines.append(json.dumps(report.to_json()) + "\n")
            summaries.append(report.summary() + "\n")
    return "".join(lines), "".join(summaries)


def render_theta(max_n: int) -> str:
    return "".join(
        json.dumps(
            {"alpha": alpha.format(), "classes": [c.to_json() for c in theta_classes(alpha)]}
        )
        + "\n"
        for n in range(1, max_n + 1)
        for alpha in all_compositions(n)
    )


def test_verify_reports_unchanged():
    lines, summaries = render_verify()
    assert lines.encode() == (DATA / "verify_n4.jsonl").read_bytes()
    assert summaries.encode() == (DATA / "verify_n4_summary.txt").read_bytes()


def test_theta_classes_unchanged():
    assert render_theta(3).encode() == (DATA / "theta_classes_n3.jsonl").read_bytes()


def test_theta_classes_n4_unchanged():
    assert render_theta(4).encode() == (DATA / "theta_classes_n4.jsonl").read_bytes()


if __name__ == "__main__":
    lines, summaries = render_verify()
    (DATA / "verify_n4.jsonl").write_bytes(lines.encode())
    (DATA / "verify_n4_summary.txt").write_bytes(summaries.encode())
    for max_n in (3, 4):
        (DATA / f"theta_classes_n{max_n}.jsonl").write_bytes(render_theta(max_n).encode())
