"""One workload in one fresh process: set up, warm up, run passes, report.

run.py starts this script; it is not meant to be run by hand.  It prints
``ready`` as soon as the workload is set up (btamari and numpy imported, the
input list built, the references loaded), then, unless ``--setup-only``,
warms up, runs closed-loop passes over the inputs for ``--seconds`` and
prints one JSON line: pass times (wall, and scaled to the reference core
speed as pace.py describes), peak RSS, inputs attempted and failed and,
with ``--trace 1``, one extra traced pass summarised per layer.  The core's
speed right after set-up is in that line too; with ``--setup-only`` it is
the only thing printed after ``ready``.

Inputs are called through the package namespace (``btamari.<name>``) at call
time, so that the wrappers tracing.py installs there are the ones called.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from pace import Pacer, sample_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 2


@dataclass
class Case:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _verify_cases(btamari, ref, rng):
    """verify_theorems on each stored composition, in seed order."""
    cases = []
    for item in ref["inputs"]:
        alpha = btamari.Composition.parse(item["alpha"])
        cases.append(Case(
            item["alpha"],
            lambda alpha=alpha: btamari.verify_theorems(alpha),
            lambda report, item=item: report.ok == item["ok"] and all(
                report.stats[key] == item[key]
                for key in ("size", "length", "join_irreducibles")
            ),
        ))
    rng.shuffle(cases)
    warmup = [
        lambda alpha=btamari.Composition.parse(label): btamari.verify_theorems(alpha)
        for label in ("0,1", "2,1", "0,1,2")
    ]
    return cases, warmup


def _sequence_cases(btamari, ref, rng):
    """One t_sequence call; it has no input order, so the seed is unused."""
    max_n, totals = ref["max_n"], ref["totals"]
    case = Case(
        f"t_sequence({max_n})",
        lambda: btamari.t_sequence(max_n),
        lambda totals_out: list(totals_out) == totals,
    )
    return [case], [lambda: btamari.t_sequence(5)]


def _cover_enum_cases(btamari, ref, rng):
    """The five large n = 7 cover enumerators, in seed order."""

    def matches(poly, item):
        return list(poly.coefficients) == item["polynomial"] and (
            item["closed_form"] is None
            or list(poly.coefficients) == item["closed_form"]
        )

    cases = []
    for item in ref["inputs"]:
        if item["call"] == "cover_enumerator":
            alpha = btamari.Composition.parse(item["alpha"])
            cases.append(Case(
                f"cover_enumerator({item['alpha']})",
                lambda alpha=alpha: btamari.cover_enumerator(alpha),
                lambda poly, item=item: matches(poly, item) and poly(1) == item["size"],
            ))
            continue
        args = (item["t"], item["n"]) if "t" in item else (item["n"],)
        fn_name = item["call"]
        cases.append(Case(
            f"{fn_name}{args}",
            lambda fn_name=fn_name, args=args: getattr(btamari, fn_name)(*args),
            lambda rep, item=item: rep.ok and matches(rep.observed, item)
            and rep.predicted_size == item["size"],
        ))
    rng.shuffle(cases)
    warmup = [
        lambda: btamari.cover_enumerator(btamari.Composition.parse("0,1,1,1,1,1")),
        lambda: btamari.check_conjecture_t(2, 5),
        lambda: btamari.check_type_d_count(5),
    ]
    return cases, warmup


WORKLOADS = {
    "verify": _verify_cases,
    "sequence": _sequence_cases,
    "cover-enum": _cover_enum_cases,
}


def call_all(cases: list[Case]) -> list[Any]:
    """One closed-loop pass: each input's output, or the exception it raised."""
    outputs = []
    for case in cases:
        try:
            outputs.append(case.call())
        except Exception as exc:  # a failed input is counted, not fatal
            outputs.append(exc)
    return outputs


def count_failed(cases: list[Case], outputs: list[Any]) -> int:
    """Inputs that raised or whose output differs from the reference."""
    failed = 0
    for case, out in zip(cases, outputs):
        if isinstance(out, Exception):
            print(f"{case.label} raised:", file=sys.stderr)
            traceback.print_exception(out, file=sys.stderr)
            failed += 1
            continue
        try:
            ok = case.check(out)
        except (AttributeError, KeyError, TypeError):  # output of another shape
            ok = False
        if not ok:
            print(f"{case.label} differs from the reference: {out!r}", file=sys.stderr)
            failed += 1
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import btamari  # imports numpy too

    package = Path(btamari.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"btamari was imported from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ref = json.loads((BENCH / "references.json").read_text())[args.workload]
    cases, warmup = WORKLOADS[args.workload](btamari, ref, random.Random(args.seed))
    print("ready", flush=True)
    # The parent timed the set-up; this is the core's speed right after it.
    setup_factor = sample_factor()
    if args.setup_only:
        print(json.dumps({"setup_factor": setup_factor}), flush=True)
        return 0

    for call in warmup:
        call()
    times, walls, failed = [], [], 0
    deadline = time.perf_counter() + args.seconds
    # Start another pass only while it should end before the deadline, but
    # run at least MIN_PASSES, so that the median never rests on one pass.
    while len(walls) < MIN_PASSES or (
        time.perf_counter() + statistics.median(walls) <= deadline
    ):
        with Pacer() as pacer:
            outputs = call_all(cases)
        times.append(pacer.scaled())
        walls.append(pacer.wall_s)
        failed += count_failed(cases, outputs)
    result = {
        "setup_factor": setup_factor,
        "pass_s": times,
        "wall_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(cases) * len(times),
        "failed": failed,
    }
    if args.trace:
        from tracing import Tracer

        # No probes interrupt the traced pass, so that they do not land in
        # the self time of whichever span is open: its times are wall times.
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        outputs = call_all(cases)
        traced_s = time.perf_counter() - start
        result["attempted"] += len(cases)
        result["failed"] += count_failed(cases, outputs)
        result["trace"] = {
            "pass_s": traced_s,
            "root_s": tracer.root_seconds(),
            "absent": tracer.absent,
            "layers": tracer.table(),
        }
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": tracer.spans,
            "counts": tracer.counts,
        }))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
