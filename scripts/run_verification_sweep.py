#!/usr/bin/env python3
"""Verify every structural claim for all type-B compositions up to a degree.

``--max-n N`` sweeps all 2^n compositions of each degree n = 1..N (default 4).
On a 2-core x86-64 host (Python 3.11, numpy 2.4), ``--max-n 5`` takes about
0.5 s of wall time and 34 MB peak RSS; its largest weak order, the full
group's, has 3,840 elements.  ``--max-n 6`` verifies all 126 compositions in
3 to 5 s and 53 MB, up to the full group's weak order of 46,080 elements:
the weak order is kept as inversion words and cover pairs, and only Tam_B
(at most 924 elements here) gets m x m tables.

The enumeration cap (``TAMARI_B_CAP``, else the default 2,000,000) is the
only size bound.  The largest quotient of degree N is the full group,
2^N N! elements, so a ``--max-n`` whose full group exceeds the cap is
refused before anything is verified, with one line on stderr: at the
default cap, ``--max-n 8`` (10,321,920 elements) and anything above it exit
3 at once.  Below that, a composition whose rows or tables the cap still
refuses (Tam_B's m x m tables count m^2 / 64 elements) is refused with one
line on stderr, and the sweep goes on.
Exit status: 0 when every check passed, 1 when a check failed, 2 on a usage
error, 3 when no check failed but a composition or the whole sweep was
refused, or at once, with one ``error:`` line, when a composition the cap
admits runs out of memory.  Any other error ends as in ``btamari``
(``btamari.cli.run``), with one ``error:`` line.
"""

import argparse
import json
import sys
import time

from btamari.cli import EXIT_CAP, EXIT_CHECK_FAILED, EXIT_OK, run
from btamari.errors import CapExceededError, out_of_memory
from btamari.parabolic import Composition, all_compositions, check_degree, quotient_size
from btamari.tamari import verify_theorems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4, help="sweep degrees 1..N")
    parser.add_argument("--json", action="store_true", help="emit one JSON line per alpha")
    args = parser.parse_args(argv)
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")
    return run(lambda cap: sweep(args, cap))


def sweep(args, cap: int) -> int:
    check_degree(args.max_n)
    full_group = quotient_size(Composition((1,) * args.max_n, split=True))
    if full_group > cap:
        refusal = CapExceededError(full_group, cap)
        print(f"--max-n {args.max_n}: refused, {refusal}", file=sys.stderr)
        return EXIT_CAP

    failures = refused = 0
    for n in range(1, args.max_n + 1):
        for alpha in all_compositions(n):
            start = time.time()
            try:
                report = verify_theorems(alpha, cap)
            except CapExceededError as exc:
                print(f"{alpha.format()}: refused, {exc}", file=sys.stderr)
                refused += 1
                continue
            except MemoryError:
                print(f"error: {alpha.format()}: {out_of_memory(cap)}", file=sys.stderr)
                return EXIT_CAP
            elapsed = time.time() - start
            if args.json:
                print(json.dumps(report.to_json()))
            else:
                status = "ok" if report.ok else "FAILED"
                print(
                    f"{alpha.format():>12}  size={report.stats['size']:>5}"
                    f"  length={report.stats['length']:>3}  {status}  ({elapsed:.2f}s)"
                )
                if not report.ok:
                    print(report.summary())
            failures += 0 if report.ok else 1
    if failures:
        print(f"{failures} compositions FAILED", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if refused:
        return EXIT_CAP
    print("all checks passed")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
