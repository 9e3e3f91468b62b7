#!/usr/bin/env python3
"""Verify every structural claim for all type-B compositions up to a degree.

The default sweep covers all 2^n compositions for n <= 4; degree 5 is opt-in
because the full-group weak order there has 3840 elements: ``--with-n5``
takes about 36 s of wall time and 318 MB peak RSS on a 2-core x86-64 host
(Python 3.11, numpy 2.4), 14 s of it on ``0,1,1,1,1,1``.
"""

import argparse
import json
import sys
import time

from btamari.parabolic import all_compositions
from btamari.tamari import verify_theorems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument(
        "--with-n5", action="store_true", help="also sweep degree 5 (slow)"
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON line per alpha")
    parser.add_argument(
        "--verify-chain",
        action="store_true",
        help="search for the left-modular chain instead of trusting the shortcut",
    )
    args = parser.parse_args()

    degrees = list(range(1, min(args.max_n, 4) + 1))
    if args.with_n5 or args.max_n >= 5:
        degrees.append(5)

    failures = 0
    for n in degrees:
        for alpha in all_compositions(n):
            start = time.time()
            report = verify_theorems(alpha, verify_chain=args.verify_chain)
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
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
