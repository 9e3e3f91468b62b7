#!/usr/bin/env python3
"""Reproduce the enumerative observations in one run.

Prints the aligned-count totals t_1..t_max, the Narayana cover enumerators of
the full-group lattices, the (t,1,...,1) closed-form comparison, and the
type-D count comparison.  Mismatches are reported, never asserted.  Errors
end as they do in ``btamari`` (``btamari.cli.run``).  Exit status: 0 when
the report is complete, 2 on a usage error (such as ``--max-n 0``, a bad
``TAMARI_B_CAP`` or a failed write to stdout), 3 when a composition exceeds
the enumeration cap or runs out of memory within it; all but argparse's own
errors print one ``error:`` line on stderr.
"""

import argparse
import sys
import time

from btamari.cli import EXIT_OK, run
from btamari.enumeration import (
    check_conjecture_t,
    check_type_d_count,
    cover_enumerator,
    narayana_polynomial,
    t_sequence,
)
from btamari.parabolic import Composition


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-t", type=int, default=2)
    args = parser.parse_args(argv)
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")
    return run(lambda cap: report(args))


def report(args) -> int:
    start = time.time()
    seq = t_sequence(args.max_n)
    print(f"totals over all compositions: {','.join(map(str, seq))}"
          f"  ({time.time() - start:.1f}s)")

    print("\nfull-group cover enumerators vs sum C(n,k)^2 x^k:")
    for n in range(1, min(args.max_n, 5) + 1):
        poly = cover_enumerator(Composition((1,) * n, split=True))
        tag = "match" if poly == narayana_polynomial(n) else "MISMATCH"
        print(f"  n={n}: {poly}  {tag}")

    print("\n(t,1,...,1) against sum C(n-t,k) C(n+t,k) x^k and C(2n,n-t):")
    for t in range(1, args.max_t + 1):
        for n in range(t, args.max_n + 1):
            print(" ", check_conjecture_t(t, n).summary())

    print("\n(0,1,...,1,2) against the type-D count (3n-2)/n C(2n-2,n-1):")
    for n in range(2, args.max_n + 1):
        print(" ", check_type_d_count(n).summary())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
