"""Projections onto pattern-avoiding representatives and their fibers.

Eliminating a 231 pattern swaps the consecutive values at its outer positions,
shortening the element by one; iterating, whichever pattern goes first,
reaches the unique maximal 231-avoider below the input.  The dual elimination
of 312 patterns, conjugated by the order-reversing involution iota, climbs to
the top of the fiber.  The fibers partition the quotient into intervals, one
per aligned element.

The single-element projections take and return ``SignedPermutation``s.  The
bulk routines work on the quotient as an (m, n) array of right-part rows and
find rows by ``row_lookup``: ``fiber_bottoms`` eliminates one of each row's 231
patterns, named by the scan it shares with ``aligned_mask``, and
``theta_classes`` groups the rows by bottom and takes each fiber's longest
member as its top.  An elimination is the left action of one generator,
which ``left_act`` computes on the rows' values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .alignment import (
    PatternWitness,
    _require_member,
    _scan_plan,
    _violations,
    find_231_pattern,
    find_312_pattern,
)
from .parabolic import Composition, inversion_columns, longest_element, quotient_rows
from .signed_perm import SignedPermutation, format_right


def eliminate_pattern(pi: SignedPermutation, witness: PatternWitness) -> SignedPermutation:
    """Swap the consecutive values sitting at the witness's outer positions."""
    v = pi(witness.k)
    if v == -1:
        s = 0
    elif v > 0:
        s = v
    else:
        s = -v - 1
    return pi.mul_gen_left(s)


def project_down(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Greatest 231-avoiding element weakly below pi."""
    _require_member(alpha, pi)
    while True:
        witness = find_231_pattern(alpha, pi)
        if witness is None:
            return pi
        pi = eliminate_pattern(pi, witness)


def project_onto_312(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Greatest 312-avoiding element weakly below pi."""
    _require_member(alpha, pi)
    while True:
        witness = find_312_pattern(alpha, pi)
        if witness is None:
            return pi
        pi = eliminate_pattern(pi, witness)


def iota(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Right multiplication by the longest element: negate and sort each region.

    Positions in the join region of a join composition are left untouched;
    every other region is negated and reversed, which keeps blocks increasing.
    The image is checked against the product itself, an independent route
    kept as an oracle, and a mismatch raises AssertionError.
    """
    _require_member(alpha, pi)
    right = []
    p = alpha.prefix
    for i in range(1, alpha.r + 1):
        block = pi.right[p[i - 1]:p[i]]
        if alpha.join and i == 1:
            right.extend(block)
        else:
            right.extend(-v for v in reversed(block))
    image = SignedPermutation(tuple(right))
    if image != pi.compose(longest_element(alpha)):
        raise AssertionError(f"iota cross-check failed for {alpha}, {pi}")
    return image


def project_up(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Least element of pi's fiber seen from above: iota-conjugated 312 projection."""
    return iota(alpha, project_onto_312(alpha, iota(alpha, pi)))


@dataclass(frozen=True)
class ThetaClass:
    """One fiber of the downward projection, the interval [bottom, top], as rows.

    ``bottom`` and ``top`` are right parts (1-D arrays); ``members`` holds the
    fiber's right parts (a 2-D array) in right-part order.
    """

    bottom: np.ndarray
    top: np.ndarray
    members: np.ndarray

    def to_json(self) -> dict:
        return {
            "bottom": format_right(self.bottom.tolist()),
            "top": format_right(self.top.tolist()),
            "members": [format_right(r) for r in self.members.tolist()],
        }


def left_act(rows: np.ndarray, gens) -> np.ndarray:
    """Right-part rows multiplied on the left by generators, on their values.

    ``gens`` broadcasts against ``rows``: one generator per row as a column,
    or a stack of generators over all rows.  s_0 negates the values +-1, and
    s_k for k >= 1 exchanges +-k and +-(k + 1), keeping signs.  On absolute
    values, k goes up one and k + 1 down one; only s_0 takes 1 to 0, which
    stands for the sign change.  The result keeps the rows' dtype.
    """
    size = np.abs(rows)
    image = size + (size == gens) - (size == gens + 1)
    image[image == 0] = -1
    return np.sign(rows) * image


def _pattern_generators(alpha: Composition, right: np.ndarray):
    """Rows holding a 231 pattern, and the generator that eliminates one of each.

    The scan behind ``aligned_mask`` names an outer pair (i, k) of the plan
    for each such row.  Its values, pi(i) = succ(u) and pi(k) = u, trade
    places under the generator s that ``eliminate_pattern`` picks: s_0 for
    u = -1, s_u for u > 0 and s_{-u-1} for u < -1.
    """
    plan = _scan_plan(alpha)
    pair = _violations(right, plan)
    hit = np.flatnonzero(pair >= 0)
    outer_k = np.array([k for k, _, _, group in plan for _ in group], dtype=np.intp)
    u = right[hit, outer_k[pair[hit]] - 1].astype(np.intp)
    return hit, np.where(u == -1, 0, np.where(u > 0, u, -u - 1))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte string per row, equal exactly for equal rows of one dtype."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]


def row_lookup(rows):
    """Find wanted rows among the distinct (m, n) ``rows``, keys sorted once.

    ``find(wanted)`` casts one right part, or an array or sequence of them,
    to the dtype of ``rows``, so equal rows have equal bytes, and returns
    each one's index among ``rows``.  A wanted row that is absent, or not
    of the rows' width, raises ValueError naming it.
    """
    right = np.asarray(rows)
    keys = _row_keys(right)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]

    def find(wanted) -> np.ndarray:
        want = np.atleast_2d(np.asarray(wanted, dtype=right.dtype))
        if want.shape[1:] != right.shape[1:]:
            row = format_right(want[:1].ravel())
            raise ValueError(f"{row} is not a row of width {right.shape[1]}")
        want_keys = _row_keys(want)
        at = np.searchsorted(ranked, want_keys).clip(max=len(ranked) - 1)
        if (missing := ranked[at] != want_keys).any():
            raise ValueError(f"{format_right(want[missing.argmax()])} is not among the rows")
        return order[at]

    return find


def fiber_bottoms(alpha: Composition, rows, find=None) -> np.ndarray:
    """Index of each row's downward projection among ``rows``.

    ``rows`` is a (m, n) integer array or a sequence of right parts, and
    rows with equal bottoms share a fiber.  An aligned row is its own
    bottom; any other row has the bottom of the row it reaches by the
    generator ``_pattern_generators`` names.  Every elimination stays in
    the fiber, so this is the recursion of ``project_down``, resolved for
    all rows at once by pointer jumping.  The eliminated rows are found by
    ``find``, a ``row_lookup`` of ``rows`` that a caller holding one passes,
    else one built here; one that is not among ``rows`` raises ValueError.
    """
    right = np.asarray(rows)
    hit, gens = _pattern_generators(alpha, right)
    find = row_lookup(right) if find is None else find
    bottoms = np.arange(len(right))
    bottoms[hit] = find(left_act(right[hit], gens[:, None]))
    while not np.array_equal(jumped := bottoms[bottoms], bottoms):
        bottoms = jumped
    return bottoms


def iter_theta_classes(alpha: Composition, cap: int | None = None) -> Iterator[ThetaClass]:
    """The fibers of the downward projection, one at a time, ordered by bottom.

    The quotient's rows are grouped by ``fiber_bottoms``.  A fiber is an
    interval of the weak order, which is graded by length, so its top is
    its unique longest member; the lengths are the inversion counts of
    ``inversion_columns``.  All but the fibers is found on the call, so a
    refused enumeration raises there; O(m n) is held however many are taken.
    """
    rows = quotient_rows(alpha, cap)
    bottoms = fiber_bottoms(alpha, rows)
    lengths = sum(block.sum(axis=1, dtype=np.int32) for block in inversion_columns(rows))
    # Rows come in right-part order, so bottom indices and each block are sorted.
    grouped = np.argsort(bottoms, kind="stable")
    starts = np.flatnonzero(np.diff(bottoms[grouped], prepend=-1))
    tops = np.lexsort((-lengths, bottoms))[starts]
    ends = np.append(starts[1:], len(rows))
    spans = zip(bottoms[grouped[starts]], tops, starts, ends)
    return (ThetaClass(rows[b], rows[t], rows[grouped[lo:hi]]) for b, t, lo, hi in spans)


def theta_classes(alpha: Composition, cap: int | None = None) -> list[ThetaClass]:
    """The fibers of the downward projection as rows, ordered by their bottom element.

    Each top is its fiber's longest member; see ``iter_theta_classes``.
    """
    return list(iter_theta_classes(alpha, cap))
