"""Projections onto pattern-avoiding representatives and their fibers.

Eliminating a 231 pattern swaps the consecutive values at its outer positions,
shortening the element by one; iterating, whichever pattern goes first,
reaches the unique maximal 231-avoider below the input.  The dual elimination
of 312 patterns, conjugated by the order-reversing involution iota, climbs to
the top of the fiber.  The fibers partition the quotient into intervals, one
per aligned element; ``fiber_bottoms`` eliminates one of each row's 231
patterns, named by the scan it shares with ``aligned_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .alignment import (
    PatternWitness,
    _long_array,
    _require_member,
    _scan_plan,
    _violations,
    find_231_pattern,
    find_312_pattern,
)
from .parabolic import Composition, longest_element, quotient_rows
from .signed_perm import SignedPermutation


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
    if config.debug_crosschecks:
        if image != pi.compose(longest_element(alpha)):
            raise AssertionError(f"iota cross-check failed for {alpha}, {pi}")
    return image


def project_up(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Least element of pi's fiber seen from above: iota-conjugated 312 projection."""
    return iota(alpha, project_onto_312(alpha, iota(alpha, pi)))


@dataclass(frozen=True)
class ThetaClass:
    """One fiber of the downward projection: the interval [bottom, top]."""

    bottom: SignedPermutation
    top: SignedPermutation
    members: tuple[SignedPermutation, ...]

    def to_json(self) -> dict:
        return {
            "bottom": self.bottom.format(),
            "top": self.top.format(),
            "members": [pi.format() for pi in self.members],
        }


def eliminate_231(alpha: Composition, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows holding a 231 pattern, and each with one of its patterns eliminated.

    ``rows`` is a (m, n) integer array or a sequence of right parts.  The
    scan behind ``aligned_mask`` names a plan entry for each such row; the
    values at the entry's outer positions i and k, u + 1 and u, trade places
    as in ``eliminate_pattern``.  Returns the row indices and the new rows.
    """
    right = np.asarray(rows)
    plan = _scan_plan(alpha)
    long = _long_array(right)
    entry = _violations(long, plan)
    hit = np.flatnonzero(entry >= 0)
    outer = np.array([e[:2] for e in plan], dtype=np.intp).reshape(-1, 2)
    rows_i, rows_k = outer[entry[hit]].T
    vi, vk = long[rows_i, hit], long[rows_k, hit]
    # Long row 2p - 2 holds position p and row 2p - 1 position -p; k > 0.
    eliminated = right[hit]
    at = np.arange(len(hit))
    eliminated[at, rows_k // 2] = vi
    eliminated[at, rows_i // 2] = np.where(rows_i % 2, -vk, vk)
    return hit, eliminated


def _row_codes(right: np.ndarray) -> np.ndarray:
    """One integer per row, equal exactly for equal rows: digits base 2n + 1."""
    n = right.shape[1]
    base = 2 * n + 1
    dtype = np.int64 if base**n <= np.iinfo(np.int64).max else object
    weights = np.array([base**p for p in range(n)], dtype=dtype)
    return (right.astype(dtype) + n) @ weights


def fiber_bottoms(alpha: Composition, rows) -> np.ndarray:
    """Index of each row's downward projection among ``rows``.

    ``rows`` is a (m, n) integer array or a sequence of right parts, and
    rows with equal bottoms share a fiber.  An aligned row is its own
    bottom; any other row has the bottom of the row that ``eliminate_231``
    takes it to, which must be among ``rows`` (else ValueError).  Every
    elimination stays in the fiber, so this is the recursion of
    ``project_down``, resolved for all rows at once by pointer jumping.
    """
    right = np.asarray(rows)
    hit, eliminated = eliminate_231(alpha, right)
    codes = _row_codes(right)
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    wanted = _row_codes(eliminated)
    at = np.searchsorted(ranked, wanted).clip(max=len(ranked) - 1)
    missing = np.flatnonzero(ranked[at] != wanted)
    if missing.size:
        r = missing[0]
        raise ValueError(
            f"a 231 pattern of {','.join(map(str, right[hit[r]]))} eliminates"
            f" to {','.join(map(str, eliminated[r]))}, which is not among the rows"
        )
    bottoms = np.arange(len(right))
    bottoms[hit] = order[at]
    while not np.array_equal(jumped := bottoms[bottoms], bottoms):
        bottoms = jumped
    return bottoms


def theta_classes(alpha: Composition, cap: int | None = None) -> list[ThetaClass]:
    """The fibers of the downward projection, ordered by their bottom element."""
    rows = quotient_rows(alpha, cap)
    members = [SignedPermutation(r) for r in rows.tolist()]
    groups: dict[int, list[SignedPermutation]] = {}
    for pi, bottom in zip(members, fiber_bottoms(alpha, rows).tolist()):
        groups.setdefault(bottom, []).append(pi)
    # Rows come in right-part order, so bottom indices and each block are sorted.
    return [
        ThetaClass(members[b], project_up(alpha, members[b]), tuple(groups[b]))
        for b in sorted(groups)
    ]
