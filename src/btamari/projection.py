"""Projections onto pattern-avoiding representatives and their fibers.

Eliminating a 231 pattern swaps the consecutive values at its outer positions,
shortening the element by one; iterating reaches the unique maximal
231-avoider below the input.  The dual elimination of 312 patterns, conjugated
by the order-reversing involution iota, climbs to the top of the fiber.  The
fibers partition the quotient into intervals, one per aligned element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import config
from .alignment import (
    PatternWitness,
    _descending_below,
    _long_array,
    _long_row,
    find_231_pattern,
    find_312_pattern,
    _require_member,
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


@lru_cache(maxsize=None)
def _witness_plan(alpha: Composition):
    """Every candidate 231 triple, in the order ``find_231_pattern`` tries them.

    That order is j ascending, then i through ``_descending_below``; the last
    position k is fixed by the row, so at most one k matches each (j, i).
    Returns long-array rows of i, j and k, whether the middle entry must
    exceed the outer pair (outside the join region) or undercut it, and the
    signed positions i and k.
    """
    n = alpha.n
    triples = []
    for j in range(1, n + 1):
        bj = alpha.block_id(j)
        high = alpha.split or j > alpha.first_part
        for i in _descending_below(j, n):
            bi = alpha.block_id(i)
            if bi == bj:
                continue
            for k in range(j + 1, n + 1):
                bk = alpha.block_id(k)
                if bk != bi and bk != bj:
                    triples.append((_long_row(i), _long_row(j), _long_row(k), high, i, k))
    columns = np.array(triples, dtype=np.intp).reshape(-1, 6).T
    rows_i, rows_j, rows_k, high, pos_i, pos_k = columns
    return rows_i, rows_j, rows_k, high.astype(bool)[:, None], pos_i, pos_k


# Each chunk of the witness scan keeps its temporaries near this many entries.
_WITNESS_BLOCK = 2**18


def first_231_eliminations(alpha: Composition, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows that hold a 231 pattern, and each with its first pattern eliminated.

    ``rows`` is a (m, n) integer array or a sequence of right parts.  Returns
    the indices of the rows holding a pattern and, in the same order, the
    rows ``eliminate_pattern(pi, find_231_pattern(alpha, pi))``: the values
    at the witness's outer positions i and k, u + 1 and u, trade places.
    """
    right = np.asarray(rows)
    rows_i, rows_j, rows_k, high, pos_i, pos_k = _witness_plan(alpha)
    if not len(rows_i):
        return np.empty(0, dtype=np.intp), right[:0]
    long = _long_array(right)
    first = np.full(len(right), -1, dtype=np.intp)
    step = max(1, _WITNESS_BLOCK // (len(rows_i) + 1))
    for lo in range(0, len(right), step):
        part = long[:, lo:lo + step]
        vi, vj, vk = part[rows_i], part[rows_j], part[rows_k]
        succ_k = vk + 1
        succ_k[vk == -1] = 1
        found = (vi == succ_k) & np.where(high, vj > vi, vj < vk)
        first[lo:lo + step] = np.where(found.any(axis=0), found.argmax(axis=0), -1)
    hit = np.flatnonzero(first >= 0)
    t = first[hit]
    vi, vk = long[rows_i[t], hit], long[rows_k[t], hit]
    eliminated = right[hit]
    at = np.arange(len(hit))
    eliminated[at, pos_k[t] - 1] = vi
    eliminated[at, np.abs(pos_i[t]) - 1] = np.where(pos_i[t] > 0, vk, -vk)
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
    bottom; any other row has the bottom of the row its first 231 pattern
    eliminates to, which must be among ``rows`` (else ValueError).  That is
    the recursion of ``project_down``, resolved for all rows at once by
    pointer jumping.
    """
    right = np.asarray(rows)
    hit, eliminated = first_231_eliminations(alpha, right)
    codes = _row_codes(right)
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    wanted = _row_codes(eliminated)
    at = np.searchsorted(ranked, wanted).clip(max=len(ranked) - 1)
    missing = np.flatnonzero(ranked[at] != wanted)
    if missing.size:
        r = missing[0]
        raise ValueError(
            f"the first 231 pattern of {','.join(map(str, right[hit[r]]))} eliminates"
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
