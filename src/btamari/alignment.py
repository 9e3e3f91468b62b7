"""Aligned elements of a parabolic quotient, three ways.

An element is aligned when every cover inversion forces the prescribed
earlier inversions relative to the inversion order of the longest element's
sorting word.  The module implements the root-level definition (driven by the
table of two-term positive-root decompositions), the explicit forcing
conditions, and the pattern-avoidance characterization, plus the dual 312
patterns used by the upward projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .parabolic import Composition, _build_rows
from .signed_perm import POS, SIGN, Reflection, SignedPermutation, predecessor


@dataclass(frozen=True)
class Decomposition:
    """target = a * left + b * right as positive roots."""

    target: Reflection
    left: Reflection
    right: Reflection
    a: int = 1
    b: int = 1


def root_vector(t: Reflection, n: int) -> tuple[int, ...]:
    """Coordinates of the positive root attached to a reflection."""
    v = [0] * n
    if t.kind == SIGN:
        v[t.i - 1] = 1
    elif t.kind == POS:
        v[t.i - 1] = -1
        v[t.j - 1] = 1
    else:
        v[t.i - 1] = 1
        v[t.j - 1] = 1
    return tuple(v)


def decompositions(t: Reflection, n: int) -> list[Decomposition]:
    """All ways to write t's root as a positive combination of two positive roots."""
    if t.max_index() > n:
        raise ValueError(f"reflection {t} out of range for degree {n}")
    out = []
    if t.kind == SIGN:
        for j in range(1, t.i):
            out.append(
                Decomposition(t, Reflection.transposition(j, t.i), Reflection.sign(j))
            )
    elif t.kind == POS:
        for j in range(t.i + 1, t.j):
            out.append(
                Decomposition(
                    t,
                    Reflection.transposition(t.i, j),
                    Reflection.transposition(j, t.j),
                )
            )
    else:
        i, k = t.i, t.j
        out.append(Decomposition(t, Reflection.sign(i), Reflection.sign(k)))
        for j in range(1, k):
            if j == i:
                out.append(
                    Decomposition(
                        t, Reflection.sign(i), Reflection.transposition(i, k), a=2
                    )
                )
            else:
                out.append(
                    Decomposition(
                        t, Reflection.mixed(i, j), Reflection.transposition(j, k)
                    )
                )
        for j in range(1, i):
            out.append(
                Decomposition(t, Reflection.transposition(j, i), Reflection.mixed(j, k))
            )
    return out


# -- root-level alignment ------------------------------------------------------


def is_aligned_root(
    pi: SignedPermutation, order: Sequence[Reflection]
) -> bool:
    """Alignment straight from the definition, against an inversion order.

    For every cover inversion t and every two-term decomposition of its root
    whose summands both occur in the order, if t sits between them the earlier
    summand must already be an inversion of pi.  Decompositions with a summand
    missing from the order are discarded.
    """
    pos = {t: idx for idx, t in enumerate(order)}
    inv = pi.inversion_set()
    if not inv <= pos.keys():
        raise ValueError("element is not below the top of the inversion order")
    for t in pi.cover_inversions():
        pt = pos[t]
        for dec in decompositions(t, pi.n):
            pl = pos.get(dec.left)
            pr = pos.get(dec.right)
            if pl is None or pr is None:
                continue
            if pl < pt < pr:
                needed = dec.left
            elif pr < pt < pl:
                needed = dec.right
            else:
                continue
            if needed not in inv:
                return False
    return True


# -- forcing conditions --------------------------------------------------------


def is_aligned_forcing(alpha: Composition, pi: SignedPermutation) -> bool:
    """Alignment via the explicit forcing conditions on cover inversions."""
    _require_member(alpha, pi)
    inv = pi.inversion_set()
    region = alpha.region_of
    a1 = alpha.first_part
    for t in pi.cover_inversions():
        if t.kind == SIGN:
            i = t.i
            for j in range(1, i):
                if alpha.join and j <= a1:
                    continue
                if region(j) < region(i) and Reflection.sign(j) not in inv:
                    return False
        elif t.kind == POS:
            i, k = t.i, t.j
            for j in range(i + 1, k):
                if region(i) < region(j) < region(k):
                    if Reflection.transposition(i, j) not in inv:
                        return False
        elif alpha.split:
            i, k = t.i, t.j
            if Reflection.sign(i) not in inv:
                return False
            for j in range(1, k):
                if j != i and region(j) < region(k):
                    if Reflection.mixed(i, j) not in inv:
                        return False
            for j in range(1, i):
                if region(j) < region(i):
                    if Reflection.mixed(j, k) not in inv:
                        return False
        else:
            i, k = t.i, t.j
            if i > a1 and Reflection.sign(i) not in inv:
                return False
            for j in range(1, k):
                if j == i or region(j) == region(k):
                    continue
                if j <= a1:
                    if i > a1 and Reflection.transposition(j, k) not in inv:
                        return False
                elif Reflection.mixed(i, j) not in inv:
                    return False
            for j in range(1, i):
                if region(j) == region(i):
                    continue
                if j <= a1:
                    if Reflection.transposition(j, i) not in inv:
                        return False
                elif Reflection.mixed(j, k) not in inv:
                    return False
    return True


# -- pattern characterizations ---------------------------------------------


@dataclass(frozen=True)
class PatternWitness:
    i: int
    j: int
    k: int
    flavor: str

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "k": self.k, "flavor": self.flavor}


def _require_member(alpha: Composition, pi: SignedPermutation):
    from .parabolic import is_member

    if not is_member(alpha, pi):
        raise ValueError(f"{pi} is not a member of the quotient for {alpha}")


def _descending_below(j: int, n: int):
    """Candidate first indices i < j, largest first."""
    yield from range(j - 1, 0, -1)
    yield from range(-1, -n - 1, -1)


def _find_pattern(alpha, pi, kind, first_only):
    """Shared scan for 231 and 312 patterns.

    A pattern is a triple i < j < k of positions in pairwise distinct blocks
    with j > 0 and pi(i) the successor of pi(k); the middle entry compares
    against the outer ones as dictated by the kind and by whether j lies in
    the join region.  The scan runs j ascending, then i descending, so the
    reported witness is deterministic.
    """
    _require_member(alpha, pi)
    n = alpha.n
    a1 = alpha.first_part
    split = alpha.split
    flavor = ("split-" if split else "join-") + kind
    found = []
    for j in range(1, n + 1):
        vj = pi.right[j - 1]
        bj = alpha.block_id(j)
        for i in _descending_below(j, n):
            vi = pi(i)
            u = predecessor(vi)
            if u < -n:
                continue
            k = pi.position(u)
            if k <= j or k > n:
                continue
            bi = alpha.block_id(i)
            bk = alpha.block_id(k)
            if bi == bj or bj == bk or bi == bk:
                continue
            vk = pi.right[k - 1]
            if kind == "231":
                ok = vj > vi if (split or j > a1) else vj < vk
            else:
                # A middle entry in the join region must be smaller than the
                # consecutive outer pair, for 312 just as for 231; that is the
                # reading under which the upward projection lands on fiber tops.
                ok = vk > vj if (split or j > a1) else vj < vi
            if ok:
                witness = PatternWitness(i, j, k, flavor)
                if first_only:
                    return witness
                found.append(witness)
    return None if first_only else found


def find_231_pattern(
    alpha: Composition, pi: SignedPermutation
) -> Optional[PatternWitness]:
    return _find_pattern(alpha, pi, "231", first_only=True)


def find_all_231_patterns(alpha, pi) -> list[PatternWitness]:
    return _find_pattern(alpha, pi, "231", first_only=False)


def find_312_pattern(
    alpha: Composition, pi: SignedPermutation
) -> Optional[PatternWitness]:
    return _find_pattern(alpha, pi, "312", first_only=True)


def is_aligned(alpha: Composition, pi: SignedPermutation) -> bool:
    """Pattern-based alignment test; the fastest of the three characterizations."""
    return find_231_pattern(alpha, pi) is None


# -- batch evaluation ---------------------------------------------------------


def _long_array(rows) -> np.ndarray:
    """Long one-line notation, transposed, one column per element.

    Row 2p - 2 holds position p and row 2p - 1 position -p, so a position's
    row does not depend on the degree: the rows of a partial row's first w
    positions are the first 2w rows of the full array.  Accepts an array or
    a sequence of right parts and keeps their dtype.
    """
    right = np.asarray(rows)
    long = np.empty((2 * right.shape[1], len(right)), dtype=right.dtype)
    long[0::2] = right.T
    np.negative(right.T, out=long[1::2])
    return long


def _long_row(p: int) -> int:
    return 2 * p - 2 if p > 0 else -2 * p - 1


@lru_cache(maxsize=None)
def _scan_plan(alpha: Composition):
    """Per-composition pair/middle row plan for the vectorized pattern scan."""
    n = alpha.n
    a1 = alpha.first_part
    positions = list(range(-n, 0)) + list(range(1, n + 1))
    plan = []
    for k in range(1, n + 1):
        bk = alpha.block_id(k)
        for i in positions:
            if i >= k:
                continue
            bi = alpha.block_id(i)
            if bi == bk:
                continue
            js_low, js_high = [], []
            for j in range(max(1, i + 1), k):
                bj = alpha.block_id(j)
                if bj == bi or bj == bk:
                    continue
                (js_high if alpha.split or j > a1 else js_low).append(_long_row(j))
            if js_low or js_high:
                plan.append(
                    (_long_row(i), _long_row(k), tuple(js_low), tuple(js_high))
                )
    return tuple(plan)


@lru_cache(maxsize=None)
def _block_plans(alpha: Composition):
    """The scan plan grouped by the block of each entry's last read position.

    That position is max(|i|, k); once its block is placed, the entry reads
    only filled positions.
    """
    plans = [[] for _ in alpha.parts]
    for entry in _scan_plan(alpha):
        last = max(entry[0], entry[1]) // 2 + 1
        plans[alpha.region_of(last) - 1].append(entry)
    return tuple(map(tuple, plans))


def _violations(long: np.ndarray, plan) -> np.ndarray:
    """Columns of a long array that hold a 231 pattern of some plan entry.

    For each outer pair (i, k), the cover test pi(i) = succ(pi(k)) runs on
    every column; the middle-entry max/min then runs only on the covered
    columns, gathered into a smaller array.
    """
    succ = long + 1
    succ[long == -1] = 1
    viol = np.zeros(long.shape[1], dtype=bool)
    for ii, kk, js_low, js_high in plan:
        hit = np.flatnonzero(long[ii] == succ[kk])
        if not len(hit):
            continue
        sub = np.take(long, hit, axis=1)
        cond = np.zeros(len(hit), dtype=bool)
        if js_high:
            cond |= sub[list(js_high)].max(axis=0) > sub[ii]
        if js_low:
            cond |= sub[list(js_low)].min(axis=0) < sub[kk]
        viol[hit[cond]] = True
    return viol


def aligned_mask(alpha: Composition, rows) -> np.ndarray:
    """Boolean mask over right-part rows: True where the element avoids 231 patterns.

    ``rows`` is a (m, n) integer array or a sequence of right parts; every
    entry of the scan plan is tested on every row.
    """
    return ~_violations(_long_array(rows), _scan_plan(alpha))


def aligned_rows(alpha: Composition, cap: int | None = None) -> np.ndarray:
    """Right parts of the quotient's 231-avoiding members, in build order.

    The rows are built block by block as in ``quotient_rows``, and once a
    block is placed a row whose filled positions hold a 231 pattern is
    dropped: every completion keeps that pattern.  After the last block every
    scan-plan entry has run, so the rows left are those ``aligned_mask``
    keeps.  The cap bounds the quotient size and is checked before anything
    is allocated.
    """
    plans = _block_plans(alpha)
    return _build_rows(
        alpha, cap, lambda b, rows: ~_violations(_long_array(rows), plans[b])
    )


def cover_counts(rows) -> np.ndarray:
    """Number of cover inversions for each right-part row.

    These are the values v in {-1, 1, ..., n - 1} whose successor (1 after -1,
    v + 1 otherwise) sits left of v in long one-line notation.
    """
    right = np.asarray(rows)
    m, n = right.shape
    # pos[x - 1] is the signed position of the value x: j where x sits at
    # position j, -j where -x does.
    pos = np.empty((n, m), dtype=right.dtype)
    cols = np.arange(m)
    for j in range(n):
        col = right[:, j]
        pos[np.abs(col) - 1, cols] = np.sign(col) * (j + 1)
    counts = (pos[0] < 0).astype(np.int64)
    counts += (pos[1:] < pos[:-1]).sum(axis=0)
    return counts


def count_aligned(alpha: Composition, cap: int | None = None) -> int:
    return len(aligned_rows(alpha, cap))


def enumerate_aligned(
    alpha: Composition, cap: int | None = None
) -> list[SignedPermutation]:
    """Members of the quotient avoiding 231 patterns, in right-part order."""
    rows = aligned_rows(alpha, cap)
    rows = rows[np.lexsort(rows.T[::-1])]
    return [SignedPermutation(r) for r in rows.tolist()]
