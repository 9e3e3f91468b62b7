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

from .parabolic import Composition, quotient_rows
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
    """Long one-line notation, transposed: row t holds position -n..-1, 1..n.

    One column per element.  Accepts an array or a sequence of right parts
    and keeps their dtype.
    """
    right = np.asarray(rows)
    n = right.shape[1]
    long = np.empty((2 * n, len(right)), dtype=right.dtype)
    long[n:] = right.T
    np.negative(long[n:][::-1], out=long[:n])
    return long


@lru_cache(maxsize=None)
def _scan_plan(alpha: Composition):
    """Per-composition pair/middle index plan for the vectorized pattern scan."""
    n = alpha.n
    a1 = alpha.first_part
    positions = list(range(-n, 0)) + list(range(1, n + 1))
    idx = {p: t for t, p in enumerate(positions)}
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
                (js_high if alpha.split or j > a1 else js_low).append(idx[j])
            if js_low or js_high:
                plan.append(
                    (idx[i], idx[k], tuple(js_low), tuple(js_high))
                )
    return tuple(plan)


def aligned_mask(alpha: Composition, rows) -> np.ndarray:
    """Boolean mask over right-part rows: True where the element avoids 231 patterns.

    ``rows`` is a (m, n) integer array or a sequence of right parts.  For each
    outer pair (i, k) of the scan plan, the cover test pi(i) = succ(pi(k)) is
    evaluated on every row; the middle-entry max/min is then evaluated only on
    the covered rows, gathered into a smaller array.
    """
    long = _long_array(rows)
    succ = long + 1
    succ[long == -1] = 1
    viol = np.zeros(long.shape[1], dtype=bool)
    for ii, kk, js_low, js_high in _scan_plan(alpha):
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
    return ~viol


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
    rows = quotient_rows(alpha, cap, sort=False)
    return int(aligned_mask(alpha, rows).sum())


def enumerate_aligned(
    alpha: Composition, cap: int | None = None
) -> list[SignedPermutation]:
    """Members of the quotient avoiding 231 patterns, in right-part order."""
    rows = quotient_rows(alpha, cap)
    return [SignedPermutation(r) for r in rows[aligned_mask(alpha, rows)].tolist()]
