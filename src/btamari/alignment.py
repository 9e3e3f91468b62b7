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

from .parabolic import (
    Composition,
    _identity_state,
    _place_block,
    is_member,
    lex_sorted,
    resolve_cap,
)
from .signed_perm import POS, SIGN, Reflection, SignedPermutation, predecessor


@dataclass(frozen=True)
class Decomposition:
    """target = a * left + b * right as positive roots."""

    target: Reflection
    left: Reflection
    right: Reflection
    a: int = 1
    b: int = 1


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


def _require_member(alpha: Composition, pi: SignedPermutation):
    if not is_member(alpha, pi):
        raise ValueError(f"{pi} is not a member of the quotient for {alpha}")


def _descending_below(j: int, n: int):
    """Candidate first indices i < j, largest first."""
    yield from range(j - 1, 0, -1)
    yield from range(-1, -n - 1, -1)


def _find_pattern(alpha, pi, kind):
    """Shared scan for 231 and 312 patterns, yielding each in turn.

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
                yield PatternWitness(i, j, k, flavor)


def find_231_pattern(
    alpha: Composition, pi: SignedPermutation
) -> Optional[PatternWitness]:
    return next(_find_pattern(alpha, pi, "231"), None)


def find_312_pattern(
    alpha: Composition, pi: SignedPermutation
) -> Optional[PatternWitness]:
    return next(_find_pattern(alpha, pi, "312"), None)


def is_aligned(alpha: Composition, pi: SignedPermutation) -> bool:
    """Pattern-based alignment test; the fastest of the three characterizations."""
    return find_231_pattern(alpha, pi) is None


# -- batch evaluation ---------------------------------------------------------


@lru_cache(maxsize=None)
def _block_plan(split: bool, parts: tuple[int, ...], start: int | None = None):
    """The scan-plan entries that read a position past ``start``, by k, then i.

    ``start`` defaults to the positions before the last of ``parts``'
    blocks, giving the entries read once that block is placed; 0 gives the
    whole plan.  An entry ``(k, low, high, outer)`` names a position k > 0
    and a range ``outer`` of outer positions i < k, outside k's block, that
    share their middle positions: the j > 0 between i and k outside the
    blocks of i and k.  ``high`` holds those where pi(j) must exceed pi(i)
    (every j of a split composition, and j past the join region), ``low``
    those where pi(j) must fall below pi(k), each as the slice of their
    columns (j - 1 for position j), or None when empty.  Only the i with
    max(|i|, k) > ``start`` are kept, in entries with a middle position.

    A middle set depends on the blocks of i and k only, because blocks are
    runs of consecutive positions: k's block K cuts off p_{K-1} + 1 .. k - 1
    (p the prefix sums), and i's block a run at the start.  So with c = a_1
    for a join composition and c = 0 for a split one, the middle run is
    1 .. p_{K-1} for a negative i below -c (in a negative block),
    c + 1 .. p_{K-1} for -c <= i < 0 (in block 1 with the join region,
    so K > 1), and p_I + 1 .. p_{K-1} for a positive i in block I < K.
    The join region is 1 .. c, so ``low`` and ``high`` are one run each,
    and each k takes at most r + 1 steps.  An entry reads no position past
    max(|i|, k), fixed by the split flag and the parts so far, so
    compositions sharing a prefix share its plans.
    """
    p = Composition(parts, split).prefix
    w = p[-1]
    if start is None:
        start = p[-2]
    c = 0 if split else parts[0]
    plan = []
    for b in range(1, len(parts) + 1):
        end = p[b - 1]
        # (the first middle position, the outer positions) per group, in i order
        groups = [(1, range(-w, -c))]
        if c and b > 1:
            groups.append((c + 1, range(-c, 0)))
        groups += [(p[a] + 1, range(p[a - 1] + 1, p[a] + 1)) for a in range(1, b)]
        for k in range(end + 1, p[b] + 1):
            for first, outer in groups:
                if k <= start:  # then |i| > start, so i < -start
                    outer = range(outer.start, min(outer.stop, -start))
                if first > end or not outer:
                    continue
                low = (first - 1, min(end, c)) if first <= c else None
                high = (max(first, c + 1) - 1, end) if end > c else None
                plan.append((k, low, high, outer))
    return tuple(plan)


def _scan_plan(alpha: Composition):
    """The whole composition's scan plan (``_block_plan`` from ``start = 0``)."""
    return _block_plan(alpha.split, alpha.parts, 0)


def _held(cols: np.ndarray, plan):
    """Per outer pair (i, k), in plan order, the mask of the elements holding its 231 pattern.

    ``cols`` is position major: one array row per position and one column
    per element's right part, or its first w positions when the plan reads
    no position past w.  A position's values are one dense vector, read in
    place with no copy; negative positions are never stored.  An element
    holds a pair when it has the pair's 231 pattern: pi(i) = succ(pi(k)),
    and a middle value above pi(i) (``high``) or below pi(k) (``low``).
    Each middle span is reduced once per call, to its maximum or minimum.
    The middle test reads k and the spans only, so per entry it is folded
    into one target vector, succ(pi(k)) where the test holds and 0 (no
    value) elsewhere; each i of the entry's range is then one comparison of
    pi(i) with it.  A negative i reads its positive position against the
    negated target, which is 0 where the target is.  Every step is a dense
    pass over all elements, with no gather and no masked store.
    """
    lowest = {s: cols[slice(*s)].min(axis=0) for s in {e[1] for e in plan} - {None}}
    highest = {s: cols[slice(*s)].max(axis=0) for s in {e[2] for e in plan} - {None}}
    at = None
    for k, low, high, outer in plan:
        if k != at:  # entries come k by k
            at = k
            u = cols[k - 1]
            v = u + 1  # succ(pi(k)): 1 after -1, v + 1 otherwise
            v += v == 0
        if high is None:
            middle = lowest[low] < u
        elif low is None:
            middle = highest[high] > v
        else:
            middle = (highest[high] > v) | (lowest[low] < u)
        target = v * middle
        if outer.start < 0:
            target = -target
        for i in outer:
            yield cols[abs(i) - 1] == target


def _violations(rows: np.ndarray, plan) -> np.ndarray:
    """Per row, the index of the last outer pair it holds (see ``_held``), or -1.

    ``rows`` is row major, one right part per row; it is transposed once
    for ``_held``.  Pairs are counted in plan order, each entry's range in
    turn.  A running maximum of the codes t + 1, in the narrowest unsigned
    dtype, keeps the last pair held.
    """
    cols = np.ascontiguousarray(rows.T)
    code = np.min_scalar_type(sum(len(e[3]) for e in plan)).type
    last = np.zeros(cols.shape[1], dtype=code)
    for t, held in enumerate(_held(cols, plan)):
        np.maximum(last, held.view(np.uint8) * code(t + 1), out=last)
    found = last.astype(np.intp)
    found -= 1
    return found


def _avoids(cols: np.ndarray, plan) -> np.ndarray:
    """True for the elements, columns of the position-major ``cols``, that
    hold no outer pair of the plan (see ``_held``)."""
    bad = np.zeros(cols.shape[1], dtype=bool)
    for held in _held(cols, plan):
        bad |= held
    return ~bad


def aligned_mask(alpha: Composition, rows) -> np.ndarray:
    """Boolean mask over right-part rows: True where the element avoids 231 patterns.

    ``rows`` is a (m, n) integer array or a sequence of right parts; it is
    transposed once, and every entry of the scan plan is tested on every
    row.
    """
    return _avoids(np.ascontiguousarray(np.asarray(rows).T), _scan_plan(alpha))


def _grow(state: np.ndarray, split: bool, parts: tuple[int, ...], cap: int):
    """One block step of the pruned build: the last of ``parts``' blocks placed.

    ``state`` holds the kept elements, position major, with the blocks
    before it placed.  The block is placed by ``_place_block``, whose cap
    check bounds the columns held; an element whose filled positions hold a
    pattern of the block's plan is to be dropped, since every completion
    keeps that pattern.  The prune reads the filled positions' rows in
    place.  Returns the new state and the mask of the columns to keep.
    """
    p = parts[-1]
    w = sum(parts)
    state = _place_block(state, w - p, p, split or len(parts) > 1, cap)
    return state, _avoids(state[:w], _block_plan(split, parts))


def aligned_rows(alpha: Composition, cap: int | None = None) -> np.ndarray:
    """Right parts of the quotient's 231-avoiding members, in build order.

    The rows are built as in ``quotient_rows``, one ``_grow`` step per
    block, keeping the columns each step keeps.  After the last block every
    scan-plan entry has run, so the rows left are those ``aligned_mask``
    keeps.  They are the position-major state transposed, a
    Fortran-ordered view.  The cap bounds the rows held, not the quotient
    size: before each block is placed, the rows kept so far times the
    block's choices and signings (``CapExceededError.required`` when it is
    exceeded).
    """
    cap = resolve_cap(cap)
    state = _identity_state(alpha.n)
    for b in range(alpha.r):
        state, kept = _grow(state, alpha.split, alpha.parts[:b + 1], cap)
        state = np.compress(kept, state, axis=1)
    return state.T


def count_aligned_subtree(
    n: int, split: bool, first: int, cap: int | None = None
) -> list[int]:
    """Aligned elements of the compositions with this split flag and first
    part, by degree: entry w - 1 counts those of degree w <= n.

    The tree of n's composition prefixes is walked depth first, each node
    (parts summing to w) taking the ``_grow`` step of its last block on its
    parent's kept rows.  Its kept rows holding +-1 .. +-w (w + 1 at position
    w + 1) are the aligned members of degree w with its parts: each plan
    entry of those parts reads positions <= w only, comparing values there
    with each other or with succ of one of them, and succ(w) = w + 1 sits at
    no position <= w in either degree.  Every step of a composition of n is
    a node, and a lower degree's step holds no more rows than its node, so
    the cap refuses exactly when ``count_aligned`` refuses one of them,
    raising the first count above it in walk order.
    """
    cap, counts = resolve_cap(cap), [0] * n
    todo = [(_identity_state(n), (first,))]
    while todo:
        state, parts = todo.pop()
        state, kept = _grow(state, split, parts, cap)
        w = sum(parts)
        counts[w - 1] += int(np.count_nonzero(kept if w == n else kept & (state[w] == w + 1)))
        if w < n:
            state = np.compress(kept, state, axis=1)
            todo += [(state, parts + (q,)) for q in range(n - w, 0, -1)]
        del kept  # a leaf's mask is freed before the next step allocates
    return counts


def left_descents(rows) -> np.ndarray:
    """The left descents of right-part rows, as an (n, m) boolean mask.

    Entry [s, x] says that s x is one shorter than row x: for s_0, -1 sits
    at a positive position; for s_k, k + 1 sits left of k in long one-line
    notation.  These are the right descents of the inverse (A. Björner and
    F. Brenti, Combinatorics of Coxeter Groups, GTM 231, §8.1).
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
    return np.vstack((pos[:1] < 0, pos[1:] < pos[:-1]))


def cover_counts(rows) -> np.ndarray:
    """Number of cover inversions for each right-part row: x covers s x for
    each of its ``left_descents`` s."""
    return left_descents(rows).sum(axis=0)


def count_aligned(alpha: Composition, cap: int | None = None) -> int:
    return len(aligned_rows(alpha, cap))


def enumerate_aligned(
    alpha: Composition, cap: int | None = None
) -> list[SignedPermutation]:
    """Members of the quotient avoiding 231 patterns, in right-part order."""
    return [SignedPermutation(r) for r in lex_sorted(aligned_rows(alpha, cap)).tolist()]
