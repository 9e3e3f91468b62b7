"""Type-B compositions, parabolic quotients, and their longest elements.

A type-B composition of n is an integer composition with an optional leading
zero-component; compositions carrying the zero-component are *split*, the rest
are *join*.  Each composition indexes a parabolic quotient of the degree-n
hyperoctahedral group, realized as the set of sign-symmetric permutations
whose long one-line notation increases within every block of the associated
position partition.

The module also builds the skew-shape model of the quotient's longest
element: its reading word is the sorting word for the linear Coxeter element
c = s_0 s_1 ... s_{n-1}, and relabelling cells by reflections linearizes to
the inversion order of that word.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .errors import CapExceededError, CompositionError
from .signed_perm import (
    Reflection,
    SignedPermutation,
    generator_element,
    reflection_from_element,
)


# The largest degree whose values and their successors fit the int16 rows.
MAX_DEGREE = np.iinfo(np.int16).max - 1

DEFAULT_CAP = 2_000_000
CAP_ENV_VAR = "TAMARI_B_CAP"

# Values held count one element per ROW_VALUES against the cap.
ROW_VALUES = 64


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap if given, else the environment override, else the default."""
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}")
    if cap < 1:
        raise ValueError(f"enumeration cap must be at least 1, got {cap}")
    return cap


def check_cap(count: int, cap: int, width: int = 1) -> None:
    """Raise CapExceededError when ``count`` elements are above ``cap``, or
    when their ``count * width`` values, counted one element per
    ``ROW_VALUES``, are.  Every size bound of the package is this one rule,
    applied before what it bounds is allocated: a block step's columns of
    width n, a quotient's rows, and an m x m table (count m, width m).
    """
    if count > cap:
        raise CapExceededError(count, cap)
    if count * width > ROW_VALUES * cap:
        raise CapExceededError(-(-count * width // ROW_VALUES), cap)


@dataclass(frozen=True)
class Composition:
    """A type-B composition: positive parts plus a split flag.

    Its degree, the sum of the parts, is at most ``MAX_DEGREE``.
    """

    parts: tuple[int, ...]
    split: bool = False

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise CompositionError("composition needs at least one positive part")
        if any(not isinstance(p, int) or p < 1 for p in parts):
            raise CompositionError(f"parts must be positive integers, got {parts}")
        check_degree(sum(parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def join(self) -> bool:
        return not self.split

    @property
    def first_part(self) -> int:
        return self.parts[0]

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        """Prefix sums p_0 = 0, p_1, ..., p_r = n."""
        acc = [0]
        for p in self.parts:
            acc.append(acc[-1] + p)
        return tuple(acc)

    @cached_property
    def cuts(self) -> frozenset[int]:
        return frozenset(self.prefix[1:-1])

    def region_of(self, a: int) -> int:
        """The region index i with p_{i-1} < a <= p_i."""
        if not 1 <= a <= self.n:
            raise CompositionError(f"position {a} out of range for n = {self.n}")
        return bisect_left(self.prefix, a)

    def block_id(self, a: int) -> int:
        """Identifier of the position-partition block containing the signed position a.

        Mirrored blocks get opposite signs; for a join composition the central
        block spans both signs of the first region.
        """
        if a == 0 or abs(a) > self.n:
            raise CompositionError(f"position {a} out of range for n = {self.n}")
        i = self.region_of(abs(a))
        if a > 0:
            return i
        if self.join and i == 1:
            return 1
        return -i

    @classmethod
    def parse(cls, text: str) -> "Composition":
        tokens = [t.strip() for t in text.strip().split(",") if t.strip()]
        if not tokens:
            raise CompositionError("empty composition string")
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:
            raise CompositionError(f"cannot parse {text!r}") from exc
        split = values[0] == 0
        parts = values[1:] if split else values
        return cls(tuple(parts), split)

    def format(self) -> str:
        body = ",".join(str(p) for p in self.parts)
        return f"0,{body}" if self.split else body

    def __str__(self) -> str:
        return self.format()


def check_degree(n: int) -> None:
    """Raise CompositionError when the degree n is above ``MAX_DEGREE``."""
    if n > MAX_DEGREE:
        raise CompositionError(
            f"degree {n} is above the largest supported, {MAX_DEGREE}"
        )


def all_compositions(n: int) -> list[Composition]:
    """All 2^n type-B compositions of n: joins first, then splits, each by cut mask."""
    if n < 1:
        raise CompositionError("n must be at least 1")
    out = []
    for split in (False, True):
        for mask in range(1 << (n - 1)):
            cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
            bounds = [0] + cuts + [n]
            parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            out.append(Composition(parts, split))
    return out


# -- quotient membership and enumeration -------------------------------------


def is_member(alpha: Composition, pi: SignedPermutation) -> bool:
    """Whether pi is a minimal-length coset representative for alpha."""
    if pi.n != alpha.n:
        raise ValueError("degree mismatch between composition and permutation")
    right = pi.right
    if alpha.join and right[0] < 0:
        return False
    cuts = alpha.cuts
    return all(
        right[i - 1] < right[i] for i in range(1, alpha.n) if i not in cuts
    )


def quotient_size(alpha: Composition) -> int:
    """The number of quotient members: a multinomial coefficient, times 2^t.

    The multinomial is the product over the parts of C(left, p), left the
    degree not yet taken by earlier parts, which stays exact and takes far
    less time than dividing n! by each p!; t is the number of signed
    positions, all of them but a join composition's first block.
    """
    size, left = 1, alpha.n
    for p in alpha.parts:
        size *= comb(left, p)
        left -= p
    return size << (alpha.n - (alpha.first_part if alpha.join else 0))


def _split_slots(free: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every way to take p of ``free`` sorted slots: taken and left slots, by row.

    Taken slots run in lexicographic order.  Only the shorter side is listed:
    the complements of that order run in reverse lexicographic order.
    """
    short = min(p, free - p)
    chosen = np.array(list(itertools.combinations(range(free), short)), dtype=np.intp)
    if short < p:
        chosen = chosen[::-1]
    keep = np.ones((len(chosen), free), dtype=bool)
    keep[np.arange(len(chosen))[:, None], chosen] = False
    # Slot numbers masked from a broadcast row: np.nonzero would also list
    # the row index of every kept slot.
    slots = np.broadcast_to(np.arange(free), keep.shape)
    rest = slots[keep].reshape(len(chosen), free - short)
    return (chosen, rest) if short == p else (rest, chosen)


def _sign_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots and signs that sort each signing of an ascending positive block.

    Row ``mask`` negates the slots whose bit is set: the negated values come
    first by decreasing absolute value, then the others in increasing order.
    """
    slot = np.arange(p)
    negated = (np.arange(1 << p)[:, None] >> slot & 1).astype(bool)
    slots = np.argsort(np.where(negated, -1 - slot, slot), axis=1)
    signs = np.where(np.take_along_axis(negated, slots, axis=1), -1, 1)
    return slots, signs.astype(np.int8)


@lru_cache(maxsize=None)
def _block_gather(n: int, w: int, p: int, signed: bool):
    """Gather index and signs that place one block of p values after w filled ones.

    A state holds, per position, one array row: its w filled positions,
    then its n - w free values in ascending order.  The index is position
    major, one row per position and one column per way to place the block.
    Column c, for each way c of ``_split_slots(n - w, p)`` to take p of the
    free values, keeps the filled prefix, puts the taken values in
    positions w .. w + p - 1 and the values left after them, both
    ascending.  For a signed block, column s * C + c (C the ways to take
    the values) also sorts the block as signing s of ``_sign_table(p)``
    does, and the signs, one row per block position, negate its negated
    values; an unsigned block has no signs.  Built once per (n, w, p,
    signed) and shared, so the arrays are read-only.
    """
    taken, left = _split_slots(n - w, p)
    pick = np.empty((n, len(taken)), dtype=np.intp)
    pick[:w] = np.arange(w)[:, None]
    np.add(taken.T, w, out=pick[w:w + p])
    np.add(left.T, w, out=pick[w + p:])
    signs = None
    if signed:
        slots, block_signs = _sign_table(p)
        order = np.tile(np.arange(n), (len(slots), 1))
        order[:, w:w + p] = w + slots
        pick = pick[order].transpose(1, 0, 2).reshape(n, -1)
        signs = np.repeat(block_signs.T, len(taken), axis=1)
        signs.setflags(write=False)
    pick.setflags(write=False)
    return pick, signs


def _identity_state(n: int) -> np.ndarray:
    """The state before any block is placed: one element, 1 .. n, all free.

    States are position major, an (n, rows) array with one contiguous
    array row per position.  The dtype is int8, or int16 when n + 1 does
    not fit in int8; n + 1 fits int16 up to ``MAX_DEGREE``.
    """
    dtype = np.int8 if n + 1 <= np.iinfo(np.int8).max else np.int16
    return np.arange(1, n + 1, dtype=dtype)[:, None]


def _place_block(state: np.ndarray, w: int, p: int, signed: bool, cap: int) -> np.ndarray:
    """Every state column with one more block of p values placed after its w filled ones.

    ``state`` is position major (see ``_identity_state``).  One gather by
    ``_block_gather`` takes every choice of the block's ascending values
    from the free ones and, if the block is signed, every signing of them;
    it copies whole position rows, so new column j * rows + i is old
    column i under way j to place the block.  A signed block's positions
    are multiplied by the signs.  The columns made are the old ones times
    the block's choices times its signings.  ``cap`` bounds that count
    and, by ``check_cap`` with width n, the values the columns hold, then
    those values with the gather index's (n per way to place the block)
    and the slot lists' (under n per choice), built beside it, all before
    the tables are built.
    """
    n, rows = state.shape
    choices = comb(n - w, p)
    ways = choices << (p * signed)
    held = rows * ways
    check_cap(held, cap, n)
    check_cap(1, cap, (held + ways + choices) * n)
    pick, signs = _block_gather(n, w, p, signed)
    state = np.take(state, pick, axis=0)
    if signs is not None:
        state[w:w + p] *= signs[:, :, None]
    return state.reshape(n, held)


def _build_rows(alpha: Composition, cap: int | None) -> np.ndarray:
    """Rows of all quotient members, block by block.

    One position-major (n, rows) state holds each element's filled prefix,
    then its still-free values in ascending order; ``_place_block`` places
    one block at a time.  The cap bounds ``quotient_size`` and is checked
    before anything is allocated, so a block's gather tables have at most
    ``cap`` columns; each step's check bounds their width as well.  The
    rows returned are the state transposed, a Fortran-ordered view.

    Rows come in build order, the latest block the most significant: by
    the last block's sign mask, then its values, then the sign mask of the
    block before it, then its values, and so on; bit t of a block's mask
    negates its t-th smallest value.
    """
    cap = resolve_cap(cap)
    check_cap(quotient_size(alpha), cap)
    state = _identity_state(alpha.n)
    for b, p in enumerate(alpha.parts):
        state = _place_block(state, alpha.prefix[b], p, alpha.split or b > 0, cap)
    return state.T


def lex_sorted(rows: np.ndarray) -> np.ndarray:
    """The rows in lexicographic order, the order of their right-part tuples."""
    return rows[np.lexsort(rows.T[::-1])]


def quotient_rows(alpha: Composition, cap: int | None = None) -> np.ndarray:
    """Right parts of all quotient members, as a (quotient_size, n) integer array.

    The cap is checked before anything is allocated.  The dtype is int8, or
    int16 when n + 1 does not fit in int8.  Rows are built by broadcasting,
    block by block: each block's ascending values out of those left, then
    the block's signings.  They are returned in lexicographic order, the
    order of the members' right-part tuples.
    """
    return lex_sorted(_build_rows(alpha, cap))


def inversion_columns(rows):
    """The inversion sets of right-part rows, one boolean column block per position.

    Block i (from 1) marks, for each row r, the inversions whose smaller
    position is i, by the rules of ``SignedPermutation.inversion_set``: the
    sign inversion [[i]] when r_i < 0, then for each j > i the positive
    ((i j)) when r_i > r_j, then the mixed ((-j i)) when r_i < -r_j.  Each
    block holds at most 2n - 1 columns, so a caller that reduces the blocks
    one at a time holds O(m n) booleans, not the m n^2 of the whole table.
    """
    right = np.asarray(rows)
    for i in range(right.shape[1]):
        r_i, later = right[:, i:i + 1], right[:, i + 1:]
        yield np.concatenate([r_i < 0, r_i > later, r_i < -later], axis=1)


# -- longest element and its skew-shape model ---------------------------------


def longest_element(alpha: Composition) -> SignedPermutation:
    """The weak-order maximum of the quotient."""
    return SignedPermutation(_longest_right(alpha))


def _longest_right(alpha: Composition) -> tuple[int, ...]:
    """The right part of ``longest_element``: a join composition's first
    block stays ascending, and every other block is negated and reversed."""
    p = alpha.prefix
    right = []
    for a in range(1, alpha.n + 1):
        i = alpha.region_of(a)
        if alpha.join and i == 1:
            right.append(a)
        else:
            right.append(-(p[i] + p[i - 1] + 1 - a))
    return tuple(right)


def parabolic_length(alpha: Composition) -> int:
    n = alpha.n
    total = n * n - sum(comb(p, 2) for p in alpha.parts)
    if alpha.join:
        total -= comb(alpha.first_part + 1, 2)
    return total


def tableau_cells(alpha: Composition):
    """The skew shape's mu and lam, and its cells' labels, row by row.

    Row k (from 1) occupies columns mu_k + 1 .. lam_k, and each of its cells
    is (col, row_label, col_label, generator, reflection), left to right.
    The row label is a1 + 1 - k in a join composition's first block and -k
    otherwise; column c's label is the longest element's value at position
    n + 1 - c up to c = n, and 2n + 1 - c past it; the cell's reflection
    exchanges the two labels (``Reflection.exchanging``).
    """
    n = alpha.n
    a1 = alpha.first_part
    p = alpha.prefix
    omega = _longest_right(alpha)
    mu = tuple(n - p[alpha.region_of(k) - 1] for k in range(1, n + 1))
    lam = tuple(
        2 * n - a1 if alpha.join and k <= a1 else 2 * n + 1 - k
        for k in range(1, n + 1)
    )
    rows = []
    for k in range(1, n + 1):
        if alpha.split or k > a1:
            row_label = -k
            start = 0
        else:
            row_label = a1 + 1 - k
            start = a1 + 1 - k
        cells = []
        for col in range(mu[k - 1] + 1, lam[k - 1] + 1):
            col_label = omega[n - col] if col <= n else 2 * n + 1 - col
            gen = start + lam[k - 1] - col
            t = Reflection.exchanging(row_label, col_label)
            cells.append((col, row_label, col_label, gen, t))
        rows.append(cells)
    return mu, lam, rows


def sorting_word_longest(alpha: Composition) -> tuple[int, ...]:
    """The sorting word of the quotient's longest element, off the skew shape:
    the cells' generators read bottom-to-top, left-to-right."""
    return tuple(cell[3] for row in reversed(tableau_cells(alpha)[2]) for cell in row)


def inversion_order(alpha: Composition) -> list[Reflection]:
    """The inversion order of the longest element's sorting word: the skew
    shape's cells' reflections read top-to-bottom, right-to-left.

    The reading is checked against the conjugated suffixes
    (``inversion_order_from_word``) of the sorting word, read off the same
    cells as in ``sorting_word_longest``; that route is independent, kept as
    an oracle, and a mismatch raises AssertionError.
    """
    rows = tableau_cells(alpha)[2]
    order = [cell[4] for row in rows for cell in reversed(row)]
    word = tuple(cell[3] for row in reversed(rows) for cell in row)
    if order != inversion_order_from_word(word, alpha.n):
        raise AssertionError(f"inversion-order cross-check failed for {alpha}")
    return order


def c_sorting_word(pi: SignedPermutation) -> tuple[int, ...]:
    """The reduced word for pi embedded rightmost in ... |s_{n-1}..s_1s_0|.

    Greedy peeling: scan generator indices cyclically from the current offset
    and strip the first right descent, until the identity remains.
    """
    n = pi.n
    applied = []
    cur = pi
    j = 0
    while not cur.is_identity():
        for off in range(n):
            k = (j + off) % n
            if cur.has_right_descent(k):
                break
        else:
            raise AssertionError("non-identity element without right descent")
        cur = cur.mul_gen_right(k)
        applied.append(k)
        j = (k + 1) % n
    return tuple(reversed(applied))


def inversion_order_from_word(
    word: tuple[int, ...], n: int
) -> list[Reflection]:
    """Inversion order computed from the word by conjugating suffixes.

    Independent of the tableau construction; the i-th inversion is the i-th
    letter from the end conjugated by the letters after it.
    """
    gens = {s: generator_element(n, s) for s in set(word)}
    suffix = SignedPermutation.identity(n)
    order = []
    for letter in reversed(word):
        g = gens[letter]
        order.append(reflection_from_element(suffix.inverse().compose(g).compose(suffix)))
        suffix = g.compose(suffix)
    return order
