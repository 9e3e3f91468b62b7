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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial
from typing import Callable

import numpy as np

from . import config
from .config import resolve_cap
from .errors import CapExceededError, CompositionError
from .signed_perm import (
    NEG,
    POS,
    SIGN,
    Reflection,
    SignedPermutation,
    generator_element,
    reflection_from_element,
)


@dataclass(frozen=True)
class Composition:
    """A type-B composition: positive parts plus a split flag."""

    parts: tuple[int, ...]
    split: bool = False

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise CompositionError("composition needs at least one positive part")
        if any(not isinstance(p, int) or p < 1 for p in parts):
            raise CompositionError(f"parts must be positive integers, got {parts}")

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
    return _is_member_row(alpha, pi.right)

def _is_member_row(alpha: Composition, right: tuple[int, ...]) -> bool:
    if alpha.join and right[0] < 0:
        return False
    cuts = alpha.cuts
    return all(
        right[i - 1] < right[i] for i in range(1, alpha.n) if i not in cuts
    )


def quotient_size(alpha: Composition) -> int:
    n = alpha.n
    size = factorial(n)
    for p in alpha.parts:
        size //= factorial(p)
    return size << (n - (alpha.first_part if alpha.join else 0))


def _split_slots(free: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every way to take p of ``free`` sorted slots: taken and left slots, by row."""
    taken = np.array(
        list(itertools.combinations(range(free), p)), dtype=np.intp
    ).reshape(-1, p)
    keep = np.ones((len(taken), free), dtype=bool)
    keep[np.arange(len(taken))[:, None], taken] = False
    left = np.nonzero(keep)[1].reshape(len(taken), free - p)
    return taken, left


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


def _build_rows(
    alpha: Composition,
    cap: int | None,
    keep: Callable[[int, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Rows of quotient members, block by block, optionally pruned per block.

    The cap is checked on ``quotient_size`` before anything is allocated.
    Each block takes its ascending values from the ones left free, then, if
    it may carry signs, every signing of them, re-sorted through a per-size
    table.  ``keep(b, rows)``, when given, returns a boolean mask over the
    rows whose first b + 1 blocks are placed; only the rows it keeps grow on.
    """
    size = quotient_size(alpha)
    cap = resolve_cap(cap)
    if size > cap:
        raise CapExceededError(size, cap)
    n = alpha.n
    dtype = np.int8 if n + 1 <= np.iinfo(np.int8).max else np.int16
    rows = np.empty((1, 0), dtype=dtype)
    free = np.arange(1, n + 1, dtype=dtype)[None, :]
    for b, p in enumerate(alpha.parts):
        width = free.shape[1]
        taken, left = _split_slots(width, p)
        rows = np.concatenate(
            [np.repeat(rows, len(taken), axis=0), free[:, taken].reshape(-1, p)],
            axis=1,
        )
        free = free[:, left].reshape(len(rows), width - p)
        if alpha.split or b > 0:
            lo = alpha.prefix[b]
            slots, signs = _sign_table(p)
            widened = np.repeat(rows, len(slots), axis=0)
            widened.reshape(len(rows), len(slots), -1)[:, :, lo:] = (
                rows[:, lo:][:, slots] * signs
            )
            rows = widened
            free = np.repeat(free, len(slots), axis=0)
        if keep is not None:
            kept = keep(b, rows)
            rows, free = rows[kept], free[kept]
    return rows


def quotient_rows(
    alpha: Composition, cap: int | None = None, sort: bool = True
) -> np.ndarray:
    """Right parts of all quotient members, as a (quotient_size, n) integer array.

    The cap is checked before anything is allocated.  The dtype is int8, or
    int16 when n + 1 does not fit in int8.  Rows are built by broadcasting,
    block by block: each block's ascending values out of those left, then
    the block's signings.

    With ``sort=True`` the rows are in lexicographic order, the order of the
    members' right-part tuples.  With ``sort=False`` they come in build order:
    by the first block's values, then its sign mask, then the second block's
    values, then its sign mask, and so on; bit t of a block's mask negates
    its t-th smallest value.
    """
    rows = _build_rows(alpha, cap)
    if sort:
        rows = rows[np.lexsort(rows.T[::-1])]
    return rows


def enumerate_quotient(
    alpha: Composition, cap: int | None = None
) -> list[SignedPermutation]:
    return [SignedPermutation(r) for r in quotient_rows(alpha, cap).tolist()]


def enumerate_quotient_by_filter(alpha: Composition) -> list[SignedPermutation]:
    """Filter the full group by membership; slow oracle for small degree."""
    n = alpha.n
    rows = []
    for perm in itertools.permutations(range(1, n + 1)):
        for mask in range(1 << n):
            row = tuple(-v if mask >> t & 1 else v for t, v in enumerate(perm))
            if _is_member_row(alpha, row):
                rows.append(row)
    rows.sort()
    return [SignedPermutation(r) for r in rows]


# -- longest element and its skew-shape model ---------------------------------


def longest_element(alpha: Composition) -> SignedPermutation:
    """The weak-order maximum of the quotient."""
    p = alpha.prefix
    right = []
    for a in range(1, alpha.n + 1):
        i = alpha.region_of(a)
        if alpha.join and i == 1:
            right.append(a)
        else:
            right.append(-(p[i] + p[i - 1] + 1 - a))
    return SignedPermutation(tuple(right))


def parabolic_length(alpha: Composition) -> int:
    n = alpha.n
    total = n * n - sum(comb(p, 2) for p in alpha.parts)
    if alpha.join:
        total -= comb(alpha.first_part + 1, 2)
    return total


@dataclass(frozen=True)
class TableauCell:
    row: int
    col: int
    row_label: int
    col_label: int
    generator: int
    reflection: Reflection


class InversionTableau:
    """The skew shape of a composition, filled with generators and reflections.

    Row k occupies columns mu_k + 1 .. lam_k.  Reading the generator filling
    bottom-to-top, left-to-right gives the sorting word of the longest
    element; reading the reflection filling top-to-bottom, right-to-left gives
    its inversion order.
    """

    def __init__(self, alpha: Composition):
        self.alpha = alpha
        n = alpha.n
        a1 = alpha.first_part
        p = alpha.prefix
        omega = longest_element(alpha)
        self.mu = tuple(n - p[alpha.region_of(k) - 1] for k in range(1, n + 1))
        self.lam = tuple(
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
            for col in range(self.mu[k - 1] + 1, self.lam[k - 1] + 1):
                col_label = omega(n + 1 - col) if col <= n else 2 * n + 1 - col
                gen = start + self.lam[k - 1] - col
                cells.append(
                    TableauCell(
                        k, col, row_label, col_label, gen,
                        self._cell_reflection(row_label, col_label),
                    )
                )
            rows.append(tuple(cells))
        self.rows = tuple(rows)

    @staticmethod
    def _cell_reflection(r: int, c: int) -> Reflection:
        if r > 0:
            if c <= 0 or r >= c:
                raise ValueError(f"impossible cell labels ({r}, {c})")
            return Reflection(POS, r, c)
        if c == -r:
            return Reflection(SIGN, c)
        if c > -r:
            return Reflection(NEG, -r, c)
        if c > 0:
            return Reflection(NEG, c, -r)
        return Reflection(POS, -c, -r)

    def cells(self):
        return (cell for row in self.rows for cell in row)

    @property
    def cell_count(self) -> int:
        return sum(len(row) for row in self.rows)

    def reading(self) -> list[Reflection]:
        """Reflections top-to-bottom, right-to-left: the inversion order."""
        return [cell.reflection for row in self.rows for cell in reversed(row)]

    def generator_word(self) -> tuple[int, ...]:
        """Generator indices bottom-to-top, left-to-right: the sorting word."""
        return tuple(cell.generator for row in reversed(self.rows) for cell in row)

    def ascii(self, fill: str = "reflection") -> str:
        """Plain-text grid, one cell per reflection (or generator)."""
        width = max(
            (len(str(getattr(c, fill))) for c in self.cells()), default=1
        )
        lines = []
        for row in self.rows:
            by_col = {c.col: str(getattr(c, fill)) for c in row}
            last = max(by_col)
            line = " ".join(
                by_col.get(col, "").rjust(width) for col in range(1, last + 1)
            )
            lines.append(line.rstrip())
        return "\n".join(lines)


def skew_shape(alpha: Composition) -> InversionTableau:
    return InversionTableau(alpha)


def sorting_word_longest(alpha: Composition) -> tuple[int, ...]:
    """The sorting word of the quotient's longest element, off the skew shape."""
    return InversionTableau(alpha).generator_word()


def inversion_order(alpha: Composition) -> list[Reflection]:
    """The inversion order of the longest element's sorting word."""
    tableau = InversionTableau(alpha)
    order = tableau.reading()
    if config.debug_crosschecks:
        oracle = inversion_order_from_word(tableau.generator_word(), alpha.n)
        if order != oracle:
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


def evaluate_word(word: tuple[int, ...], n: int) -> SignedPermutation:
    """The group element spelled by a generator word (letters multiply left to right)."""
    pi = SignedPermutation.identity(n)
    for s in reversed(word):
        pi = pi.mul_gen_left(s)
    return pi


def word_suffix_chain(word: tuple[int, ...], n: int) -> list[SignedPermutation]:
    """Elements spelled by the suffixes of a word, shortest first."""
    chain = [SignedPermutation.identity(n)]
    for s in reversed(word):
        chain.append(chain[-1].mul_gen_left(s))
    return chain


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
