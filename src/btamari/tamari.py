"""Assembly and verification of the type-B parabolic Tamari lattices.

Tam_B(alpha) is the weak order on the 231-avoiding quotient members, built
directly as a subposet by ``build_tamari``.  It is also the quotient of the
weak order on the whole parabolic quotient by the projection fibers; the two
agree.  The module also builds each join-irreducible element directly from
the inversion it covers, and bundles every structural claim into a
verification report.

Elements travel as right-part rows: the weak order's labels are the
quotient's (m, n) row array and Tam_B's those of its aligned members, and
rows are found among each other by ``row_index``.  A ``SignedPermutation``
is built only for a report's witnesses and by the join-irreducible
constructor.

Both orders compare inversion sets packed as bit words, one uint64 per row
up to n = 8, so x <= y is "no bit of x outside y".

Verification builds each structure once per composition.  The weak order
on the whole quotient gets no m x m matrix: the congruence test, the
quotient order and the not-a-sublattice witness read only its inversion
words and cover pairs.  The covers come from one table of generator
images, s x for every generator s and row x, computed on the rows' values
and found among the rows by one lookup over blocks of generators; the
projection fibers read the same table, so no row is looked up twice.
Tam_B's labels and the quotient's class minima are both in right-part
order, so they are compared as arrays, and the fibers' bottoms give
Tam_B's indices among the rows.  The constructor check reads the
inversion tableau's labels with no cell objects.  Only the subposet lattice gets meet and join tables.  The
subposet and quotient constructions stay as two independent routes to the
same lattice, so that each confirms the other.  Tam_B's order and tables,
and the quotient order on the class minima, are dense m x m arrays, so the
enumeration cap bounds them as m elements of m values each
(``parabolic.check_cap``) before they are allocated.  An extremal
lattice is trim when semidistributive (H. Thomas and N. Williams, 2019), else
when ``lattice.has_left_modular_chain`` finds a left-modular maximal chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lattice as lat
from .alignment import aligned_rows, cover_counts
from .config import resolve_cap
from .errors import NotACongruenceError, NotALatticeError
from .parabolic import (
    Composition,
    check_cap,
    inversion_columns,
    lex_sorted,
    longest_element,
    parabolic_length,
    quotient_rows,
    quotient_size,
    tableau_cells,
)
from .projection import fiber_bottoms, left_act, row_index, row_lookup
from .signed_perm import POS, SIGN, Reflection, SignedPermutation

# The checks of a verification report, in the order verify_theorems runs them.
CHECKS = (
    "congruence_valid", "lattice_subposet", "lattice_quotient",
    "quotient_isomorphic_subposet", "congruence_uniform", "semidistributive",
    "extremal", "trim", "length_formula", "irreducible_counts",
    "irreducible_constructor",
)


def _inversion_words(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inversion sets of right-part rows as bit words, and their sizes.

    The n^2 inversion columns of ``inversion_columns`` are packed, eight to
    a byte, into (m, ceil(n^2 / 64)) ``uint64`` words, so a row's set is one
    word up to n = 8.  Groups of position blocks near BLOCK_BYTES booleans are
    packed, each carrying its last (< 8) columns to the next, so the bits lie
    as ``pack_words`` lays out the whole table, never held; sizes are popcounts.
    """
    m, n = rows.shape
    words = np.zeros((m, -(-n * n // 64)), dtype="<u8")
    packed, group, done = words.view(np.uint8), [], 0
    for i, block in enumerate(inversion_columns(rows)):
        group.append(block)
        if sum(map(np.size, group)) < lat.BLOCK_BYTES and i < n - 1:
            continue
        table = np.concatenate(group, axis=1)
        whole = table.shape[1] if i == n - 1 else table.shape[1] // 8 * 8
        out = np.packbits(table[:, :whole], axis=1, bitorder="little")
        packed[:, done:done + out.shape[1]] = out
        done += out.shape[1]
        group = [table[:, whole:]]
    return words, np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _weak_leq_matrix(rows: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Containment matrix of the inversion sets of right-part rows: the weak order.

    The m x m matrix, and the lattice tables built on it, count as m
    elements of m values each against the cap: ``check_cap`` raises
    CapExceededError before anything is allocated.  At the default cap that
    admits up to 11,313 rows.
    """
    check_cap(len(rows), resolve_cap(cap), len(rows))
    return lat.contained(_inversion_words(rows)[0])


def _weak_covers(rows: np.ndarray, length: np.ndarray):
    """The weak order's cover pairs (below, above) on a quotient's rows, row-major,
    and the table of generator images.

    The quotient is a lower interval of the weak order on the group (A.
    Björner and M. Wachs, Trans. AMS 308, 1988), so y covers x exactly when
    y = s x is one longer for a generator s.  Every generator's images are
    computed by ``left_act`` and found among the rows by one
    ``row_lookup``, in blocks of generators whose moved rows stay near
    BLOCK_BYTES, and kept: ``images`` is an (n, m) int32 table whose entry
    [s, x] is the index of s x, or -1 where s x leaves the quotient.
    """
    find = row_lookup(rows)
    m, n = rows.shape
    images = np.empty((n, m), dtype=np.int32)
    is_cover = np.empty((n, m), dtype=bool)
    step = max(1, lat.BLOCK_BYTES // (rows.nbytes + 1))
    for lo in range(0, n, step):
        found = images[lo:lo + step]
        gens = np.arange(lo, lo + len(found))[:, None, None]
        found[:] = find(left_act(rows, gens)).reshape(len(found), m)
        is_cover[lo:lo + step] = (found >= 0) & (length[found] == length + 1)
    gens, below = np.nonzero(is_cover)
    above = images[gens, below]
    order = np.lexsort((above, below))
    return below[order], above[order], images


def build_tamari(alpha: Composition, cap: int | None = None) -> lat.FiniteLattice:
    """Tam_B(alpha): the weak order on the aligned members, as a lattice.

    Its labels are the aligned members' right parts, in right-part order.
    """
    rows = lex_sorted(aligned_rows(alpha, cap))
    return lat.try_lattice(lat.FinitePoset(rows, _weak_leq_matrix(rows, cap)))


# -- join-irreducible constructor ---------------------------------------------


def _pair_to_reflection(pair: tuple[int, int]) -> Reflection:
    x, y = pair
    if x == 0 or y == 0 or abs(x) == abs(y) and x != -y:
        raise ValueError(f"bad inversion pair {pair}")
    if x == -y:
        return Reflection.sign(abs(y))
    if x > 0 and y > 0:
        return Reflection.transposition(x, y)
    if x < 0 < y:
        return Reflection.mixed(-x, y)
    if y < 0 < x:
        return Reflection.mixed(x, -y)
    return Reflection.transposition(-x, -y)


def join_irreducible_for(
    alpha: Composition, pair: tuple[int, int]
) -> SignedPermutation:
    """The unique join-irreducible aligned element whose cover inversion is ``pair``.

    The pair names an inversion of the quotient's longest element by the two
    positions it exchanges; either mirror realization is accepted.
    """
    t = _pair_to_reflection(pair)
    if t not in longest_element(alpha).inversion_set():
        raise ValueError(f"{t} is not an inversion of the longest element of {alpha}")
    return SignedPermutation(_join_irreducible(alpha, t))


def _join_irreducible(alpha: Composition, t: Reflection) -> tuple[int, ...]:
    """The constructor's right part for an inversion t of the longest element, unchecked."""
    n = alpha.n
    a1 = alpha.first_part
    if t.kind == POS:
        return _irreducible_two_positive(alpha, t.i, t.j)
    if t.kind == SIGN:
        j = t.i
        if alpha.split:
            spots = list(range(-j, 0)) + list(range(j + 1, n + 1))
        else:
            spots = (
                list(range(-j, -a1)) + list(range(1, a1 + 1)) + list(range(j + 1, n + 1))
            )
        return _fill_positions(n, spots)
    a, b = t.i, t.j
    if alpha.split:
        k = b - a
        right = (
            tuple(range(-b, -b + a))
            + tuple(range(1, k + 1))
            + tuple(range(b + 1, n + 1))
        )
    elif a > a1:
        k, ell = b - a, b - a1
        right = (
            tuple(range(ell + 1, ell + a1 + 1))
            + tuple(range(-ell, -k))
            + tuple(range(1, k + 1))
            + tuple(range(ell + a1 + 1, n + 1))
        )
    else:
        k, ell = a, a + b - a1
        right = (
            tuple(range(1, k + 1))
            + tuple(range(ell + 1, ell + a1 - a + 1))
            + tuple(range(-ell, -k))
            + tuple(range(ell + a1 - a + 1, n + 1))
        )
    return right


def _irreducible_two_positive(alpha, i, j) -> tuple[int, ...]:
    """Fill 1, 2, ... left to right skipping i and the rest of its block, stop at j."""
    n = alpha.n
    block_end = alpha.prefix[alpha.region_of(i)]
    skipped = set(range(i, block_end + 1))
    filled = [a for a in range(1, j + 1) if a not in skipped]
    right = [0] * n
    for value, a in enumerate(filled, start=1):
        right[a - 1] = value
    rest = [a for a in range(1, n + 1) if right[a - 1] == 0]
    for value, a in enumerate(rest, start=len(filled) + 1):
        right[a - 1] = value
    return tuple(right)


def _fill_positions(n: int, spots: list[int]) -> tuple[int, ...]:
    right = [0] * n
    for value, a in enumerate(spots, start=1):
        if a > 0:
            right[a - 1] = value
        else:
            right[-a - 1] = -value
    return tuple(right)


# -- structural verification -----------------------------------------------------


def _meet_mismatch(rows, words, below, above, tam: lat.FiniteLattice, into_weak):
    """First pair a < b, row-major over Tamari indices, whose two meets differ.

    Returns the rows (label b, label a, weak-order meet, Tamari meet), or
    None.  The weak order is a lattice (Björner and Wachs), so the Tamari
    meet t of a and b lies below their weak meet w, and t < w exactly when
    an upper cover y of t lies below a and b.  Such a y adds one inversion
    to t's set, and y <= a exactly when a has it.  So, with ``added[t]`` the
    inversions t's upper covers add, t < w exactly when added[t] & words[a]
    & words[b] is not empty: one word AND per pair.  Climbing through such
    covers from t ends at w, which lies above every common lower bound.
    ``into_weak`` holds Tam_B's indices among the rows.  The words are read
    in blocks of columns whose temporaries stay near BLOCK_BYTES (rows of
    one word are one block); a pair's verdict is ORed over the blocks and
    is final in the last.
    """
    meet, width = tam.meet_table(), words.shape[1]
    cols = max(1, lat.BLOCK_BYTES // (words.itemsize * (len(words) + len(below)) + 1))
    starts = range(0, width, cols)
    # Verdicts carried between blocks; one block needs none.
    hits = np.zeros((tam.n, tam.n), dtype=bool) if len(starts) > 1 else None
    a = None
    for c in starts:
        block = words[:, c:c + cols]
        # Per element, the inversions its upper covers add.
        added = np.zeros_like(block)
        np.bitwise_or.at(added, below, block[above] ^ block[below])
        own, gain = block[into_weak], added[into_weak]
        step = max(1, lat.BLOCK_BYTES // (own.nbytes + 1))
        for lo in range(0, tam.n, step):
            common = own[lo:lo + step, None, :] & own & gain[meet[lo:lo + step]]
            differs = common.any(axis=2)
            if hits is not None:
                hits[lo:lo + step] |= differs
                differs = hits[lo:lo + step]
            if c == starts[-1] and (differs := np.triu(differs, k=lo + 1)).any():
                a, b = map(int, np.argwhere(differs)[0])
                a += lo
                break
    if a is None:
        return None
    # The rows below both a and b; climbing through them from t ends at w.
    both = words[into_weak[a]] & words[into_weak[b]]
    under = np.ones(len(rows), dtype=bool)
    for c in starts:
        under &= ~(words[:, c:c + cols] & ~both[c:c + cols]).any(axis=1)
    x = into_weak[meet[a, b]]
    while under[ups := above[below == x]].any():
        x = ups[under[ups]][0]
    return tam.labels[b], tam.labels[a], rows[x], tam.labels[meet[a, b]]


@dataclass
class VerificationReport:
    alpha: Composition
    checks: dict[str, bool]
    stats: dict[str, int]
    witness: Optional[tuple] = None
    semidistributivity_witness: Optional[tuple] = None
    congruence_failure: Optional[str] = None
    quotient_lattice_failure: Optional[tuple] = None
    tamari_lattice_failure: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        data = {
            "alpha": self.alpha.format(),
            "checks": dict(self.checks),
            "stats": dict(self.stats),
        }
        if self.witness is not None:
            data["not_a_sublattice_witness"] = [p.format() for p in self.witness]
        if self.semidistributivity_witness is not None:
            law, *triple = self.semidistributivity_witness
            data["semidistributivity_witness"] = {
                "law": law, "triple": [p.format() for p in triple]
            }
        if self.congruence_failure is not None:
            data["congruence_failure"] = self.congruence_failure
        for key, found in (
            ("tamari_not_a_lattice", self.tamari_lattice_failure),
            ("quotient_not_a_lattice", self.quotient_lattice_failure),
        ):
            if found is not None:
                reason, *pair = found
                data[key] = {"reason": reason, "pair": [p.format() for p in pair]}
        return data

    def summary(self) -> str:
        lines = [f"alpha = {self.alpha.format()}"]
        for name, value in self.checks.items():
            lines.append(f"  {'PASS' if value else 'FAIL'}  {name}")
        if self.stats:
            lines.append(
                "  stats: "
                + ", ".join(f"{k}={v}" for k, v in self.stats.items())
            )
        if self.congruence_failure is not None:
            lines.append(f"  not a congruence: {self.congruence_failure}")
        for name, found in (
            ("Tam_B", self.tamari_lattice_failure),
            ("quotient", self.quotient_lattice_failure),
        ):
            if found is not None:
                reason, pa, pb = found
                lines.append(f"  {name} not a lattice: {reason} for ({pa}, {pb})")
        if self.witness is not None:
            pa, pb, wm, tm = self.witness
            lines.append(
                f"  not a sublattice: meet({pa}, {pb}) is {wm} in the weak order"
                f" but {tm} in the Tamari lattice"
            )
        if self.semidistributivity_witness is not None:
            law, p, q, r = self.semidistributivity_witness
            dual = "join" if law == "meet" else "meet"
            lines.append(
                f"  not semidistributive: {law}({p}, {q}) = {law}({p}, {r})"
                f" but {law}({p}, {dual}({q}, {r})) differs"
            )
        return "\n".join(lines)


def verify_theorems(
    alpha: Composition,
    cap: int | None = None,
    tam: lat.FiniteLattice | None = None,
) -> VerificationReport:
    """Run every structural check for one composition and collect the outcome.

    A quotient above the cap is refused first, then the subposet lattice L
    is built, so that a Tam_B whose tables exceed the cap is refused before
    the quotient is enumerated; the quotient order on the class minima is
    counted from the bottoms the same way before it is allocated.  If the
    subposet is not a lattice, ``lattice_subposet`` fails with the pair the
    table kernel names, and so does every check on L.  The quotient's rows are
    enumerated once, and its weak order, projection fibers and their
    quotient order are each built once; the covers and the fibers read one
    table of generator images.  Only L gets meet and join tables; the
    quotient's are tried only when its order differs from L's.  L's
    irreducibles and length are counted once.  The witnesses become
    ``SignedPermutation``s only here, for the report.  A caller that already
    holds ``build_tamari(alpha, cap)`` passes it as ``tam``, and it is not
    built again.
    """
    cap = resolve_cap(cap)
    check_cap(quotient_size(alpha), cap)
    checks: dict[str, bool] = {}
    L, tam_failure = tam, None
    if L is None:
        try:
            L = build_tamari(alpha, cap)
        except NotALatticeError as exc:
            tam_failure = _not_a_lattice(exc)
    # L's covers, which every check on L reads, are found before the weak
    # side is held, so that their m x m temporaries do not stack on it.
    if L is not None:
        irreducibles = lat.join_irreducibles(L)
    rows = quotient_rows(alpha, cap)
    words, length = _inversion_words(rows)
    below, above, images = _weak_covers(rows, length)
    bottoms = fiber_bottoms(alpha, rows, images)
    del images
    # The rows that are their own bottom, the aligned ones, are one per
    # class; when they are Tam_B's labels, they are its indices among the rows.
    into_weak = np.flatnonzero(bottoms == np.arange(len(rows)))
    check_cap(len(into_weak), cap, len(into_weak))
    quot, failure = None, None
    try:
        quot = lat.quotient_order(rows, words, below, above, bottoms)
    except NotACongruenceError as exc:
        failure = str(exc)
    checks["congruence_valid"] = quot is not None

    checks["lattice_subposet"] = L is not None
    isomorphic = quot is not None and L is not None and _isomorphic(L, quot)
    not_a_lattice = None
    if quot is not None and not isomorphic:
        not_a_lattice = _lattice_failure(quot)
    checks["lattice_quotient"] = quot is not None and not_a_lattice is None
    checks["quotient_isomorphic_subposet"] = isomorphic
    if L is None:
        checks.update((name, False) for name in CHECKS if name not in checks)
        return VerificationReport(
            alpha, checks, {}, None, None, failure, not_a_lattice, tam_failure
        )

    checks["congruence_uniform"] = lat.is_congruence_uniform(L)
    checks["semidistributive"] = lat.is_semidistributive(L)
    ln = L.length()
    checks["extremal"] = len(irreducibles) == len(lat.meet_irreducibles(L)) == ln
    checks["trim"] = checks["extremal"] and (
        checks["semidistributive"] or lat.has_left_modular_chain(L)
    )
    checks["length_formula"] = ln == parabolic_length(alpha)
    # Extremality is this count; the goldens keep both names.
    checks["irreducible_counts"] = checks["extremal"]
    checks["irreducible_constructor"] = _constructor_matches(alpha, L, irreducibles)

    stats = {
        "size": L.n,
        "length": ln,
        "join_irreducibles": len(irreducibles),
    }
    if not np.array_equal(rows[into_weak], L.labels):
        into_weak = row_index(rows, L.labels)
    witness = _meet_mismatch(rows, words, below, above, L, into_weak)
    if witness is not None:
        witness = _perms(witness)
    # The semidistributive check above kept its witness; this reads it.
    sd_witness = lat.semidistributivity_witness(L)
    if sd_witness is not None:
        law, *triple = sd_witness
        sd_witness = (law, *_perms(L.labels[triple]))
    return VerificationReport(
        alpha, checks, stats, witness, sd_witness, failure, not_a_lattice
    )


def _perms(rows) -> tuple[SignedPermutation, ...]:
    """The signed permutations with the given right-part rows."""
    return tuple(SignedPermutation(r) for r in np.asarray(rows).tolist())


def _not_a_lattice(exc: NotALatticeError) -> tuple:
    """(reason, a, b): the error's pair with no bound, as signed permutations."""
    return (exc.reason, *_perms(exc.labels))


def _lattice_failure(poset: lat.FinitePoset):
    """None for a lattice, else (reason, a, b) naming a pair with no bound."""
    try:
        lat.try_lattice(poset)
    except NotALatticeError as exc:
        return _not_a_lattice(exc)
    return None


def _isomorphic(a: lat.FinitePoset, b: lat.FinitePoset) -> bool:
    """Label-preserving isomorphism between two orders on right-part rows.

    Both label arrays are in right-part order, so the two share their labels
    exactly when the arrays are equal, and then element i is element i.
    """
    return bool(np.array_equal(a.labels, b.labels) and np.array_equal(a.leq, b.leq))


def _constructor_matches(
    alpha: Composition, L: lat.FiniteLattice, irreducibles: list[int]
) -> bool:
    """The constructor's elements are exactly L's join-irreducibles, one per cell.

    The element built for a cell's inversion t covers t and nothing else.
    """
    cells = [cell[-1] for row in tableau_cells(alpha)[2] for cell in row]
    built = np.array([_join_irreducible(alpha, t) for t in cells], dtype=np.int64)
    built = built.reshape(-1, alpha.n)
    # Sorted, distinct and equal to the irreducibles' rows.
    return bool(_covers_exactly(built, cells).all()) and np.array_equal(
        lex_sorted(built), lex_sorted(L.labels[irreducibles])
    )


def _covers_exactly(rows: np.ndarray, cells: list[Reflection]) -> np.ndarray:
    """Per row k, whether its cover inversions are exactly {cells[k]}.

    As in ``SignedPermutation.cover_inversions``, a right part r covers the
    sign reflection [[i]] when r_i = -1, and, for positions i < j, the
    positive ((i j)) when r_i = r_j + 1 and the negative ((-j i)) when
    -r_j = r_i + 1.  Row k passes when it covers one inversion, as
    ``cover_counts`` counts them, and cells[k] is one it covers.
    """
    count = cover_counts(rows)
    kind = np.array([t.kind for t in cells])
    at = np.arange(len(cells))
    r_i = rows[at, [t.i - 1 for t in cells]]
    r_j = rows[at, [max(t.i, t.j) - 1 for t in cells]]
    own = np.where(
        kind == SIGN, r_i == -1, np.where(kind == POS, r_i == r_j + 1, -r_j == r_i + 1)
    )
    return (count == 1) & own
