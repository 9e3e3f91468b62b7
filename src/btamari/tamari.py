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

Verification builds each structure once per composition (the weak order as
a poset, its projection fibers and their quotient order, the subposet
lattice and one inversion tableau), and only the subposet lattice gets meet
and join tables.  The weak order needs none: the
quotient construction reads only its order and covers, and the
not-a-sublattice test counts common lower bounds.  Its covers come from its
grading by length, with no matrix product; Tam_B is not graded, and its
covers come from the product in ``FinitePoset.covers``.  The subposet and
quotient constructions stay as two independent routes to the same lattice,
so that each confirms the other.
Order matrices and lattice tables are dense, m x m for m elements, so no
structure above TABLE_THRESHOLD elements is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lattice as lat
from .alignment import aligned_rows
from .errors import NotACongruenceError, NotALatticeError, TableBoundError
from .parabolic import (
    Composition,
    InversionTableau,
    inversion_columns,
    lex_sorted,
    longest_element,
    parabolic_length,
    quotient_rows,
    quotient_size,
)
from .projection import fiber_bottoms, row_index
from .signed_perm import POS, SIGN, Reflection, SignedPermutation

# The checks of a verification report, in the order verify_theorems runs them.
CHECKS = (
    "congruence_valid", "lattice_subposet", "lattice_quotient",
    "quotient_isomorphic_subposet", "congruence_uniform", "semidistributive",
    "extremal", "trim", "length_formula", "irreducible_counts",
    "irreducible_constructor",
)

# Largest element count for which dense m x m order matrices and lattice
# tables are allocated.
TABLE_THRESHOLD = 20_000


def check_table_bound(m: int):
    """Refuse an m x m table above TABLE_THRESHOLD elements on a side."""
    if m > TABLE_THRESHOLD:
        raise TableBoundError(m, TABLE_THRESHOLD)


# Each block of the containment test keeps its word temporaries near this
# many bytes.
_LEQ_BLOCK_BYTES = 2**20


def _inversion_words(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inversion sets of right-part rows as bit words, and their sizes.

    The n^2 inversion columns of ``inversion_columns`` are packed, eight to
    a byte, into (m, ceil(n^2 / 64)) ``uint64`` words, so a row's set is one
    word up to n = 8.  The sizes are the rows' lengths, summed from the same
    table before it is packed.
    """
    table = np.concatenate(list(inversion_columns(rows)), axis=1)
    packed = np.packbits(table, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return np.ascontiguousarray(packed).view(np.uint64), table.sum(axis=1)


def _contained(words: np.ndarray) -> np.ndarray:
    """leq[a, b]: the set in word row a lies inside the set in word row b.

    That is, no bit of a is outside b.  The rows are compared in blocks to
    keep the word temporaries small.  Raises TableBoundError before
    allocating when the m x m matrix would exceed TABLE_THRESHOLD elements
    on a side.
    """
    m = len(words)
    check_table_bound(m)
    leq = np.empty((m, m), dtype=bool)
    outside = ~words
    step = max(1, _LEQ_BLOCK_BYTES // (outside.nbytes + 1))
    for lo in range(0, m, step):
        leq[lo:lo + step] = ~(words[lo:lo + step, None, :] & outside).any(axis=2)
    return leq


def _weak_leq_matrix(rows: np.ndarray) -> np.ndarray:
    """Containment matrix of the inversion sets of right-part rows: the weak order."""
    return _contained(_inversion_words(rows)[0])


def _weak_order(rows: np.ndarray) -> lat.FinitePoset:
    """The weak order on a whole parabolic quotient, its covers read off the grading.

    The quotient is the lower interval [e, w_0(alpha)] of the weak order on
    the whole group (A. Björner and M. Wachs, Trans. AMS 308, 1988), and
    that order is graded by length, the size of the inversion set.  An
    element between a and b lies in the interval too, and each step up a
    chain raises the length by at least one; so b covers a exactly when
    a <= b and len(b) = len(a) + 1.  That takes one m x m comparison in
    place of the m^3 product of ``FinitePoset.covers``.  Tam_B is not
    graded and keeps the product.
    """
    words, length = _inversion_words(rows)
    weak = lat.FinitePoset(rows, _contained(words))
    covers = length[:, None] + 1 == length
    covers &= weak.leq
    weak.covers = covers
    return weak


def build_tamari(alpha: Composition, cap: int | None = None) -> lat.FiniteLattice:
    """Tam_B(alpha): the weak order on the aligned members, as a lattice.

    Its labels are the aligned members' right parts, in right-part order.
    """
    rows = lex_sorted(aligned_rows(alpha, cap))
    return lat.try_lattice(lat.FinitePoset(rows, _weak_leq_matrix(rows)))


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
    return _join_irreducible(alpha, t)


def _join_irreducible(alpha: Composition, t: Reflection) -> SignedPermutation:
    """The constructor for an inversion t of the longest element, unchecked."""
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
    return SignedPermutation(right)


def _irreducible_two_positive(alpha, i, j) -> SignedPermutation:
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
    return SignedPermutation(tuple(right))


def _fill_positions(n: int, spots: list[int]) -> SignedPermutation:
    right = [0] * n
    for value, a in enumerate(spots, start=1):
        if a > 0:
            right[a - 1] = value
        else:
            right[-a - 1] = -value
    return SignedPermutation(tuple(right))


# -- structural verification -----------------------------------------------------


# Each block of common-lower-bound counts holds about this many float32 entries.
_MEET_BLOCK_ENTRIES = 2**20


def _meet_mismatch(weak: lat.FinitePoset, tam: lat.FiniteLattice):
    """First pair a < b, row-major over Tamari indices, whose two meets differ.

    Returns the rows (label b, label a, weak-order meet, Tamari meet), or None.

    The weak order on the quotient is graded by length and is a lattice
    (A. Björner and M. Wachs, Trans. AMS 308, 1988), so the weak meet w of a
    and b is their unique longest common lower bound, and every common lower
    bound lies below w.  Tam_B is a subposet of the weak order, so the Tamari
    meet t is a common lower bound too, and t <= w.  The two differ exactly
    when some common lower bound (w itself) is longer than t, hence not
    below t.  As every element below t is a common lower bound, that is when
    a and b have more common lower bounds than t has elements below it.  One
    float32 product per block of rows counts the common lower bounds of
    every pair, so no weak meet table is built.  The witness's w is then the
    common lower bound with the largest down-set.
    """
    into_weak = row_index(weak.labels, tam.labels)
    # below[x, a]: x lies under the a-th aligned element; float32 counts exactly.
    below = weak.leq[:, into_weak].astype(np.float32)
    down = below.sum(axis=0)
    meet = tam.meet_table()
    step = max(1, _MEET_BLOCK_ENTRIES // (tam.n + 1))
    for lo in range(0, tam.n, step):
        common = below[:, lo:lo + step].T @ below
        differs = np.triu(common > down[meet[lo:lo + step]], k=lo + 1)
        if differs.any():
            a, b = map(int, np.argwhere(differs)[0])
            a += lo
            break
    else:
        return None
    lower = np.flatnonzero(weak.leq[:, into_weak[a]] & weak.leq[:, into_weak[b]])
    weak_meet = lower[weak.leq[:, lower].sum(axis=0).argmax()]
    return (
        tam.labels[b],
        tam.labels[a],
        weak.labels[weak_meet],
        tam.labels[tam.meet(a, b)],
    )


@dataclass
class VerificationReport:
    alpha: Composition
    checks: dict[str, bool]
    stats: dict[str, int]
    witness: Optional[tuple] = None
    semidistributivity_witness: Optional[tuple] = None
    congruence_failure: Optional[str] = None
    quotient_lattice_failure: Optional[tuple] = None

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
        if self.quotient_lattice_failure is not None:
            reason, *pair = self.quotient_lattice_failure
            data["quotient_not_a_lattice"] = {
                "reason": reason, "pair": [p.format() for p in pair]
            }
        return data

    def summary(self) -> str:
        lines = [f"alpha = {self.alpha.format()}"]
        for name, value in self.checks.items():
            lines.append(f"  {'PASS' if value else 'FAIL'}  {name}")
        lines.append(
            "  stats: "
            + ", ".join(f"{k}={v}" for k, v in self.stats.items())
        )
        if self.congruence_failure is not None:
            lines.append(f"  not a congruence: {self.congruence_failure}")
        if self.quotient_lattice_failure is not None:
            reason, pa, pb = self.quotient_lattice_failure
            lines.append(f"  quotient not a lattice: {reason} for ({pa}, {pb})")
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
    verify_chain: bool = False,
    tam: lat.FiniteLattice | None = None,
) -> VerificationReport:
    """Run every structural check for one composition and collect the outcome.

    The quotient's rows are enumerated once.  The weak order on them (a
    poset, with no meet or join table), its projection fibers, their
    quotient order and the subposet lattice L are each built once.  Only L
    gets meet and join tables; the quotient's are tried only when its order
    differs from L's.  L's irreducibles and length are counted once.  The
    witnesses become ``SignedPermutation``s only here, for the report.  The
    table bound is checked on the quotient size before enumerating.
    A caller that already holds ``build_tamari(alpha, cap)`` passes it as
    ``tam``, and it is not built again.
    """
    checks: dict[str, bool] = {}
    check_table_bound(quotient_size(alpha))
    rows = quotient_rows(alpha, cap)
    weak = _weak_order(rows)
    quot, failure = None, None
    try:
        quot = lat.quotient_lattice(weak, fiber_bottoms(alpha, rows))
    except NotACongruenceError as exc:
        failure = str(exc)
    checks["congruence_valid"] = quot is not None

    L = build_tamari(alpha, cap) if tam is None else tam
    checks["lattice_subposet"] = True  # try_lattice would have raised otherwise
    isomorphic = quot is not None and _isomorphic(L, quot)
    not_a_lattice = None
    if quot is not None and not isomorphic:
        not_a_lattice = _lattice_failure(quot)
    checks["lattice_quotient"] = quot is not None and not_a_lattice is None
    checks["quotient_isomorphic_subposet"] = isomorphic

    checks["congruence_uniform"] = lat.is_congruence_uniform(L)
    checks["semidistributive"] = lat.is_semidistributive(L)
    ln = L.length()
    irreducibles = lat.join_irreducibles(L)
    checks["extremal"] = len(irreducibles) == len(lat.meet_irreducibles(L)) == ln
    checks["trim"] = checks["extremal"] and lat.extremal_is_trim(
        L, checks["semidistributive"], verify_chain
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
    witness = _meet_mismatch(weak, L)
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


def _lattice_failure(poset: lat.FinitePoset):
    """None for a lattice, else (reason, a, b) naming a pair with no bound."""
    try:
        lat.try_lattice(poset)
    except NotALatticeError as exc:
        return (exc.reason, *_perms(poset.labels[list(exc.pair)]))
    return None


def _isomorphic(a: lat.FinitePoset, b: lat.FinitePoset) -> bool:
    """Label-preserving isomorphism between two orders on right-part rows."""
    order = row_index(b.labels, a.labels)
    if a.n != b.n or (order < 0).any():
        return False
    return bool(np.array_equal(a.leq, b.leq[np.ix_(order, order)]))


def _constructor_matches(
    alpha: Composition, L: lat.FiniteLattice, irreducibles: list[int]
) -> bool:
    """The constructor's elements are exactly L's join-irreducibles, one per cell.

    The element built for a cell's inversion t covers t and nothing else.
    """
    built = []
    for cell in InversionTableau(alpha).cells():
        t = cell.reflection
        pi = _join_irreducible(alpha, t)
        if pi.cover_inversions() != {t}:
            return False
        built.append(pi.right)
    found = np.sort(row_index(L.labels, built))
    # Sorted, distinct and equal to the irreducibles' indices.
    return np.array_equal(found, irreducibles)
