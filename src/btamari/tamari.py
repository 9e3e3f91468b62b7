"""Assembly and verification of the type-B parabolic Tamari lattices.

Tam_B(alpha) is the weak order on the 231-avoiding quotient members, built
directly as a subposet by ``build_tamari``.  It is also the quotient of the
weak order on the whole parabolic quotient by the projection fibers; the two
agree.  The module also builds each join-irreducible element directly from
the inversion it covers, and bundles every structural claim into a
verification report.

Elements travel as right-part rows: the weak order's labels are the
quotient's (m, n) row array and Tam_B's those of its aligned members, and
rows are found among each other by ``row_lookup``.  A ``SignedPermutation``
is built only for a report's witnesses and by the join-irreducible
constructor.

Both orders compare inversion sets packed as bit words, one uint64 per row
up to n = 8, so x <= y is "no bit of x outside y".

Verification builds each structure once per composition: one table of
inversion words, one row lookup and one m x m order, Tam_B's.  The weak
order on the whole quotient gets no matrix: the congruence test, Tam_B's
order and the not-a-sublattice witness read its inversion words and cover
pairs.  Its covers are s x for each left descent s of a row x, and the
projection fibers' steps eliminate a pattern; the lookup finds both among
the rows.  The subposet and quotient constructions stay two independent
routes to Tam_B: the pruned 231 build gives the one's elements, and the
pattern-elimination bottoms, through N. Reading's congruence test, the
other's.  That test runs once per composition, and the quotient order,
when it is built, is ordered on the class minima the test returned.  The
constructor check reads the inversion tableau's labels with no cell
objects.  Only the subposet lattice gets meet and join tables.  The
enumeration cap bounds the values of every dense array
(``parabolic.check_cap``) before it is allocated.  An extremal lattice is
trim when semidistributive (H. Thomas and N. Williams, 2019), else when
``lattice.has_left_modular_chain`` finds a left-modular maximal chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lattice as lat
from .alignment import aligned_rows, cover_counts, left_descents
from .errors import NotALatticeError
from .parabolic import (
    Composition,
    check_cap,
    inversion_columns,
    lex_sorted,
    longest_element,
    parabolic_length,
    quotient_rows,
    quotient_size,
    resolve_cap,
    tableau_cells,
)
from .projection import fiber_bottoms, left_act, row_lookup
from .signed_perm import POS, SIGN, Reflection, SignedPermutation

# The checks of a verification report, in the order verify_theorems runs them.
CHECKS = (
    "congruence_valid", "lattice_subposet", "lattice_quotient",
    "quotient_isomorphic_subposet", "congruence_uniform", "semidistributive",
    "extremal", "trim", "length_formula", "irreducible_counts",
    "irreducible_constructor",
)


def _inversion_words(rows: np.ndarray, cap: int | None = None) -> np.ndarray:
    """The inversion sets of right-part rows as bit words.

    The n^2 inversion columns of ``inversion_columns`` are packed, eight to
    a byte, into (m, ceil(n^2 / 64)) ``uint64`` words, so a row's set is one
    word up to n = 8; the words count as values against the cap
    (``check_cap``) before they are allocated.  Groups of position blocks
    near BLOCK_BYTES booleans are packed, each carrying its last (< 8)
    columns to the next, so the bits lie as ``pack_words`` lays out the
    whole table, never held; packing each position block at its own bit
    offset instead was measurably slower, most of all on small inputs.
    """
    m, n = rows.shape
    width = -(-n * n // 64)
    check_cap(m, resolve_cap(cap), width)
    words = np.zeros((m, width), dtype="<u8")
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
    return words


def _weak_leq_matrix(rows: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Containment matrix of the inversion sets of right-part rows: the weak order.

    The m x m matrix, and the lattice tables built on it, count as m
    elements of m values each against the cap: ``check_cap`` raises
    CapExceededError before anything is allocated.  At the default cap that
    admits up to 11,313 rows.
    """
    check_cap(len(rows), resolve_cap(cap), len(rows))
    return lat.contained(_inversion_words(rows, cap))


def _weak_covers(rows: np.ndarray, find):
    """The weak order's cover pairs (below, above) on a quotient's rows.

    Row x covers s x exactly when s is a left descent of x
    (``left_descents``), and the pairs come by generator s, then by x, as
    the descents are found.  The quotient is a lower interval of the weak
    order on the group (A. Björner and M. Wachs, Trans. AMS 308, 1988), so
    every such s x is a row.  The images are computed by ``left_act`` and
    found by ``find``, the rows' ``row_lookup``, in ``lattice.blocks`` of
    pairs; one that is not found raises ValueError.
    """
    gens, above = np.nonzero(left_descents(rows))
    # A compact copy, so the pairs do not hold nonzero's (pairs, 2) array.
    above = above.copy()
    below = np.empty_like(above)
    for at in lat.blocks(len(above), rows.itemsize * rows.shape[1]):
        below[at] = find(left_act(rows[above[at]], gens[at, None]))
    return below, above


def build_tamari(alpha: Composition, cap: int | None = None) -> lat.FiniteLattice:
    """Tam_B(alpha): the weak order on the aligned members, as a lattice.

    Its labels are the aligned members' right parts, in right-part order.
    """
    rows = lex_sorted(aligned_rows(alpha, cap))
    return lat.try_lattice(lat.FinitePoset(rows, _weak_leq_matrix(rows, cap)))


# -- join-irreducible constructor ---------------------------------------------


def join_irreducible_for(
    alpha: Composition, pair: tuple[int, int]
) -> SignedPermutation:
    """The unique join-irreducible aligned element whose cover inversion is ``pair``.

    The pair names an inversion of the quotient's longest element by the two
    positions it exchanges; either mirror realization is accepted.
    """
    t = Reflection.exchanging(*pair)
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


def _meet_mismatch(rows, words, covers, tam: lat.FiniteLattice, into_weak):
    """First pair a < b, row-major over Tamari indices, whose two meets differ.

    Returns the rows (label b, label a, weak-order meet, Tamari meet), or
    None.  The weak order is a lattice (Björner and Wachs), so the Tamari
    meet t of a and b lies below their weak meet w, and t < w exactly when
    an upper cover y of t lies below a and b.  Such a y adds one inversion
    to t's set, and y <= a exactly when a has it.  So, with ``added[t]`` the
    inversions t's upper covers add, t < w exactly when added[t] & words[a]
    & words[b] is not empty: one word AND per pair.  Climbing through such
    covers from t ends at w, which lies above every common lower bound.
    ``covers`` holds the weak order's cover pairs and ``into_weak`` Tam_B's
    indices among the rows.  The words are read in ``lattice.blocks`` of
    columns (rows of one word are one block); a pair's verdict is ORed over
    the blocks and is final in the last.  Only several blocks carry an m x m
    verdict matrix between them: always holding one would cost 128 MB at the
    largest Tam_B the cap admits.
    """
    (below, above), meet = covers, tam.meet
    columns = lat.blocks(words.shape[1], words.itemsize * (len(words) + len(below)))
    hits = np.zeros((tam.n, tam.n), dtype=bool) if len(columns) > 1 else None
    a = None
    for c in columns:
        block = words[:, c]
        # Per element, the inversions its upper covers add.
        added = np.zeros_like(block)
        np.bitwise_or.at(added, below, block[above] ^ block[below])
        own, gain = block[into_weak], added[into_weak]
        for r in lat.blocks(tam.n, own.nbytes):
            common = own[r, None, :] & own & gain[meet[r]]
            differs = common.any(axis=2)
            if hits is not None:
                hits[r] |= differs
                differs = hits[r]
            if c == columns[-1] and (differs := np.triu(differs, k=r.start + 1)).any():
                a, b = divmod(int(differs.argmax()), tam.n)
                a += r.start
                break
    if a is None:
        return None
    # The rows below both a and b; climbing through them from t ends at w.
    every = np.arange(len(rows))
    under = ~lat._not_within(words, every, np.full_like(every, into_weak[a]))
    under &= ~lat._not_within(words, every, np.full_like(every, into_weak[b]))
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

    def _witnesses(self):
        """Each witness held, once, as (JSON key, JSON value, summary line).

        In one order: congruence, Tam_B, quotient, sublattice,
        semidistributivity.
        """
        if self.congruence_failure is not None:
            why = self.congruence_failure
            yield "congruence_failure", why, f"not a congruence: {why}"
        for key, name, found in (
            ("tamari_not_a_lattice", "Tam_B", self.tamari_lattice_failure),
            ("quotient_not_a_lattice", "quotient", self.quotient_lattice_failure),
        ):
            if found is not None:
                reason, pa, pb = found
                value = {"reason": reason, "pair": [pa.format(), pb.format()]}
                yield key, value, f"{name} not a lattice: {reason} for ({pa}, {pb})"
        if self.witness is not None:
            pa, pb, wm, tm = self.witness
            line = (
                f"not a sublattice: meet({pa}, {pb}) is {wm} in the weak order"
                f" but {tm} in the Tamari lattice"
            )
            yield "not_a_sublattice_witness", [x.format() for x in self.witness], line
        if self.semidistributivity_witness is not None:
            law, p, q, r = self.semidistributivity_witness
            dual = "join" if law == "meet" else "meet"
            line = (
                f"not semidistributive: {law}({p}, {q}) = {law}({p}, {r})"
                f" but {law}({p}, {dual}({q}, {r})) differs"
            )
            value = {"law": law, "triple": [p.format(), q.format(), r.format()]}
            yield "semidistributivity_witness", value, line

    def to_json(self) -> dict:
        data = {
            "alpha": self.alpha.format(),
            "checks": dict(self.checks),
            "stats": dict(self.stats),
        }
        data.update((key, value) for key, value, _ in self._witnesses())
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
        lines += (f"  {line}" for *_, line in self._witnesses())
        return "\n".join(lines)


def verify_theorems(
    alpha: Composition,
    cap: int | None = None,
    tam: lat.FiniteLattice | None = None,
) -> VerificationReport:
    """Run every structural check for one composition and collect the outcome.

    A quotient above the cap is refused first, then Tam_B's rows, from the
    pruned 231 build or from ``tam`` (a ``build_tamari(alpha, cap)`` the
    caller holds), are counted as an m x m order before the quotient is
    enumerated; a row of ``tam`` that is no quotient member raises
    ValueError.  L, the subposet lattice, is the containment of those rows'
    inversion words among the quotient's; if it is not a lattice,
    ``lattice_subposet`` fails with the pair the table kernel names, and so
    does every check on L.  The congruence test runs once and returns the
    class minima; their quotient order is built only when it is not L's, to
    decide ``lattice_quotient``.  The weak side
    is dropped before L's covers are found.  The witnesses become
    ``SignedPermutation``s only here, for the report.
    """
    cap = resolve_cap(cap)
    check_cap(quotient_size(alpha), cap)
    tam_rows = lex_sorted(aligned_rows(alpha, cap)) if tam is None else tam.labels
    check_cap(len(tam_rows), cap, len(tam_rows))
    rows = quotient_rows(alpha, cap)
    words = _inversion_words(rows, cap)
    find = row_lookup(rows)
    covers = _weak_covers(rows, find)
    bottoms = fiber_bottoms(alpha, rows, find)
    # Tam_B's rows are quotient members, in right-part order as the rows are.
    into_weak = find(tam_rows)
    del find
    L, tam_failure = tam, None
    if L is None:
        try:
            L = lat.try_lattice(lat.FinitePoset(tam_rows, lat.contained(words[into_weak])))
        except NotALatticeError as exc:
            tam_failure = _not_a_lattice(exc)
    failure, mins = lat._congruence_failure(words, covers, bottoms)
    checks = {"congruence_valid": failure is None, "lattice_subposet": L is not None}
    isomorphic = failure is None and L is not None and _isomorphic(mins, bottoms, into_weak)
    not_a_lattice = None
    if failure is None and not isomorphic:
        check_cap(len(mins), cap, len(mins))
        try:
            lat.try_lattice(lat.quotient_order(rows, words, mins))
        except NotALatticeError as exc:
            not_a_lattice = _not_a_lattice(exc)
    checks["lattice_quotient"] = failure is None and not_a_lattice is None
    checks["quotient_isomorphic_subposet"] = isomorphic
    if L is None:
        checks.update((name, False) for name in CHECKS if name not in checks)
        return VerificationReport(
            alpha, checks, {}, None, None, failure, not_a_lattice, tam_failure
        )
    witness = _meet_mismatch(rows, words, covers, L, into_weak)
    if witness is not None:
        witness = _perms(witness)
    del rows, words, covers, bottoms

    irreducibles = L.irreducibles[0]
    checks["congruence_uniform"] = lat.is_congruence_uniform(L)
    sd_witness = lat.semidistributivity_witness(L)
    checks["semidistributive"] = sd_witness is None
    ln = L.length()
    checks["extremal"] = len(irreducibles) == len(L.dual.irreducibles[0]) == ln
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


def _isomorphic(mins: np.ndarray, bottoms: np.ndarray, into_weak: np.ndarray) -> bool:
    """Whether the quotient by a congruence is Tam_B, element for element.

    The quotient is its class minima ``mins`` ordered as in the weak order
    (``lattice.quotient_order``), and Tam_B its rows ``into_weak`` ordered
    the same way, both indices among the quotient's rows: when the two sets
    are equal, so are the two orders.  The minima must also be the rows
    that are their own ``bottoms``, so that each fiber's key is its least.
    """
    keys = np.flatnonzero(bottoms == np.arange(len(bottoms)))
    return bool(np.array_equal(np.sort(mins), keys) and np.array_equal(keys, into_weak))


def _constructor_matches(
    alpha: Composition, L: lat.FiniteLattice, irreducibles: np.ndarray
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
