import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from btamari import alignment, projection
from btamari.config import resolve_cap
from btamari.errors import CapExceededError
from btamari.lattice import (
    BLOCK_BYTES,
    FiniteLattice,
    FinitePoset,
    _congruence_failure,
    has_left_modular_chain,
    join_irreducibles,
    meet_irreducibles,
    pack_words,
    try_lattice,
)
from btamari.parabolic import (
    Composition,
    _cell_reflection,
    _sign_table,
    _split_slots,
    all_compositions,
    inversion_columns,
    longest_element,
    quotient_rows,
    quotient_size,
)
from btamari.signed_perm import POS, SIGN, Reflection, SignedPermutation
from btamari.tamari import _weak_leq_matrix


def perm(text: str) -> SignedPermutation:
    return SignedPermutation.parse(text)


def weak_leq(u: SignedPermutation, v: SignedPermutation) -> bool:
    """Left weak order: containment of inversion sets."""
    return u.inversion_set() <= v.inversion_set()


def mul_reflection_right(pi: SignedPermutation, t: Reflection) -> SignedPermutation:
    """pi t, the map a -> pi(t(a)): t acts on positions."""
    return SignedPermutation(tuple(pi(t.apply(a)) for a in range(1, pi.n + 1)))


def mul_reflection_left(t: Reflection, pi: SignedPermutation) -> SignedPermutation:
    """t pi, the map v -> t(v) on pi's values."""
    return SignedPermutation(tuple(t.apply(v) for v in pi.right))


def suffix_chain(word: tuple[int, ...], n: int) -> list[SignedPermutation]:
    """The elements spelled by a word's suffixes, shortest first; the last is the word's."""
    chain = [SignedPermutation.identity(n)]
    for s in reversed(word):
        chain.append(chain[-1].mul_gen_left(s))
    return chain


def weak_order_lattice(alpha: Composition) -> FiniteLattice:
    """The weak order on the full parabolic quotient, with dense meet and join tables.

    The oracle for the weak order on a parabolic quotient being a lattice
    (A. Björner and M. Wachs, Generalized quotients in Coxeter groups, Trans.
    AMS 308, 1988): ``try_lattice`` raises NotALatticeError otherwise.  The
    library keeps the weak order as a poset and builds no tables for it.
    Its labels are the quotient's right-part rows.
    """
    rows = quotient_rows(alpha)
    return try_lattice(FinitePoset(rows, _weak_leq_matrix(rows)))


def is_extremal(lat: FiniteLattice) -> bool:
    """As many join- as meet-irreducibles, and as many as the lattice's length.

    The oracle for the extremality count ``verify_theorems`` makes inline.
    """
    ln = lat.length()
    return len(join_irreducibles(lat)) == ln == len(meet_irreducibles(lat))


def is_trim(lat: FiniteLattice) -> bool:
    """Extremal plus a left-modular maximal chain: the definition of trim.

    The oracle for the trimness verdict ``verify_theorems`` assembles from
    its extremal and semidistributive checks.
    """
    return is_extremal(lat) and has_left_modular_chain(lat)


def is_left_modular_element(lat: FiniteLattice, p: int) -> bool:
    """(r v p) ^ q = r v (p ^ q) for every r <= q: the definition.

    O(m^2) per element; the oracle for ``lattice._left_modular``, which
    tests the cover pairs instead.
    """
    meet = lat.meet_table()
    join = lat.join_table()
    lhs = meet[join[:, p]]
    rhs = join[:, meet[p]]
    return bool(((lhs == rhs) | ~lat.leq).all())


def inversion_words_whole(rows):
    """The oracle for ``tamari._inversion_words``: the whole m x n^2 table of
    ``inversion_columns``, packed by ``pack_words``, and its row sums."""
    table = np.concatenate(list(inversion_columns(rows)), axis=1)
    return pack_words(table), table.sum(axis=1)


def lower_bounded_by_gather(lat: FiniteLattice, block_bytes: int = BLOCK_BYTES) -> bool:
    """The oracle for ``lattice._lower_bounded``: D by gathering join-table rows.

    j D k when j != k, j <= k v x and j !<= k_* v x for some x.  Each k's
    lower cover comes from an ``argmax`` over its column of ``covers``, and
    D is one gather of the join table's rows for k and k_* into the
    irreducibles' up-sets, O(|J|^2 m) booleans, over blocks of k of about
    ``block_bytes``; the library packs the irreducibles below each element
    into bit words instead.  Sinks are peeled off as in the library.
    """
    covers = lat.covers
    irr = np.flatnonzero(covers.sum(axis=0) == 1)
    lows = covers[:, irr].argmax(axis=0)
    join, below = lat.join_table(), lat.leq[irr]
    dep = np.empty((len(irr), len(irr)), dtype=bool)
    step = max(1, block_bytes // (below.size + 1))
    for lo in range(0, len(irr), step):
        k, low = join[irr[lo:lo + step]], join[lows[lo:lo + step]]
        dep[:, lo:lo + step] = (below[:, k] & ~below[:, low]).any(axis=2)
    np.fill_diagonal(dep, False)
    alive = np.ones(len(irr), dtype=bool)
    while (sinks := alive & ~dep[:, alive].any(axis=1)).any():
        alive &= ~sinks
    return not alive.any()


def heights_by_rounds(poset: FinitePoset) -> np.ndarray:
    """The oracle for ``FinitePoset.heights``: one array step per rank.

    Over the cover pairs grouped by their upper element, after step r every
    element has the longest chain of at most r covers ending at it, so the
    heights stop changing after the longest chain's r steps.  The library
    takes the cover pairs once, in the order of a linear extension.
    """
    upper, lower = np.nonzero(poset.covers.T)  # pairs grouped by upper
    h = np.zeros(poset.n, dtype=np.int64)
    if not len(upper):
        return h
    starts = np.flatnonzero(np.r_[True, upper[1:] != upper[:-1]])
    tops = upper[starts]
    while True:
        step = np.maximum.reduceat(h[lower], starts) + 1
        if np.array_equal(step, h[tops]):
            return h
        h[tops] = step


def eliminate_231(alpha: Composition, rows):
    """Rows holding a 231 pattern, and each with one of its patterns eliminated
    by the generator ``_pattern_generators`` names: ``fiber_bottoms``' step."""
    right = np.asarray(rows)
    hit, gens = projection._pattern_generators(alpha, right)
    return hit, projection.left_act(right[hit], gens[:, None])


def order_words(poset: FinitePoset):
    """Down-sets as words and the cover pairs: ``quotient_order``'s inputs."""
    return pack_words(poset.leq.T), *np.nonzero(poset.covers)


def check_congruence(poset: FinitePoset, block_of):
    """(ok, why): the congruence test ``quotient_order`` runs, on a matrix order."""
    why, _ = _congruence_failure(*order_words(poset), block_of)
    return why is None, why


def left_modular_chain_by_search(lat: FiniteLattice) -> bool:
    """The oracle for ``lattice.has_left_modular_chain``: the longest chain of
    left-modular elements from the bottom, one element at a time over a
    linear extension, must reach the top in length(L) steps."""
    modular = np.fromiter(
        (is_left_modular_element(lat, p) for p in range(lat.n)), dtype=bool
    )
    best = np.full(lat.n, -1, dtype=np.int64)
    best[np.flatnonzero(lat.leq.all(axis=1))[0]] = 0
    for x in np.argsort(lat.leq.sum(axis=0), kind="stable"):
        if not modular[x] or best[x] < 0:
            continue
        for y in np.flatnonzero(lat.covers[x]):
            if modular[y]:
                best[y] = max(best[y], best[x] + 1)
    return bool(best[lat.leq.all(axis=0).argmax()] == lat.length())


def root_vector(t: Reflection, n: int) -> tuple[int, ...]:
    """Coordinates of the positive root attached to a reflection.

    The oracle for ``alignment.decompositions``: each decomposition's roots
    must add up to the target's.
    """
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


def find_all_231_patterns(alpha: Composition, pi: SignedPermutation):
    """Every 231 pattern of pi, in the order of the pattern scan.

    The oracle for the patterns the batch scan and the projections pick
    from: ``find_231_pattern`` returns the first of these.
    """
    return list(alignment._find_pattern(alpha, pi, "231"))


def tableau_reflections_by_loop(alpha: Composition):
    """The oracle for ``parabolic.tableau_cells``' reflections, row by row.

    The labelling loop as ``InversionTableau`` ran it before it read
    ``tableau_cells``: mu and lam per row, the longest element as a signed
    permutation, called at each column's position.
    """
    n, a1, p = alpha.n, alpha.first_part, alpha.prefix
    omega = longest_element(alpha)
    mu = [n - p[alpha.region_of(k) - 1] for k in range(1, n + 1)]
    lam = [2 * n - a1 if alpha.join and k <= a1 else 2 * n + 1 - k for k in range(1, n + 1)]
    found = []
    for k in range(1, n + 1):
        row_label = -k if alpha.split or k > a1 else a1 + 1 - k
        for col in range(mu[k - 1] + 1, lam[k - 1] + 1):
            col_label = omega(n + 1 - col) if col <= n else 2 * n + 1 - col
            found.append(_cell_reflection(row_label, col_label))
    return found


def _long_array(rows) -> np.ndarray:
    """Long one-line notation, transposed, one column per element.

    Row 2p - 2 holds position p and row 2p - 1 position -p, so a position's
    row does not depend on the degree: the rows of a partial row's first w
    positions are the first 2w rows of the full array.  Accepts an array or
    a sequence of right parts and keeps their dtype.  The oracle scans read
    negative positions from it; the library reads the positive rows only.
    """
    right = np.asarray(rows)
    long = np.empty((2 * right.shape[1], len(right)), dtype=right.dtype)
    long[0::2] = right.T
    np.negative(right.T, out=long[1::2])
    return long


def _long_row(p: int) -> int:
    return 2 * p - 2 if p > 0 else -2 * p - 1


def scan_plan_by_rows(alpha: Composition):
    """The 231 scan plan with each middle set listed row by row.

    The oracle for ``alignment._scan_plan``: entries ``(ii, kk, js_low,
    js_high)`` hold the long rows of the outer positions and of every middle
    position, found one position at a time with ``Composition.block_id``,
    where the library groups the outer positions that share a middle run
    and stores one column span per set.
    """
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


def violations_by_gather(long: np.ndarray, plan) -> np.ndarray:
    """The oracle for ``alignment._violations``, on a ``scan_plan_by_rows`` plan.

    Per outer pair, the cover test runs on every column; the middle max/min
    then runs only on the covered columns, gathered into a smaller array.
    A later entry overwrites an earlier one, as in the library.
    """
    succ = long + 1
    succ[long == -1] = 1
    found = np.full(long.shape[1], -1, dtype=np.intp)
    for t, (ii, kk, js_low, js_high) in enumerate(plan):
        hit = np.flatnonzero(long[ii] == succ[kk])
        if not len(hit):
            continue
        sub = np.take(long, hit, axis=1)
        cond = np.zeros(len(hit), dtype=bool)
        if js_high:
            cond |= sub[list(js_high)].max(axis=0) > sub[ii]
        if js_low:
            cond |= sub[list(js_low)].min(axis=0) < sub[kk]
        found[hit[cond]] = t
    return found


def build_rows_two_arrays(alpha: Composition, cap=None, keep=None) -> np.ndarray:
    """The oracle for ``parabolic._build_rows``: filled rows and free values apart.

    Each block tiles the filled rows once per choice of its values and
    appends them, then tiles the widened rows once per signing, so the
    latest block is the most significant, by its sign mask and then its
    values; the free values are carried in a second array.  The cap bounds
    ``quotient_size`` whether or not ``keep`` is given.
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
            [
                np.tile(rows, (len(taken), 1)),
                free[:, taken].transpose(1, 0, 2).reshape(-1, p),
            ],
            axis=1,
        )
        free = free[:, left].transpose(1, 0, 2).reshape(len(rows), width - p)
        if alpha.split or b > 0:
            lo = alpha.prefix[b]
            slots, signs = _sign_table(p)
            widened = np.tile(rows, (len(slots), 1))
            widened.reshape(len(slots), len(rows), -1)[:, :, lo:] = (
                rows[:, lo:][:, slots] * signs
            ).transpose(1, 0, 2)
            rows = widened
            free = np.tile(free, (len(slots), 1))
        if keep is not None:
            kept = keep(b, rows)
            rows, free = rows[kept], free[kept]
    return rows


def aligned_block_steps(alpha: Composition):
    """``aligned_rows(alpha)``, and the state and plan of each block step's prune.

    The prune is watched through ``alignment._avoids``, which every step
    calls once, so each recorded ``(cols, plan)`` is what that step pruned:
    ``cols`` is position major, one array row per filled position.
    """
    steps = []
    avoids = alignment._avoids

    def watched(cols, plan):
        steps.append((cols, plan))
        return avoids(cols, plan)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(alignment, "_avoids", watched)
        rows = alignment.aligned_rows(alpha)
    return rows, steps


def full_group(n: int) -> list[SignedPermutation]:
    out = []
    for base in itertools.permutations(range(1, n + 1)):
        for mask in range(1 << n):
            out.append(
                SignedPermutation(
                    tuple(-v if mask >> t & 1 else v for t, v in enumerate(base))
                )
            )
    return out


@st.composite
def signed_perms(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation(tuple(-v if s else v for v, s in zip(base, signs)))


@st.composite
def compositions(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    split = draw(st.booleans())
    parts = []
    left = n
    while left:
        p = draw(st.integers(1, left))
        parts.append(p)
        left -= p
    return Composition(tuple(parts), split)


@pytest.fixture(scope="session")
def all_small_compositions():
    return {n: all_compositions(n) for n in (1, 2, 3, 4)}
