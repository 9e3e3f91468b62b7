import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from btamari import alignment, lattice, projection
from btamari.errors import CapExceededError
from btamari.lattice import (
    BLOCK_BYTES,
    FiniteLattice,
    FinitePoset,
    has_left_modular_chain,
    pack_words,
    try_lattice,
)
from btamari.parabolic import (
    Composition,
    _sign_table,
    _split_slots,
    all_compositions,
    inversion_columns,
    longest_element,
    quotient_rows,
    quotient_size,
    resolve_cap,
)
from btamari.signed_perm import POS, SIGN, Reflection, SignedPermutation
from btamari.tamari import _weak_leq_matrix


def perm(text: str) -> SignedPermutation:
    return SignedPermutation.parse(text)


def perms(rows) -> list[SignedPermutation]:
    """The signed permutations with the given right-part rows, in row order.

    ``perms(quotient_rows(alpha))`` lists the quotient's members and
    ``perms(lex_sorted(aligned_rows(alpha)))`` its aligned ones, each in
    right-part order.
    """
    return [SignedPermutation(r) for r in np.asarray(rows).tolist()]


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
    return len(lat.irreducibles[0]) == ln == len(lat.dual.irreducibles[0])


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
    meet = lat.meet
    join = lat.join
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

    j D k when j != k, j <= k v x and j !<= k_* v x for some x.  The cover
    pairs whose upper end is in no other pair give each k and k_*, sorted by
    k, and D is one gather of the join table's rows for k and k_* into the
    irreducibles' up-sets, O(|J|^2 m) booleans, over blocks of k of about
    ``block_bytes``; the library packs the irreducibles below each element
    into bit words instead.  Sinks are peeled off as in the library.
    """
    lower, upper = lat.covers
    single = np.bincount(upper, minlength=lat.n)[upper] == 1
    order = np.argsort(upper[single])
    irr, lows = upper[single][order], lower[single][order]
    join, below = lat.join, lat.leq[irr]
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
    lower, upper = poset.covers
    grouped = np.argsort(upper, kind="stable")
    lower, upper = lower[grouped], upper[grouped]
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


def _window(rows: np.ndarray) -> np.ndarray:
    """Each row x embedded in S_2n as [-x(n) .. -x(1), x(1) .. x(n)]."""
    return np.concatenate([-rows[:, ::-1], rows], axis=1)


def _patterns_231(alpha: Composition):
    """Every position triple i < j < k of a 231 pattern, read off the
    definition: j > 0, the three in pairwise distinct blocks, and whether j
    lies in the join region (then pi(j) < pi(k), else pi(j) > pi(i)).  The
    positions are returned as window columns."""
    n, c = alpha.n, alpha.first_part if alpha.join else 0
    signed = [*range(-n, 0), *range(1, n + 1)]
    column = {p: q for q, p in enumerate(signed)}
    return [
        (column[i], column[j], column[k], j <= c)
        for i, j, k in itertools.combinations(signed, 3)
        if j > 0 and len({alpha.block_id(p) for p in (i, j, k)}) == 3
    ]


def pi_down_by_definition(alpha: Composition, rows) -> np.ndarray:
    """pi_down of each row (of degree below 128), by its own 231 scan and
    elimination, sharing no code with ``projection``.

    Each row holding a pattern takes its first one in (i, j, k) order, with
    pi(k) = u and pi(i) = succ(u), and trades the values u and succ(u), and
    their negatives, until no row holds one.  Any order reaches the same
    bottom.
    """
    rows = np.array(rows, dtype=np.int8)
    triples = _patterns_231(alpha)
    if not triples:
        return rows
    i, j, k, low = map(np.array, zip(*triples))
    while True:
        window = _window(rows)
        wi, wj, wk = window[:, i], window[:, j], window[:, k]
        succ = np.where(wk == -1, 1, wk + 1)
        held = (wi == succ) & np.where(low, wj < wk, wj > wi)
        hit = np.flatnonzero(held.any(axis=1))
        if not hit.size:
            return rows
        first = held[hit].argmax(axis=1)
        u, s = wk[hit, first][:, None], succ[hit, first][:, None]
        r = rows[hit]
        rows[hit] = np.select([r == u, r == s, r == -u, r == -s], [s, u, -s, -u], r)


def _weak_join(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The weak join of rows x[p] and y[p], in S_2n and so in B_n."""
    n = x.shape[1]
    inv = np.zeros((len(x), 2 * n, 2 * n), dtype=bool)
    for w in (_window(x), _window(y)):
        inv |= np.triu(w[:, :, None] > w[:, None, :], 1)
    for c in range(2 * n):
        inv |= inv[:, :, c, None] & inv[:, None, c, :]
    # Position i's rank: the later positions it inverts, the earlier it does not.
    rank = inv.sum(axis=2) + np.triu(~inv, 1).sum(axis=1)
    return (rank - n + (rank >= n))[:, n:].astype(np.int8)


def tamari_meet_join_by_closure(alpha: Composition, x, y):
    """P9, an oracle for Tam_B's meet and join tables: the rows of x[p] ^ y[p]
    and x[p] v y[p] from the two rows alone, with no table and no code shared
    with the table kernel.  It rests on three facts:

    - B_n's weak order is the sublattice of S_2n's fixed by x -> w0 x w0
      (A. Björner and F. Brenti, Combinatorics of Coxeter Groups, GTM 231,
      2005, §3.2 and ch. 8), with x embedded as its ``_window``;
    - in S_2n, the join's position-inversion set is the transitive closure of
      the union of the two sets, and w0 negates the values, so the meet is
      -join(-x, -y);
    - the quotient is the interval [e, w0^J], so closed under both, and a
      lattice quotient has [x] v [y] = [x v y] and [x] ^ [y] = [x ^ y] (N.
      Reading, Order 21, 2004): with Tam_B's elements the bottoms of the
      fibers, its meet and join are pi_down of the weak ones.
    """
    x, y = np.asarray(x, dtype=np.int8), np.asarray(y, dtype=np.int8)
    return (
        pi_down_by_definition(alpha, -_weak_join(-x, -y)),
        pi_down_by_definition(alpha, _weak_join(x, y)),
    )


def order_words(poset: FinitePoset):
    """Down-sets as words and the cover pairs: the congruence test's inputs."""
    return pack_words(poset.leq.T), poset.covers


def quotient_by(poset: FinitePoset, block_of) -> FinitePoset:
    """``lattice.quotient_order`` of ``poset`` by a congruence, on the class
    minima that ``lattice._congruence_failure`` returns with no failure."""
    words, covers = order_words(poset)
    why, mins = lattice._congruence_failure(words, covers, block_of)
    assert why is None, why
    return lattice.quotient_order(poset.labels, words, mins)


def hasse_by_definition(poset: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """The oracle for ``FinitePoset.covers``: the pairs a < b with no c
    strictly between them, row-major, one row of a at a time."""
    lt = poset.leq & ~np.eye(poset.n, dtype=bool)
    hasse = np.zeros_like(lt)
    for a in range(poset.n):
        hasse[a] = lt[a] & ~(lt[a][:, None] & lt).any(axis=0)
    return np.nonzero(hasse)


def cover_list(poset: FinitePoset) -> list[tuple[int, int]]:
    """The cover pairs of ``poset`` as a list of (lower, upper) int tuples."""
    return list(zip(*(ends.tolist() for ends in poset.covers)))


def check_congruence(poset: FinitePoset, block_of):
    """(ok, why): the congruence test ``quotient_by`` runs, on a matrix order."""
    why, _ = lattice._congruence_failure(*order_words(poset), block_of)
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
    lower, upper = lat.covers
    for x in np.argsort(lat.leq.sum(axis=0), kind="stable"):
        if not modular[x] or best[x] < 0:
            continue
        for y in upper[lower == x]:
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

    A labelling loop: mu and lam per row, the longest element as a signed
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
            found.append(Reflection.exchanging(row_label, col_label))
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
    Each column gets the index of the last entry it holds, or -1; entries
    come k by k, so that entry's k is the largest the library returns.
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
