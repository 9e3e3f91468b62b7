import numpy as np
import pytest

import gc
import weakref

from btamari.errors import NotALatticeError
from btamari import lattice
from btamari.lattice import (
    FinitePoset,
    has_left_modular_chain,
    _left_modular,
    _lower_bounded,
    is_congruence_uniform,
    lattice_to_dot,
    lattice_to_json,
    semidistributivity_witness,
    try_lattice,
)

from btamari.parabolic import Composition, all_compositions, quotient_rows
from btamari.projection import fiber_bottoms, row_lookup
from btamari.tamari import _inversion_words, _weak_covers, build_tamari
from conftest import (
    check_congruence,
    cover_list,
    full_group,
    hasse_by_definition,
    heights_by_rounds,
    is_extremal,
    is_left_modular_element,
    is_trim,
    left_modular_chain_by_search,
    lower_bounded_by_gather,
    quotient_by,
    weak_leq,
    weak_order_lattice,
)


def poset_from(labels, relation):
    """The order ``relation`` gives on ``labels``, unvalidated."""
    leq = [[relation(a, b) for b in labels] for a in labels]
    return FinitePoset(labels, np.array(leq, dtype=bool))


def chain(n):
    return try_lattice(poset_from(list(range(n)), lambda a, b: a <= b))


def from_covers(labels, cover_list):
    m = len(labels)
    leq = np.eye(m, dtype=bool)
    adj = np.zeros((m, m), dtype=bool)
    for a, b in cover_list:
        adj[a, b] = True
    changed = True
    while changed:
        new = leq | (leq @ adj)
        changed = not np.array_equal(new, leq)
        leq = new
    return FinitePoset(labels, leq)


def m3():
    # five elements, three atoms
    return try_lattice(
        from_covers(list("0abc1"), [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    )


def n5():
    # 0 < a < c < 1 and 0 < b < 1
    return try_lattice(
        from_covers(list("0acb1"), [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    )


def boolean(rank):
    labels = list(range(1 << rank))
    return try_lattice(poset_from(labels, lambda a, b: a & b == a))


def dense_try_lattice(poset):
    """The dense kernel that preceded the packed one, kept as an oracle."""
    m = poset.n
    leq = poset.leq
    up_sizes = leq.sum(axis=1)
    down_sizes = leq.sum(axis=0)
    join = np.empty((m, m), dtype=np.int32)
    meet = np.empty((m, m), dtype=np.int32)
    for a in range(m):
        # common_up[b, x]: a <= x and b <= x
        common_up = leq[a][None, :] & leq
        cand = np.where(common_up, up_sizes[None, :], -1).argmax(axis=1)
        ok = (leq[cand] == common_up).all(axis=1)
        if not ok.all():
            b = int(np.flatnonzero(~ok)[0])
            raise NotALatticeError((a, b), "no-lub")
        join[a] = cand
        # common_down[x, b]: x <= a and x <= b
        common_down = leq[:, a][:, None] & leq
        cand_m = np.where(common_down, down_sizes[:, None], -1).argmax(axis=0)
        ok_m = (leq[:, cand_m] == common_down).all(axis=0)
        if not ok_m.all():
            b = int(np.flatnonzero(~ok_m)[0])
            raise NotALatticeError((a, b), "no-glb")
        meet[a] = cand_m
    return meet, join


def semidistributivity_scan(lat):
    """The O(m^3) scan that preceded the kappa criterion, kept as an oracle.

    For each law, join first, it returns the first (name, p, q, r) with
    p * q = p * r != p * (q + r), where * is the law's operation and + the
    other one.
    """
    meet = lat.meet
    join = lat.join
    for table, other, name in ((join, meet, "join"), (meet, join, "meet")):
        for p in range(lat.n):
            row = table[p]
            equal = row[:, None] == row[None, :]
            target = row[other]
            bad = equal & (row[:, None] != target)
            if bad.any():
                q, r = map(int, np.argwhere(bad)[0])
                return (name, p, q, r)
    return None


def violates_its_law(lat, witness):
    name, p, q, r = witness
    table, other = (
        (lat.join, lat.meet) if name == "join"
        else (lat.meet, lat.join)
    )
    return table[p, q] == table[p, r] != table[p, other[q, r]]


def loop_check_congruence(lat, partition):
    """check_congruence as it was, one cover pair at a time; kept as an oracle."""
    if len(partition.block_of) != lat.n:
        return False, "partition size does not match the lattice"
    leq = lat.leq
    meet, join = lat.meet, lat.join
    mins = np.empty(len(partition.blocks), dtype=np.int64)
    maxs = np.empty(len(partition.blocks), dtype=np.int64)
    for b, members in enumerate(partition.blocks):
        lo = members[0]
        hi = members[0]
        for x in members[1:]:
            lo = meet[lo, x]
            hi = join[hi, x]
        interval = np.flatnonzero(leq[lo] & leq[:, hi])
        if set(map(int, interval)) != set(members):
            return False, f"class {b} is not an interval"
        mins[b] = lo
        maxs[b] = hi
    block_of = np.asarray(partition.block_of)
    for a, b in cover_list(lat):
        if not leq[mins[block_of[a]], mins[block_of[b]]]:
            return False, "class-minimum map is not order preserving"
        if not leq[maxs[block_of[a]], maxs[block_of[b]]]:
            return False, "class-maximum map is not order preserving"
    return True, None


# -- congruences by closure: the oracle for check_congruence -------------------


class Partition:
    """A partition of lattice indices, hashable up to block order.

    ``block_of[x]`` is any hashable key naming the block of element x; keys
    are relabelled 0, 1, ... in order of first appearance, so two labellings
    of one partition compare equal.
    """

    def __init__(self, block_of):
        relabel = {}
        canon = []
        for b in block_of:
            relabel.setdefault(b, len(relabel))
            canon.append(relabel[b])
        self.block_of = tuple(canon)
        blocks = {}
        for x, b in enumerate(self.block_of):
            blocks.setdefault(b, []).append(x)
        self.blocks = tuple(tuple(members) for _, members in sorted(blocks.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.block_of == other.block_of

    def __hash__(self) -> int:
        return hash(self.block_of)

    def __len__(self) -> int:
        return len(self.blocks)


def discrete(n):
    return Partition(range(n))


def refines(finer, coarser):
    seen = {}
    for x, b in enumerate(finer.block_of):
        o = coarser.block_of[x]
        if seen.setdefault(b, o) != o:
            return False
    return True


def congruence_closure(lat, pairs):
    """Finest congruence identifying all the given pairs, by closure."""
    meet = lat.meet
    join = lat.join
    parent = list(range(lat.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for z in range(lat.n):
            jx, jy = int(join[x, z]), int(join[y, z])
            if find(jx) != find(jy):
                queue.append((jx, jy))
            mx, my = int(meet[x, z]), int(meet[y, z])
            if find(mx) != find(my):
                queue.append((mx, my))
    return Partition([find(x) for x in range(lat.n)])


def lower_cover(lat, j):
    """The unique lower cover of a join-irreducible j."""
    lower, upper = lat.covers
    below = lower[upper == j]
    if below.size != 1:
        raise ValueError(f"element {j} is not join-irreducible")
    return int(below[0])


def principal_congruence(lat, a, b):
    """Finest congruence in which a and b are congruent."""
    return congruence_closure(lat, [(a, b)])


def all_congruences(lat):
    """Every congruence, generated by joining principal cover congruences."""
    principals = {
        congruence_closure(lat, [pair]) for pair in cover_list(lat)
    }
    found = {discrete(lat.n)} | principals
    frontier = list(found)
    while frontier:
        theta = frontier.pop()
        for gen in principals:
            merged = congruence_closure(
                lat,
                [(blk[0], x) for blk in theta.blocks for x in blk[1:]]
                + [(blk[0], x) for blk in gen.blocks for x in blk[1:]],
            )
            if merged not in found:
                found.add(merged)
                frontier.append(merged)
    return sorted(found, key=lambda p: (len(p.blocks), p.block_of), reverse=True)


def closure_cg_map_injective(lat):
    """Lower boundedness by principal-congruence closure, kept as an oracle.

    Each join-irreducible j must generate its own congruence con(j_*, j).
    """
    seen = set()
    for j in lat.irreducibles[0].tolist():
        theta = principal_congruence(lat, lower_cover(lat, j), j)
        if theta in seen:
            return False
        seen.add(theta)
    return True


def random_poset(rng, m):
    """A random order on m elements, relabelled so indices are not a linear extension."""
    leq = np.eye(m, dtype=bool) | np.triu(rng.random((m, m)) < rng.random(), 1)
    while not np.array_equal(leq, closed := leq | (leq.astype(np.int64) @ leq > 0)):
        leq = closed
    perm = rng.permutation(m)
    return FinitePoset(list(range(m)), leq[np.ix_(perm, perm)])


def random_lattice_order(rng, lo, hi):
    """The order of a random family of lo to hi subsets of a 12-set, relabelled.

    Ten random subsets and the whole set, closed under intersection: a
    lattice whose meet is the intersection.
    """
    while True:
        bits = rng.random((10, 12)) < 0.8
        family = {(1 << 12) - 1} | {int(b @ (1 << np.arange(12))) for b in bits}
        while (closed := family | {a & b for a in family for b in family}) != family:
            family = closed
        if lo <= len(family) <= hi:
            sets = rng.permutation(sorted(family))
            return (sets[:, None] & sets) == sets[:, None]


def intersection_closed_lattice(rng, k=4):
    """Random subsets of a k-set plus the whole set, closed under intersection."""
    size = int(rng.integers(1, 9))
    family = {(1 << k) - 1} | {int(s) for s in rng.integers(0, 1 << k, size=size)}
    while (closed := family | {a & b for a in family for b in family}) != family:
        family = closed
    return try_lattice(poset_from(sorted(family), lambda a, b: a & b == a))


@pytest.fixture(scope="module")
def small_lattices():
    """Weak order and Tamari lattice of every composition with n <= 4."""
    built = {}
    for n in (1, 2, 3, 4):
        for alpha in all_compositions(n):
            built[f"weak {alpha.format()}"] = weak_order_lattice(alpha)
            built[f"tamari {alpha.format()}"] = build_tamari(alpha)
    return built


def largest_member_keys(partition):
    """Each element keyed by the largest member of its class: keys with gaps,
    not in order of first appearance."""
    return np.array([partition.blocks[b][-1] for b in partition.block_of])


def weak_order_partitions(alpha, weak):
    """Class keys on the weak order of ``alpha``: the raw fiber bottoms, then
    two broken partitions.

    The first merges the fibers numbered 0 and 1.  The second, when some y
    has two lower covers, makes one cover x < y a class: the other lower
    cover z < y is not below x, the new minimum of y's class.
    """
    bottoms = fiber_bottoms(alpha, weak.labels)
    merged = Partition([max(b - 1, 0) for b in Partition(bottoms.tolist()).block_of])
    keys = [bottoms, largest_member_keys(merged)]
    lower, upper = weak.covers
    joined = np.flatnonzero(np.bincount(upper, minlength=weak.n) > 1)
    if joined.size:
        y = int(joined[0])
        x = int(lower[upper == y][0])
        cover = Partition([x if v == y else v for v in range(weak.n)])
        keys.append(largest_member_keys(cover))
    return keys


def doubled_lattice(rng, m):
    """A congruence-uniform lattice of m elements: one element, then random
    intervals doubled (A. Day), mostly single elements.

    Doubling an interval I puts the down-set of I at level 0, the rest at
    level 1, and I at both, ordered as a subset of L x 2.
    """
    leq = np.ones((1, 1), dtype=bool)
    while len(leq) < m:
        a = int(rng.integers(len(leq)))
        # The upper covers of a: the b whose interval [a, b] has two elements.
        covering = np.flatnonzero((leq[a][:, None] & leq).sum(axis=0) == 2)
        b = a
        if covering.size and len(leq) + 2 <= m and rng.random() < 0.2:
            b = int(rng.choice(covering))
        inside = leq[a] & leq[:, b]
        down = leq[:, b]
        elements = [(x, 0) for x in np.flatnonzero(down)]
        elements += [(x, 1) for x in np.flatnonzero(inside | ~down)]
        x, level = np.array(elements).T
        leq = leq[np.ix_(x, x)] & (level[:, None] <= level)
    return try_lattice(FinitePoset(list(range(m)), leq))


def tree_lattice(rng, m):
    """A random rooted tree on m - 1 elements, root at the bottom, under a
    new top: every tree element but the root is join-irreducible."""
    leq = np.eye(m, dtype=bool)
    leq[:, m - 1] = True
    for x in range(1, m - 1):
        # Below x: x and everything below its parent, an earlier element.
        leq[:, x] |= leq[:, int(rng.integers(x))]
    return try_lattice(FinitePoset(list(range(m)), leq))


def weak_order_lattice_raw(n):
    group = sorted(full_group(n), key=lambda p: p.right)
    return try_lattice(poset_from(group, weak_leq))


class TestPosets:
    def test_chain_covers(self):
        poset = poset_from([0, 1, 2], lambda a, b: a <= b)
        assert cover_list(poset) == [(0, 1), (1, 2)]

    def test_antichain(self):
        poset = poset_from([0, 1], lambda a, b: a == b)
        assert cover_list(poset) == []

    def test_weak_order_octagon(self):
        group = full_group(2)
        poset = poset_from(group, weak_leq)
        assert poset.n == 8
        assert len(cover_list(poset)) == 8

    def test_order_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="order matrix shape"):
            FinitePoset([0, 1, 2], np.eye(2, dtype=bool))

    def test_interval_with_256_inner_elements(self):
        # 0 < each of 256 atoms < top: counting the atoms in uint8 wrapped to 0
        m = 258
        leq = np.eye(m, dtype=bool)
        leq[0, :] = leq[:, m - 1] = True
        poset = FinitePoset(list(range(m)), leq)
        assert (0, m - 1) not in cover_list(poset)
        assert len(cover_list(poset)) == 2 * 256

    def test_covers_match_definition(self, small_lattices):
        # Row-major pairs, on every weak order and Tam_B with n <= 4 and on
        # 300 random posets, whose indices are not a linear extension.
        rng = np.random.default_rng(25)
        posets = list(small_lattices.values())
        posets += [random_poset(rng, int(rng.integers(1, 20))) for _ in range(300)]
        for poset in posets:
            lower, upper = poset.covers
            assert lower.dtype == upper.dtype == np.intp
            assert np.array_equal(poset.covers, hasse_by_definition(poset)), poset.n

    def test_dual_covers_are_the_swapped_pairs(self, small_lattices):
        # The dual's pairs are the lattice's own arrays, swapped, so they are
        # grouped by the dual's upper end rather than row-major; its heights,
        # meet-irreducibles and left-modular chain agree with the oracles.
        for name, lat in small_lattices.items():
            dual = lat.dual
            lower, upper = lat.covers
            assert dual.covers[0] is upper and dual.covers[1] is lower, name
            flipped = FinitePoset(lat.labels, lat.leq.T)
            row_major = np.lexsort(dual.covers[::-1])
            assert np.array_equal(np.stack(dual.covers)[:, row_major],
                                  hasse_by_definition(flipped)), name
            assert np.array_equal(dual.heights, heights_by_rounds(flipped)), name
            hasse_lower = hasse_by_definition(lat)[0]
            one_upper = np.bincount(hasse_lower, minlength=lat.n) == 1
            assert np.array_equal(dual.irreducibles[0], np.flatnonzero(one_upper)), name
            chain_found = has_left_modular_chain(dual)
            assert chain_found == left_modular_chain_by_search(dual), name

    def test_one_order_object(self):
        alpha = Composition.parse("0,1,2")
        weak = weak_order_lattice(alpha)
        # Every construction is one order object: a poset with meet and join tables.
        bottoms = fiber_bottoms(alpha, weak.labels)
        quot = try_lattice(quotient_by(weak, bottoms))
        for lat in (weak, build_tamari(alpha), quot):
            assert isinstance(lat, FinitePoset)
            twice = lat.dual.dual
            assert np.array_equal(twice.leq, lat.leq)
            assert np.array_equal(twice.meet, lat.meet)
            assert np.array_equal(twice.join, lat.join)


    def test_lattice_and_dual_freed_without_the_collector(self):
        # The kept dual holds no reference back, so with the cyclic
        # collector off, dropping the last reference frees both.
        from btamari.tamari import verify_theorems

        alpha = Composition.parse("0,2,1")
        tam = build_tamari(alpha)
        assert verify_theorems(alpha, tam=tam).ok
        assert tam.dual is tam.dual
        assert len(tam.dual.irreducibles[0]) == len(tam.irreducibles[0])
        refs = weakref.ref(tam), weakref.ref(tam.dual)
        gc.disable()
        try:
            del tam
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestBlocks:
    def test_slices_cover_the_range_within_the_bound(self, monkeypatch):
        # Every block but the last holds max(1, BLOCK_BYTES // (item_bytes + 1))
        # items, so a block stays within BLOCK_BYTES unless it is one item
        # larger than that on its own.
        for block_bytes in (lattice.BLOCK_BYTES, 64):
            monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
            for count in (0, 1, 7, 1000):
                for item_bytes in (0, 1, 8, 100, block_bytes, block_bytes + 1, 10**9):
                    parts = [range(count)[s] for s in lattice.blocks(count, item_bytes)]
                    assert [i for part in parts for i in part] == list(range(count))
                    step = max(1, block_bytes // (item_bytes + 1))
                    assert all(len(part) == step for part in parts[:-1])
                    assert 0 < len(parts[-1]) <= step if count else parts == []
                    for part in parts:
                        assert len(part) * item_bytes <= block_bytes or len(part) == 1

    def test_zero_item_bytes_fill_a_block(self, monkeypatch):
        monkeypatch.setattr(lattice, "BLOCK_BYTES", 64)
        assert lattice.blocks(130, 0) == [slice(0, 64), slice(64, 128), slice(128, 130)]


class TestTryLattice:
    def test_chain(self):
        lat = chain(3)
        assert lat.meet[0, 2] == 0 and lat.join[0, 2] == 2

    def test_antichain_fails(self):
        poset = poset_from([0, 1], lambda a, b: a == b)
        with pytest.raises(NotALatticeError) as info:
            try_lattice(poset)
        assert info.value.reason in ("no-lub", "no-glb")

    def test_weak_order_is_lattice(self):
        lat = weak_order_lattice_raw(3)
        assert lat.n == 48
        # absorption plus order compatibility on every pair
        for a in range(0, 48, 7):
            for b in range(0, 48, 5):
                m, j = lat.meet[a, b], lat.join[a, b]
                assert lat.leq[m, a] and lat.leq[m, b]
                assert lat.leq[a, j] and lat.leq[b, j]
                assert (lat.meet[a, j], lat.join[a, m]) == (a, a)
                assert lat.leq[a, b] == (m == a) == (j == b)

    def test_tables_match_dense_oracle(self, small_lattices):
        assert "weak 0,1,1,1,1" in small_lattices
        for name, lat in small_lattices.items():
            rebuilt = try_lattice(lat)
            meet, join = dense_try_lattice(lat)
            assert rebuilt.meet.dtype == rebuilt.join.dtype == np.int32
            assert np.array_equal(rebuilt.meet, meet), name
            assert np.array_equal(rebuilt.join, join), name

    def test_witness_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        posets = [
            poset_from([0, 1], lambda a, b: a == b),
            from_covers(list("0ab"), [(0, 1), (0, 2)]),
        ] + [random_poset(rng, int(rng.integers(2, 12))) for _ in range(300)]
        failures = 0
        for poset in posets:
            try:
                expected = dense_try_lattice(poset)
            except NotALatticeError as exc:
                failures += 1
                with pytest.raises(NotALatticeError) as info:
                    try_lattice(poset)
                assert (info.value.pair, info.value.reason) == (exc.pair, exc.reason)
            else:
                lat = try_lattice(poset)
                assert np.array_equal(lat.meet, expected[0])
                assert np.array_equal(lat.join, expected[1])
        assert failures > 100

    @pytest.mark.parametrize("block_bytes", [lattice.BLOCK_BYTES, 1])
    def test_multi_word_witness_matches_dense_oracle(self, block_bytes, monkeypatch):
        # 65 to 200 elements, so every up-set spans two to four words.
        monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(21)
        posets = []
        for _ in range(8):
            leq = random_lattice_order(rng, 66, 200)
            posets.append(FinitePoset(list(range(len(leq))), leq))
            # Without one element other than the top: mostly not a lattice.
            below_top = np.flatnonzero(~leq.all(axis=0))
            keep = np.delete(np.arange(len(leq)), rng.choice(below_top))
            posets.append(FinitePoset(list(range(len(keep))), leq[np.ix_(keep, keep)]))
        for _ in range(8):
            # Several maximal elements: pairs with no common upper bound.
            posets.append(random_poset(rng, int(rng.integers(65, 201))))
            # A bottom and a top added: every pair has bounds, not always a least one.
            inner = random_poset(rng, int(rng.integers(63, 199))).leq
            leq = np.ones((len(inner) + 2,) * 2, dtype=bool)
            leq[1:-1, 1:-1] = inner
            leq[1:, 0] = leq[-1, :-1] = False
            posets.append(FinitePoset(list(range(len(leq))), leq))
        outcomes = []
        for poset in posets:
            assert 65 <= poset.n <= 200
            try:
                expected = dense_try_lattice(poset)
            except NotALatticeError as exc:
                with pytest.raises(NotALatticeError) as info:
                    try_lattice(poset)
                assert (info.value.pair, info.value.reason) == (exc.pair, exc.reason)
                a, b = exc.pair
                bounds = poset.leq[a] & poset.leq[b] if exc.reason == "no-lub" else (
                    poset.leq[:, a] & poset.leq[:, b])
                outcomes.append("no bound" if not bounds.any() else "no least bound")
            else:
                lat = try_lattice(poset)
                assert np.array_equal(lat.meet, expected[0])
                assert np.array_equal(lat.join, expected[1])
                outcomes.append("lattice")
        assert outcomes.count("lattice") > 8
        assert set(outcomes) == {"lattice", "no bound", "no least bound"}

    def test_missing_bound_witness(self):
        # two incomparable tops
        poset = from_covers(list("0ab"), [(0, 1), (0, 2)])
        with pytest.raises(NotALatticeError) as info:
            try_lattice(poset)
        assert info.value.reason == "no-lub"
        assert info.value.pair == (1, 2)


class TestIrreducibles:
    def test_chain(self):
        lat = chain(4)
        assert lat.irreducibles[0].tolist() == [1, 2, 3]
        assert lat.dual.irreducibles[0].tolist() == [0, 1, 2]

    def test_boolean_rank_two(self):
        lat = boolean(2)
        assert len(lat.irreducibles[0]) == 2

    def test_m3(self):
        lat = m3()
        assert len(lat.irreducibles[0]) == 3
        assert len(lat.dual.irreducibles[0]) == 3

    def test_lower_cover(self):
        lat = chain(3)
        assert lower_cover(lat, 1) == 0
        with pytest.raises(ValueError):
            lower_cover(lat, 0)


class TestLength:
    def test_examples(self):
        assert chain(1).length() == 0
        assert chain(5).length() == 4
        for n in (2, 3):
            assert weak_order_lattice_raw(n).length() == n * n

    def test_heights_match_oracle_on_every_small_tamari(self):
        # length() and the DOT export's ranks read the heights only.
        for n in range(1, 6):
            for alpha in all_compositions(n):
                tam = build_tamari(alpha)
                for lat in (tam, tam.dual):
                    expected = heights_by_rounds(lat)
                    assert np.array_equal(lat.heights, expected), alpha
                    assert lat.length() == expected.max()

    def test_heights_match_oracle_on_weak_orders(self, small_lattices):
        weak = [lat for name, lat in small_lattices.items() if name.startswith("weak")]
        assert len(weak) == 30
        for lat in weak:
            assert np.array_equal(lat.heights, heights_by_rounds(lat))

    def test_heights_match_oracle_on_random_posets(self):
        # Indices are relabelled, so label order is not a linear extension.
        rng = np.random.default_rng(23)
        several_minima = not_lattices = 0
        for m in [1, 2, 3] + [int(rng.integers(4, 30)) for _ in range(47)]:
            poset = random_poset(rng, m)
            assert np.array_equal(poset.heights, heights_by_rounds(poset))
            several_minima += (poset.leq.sum(axis=0) == 1).sum() > 1
            try:
                try_lattice(poset)
            except NotALatticeError:
                not_lattices += 1
        assert several_minima >= 10 and not_lattices >= 10

    @pytest.mark.parametrize("text,size,length", [
        ("0,1,1,1,1,1,1", 924, 36),
        ("126,1", 254, 253),
    ])
    def test_heights_match_oracle_at_scale(self, text, size, length):
        # The full group of degree 6, and an int16 degree whose Tam_B is a chain.
        tam = build_tamari(Composition.parse(text))
        assert (tam.n, tam.length()) == (size, length)
        for lat in (tam, tam.dual):
            assert np.array_equal(lat.heights, heights_by_rounds(lat))


class TestSemidistributivity:
    def test_chain(self):
        assert semidistributivity_witness(chain(4)) is None

    def test_m3_with_witness(self):
        assert semidistributivity_witness(m3()) is not None

    def test_n5(self):
        assert semidistributivity_witness(n5()) is None

    def test_kappa_agrees_with_scan(self, small_lattices):
        named = dict(small_lattices)
        named.update(chain=chain(4), m3=m3(), n5=n5(), boolean=boolean(3))
        failing = 0
        for name, lat in named.items():
            found, expected = semidistributivity_witness(lat), semidistributivity_scan(lat)
            if expected is None:
                assert found is None, name
            else:
                failing += 1
                assert found is not None and found[0] == expected[0], name
                assert violates_its_law(lat, found), name
        assert failing == 1  # M3; every Tamari lattice and weak order passes

    def test_random_lattices_agree_with_scan(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(200):
            lat = intersection_closed_lattice(rng)
            found, expected = semidistributivity_witness(lat), semidistributivity_scan(lat)
            assert (found is None) == (expected is None)
            if found is not None:
                assert found[0] == expected[0]
                assert violates_its_law(lat, found)
            seen.add(expected[0] if expected else None)
        assert seen == {None, "join", "meet"}


class TestCongruences:
    def test_principal_trivial(self):
        lat = chain(4)
        assert principal_congruence(lat, 2, 2) == discrete(4)

    def test_collapsing_bounds_collapses_all(self):
        lat = m3()
        theta = principal_congruence(lat, 0, 4)
        assert len(theta.blocks) == 1

    def test_four_chain_bottom_cover(self):
        lat = chain(4)
        theta = principal_congruence(lat, 0, 1)
        assert theta.blocks == ((0, 1), (2,), (3,))

    def test_check_congruence(self):
        lat = chain(4)
        assert check_congruence(lat, discrete(4).block_of) == (True, None)
        assert check_congruence(lat, [0, 0, 0, 0]) == (True, None)
        ok, why = check_congruence(lat, [0, 1, 0, 2])
        assert not ok and "interval" in why

    def test_matches_loop_on_weak_orders(self, small_lattices):
        seen = set()
        for n in (1, 2, 3, 4):
            for alpha in all_compositions(n):
                weak = small_lattices[f"weak {alpha.format()}"]
                keyed = weak_order_partitions(alpha, weak)
                for keys in keyed:
                    partition = Partition(keys.tolist())
                    result = check_congruence(weak, partition.block_of)
                    assert result == loop_check_congruence(weak, partition), alpha
                    why = result[1]
                    seen.add("not an interval" if why and "interval" in why else why)
                if len(keyed) == 3:
                    assert not result[0]
        assert seen == {
            None,
            "not an interval",
            "class-minimum map is not order preserving",
            "class-maximum map is not order preserving",
        }

    def test_inversion_words_match_loop_on_weak_orders(self, small_lattices):
        # The routine verify_theorems runs, on inversion words and the
        # generators' cover pairs, against the dense oracle.
        for n in (1, 2, 3, 4):
            for alpha in all_compositions(n):
                weak = small_lattices[f"weak {alpha.format()}"]
                words = _inversion_words(weak.labels)
                covers = _weak_covers(weak.labels, row_lookup(weak.labels))
                for keys in weak_order_partitions(alpha, weak):
                    why, _ = lattice._congruence_failure(words, covers, keys)
                    expected = loop_check_congruence(weak, Partition(keys.tolist()))
                    assert why == expected[1], alpha

    def test_blocked_test_matches_one_block(self, small_lattices, monkeypatch):
        # Every weak order with n <= 4, with its fiber bottoms and the two
        # broken partitions, on its inversion words and on the same bits
        # spread over three words by their position mod 3: at BLOCK_BYTES = 1
        # each pair and each word is a block of its own.
        thirds = np.uint64([sum(1 << i for i in range(r, 64, 3)) for r in range(3)])
        seen = set()
        for n in (1, 2, 3, 4):
            for alpha in all_compositions(n):
                weak = small_lattices[f"weak {alpha.format()}"]
                words = _inversion_words(weak.labels)
                covers = _weak_covers(weak.labels, row_lookup(weak.labels))
                spread = words & thirds
                for keys in weak_order_partitions(alpha, weak):
                    for table in (words, spread):
                        why, mins = lattice._congruence_failure(table, covers, keys)
                        with monkeypatch.context() as patch:
                            patch.setattr(lattice, "BLOCK_BYTES", 1)
                            blocked = lattice._congruence_failure(table, covers, keys)
                        assert blocked[0] == why, alpha
                        assert np.array_equal(blocked[1], mins), alpha
                        seen.add("not an interval" if why and "interval" in why else why)
        assert seen == {
            None,
            "not an interval",
            "class-minimum map is not order preserving",
            "class-maximum map is not order preserving",
        }

    def test_reason_does_not_depend_on_pair_order(self, small_lattices, monkeypatch):
        # The failing cover pair that names the reason is the first
        # row-major, whatever order the pairs come in: shuffled and reversed
        # pairs give the same reason and minima on every partition of every
        # weak order with n <= 4, in one block and at BLOCK_BYTES = 1.
        rng = np.random.default_rng(7)
        seen = set()
        for n in (1, 2, 3, 4):
            for alpha in all_compositions(n):
                weak = small_lattices[f"weak {alpha.format()}"]
                words = _inversion_words(weak.labels)
                below, above = _weak_covers(weak.labels, row_lookup(weak.labels))
                orders = [rng.permutation(len(below)) for _ in range(3)]
                orders.append(np.arange(len(below))[::-1])
                for keys in weak_order_partitions(alpha, weak):
                    why, mins = lattice._congruence_failure(words, (below, above), keys)
                    seen.add(why)
                    for block_bytes in (lattice.BLOCK_BYTES, 1):
                        with monkeypatch.context() as patch:
                            patch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                            for order in orders:
                                covers = below[order], above[order]
                                got = lattice._congruence_failure(words, covers, keys)
                                assert got[0] == why, alpha
                                assert np.array_equal(got[1], mins), alpha
        assert {
            "class-minimum map is not order preserving",
            "class-maximum map is not order preserving",
        } <= seen

    def test_raw_keys_match_first_appearance_numbering(self, small_lattices):
        # Keys with gaps and in any order, such as fiber bottoms, give what the
        # oracle Partition's first-appearance numbering of them gives.
        renumbered = 0
        for n in (1, 2, 3):
            for alpha in all_compositions(n):
                weak = small_lattices[f"weak {alpha.format()}"]
                for keys in weak_order_partitions(alpha, weak):
                    canon = Partition(keys.tolist()).block_of
                    by_value = np.unique(keys, return_inverse=True)[1]
                    renumbered += not np.array_equal(by_value, canon)
                    result = check_congruence(weak, keys)
                    assert result == check_congruence(weak, canon), alpha
                    if not result[0]:
                        continue
                    quot = quotient_by(weak, keys)
                    expected = quotient_by(weak, canon)
                    assert np.array_equal(quot.labels, expected.labels), alpha
                    assert np.array_equal(quot.leq, expected.leq), alpha
        assert renumbered > 0
        # Sorted keys would number the class {0, 2, 3} as 1, after {1}.
        assert check_congruence(chain(4), [9, 4, 9, 9]) == (
            False, "class 0 is not an interval"
        )

    def test_principal_is_minimal_congruence(self):
        for lat in (chain(4), m3(), n5(), weak_order_lattice_raw(2)):
            congruences = all_congruences(lat)
            for a, b in cover_list(lat):
                finest = None
                for theta in congruences:
                    if theta.block_of[a] == theta.block_of[b]:
                        if finest is None or refines(theta, finest):
                            finest = theta
                assert principal_congruence(lat, a, b) == finest

    def test_all_congruences_pass_check(self):
        for lat in (chain(3), n5(), m3()):
            for theta in all_congruences(lat):
                assert check_congruence(lat, theta.block_of)[0]

    def test_congruence_count_of_chain(self):
        # congruences of an n-chain are interval partitions: 2^(n-1)
        assert len(all_congruences(chain(4))) == 8


class TestQuotient:
    def test_discrete_gives_same(self):
        lat = n5()
        quot = quotient_by(lat, discrete(lat.n).block_of)
        assert quot.n == lat.n
        assert np.array_equal(quot.leq, lat.leq)

    def test_single_block(self):
        lat = chain(3)
        quot = quotient_by(lat, [0, 0, 0])
        assert quot.n == 1

    def test_rejects_non_congruence(self):
        assert check_congruence(chain(4), [0, 1, 0, 2]) == (
            False, "class 0 is not an interval"
        )

    def test_rejects_partition_of_the_wrong_length(self):
        assert check_congruence(chain(3), [0, 0]) == (
            False, "partition size does not match the lattice"
        )

    def test_class_bounds_found_once(self, monkeypatch):
        # The class bounds are found by the congruence test, and the
        # quotient takes its minima from that one call: quotient_order runs
        # no test of its own.
        calls = []
        original = lattice._congruence_failure
        monkeypatch.setattr(
            lattice, "_congruence_failure",
            lambda *args: calls.append(1) or original(*args),
        )
        alpha = Composition.parse("0,2,1")
        weak = weak_order_lattice(alpha)
        bottoms = fiber_bottoms(alpha, quotient_rows(alpha))
        quot = quotient_by(weak, bottoms)
        assert (quot.n, len(calls)) == (16, 1)

    def test_quotient_covers_are_images(self):
        lat = chain(4)
        theta = principal_congruence(lat, 0, 1)
        quot = quotient_by(lat, theta.block_of)
        assert quot.n == 3
        assert cover_list(quot) == [(0, 1), (1, 2)]


class TestCongruenceUniformity:
    def test_chain(self):
        assert is_congruence_uniform(chain(5))

    def test_m3(self):
        assert not is_congruence_uniform(m3())

    def test_n5(self):
        assert is_congruence_uniform(n5())

    def test_weak_orders(self):
        assert is_congruence_uniform(weak_order_lattice_raw(2))
        assert is_congruence_uniform(weak_order_lattice_raw(3))

    # Day's test takes the irreducibles in column blocks; one byte per block
    # makes every block a single irreducible.
    BLOCK_BYTES = (lattice.BLOCK_BYTES, 1)

    def test_agrees_with_closure_oracle(self, small_lattices, monkeypatch):
        named = dict(small_lattices)
        named.update(chain=chain(4), m3=m3(), n5=n5(), boolean=boolean(2))
        for name, lat in named.items():
            for side, half in (("", lat), ("dual ", lat.dual)):
                expected = closure_cg_map_injective(half)
                for block_bytes in self.BLOCK_BYTES:
                    monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                    assert _lower_bounded(half) == expected, (side + name, block_bytes)

    def test_random_lattices_agree_with_closure_oracle(self, monkeypatch):
        for block_bytes in self.BLOCK_BYTES:
            monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
            rng = np.random.default_rng(1)
            seen = set()
            for _ in range(200):
                lat = intersection_closed_lattice(rng)
                halves = (_lower_bounded(lat), _lower_bounded(lat.dual))
                expected = (
                    closure_cg_map_injective(lat), closure_cg_map_injective(lat.dual)
                )
                assert halves == expected
                assert is_congruence_uniform(lat) == all(expected)
                seen.add(halves)
            # lower bounded only, upper bounded only, both and neither all occur
            assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_bitsets_match_gather_oracle(self, small_lattices, monkeypatch):
        # Every Tam_B with n <= 5 and the small weak orders, both ways up.
        named = {
            f"tamari {alpha.format()}": build_tamari(alpha)
            for n in range(1, 6) for alpha in all_compositions(n)
        }
        named.update(
            (name, lat) for name, lat in small_lattices.items() if name.startswith("weak")
        )
        assert len(named) == 62 + 30
        seen = set()
        for name, lat in named.items():
            for side, half in (("", lat), ("dual ", lat.dual)):
                expected = lower_bounded_by_gather(half)
                seen.add(expected)
                for block_bytes in self.BLOCK_BYTES:
                    monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                    assert _lower_bounded(half) == expected, (side + name, block_bytes)
        assert seen == {True}

    def test_multi_word_bitsets_match_gather_oracle(self, monkeypatch):
        # 65 to 200 elements and more than 64 join-irreducibles, so each
        # element's mask takes two to four words.  Doubled lattices are
        # congruence uniform; a tree under a top holds M3s.
        rng = np.random.default_rng(22)
        lattices = [doubled_lattice(rng, int(rng.integers(90, 200))) for _ in range(6)]
        lattices += [tree_lattice(rng, int(rng.integers(67, 200))) for _ in range(6)]
        seen = set()
        for lat in lattices:
            assert 65 <= lat.n <= 200 and len(lat.irreducibles[0]) > 64
            for half in (lat, lat.dual):
                expected = lower_bounded_by_gather(half)
                seen.add(expected)
                for block_bytes in self.BLOCK_BYTES:
                    monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                    assert _lower_bounded(half) == expected, (lat.n, block_bytes)
        assert seen == {True, False}

    def test_uniform_implies_semidistributive_crosscheck(self):
        for lat in (chain(4), n5(), weak_order_lattice_raw(2), m3(), boolean(2)):
            if is_congruence_uniform(lat):
                assert semidistributivity_witness(lat) is None
                assert len(lat.irreducibles[0]) == len(lat.dual.irreducibles[0])


class TestTrimness:
    def test_chains(self):
        lat = chain(4)
        assert all(is_left_modular_element(lat, p) for p in range(4))
        assert is_extremal(lat)
        assert is_trim(lat)

    def test_m3_not_extremal(self):
        lat = m3()
        assert not is_extremal(lat)
        assert not is_trim(lat)

    def test_boolean_rank_three_extremal(self):
        lat = boolean(3)
        assert is_extremal(lat)
        assert is_trim(lat)

    def test_n5_trim_with_chain_search(self):
        lat = n5()
        assert is_trim(lat)
        assert has_left_modular_chain(lat)

    def test_shortcut_agrees_with_chain_search(self):
        # verify_theorems takes an extremal semidistributive lattice as trim
        # without the chain search; every Tam_B with n <= 6 and its dual is one.
        for lat in (chain(4), n5(), boolean(2), boolean(3), weak_order_lattice_raw(2)):
            if semidistributivity_witness(lat) is None and is_extremal(lat):
                assert has_left_modular_chain(lat)
        tams = [build_tamari(alpha) for n in range(1, 7) for alpha in all_compositions(n)]
        assert len(tams) == 126
        for lat in tams:
            assert has_left_modular_chain(lat) and has_left_modular_chain(lat.dual)

    def test_hexagon_has_no_left_modular_chain(self):
        # Two 3-chains sharing only the bounds, 0 < a < b < 1 and 0 < c < d
        # < 1.  Only the bounds are left modular: a v c = 1 and a ^ d = 0,
        # so a fails for r = c <= q = d.
        covers = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
        lat = try_lattice(from_covers(list("0abcd1"), covers))
        assert semidistributivity_witness(lat) is None
        counts = len(lat.irreducibles[0]), len(lat.dual.irreducibles[0]), lat.length()
        assert counts == (4, 4, 3)
        assert [p for p in range(lat.n) if is_left_modular_element(lat, p)] == [0, 5]
        assert not left_modular_chain_by_search(lat)
        assert not has_left_modular_chain(lat)

    def test_left_modular_matches_definition(self, monkeypatch):
        # Element by element, on every Tam_B with n <= 5 and its dual, the
        # lattices among 300 random posets, 100 intersection-closed
        # families and the hexagon, in blocks of the default size and of
        # one element.
        lattices = [build_tamari(alpha) for n in range(1, 6) for alpha in all_compositions(n)]
        lattices += [lat.dual for lat in lattices]
        rng = np.random.default_rng(24)
        for _ in range(300):
            try:
                lattices.append(try_lattice(random_poset(rng, int(rng.integers(2, 12)))))
            except NotALatticeError:
                pass
        lattices += [intersection_closed_lattice(rng) for _ in range(100)]
        hexagon = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
        lattices.append(try_lattice(from_covers(list("0abcd1"), hexagon)))
        seen, sizes = set(), (lattice.BLOCK_BYTES, 1)
        for lat in lattices:
            expected = [is_left_modular_element(lat, p) for p in range(lat.n)]
            seen.update(expected)
            for block_bytes in sizes:
                monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                assert _left_modular(lat).tolist() == expected, (lat.n, block_bytes)
        assert seen == {True, False}

    def test_chain_search_matches_oracle(self):
        # Every Tam_B with n <= 4 and its dual, the lattices among 300
        # random posets, whose indices are not a linear extension, and 100
        # intersection-closed families, some of them with no such chain.
        lattices = [build_tamari(alpha) for n in range(1, 5) for alpha in all_compositions(n)]
        lattices += [lat.dual for lat in lattices]
        rng = np.random.default_rng(24)
        for _ in range(300):
            try:
                lattices.append(try_lattice(random_poset(rng, int(rng.integers(2, 12)))))
            except NotALatticeError:
                pass
        lattices += [intersection_closed_lattice(rng) for _ in range(100)]
        seen = set()
        for lat in lattices:
            expected = left_modular_chain_by_search(lat)
            assert has_left_modular_chain(lat) == expected
            seen.add(expected)
        assert seen == {True, False}


class TestExports:
    def test_json(self):
        data = lattice_to_json(chain(3))
        assert data == {"elements": ["0", "1", "2"], "covers": [[0, 1], [1, 2]]}

    def test_dot(self):
        text = lattice_to_dot(chain(2))
        assert text.startswith("digraph lattice {")
        assert "n0 -> n1;" in text
        assert "rank=same" in text
        assert text.endswith("}\n")
