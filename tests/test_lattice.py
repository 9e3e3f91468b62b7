import numpy as np
import pytest

from btamari.errors import (
    NotACongruenceError,
    NotALatticeError,
    NotAPartialOrderError,
)
from btamari.lattice import (
    FinitePoset,
    Partition,
    check_congruence,
    has_left_modular_chain,
    _lower_bounded,
    is_congruence_uniform,
    is_extremal,
    is_left_modular_element,
    is_semidistributive,
    is_trim,
    join_irreducibles,
    lattice_to_dot,
    lattice_to_json,
    length,
    lower_cover,
    meet_irreducibles,
    quotient_lattice,
    semidistributivity_witness,
    try_lattice,
)

from btamari.parabolic import Composition, all_compositions
from btamari.tamari import SUBPOSET, build_tamari, weak_order_lattice
from conftest import full_group


def chain(n):
    return try_lattice(FinitePoset.from_leq(list(range(n)), lambda a, b: a <= b))


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
    return try_lattice(
        FinitePoset.from_leq(labels, lambda a, b: a & b == a)
    )


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


# -- congruences by closure: the oracle for check_congruence -------------------


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
    meet = lat.meet_table()
    join = lat.join_table()
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


def principal_congruence(lat, a, b):
    """Finest congruence in which a and b are congruent."""
    return congruence_closure(lat, [(a, b)])


def all_congruences(lat):
    """Every congruence, generated by joining principal cover congruences."""
    principals = {
        congruence_closure(lat, [pair]) for pair in lat.poset.cover_pairs()
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
    for j in join_irreducibles(lat):
        theta = principal_congruence(lat, lower_cover(lat, j), j)
        if theta in seen:
            return False
        seen.add(theta)
    return True


def random_poset(rng, m):
    """A random order on m elements, relabelled so indices are not a linear extension."""
    leq = np.eye(m, dtype=bool) | np.triu(rng.random((m, m)) < rng.random(), 1)
    for _ in range(m):
        leq |= (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
    perm = rng.permutation(m)
    return FinitePoset(list(range(m)), leq[np.ix_(perm, perm)])


def intersection_closed_lattice(rng, k=4):
    """Random subsets of a k-set plus the whole set, closed under intersection."""
    size = int(rng.integers(1, 9))
    family = {(1 << k) - 1} | {int(s) for s in rng.integers(0, 1 << k, size=size)}
    while (closed := family | {a & b for a in family for b in family}) != family:
        family = closed
    return try_lattice(FinitePoset.from_leq(sorted(family), lambda a, b: a & b == a))


@pytest.fixture(scope="module")
def small_lattices():
    """Weak order and Tamari lattice of every composition with n <= 4."""
    built = {}
    for n in (1, 2, 3, 4):
        for alpha in all_compositions(n):
            built[f"weak {alpha.format()}"] = weak_order_lattice(alpha)
            built[f"tamari {alpha.format()}"] = build_tamari(alpha, SUBPOSET).lattice
    return built


def weak_order_lattice_raw(n):
    group = sorted(full_group(n), key=lambda p: p.right)
    return try_lattice(
        FinitePoset.from_leq(group, lambda u, v: u.weak_leq(v))
    )


class TestPosets:
    def test_chain_covers(self):
        poset = FinitePoset.from_leq([0, 1, 2], lambda a, b: a <= b)
        assert poset.cover_pairs() == [(0, 1), (1, 2)]

    def test_antichain(self):
        poset = FinitePoset.from_leq([0, 1], lambda a, b: a == b)
        assert poset.cover_pairs() == []

    def test_weak_order_octagon(self):
        group = full_group(2)
        poset = FinitePoset.from_leq(group, lambda u, v: u.weak_leq(v))
        assert poset.n == 8
        assert len(poset.cover_pairs()) == 8

    def test_interval_with_256_inner_elements(self):
        # 0 < each of 256 atoms < top: counting the atoms in uint8 wrapped to 0
        m = 258
        leq = np.eye(m, dtype=bool)
        leq[0, :] = leq[:, m - 1] = True
        poset = FinitePoset(list(range(m)), leq)
        assert (0, m - 1) not in poset.cover_pairs()
        assert len(poset.cover_pairs()) == 2 * 256
        leq[0, m - 1] = False
        with pytest.raises(NotAPartialOrderError):
            FinitePoset.from_leq(list(range(m)), leq)

    def test_not_partial_order(self):
        with pytest.raises(NotAPartialOrderError):
            FinitePoset.from_leq([0, 1], lambda a, b: True)  # not antisymmetric
        with pytest.raises(NotAPartialOrderError):
            FinitePoset.from_leq([0, 1], lambda a, b: a != b)  # not reflexive

    def test_dual_covers_are_the_transpose(self):
        lat = weak_order_lattice(Composition.parse("0,1,2"))
        dual = lat.dual()
        assert np.shares_memory(dual.poset.covers, lat.poset.covers)
        assert np.array_equal(dual.poset.covers, lat.poset.covers.T)
        assert np.array_equal(
            dual.poset.covers, FinitePoset(lat.labels, lat.leq.T).covers
        )


class TestTryLattice:
    def test_chain(self):
        lat = chain(3)
        assert lat.meet(0, 2) == 0 and lat.join(0, 2) == 2

    def test_antichain_fails(self):
        poset = FinitePoset.from_leq([0, 1], lambda a, b: a == b)
        with pytest.raises(NotALatticeError) as info:
            try_lattice(poset)
        assert info.value.reason in ("no-lub", "no-glb")

    def test_weak_order_is_lattice(self):
        lat = weak_order_lattice_raw(3)
        assert lat.n == 48
        # absorption plus order compatibility on every pair
        for a in range(0, 48, 7):
            for b in range(0, 48, 5):
                m, j = lat.meet(a, b), lat.join(a, b)
                assert lat.leq[m, a] and lat.leq[m, b]
                assert lat.leq[a, j] and lat.leq[b, j]
                assert (lat.meet(a, j), lat.join(a, m)) == (a, a)
                assert lat.leq[a, b] == (m == a) == (j == b)

    def test_tables_match_dense_oracle(self, small_lattices):
        assert "weak 0,1,1,1,1" in small_lattices
        for name, lat in small_lattices.items():
            rebuilt = try_lattice(lat.poset)
            meet, join = dense_try_lattice(lat.poset)
            assert rebuilt.meet_table().dtype == rebuilt.join_table().dtype == np.int32
            assert np.array_equal(rebuilt.meet_table(), meet), name
            assert np.array_equal(rebuilt.join_table(), join), name

    def test_witness_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        posets = [
            FinitePoset.from_leq([0, 1], lambda a, b: a == b),
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
                assert np.array_equal(lat.meet_table(), expected[0])
                assert np.array_equal(lat.join_table(), expected[1])
        assert failures > 100

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
        assert join_irreducibles(lat) == [1, 2, 3]
        assert meet_irreducibles(lat) == [0, 1, 2]

    def test_boolean_rank_two(self):
        lat = boolean(2)
        assert len(join_irreducibles(lat)) == 2

    def test_m3(self):
        lat = m3()
        assert len(join_irreducibles(lat)) == 3
        assert len(meet_irreducibles(lat)) == 3

    def test_lower_cover(self):
        lat = chain(3)
        assert lower_cover(lat, 1) == 0
        with pytest.raises(ValueError):
            lower_cover(lat, 0)


class TestLength:
    def test_examples(self):
        assert length(chain(1)) == 0
        assert length(chain(5)) == 4
        for n in (2, 3):
            assert length(weak_order_lattice_raw(n)) == n * n


class TestSemidistributivity:
    def test_chain(self):
        assert is_semidistributive(chain(4))

    def test_m3_with_witness(self):
        lat = m3()
        assert not is_semidistributive(lat)
        assert semidistributivity_witness(lat) is not None

    def test_n5(self):
        assert is_semidistributive(n5())


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
        assert check_congruence(lat, discrete(4)) == (True, None)
        assert check_congruence(lat, Partition([0, 0, 0, 0])) == (True, None)
        ok, why = check_congruence(lat, Partition([0, 1, 0, 2]))
        assert not ok and "interval" in why

    def test_principal_is_minimal_congruence(self):
        for lat in (chain(4), m3(), n5(), weak_order_lattice_raw(2)):
            congruences = all_congruences(lat)
            for a, b in lat.poset.cover_pairs():
                finest = None
                for theta in congruences:
                    if theta.block_of[a] == theta.block_of[b]:
                        if finest is None or refines(theta, finest):
                            finest = theta
                assert principal_congruence(lat, a, b) == finest

    def test_all_congruences_pass_check(self):
        for lat in (chain(3), n5(), m3()):
            for theta in all_congruences(lat):
                assert check_congruence(lat, theta)[0]

    def test_congruence_count_of_chain(self):
        # congruences of an n-chain are interval partitions: 2^(n-1)
        assert len(all_congruences(chain(4))) == 8


class TestQuotient:
    def test_discrete_gives_same(self):
        lat = n5()
        quot = quotient_lattice(lat, discrete(lat.n))
        assert quot.n == lat.n
        assert np.array_equal(quot.leq, lat.leq)

    def test_single_block(self):
        lat = chain(3)
        quot = quotient_lattice(lat, Partition([0, 0, 0]))
        assert quot.n == 1

    def test_rejects_non_congruence(self):
        with pytest.raises(NotACongruenceError):
            quotient_lattice(chain(4), Partition([0, 1, 0, 2]))

    def test_quotient_covers_are_images(self):
        lat = chain(4)
        theta = principal_congruence(lat, 0, 1)
        quot = quotient_lattice(lat, theta)
        assert quot.n == 3
        assert quot.poset.cover_pairs() == [(0, 1), (1, 2)]


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

    def test_agrees_with_closure_oracle(self, small_lattices):
        named = dict(small_lattices)
        named.update(chain=chain(4), m3=m3(), n5=n5(), boolean=boolean(2))
        for name, lat in named.items():
            for side, half in (("", lat), ("dual ", lat.dual())):
                assert _lower_bounded(half) == closure_cg_map_injective(half), side + name

    def test_random_lattices_agree_with_closure_oracle(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            lat = intersection_closed_lattice(rng)
            halves = (_lower_bounded(lat), _lower_bounded(lat.dual()))
            expected = (closure_cg_map_injective(lat), closure_cg_map_injective(lat.dual()))
            assert halves == expected
            assert is_congruence_uniform(lat) == all(expected)
            seen.add(halves)
        # lower bounded only, upper bounded only, both and neither all occur
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_uniform_implies_semidistributive_crosscheck(self):
        for lat in (chain(4), n5(), weak_order_lattice_raw(2), m3(), boolean(2)):
            if is_congruence_uniform(lat):
                assert is_semidistributive(lat)
                assert len(join_irreducibles(lat)) == len(meet_irreducibles(lat))


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
        assert is_trim(lat, verify_chain=True)
        assert has_left_modular_chain(lat)

    def test_shortcut_agrees_with_chain_search(self):
        for lat in (chain(4), n5(), boolean(2), boolean(3), weak_order_lattice_raw(2)):
            if is_semidistributive(lat) and is_extremal(lat):
                assert has_left_modular_chain(lat)


class TestExports:
    def test_json(self):
        data = lattice_to_json(chain(3))
        assert data == {"elements": ["0", "1", "2"], "covers": [[0, 1], [1, 2]]}

    def test_dot(self):
        text = lattice_to_dot(chain(2), name="two")
        assert text.startswith("digraph two {")
        assert "n0 -> n1;" in text
        assert "rank=same" in text
        assert text.endswith("}\n")
