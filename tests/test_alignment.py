import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btamari.alignment import (
    aligned_mask,
    aligned_rows,
    count_aligned,
    cover_counts,
    decompositions,
    enumerate_aligned,
    find_231_pattern,
    find_312_pattern,
    find_all_231_patterns,
    is_aligned,
    is_aligned_forcing,
    is_aligned_root,
    root_vector,
)
from btamari.enumeration import cover_enumerator
from btamari.errors import CapExceededError
from btamari.parabolic import (
    Composition,
    _build_rows,
    all_compositions,
    enumerate_quotient,
    inversion_order,
    quotient_rows,
    quotient_size,
)
from btamari.signed_perm import Reflection, SignedPermutation

from conftest import compositions, perm

FULL5 = Composition((1,) * 5, split=True)
A3121 = Composition.parse("0,3,1,2,1")
A422 = Composition.parse("4,2,2")


class TestDecompositions:
    def test_examples(self):
        assert decompositions(Reflection.sign(1), 3) == []
        threes = decompositions(Reflection.sign(3), 3)
        assert [(str(d.left), str(d.right)) for d in threes] == [
            ("((1 3))", "[[1]]"),
            ("((2 3))", "[[2]]"),
        ]
        mixed = decompositions(Reflection.mixed(1, 2), 2)
        assert [(str(d.left), str(d.right), d.a, d.b) for d in mixed] == [
            ("[[1]]", "[[2]]", 1, 1),
            ("[[1]]", "((1 2))", 2, 1),
        ]

    def test_root_identity(self):
        n = 6
        every = (
            [Reflection.sign(i) for i in range(1, n + 1)]
            + [Reflection.transposition(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            + [Reflection.mixed(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        )
        for t in every:
            for d in decompositions(t, n):
                target = np.array(root_vector(t, n))
                combo = d.a * np.array(root_vector(d.left, n)) + d.b * np.array(
                    root_vector(d.right, n)
                )
                assert (target == combo).all(), str(t)


class TestRootAlignment:
    def test_paper_examples(self):
        order = inversion_order(FULL5)
        assert is_aligned_root(SignedPermutation.identity(5), order)
        assert is_aligned_root(perm("-2,-1,5,3,4"), order)
        assert not is_aligned_root(perm("4,1,-5,3,-2"), order)

    def test_precondition(self):
        order = inversion_order(Composition.parse("0,2,1"))
        with pytest.raises(ValueError):
            is_aligned_root(perm("3,1,2"), order)  # not below the top


class TestForcingAlignment:
    def test_examples(self):
        assert is_aligned_forcing(A3121, SignedPermutation.identity(7))
        assert not is_aligned_forcing(A3121, perm("-5,2,6,-1,3,7,-4"))
        assert is_aligned_forcing(A422, perm("1,4,5,6,2,3,7,8"))

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            is_aligned_forcing(Composition.parse("1,2"), perm("-1,2,3"))

    def test_split_pattern_examples_not_aligned(self):
        for right in ("-5,2,6,-1,3,7,-4", "-7,-3,2,-6,1,5,-4", "1,4,5,2,-3,6,7"):
            assert not is_aligned_forcing(A3121, perm(right))


class TestPatternWitnesses:
    def test_golden_witnesses(self):
        w = find_231_pattern(FULL5, perm("4,1,-5,3,-2"))
        assert (w.i, w.j, w.k) == (-1, 1, 3)
        assert w.flavor == "split-231"
        assert find_231_pattern(FULL5, perm("-2,-1,5,3,4")) is None
        join_pi1 = perm("1,2,3,5,-7,8,4,6")
        w2 = find_231_pattern(A422, join_pi1)
        assert A422.region_of(w2.j) == 1
        assert (w2.i, w2.j, w2.k) == (-5, 1, 8)

    def test_witness_json(self):
        w = find_231_pattern(FULL5, perm("4,1,-5,3,-2"))
        assert w.to_json() == {"i": -1, "j": 1, "k": 3, "flavor": "split-231"}

    def test_312_examples(self):
        assert find_312_pattern(FULL5, SignedPermutation.identity(5)) is None
        assert find_312_pattern(Composition((1, 1), split=True), perm("2,-1")) is None
        assert find_312_pattern(Composition.parse("0,2,1"), perm("-3,2,1")) is None
        assert find_312_pattern(Composition((1, 1), split=True), perm("-2,-1")) is not None

    def test_all_witnesses_for_sigma(self):
        got = {(w.i, w.j, w.k) for w in find_all_231_patterns(FULL5, perm("4,1,-5,3,-2"))}
        assert got == {
            (-5, 1, 2), (-2, 1, 5), (-2, 2, 5), (-2, 4, 5), (-1, 1, 3), (-1, 2, 3),
        }


class TestCharacterizationEquivalence:
    def test_exhaustive_small(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                order = inversion_order(alpha)
                members = enumerate_quotient(alpha)
                mask = aligned_mask(alpha, [m.right for m in members])
                for pi, batched in zip(members, mask):
                    root = is_aligned_root(pi, order)
                    forcing = is_aligned_forcing(alpha, pi)
                    pattern = is_aligned(alpha, pi)
                    assert root == forcing == pattern == bool(batched)

    @given(compositions(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_members_agree(self, alpha, rng):
        members = enumerate_quotient(alpha)
        pi = members[rng.randrange(len(members))]
        order = inversion_order(alpha)
        assert (
            is_aligned_root(pi, order)
            == is_aligned_forcing(alpha, pi)
            == is_aligned(alpha, pi)
        )


class TestEnumerateAligned:
    def test_counts(self):
        assert len(enumerate_aligned(Composition((1, 1, 1), split=True))) == 20
        assert len(enumerate_aligned(Composition((1,), split=True))) == 2
        assert len(enumerate_aligned(Composition((1,)))) == 1

    def test_catalan_counts(self):
        from math import comb

        for n in (1, 2, 3, 4, 5):
            full = Composition((1,) * n, split=True)
            assert count_aligned(full) == comb(2 * n, n)

    def test_sorted_output(self):
        aligned = enumerate_aligned(Composition.parse("0,2,1"))
        rights = [pi.right for pi in aligned]
        assert rights == sorted(rights)
        assert len(rights) == 16

    def test_matches_scalar_filter(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                by_mask = [pi.right for pi in enumerate_aligned(alpha)]
                by_scalar = [
                    pi.right
                    for pi in enumerate_quotient(alpha)
                    if is_aligned(alpha, pi)
                ]
                assert by_mask == by_scalar


class TestBatchInputs:
    def test_tuples_and_array_agree(self):
        for n in range(1, 6):
            for alpha in all_compositions(n):
                rows = _build_rows(alpha, None)
                tuples = [tuple(r) for r in rows.tolist()]
                assert np.array_equal(
                    aligned_mask(alpha, rows), aligned_mask(alpha, tuples)
                )
                assert np.array_equal(cover_counts(rows), cover_counts(tuples))

    @pytest.mark.parametrize("parts", [(125, 1), (126, 1)])
    def test_large_degree_rows(self, parts):
        # The widest int8 rows (n = 126) and the narrowest int16 ones (n = 127):
        # no successor or index arithmetic may wrap.
        alpha = Composition(parts)
        rows = quotient_rows(alpha)
        members = enumerate_quotient(alpha)
        counts = cover_counts(rows)
        mask = aligned_mask(alpha, rows)
        assert [len(pi.cover_inversions()) for pi in members] == counts.tolist()
        for pi, keep in list(zip(members, mask))[::25]:
            assert is_aligned(alpha, pi) == bool(keep)
        assert np.array_equal(_sorted(aligned_rows(alpha)), rows[mask])

    def test_members_hold_python_ints(self):
        for alpha in (Composition.parse("0,2,1"), Composition.parse("2,1,1")):
            for members in (enumerate_quotient(alpha), enumerate_aligned(alpha)):
                assert members
                assert all(type(v) is int for pi in members for v in pi.right)


def _sorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


class TestAlignedRows:
    """The pruned block build against the filter oracle: every quotient row,
    then ``aligned_mask``."""

    @staticmethod
    def assert_matches_filter(alpha):
        rows = quotient_rows(alpha)
        pruned = aligned_rows(alpha)
        assert pruned.dtype == rows.dtype
        assert np.array_equal(_sorted(pruned), rows[aligned_mask(alpha, rows)])

    def test_matches_filter_up_to_degree_six(self):
        for n in range(1, 7):
            for alpha in all_compositions(n):
                self.assert_matches_filter(alpha)

    @pytest.mark.parametrize(
        "text",
        ["0,1,1,1,1,1,1,1", "1,1,1,1,1,1,1", "2,1,1,1,1,1", "3,1,1,1,1", "0,1,1,1,1,1,2"],
    )
    def test_matches_filter_at_degree_seven(self, text):
        self.assert_matches_filter(Composition.parse(text))

    @pytest.mark.parametrize("count", [count_aligned, cover_enumerator])
    def test_cap_one_below_quotient_size(self, count):
        for alpha in all_compositions(4):
            size = quotient_size(alpha)
            if size < 2:
                continue
            with pytest.raises(CapExceededError) as info:
                count(alpha, cap=size - 1)
            assert (info.value.required, info.value.cap) == (size, size - 1)


class TestCoverCounts:
    def test_against_scalar(self, all_small_compositions):
        for n in (2, 3):
            for alpha in all_small_compositions[n]:
                members = enumerate_quotient(alpha)
                batched = cover_counts([m.right for m in members])
                for pi, c in zip(members, batched):
                    assert len(pi.cover_inversions()) == int(c)
