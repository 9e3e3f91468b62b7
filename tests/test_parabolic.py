import tracemalloc
from collections import Counter
from itertools import combinations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings

from btamari.alignment import _avoids, _block_plan
from btamari.errors import CapExceededError, CompositionError
from btamari import parabolic
from btamari.parabolic import (
    ROW_VALUES,
    Composition,
    _build_rows,
    _identity_state,
    _place_block,
    all_compositions,
    c_sorting_word,
    inversion_order,
    inversion_order_from_word,
    is_member,
    longest_element,
    parabolic_length,
    quotient_rows,
    quotient_size,
    sorting_word_longest,
    tableau_cells,
)
from btamari.signed_perm import Reflection, SignedPermutation

from conftest import (
    aligned_block_steps,
    build_rows_two_arrays,
    compositions,
    full_group,
    perm,
    perms,
    suffix_chain,
    tableau_reflections_by_loop,
    weak_leq,
)

A3121 = Composition.parse("0,3,1,2,1")
A422 = Composition.parse("4,2,2")

WORD_3121 = (
    (6, 5, 4, 3, 2, 1, 0)
    + (5, 4, 3, 2, 1, 0)
    + (6, 5, 4, 3, 2, 1, 0)
    + (6, 5, 4, 3, 2, 1, 0)
    + (4, 3, 2, 1, 0)
    + (5, 4, 3, 2, 1, 0)
    + (6, 5, 4, 3, 2, 1, 0)
)
WORD_422 = (
    (6, 5, 4, 3, 2, 1, 0)
    + (7, 6, 5, 4, 3, 2, 1, 0)
    + (6, 5, 4, 3, 2, 1, 0)
    + (7, 6, 5, 4, 3, 2, 1, 0)
    + (4, 3, 2, 1)
    + (5, 4, 3, 2)
    + (6, 5, 4, 3)
    + (7, 6, 5, 4)
)


def staircase(n: int) -> Composition:
    return Composition((1,) * n, split=True)


class TestComposition:
    def test_parse_format(self):
        assert Composition.parse("0,3,1,2,1") == Composition((3, 1, 2, 1), split=True)
        assert Composition.parse("4,2,2") == Composition((4, 2, 2))
        assert Composition.parse("0,1").format() == "0,1"
        assert Composition.parse("4,2,2").format() == "4,2,2"

    @pytest.mark.parametrize("bad", ["", "0", "1,0,1", "-1,2", "x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(CompositionError):
            Composition.parse(bad)

    def test_all_compositions_small(self):
        assert [c.format() for c in all_compositions(1)] == ["1", "0,1"]
        assert [c.format() for c in all_compositions(2)] == [
            "2",
            "1,1",
            "0,2",
            "0,1,1",
        ]
        assert len(all_compositions(5)) == 32
        assert len(set(all_compositions(5))) == 32

    def test_region_of(self):
        assert A3121.region_of(3) == 1
        assert A3121.region_of(4) == 2
        assert A422.region_of(1) == 1
        with pytest.raises(CompositionError):
            A422.region_of(9)

    def test_block_ids(self):
        assert A422.block_id(-3) == A422.block_id(2) == 1
        assert A422.block_id(-5) == -2 and A422.block_id(5) == 2
        assert A3121.block_id(-2) == -1 and A3121.block_id(2) == 1


class TestMembership:
    def test_examples(self):
        assert is_member(Composition.parse("0,1,2"), perm("-1,2,3"))
        assert not is_member(Composition.parse("1,2"), perm("-1,2,3"))
        assert is_member(A3121, perm("-3,-2,-1,-4,-6,-5,-7"))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_member(Composition.parse("0,1"), perm("1,2"))


class TestEnumeration:
    def test_sizes(self):
        assert len(perms(quotient_rows(Composition.parse("0,1,2")))) == 24
        assert len(perms(quotient_rows(Composition.parse("1,2")))) == 12
        for n in (2, 3):
            full = staircase(n)
            assert quotient_size(full) == (1 << n) * factorial(n)
            assert len(perms(quotient_rows(full))) == quotient_size(full)

    def test_sorted_and_distinct(self):
        members = perms(quotient_rows(Composition.parse("0,2,1")))
        rights = [m.right for m in members]
        assert rights == sorted(rights)
        assert len(set(rights)) == len(rights)

    def test_cap(self):
        with pytest.raises(CapExceededError) as info:
            quotient_rows(staircase(4), cap=100)
        assert info.value.required == 384

    def test_filter_oracle_agreement(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            group = full_group(n)
            for alpha in all_small_compositions[n]:
                direct = [m.right for m in perms(quotient_rows(alpha))]
                filtered = sorted(pi.right for pi in group if is_member(alpha, pi))
                assert direct == filtered

    def test_coset_decomposition(self, all_small_compositions):
        # |quotient| times |subgroup generated by the complement| is the group order
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                gens = [
                    s
                    for s in range(n)
                    if (s == 0 and alpha.join) or (s > 0 and s not in alpha.cuts)
                ]
                seen = {SignedPermutation.identity(n).right}
                frontier = list(seen)
                while frontier:
                    new = []
                    for right in frontier:
                        pi = SignedPermutation(right)
                        for s in gens:
                            nxt = pi.mul_gen_left(s).right
                            if nxt not in seen:
                                seen.add(nxt)
                                new.append(nxt)
                    frontier = new
                assert quotient_size(alpha) * len(seen) == (1 << n) * factorial(n)


def quotient_size_by_factorials(alpha):
    """n! over the product of the parts' factorials, times 2^t for the t
    signed positions: the oracle for ``quotient_size``."""
    size = factorial(alpha.n)
    for p in alpha.parts:
        size //= factorial(p)
    return size << (alpha.n - (alpha.first_part if alpha.join else 0))


class TestQuotientSize:
    def test_matches_factorials_up_to_degree_eight(self):
        for n in range(1, 9):
            for alpha in all_compositions(n):
                assert quotient_size(alpha) == quotient_size_by_factorials(alpha)

    @pytest.mark.parametrize("text", ["16383,16383", "32765,1", "0,32766"])
    def test_matches_factorials_at_the_largest_degree(self, text):
        alpha = Composition.parse(text)
        assert quotient_size(alpha) == quotient_size_by_factorials(alpha)


class TestQuotientRows:
    def test_integer_array_of_quotient_size(self):
        for n in range(1, 6):
            for alpha in all_compositions(n):
                rows = quotient_rows(alpha)
                assert isinstance(rows, np.ndarray)
                assert rows.dtype == np.int8
                assert rows.shape == (quotient_size(alpha), n)

    def test_sorted_rows_match_filter_oracle(self):
        for n in range(1, 6):
            group = full_group(n)
            for alpha in all_compositions(n):
                rows = [tuple(r) for r in quotient_rows(alpha).tolist()]
                assert rows == sorted(pi.right for pi in group if is_member(alpha, pi))

    def test_unsorted_rows_same_multiset(self):
        for n in range(1, 6):
            for alpha in all_compositions(n):
                rows = _build_rows(alpha, None).tolist()
                unsorted = Counter(map(tuple, rows))
                assert unsorted == Counter(map(tuple, quotient_rows(alpha).tolist()))

    def test_cap_one_below_size(self):
        for n in range(1, 6):
            for alpha in all_compositions(n):
                size = quotient_size(alpha)
                if size < 2:
                    continue
                with pytest.raises(CapExceededError) as info:
                    quotient_rows(alpha, cap=size - 1)
                assert type(info.value) is CapExceededError
                assert (info.value.required, info.value.cap) == (size, size - 1)

    def test_one_array_build_matches_two_array_oracle(self):
        for n in range(1, 8):
            for alpha in all_compositions(n):
                self.assert_build_matches_oracle(alpha)

    @pytest.mark.parametrize("text", ["0,9", "7,5"])
    def test_one_array_build_matches_oracle_on_large_tables(self, text):
        self.assert_build_matches_oracle(Composition.parse(text))

    @staticmethod
    def assert_build_matches_oracle(alpha):
        # Row for row and dtype for dtype, the quotient and the pruned build;
        # each block step's prune must see only the filled positions.
        built = _build_rows(alpha, None)
        assert built.dtype == build_rows_two_arrays(alpha).dtype
        assert np.array_equal(built, build_rows_two_arrays(alpha))

        def keep(b, rows):
            return _avoids(rows.T, _block_plan(alpha.split, alpha.parts[:b + 1]))

        pruned, steps = aligned_block_steps(alpha)
        assert [cols.shape[0] for cols, _, _ in steps] == list(alpha.prefix[1:])
        assert np.array_equal(pruned, build_rows_two_arrays(alpha, None, keep))

    @pytest.mark.parametrize("text", ["0,9", "7,5"])
    def test_large_index_tables(self, text):
        # 512 sign masks, and C(12, 7) = 792 slot choices.
        alpha = Composition.parse(text)
        members = perms(quotient_rows(alpha))
        rights = [pi.right for pi in members]
        assert len(set(rights)) == len(rights) == quotient_size(alpha)
        assert rights == sorted(rights)
        assert all(is_member(alpha, pi) for pi in members)

    def test_wider_dtype_past_int8(self):
        # n + 1 must fit: int8 up to n = 126, int16 from n = 127.
        for n, dtype in ((126, np.int8), (127, np.int16)):
            rows = quotient_rows(Composition((n,)))
            assert rows.dtype == dtype
            assert rows.tolist() == [list(range(1, n + 1))]


class TestBlockWidth:
    # The cap bounds a block step's values, rows times n, at ROW_VALUES
    # values per element, and then those values together with the step's
    # gather index and slot lists, all checked before the tables are built.
    @pytest.fixture
    def no_gather(self, monkeypatch):
        def not_built(*args):
            raise AssertionError("gather table built for a refused step")

        monkeypatch.setattr(parabolic, "_block_gather", not_built)

    def test_widest_step_refused_before_its_gather(self, no_gather):
        # 32,766 rows of 32,766 values: under the cap as rows, far over as values.
        with pytest.raises(CapExceededError) as info:
            _place_block(_identity_state(32766), 0, 32765, False, 2_000_000)
        assert (info.value.required, info.value.cap) == (16_775_169, 2_000_000)
        assert info.value.required == -(-32766 * 32766 // ROW_VALUES)

    def test_quotient_build_bounded_too(self, no_gather):
        # 65,532 members, under the cap; the first block's step is not.
        alpha = Composition.parse("32765,1")
        assert quotient_size(alpha) == 65_532
        with pytest.raises(CapExceededError) as info:
            quotient_rows(alpha)
        assert info.value.required == 16_775_169

    def test_tables_counted_before_they_are_built(self, no_gather):
        # 8,000 rows of 8,000 values fit the default cap, 64,000,000 values
        # of 128,000,000; the step's 8,000 x 8,000 gather index and its
        # 8,000 slot lists of 8,000 bring them to 192,000,000.
        with pytest.raises(CapExceededError) as info:
            _place_block(_identity_state(8000), 0, 7999, False, 2_000_000)
        assert (info.value.required, info.value.cap) == (3_000_000, 2_000_000)

    def test_boundary(self):
        # n = 65: C(65, 64) = 65 rows hold 4,225 values, one over 64 * 66.
        with pytest.raises(CapExceededError) as info:
            _place_block(_identity_state(65), 0, 64, False, 66)
        assert (info.value.required, info.value.cap) == (67, 66)
        # The gather index (65 x 65) and the 65 slot lists of 65 bring them
        # to 12,675 values, one element over 64 * 198.
        with pytest.raises(CapExceededError) as info:
            _place_block(_identity_state(65), 0, 64, False, 198)
        assert (info.value.required, info.value.cap) == (199, 198)
        assert _place_block(_identity_state(65), 0, 64, False, 199).shape == (65, 65)
        # Up to n = ROW_VALUES the rows alone meet the cap first.
        with pytest.raises(CapExceededError) as info:
            _place_block(_identity_state(64), 0, 63, False, 63)
        assert (info.value.required, info.value.cap) == (64, 63)
        with pytest.raises(CapExceededError) as info:
            _place_block(_identity_state(64), 0, 63, False, 191)
        assert (info.value.required, info.value.cap) == (192, 191)
        assert _place_block(_identity_state(64), 0, 63, False, 192).shape == (64, 64)


class TestSplitSlots:
    def test_both_sides_match_combinations(self):
        # Taken slots in lexicographic order, left slots their complements,
        # whichever side is listed: every free <= 10 and p >= 1.
        for free in range(1, 11):
            for p in range(1, free + 1):
                taken, left = parabolic._split_slots(free, p)
                want = list(combinations(range(free), p))
                assert taken.shape == (len(want), p) and left.shape == (len(want), free - p)
                assert taken.tolist() == [list(c) for c in want], (free, p)
                rest = [[x for x in range(free) if x not in c] for c in want]
                assert left.tolist() == rest, (free, p)

    def test_peak_near_the_slots_returned(self):
        # The 2,001 complements of 2,000 slots are 32 MB of intp; listing
        # them holds a bool mask beside them, and no index array as large.
        tracemalloc.start()
        try:
            taken, left = parabolic._split_slots(2001, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (taken.nbytes + left.nbytes)


class TestLongestElement:
    def test_examples(self):
        assert longest_element(A3121) == perm("-3,-2,-1,-4,-6,-5,-7")
        assert longest_element(A422) == perm("1,2,3,4,-6,-5,-8,-7")
        assert longest_element(staircase(4)) == perm("-1,-2,-3,-4")

    def test_is_member_and_maximum(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                omega = longest_element(alpha)
                assert is_member(alpha, omega)
                members = perms(quotient_rows(alpha))
                assert all(weak_leq(pi, omega) for pi in members)
                assert all(
                    pi == omega or not weak_leq(omega, pi) for pi in members
                )
                e = SignedPermutation.identity(n)
                assert all(weak_leq(e, pi) for pi in members)

    def test_length_formula(self):
        assert parabolic_length(A3121) == 45
        assert parabolic_length(A422) == 46
        for n in (2, 3, 4):
            assert parabolic_length(staircase(n)) == n * n

    def test_length_matches_inversion_count(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                assert parabolic_length(alpha) == len(longest_element(alpha).inversion_set())

    def test_quotient_is_weak_order_interval(self, all_small_compositions):
        for n in (1, 2, 3):
            group = full_group(n)
            for alpha in all_small_compositions[n]:
                omega = longest_element(alpha)
                interval = {pi.right for pi in group if weak_leq(pi, omega)}
                quotient = {pi.right for pi in perms(quotient_rows(alpha))}
                assert interval == quotient


class TestSkewShape:
    def test_shapes(self):
        mu, lam, _ = tableau_cells(A3121)
        assert mu == (7, 7, 7, 4, 3, 3, 1)
        assert lam == (14, 13, 12, 11, 10, 9, 8)
        mu, lam, _ = tableau_cells(A422)
        assert mu == (8, 8, 8, 8, 4, 4, 2, 2)
        assert lam == (12, 12, 12, 12, 12, 11, 10, 9)
        assert sum(map(len, tableau_cells(staircase(4))[2])) == 16

    def test_cell_labels_match_loop_oracle(self):
        # Row k's cells fill columns mu_k + 1 .. lam_k, left to right, and
        # their reflections are the labelling loop's.
        for n in range(1, 8):
            for alpha in all_compositions(n):
                mu, lam, rows = tableau_cells(alpha)
                found = [cell[-1] for row in rows for cell in row]
                assert found == tableau_reflections_by_loop(alpha), alpha
                for row, low, high in zip(rows, mu, lam):
                    assert [cell[0] for cell in row] == list(range(low + 1, high + 1))

    def test_cell_count_is_length(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                assert sum(map(len, tableau_cells(alpha)[2])) == parabolic_length(alpha)


class TestSortingWords:
    def test_golden_words(self):
        assert sorting_word_longest(A3121) == WORD_3121
        assert sorting_word_longest(A422) == WORD_422
        for n in (2, 3, 4):
            expected = tuple(range(n - 1, -1, -1)) * n
            assert sorting_word_longest(staircase(n)) == expected

    def test_word_evaluates_to_longest(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                word = sorting_word_longest(alpha)
                assert len(word) == parabolic_length(alpha)
                assert suffix_chain(word, n)[-1] == longest_element(alpha)

    def test_word_is_reduced_left_to_right(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                cur = SignedPermutation.identity(n)
                lengths = [0]
                for s in sorting_word_longest(alpha):
                    cur = cur.mul_gen_left(s)
                    lengths.append(len(cur.inversion_set()))
                assert lengths == list(range(len(lengths)))
                assert cur == longest_element(alpha)

    def test_c_sorting_examples(self):
        assert c_sorting_word(SignedPermutation.identity(3)) == ()
        assert c_sorting_word(perm("-3,-2,-1,-4,-6,-5,-7")) == WORD_3121
        assert c_sorting_word(perm("-1,-2,-3,-4")) == (3, 2, 1, 0) * 4

    def test_c_sorting_matches_tableau_word(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                assert c_sorting_word(longest_element(alpha)) == sorting_word_longest(alpha)

    @given(compositions(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_c_sorting_matches_tableau_word_random(self, alpha):
        assert c_sorting_word(longest_element(alpha)) == sorting_word_longest(alpha)


class TestInversionOrder:
    def test_tiny_examples(self):
        assert inversion_order(Composition((1,), split=True)) == [Reflection.sign(1)]
        assert inversion_order(Composition((1, 1), split=True)) == [
            Reflection.sign(1),
            Reflection.mixed(1, 2),
            Reflection.sign(2),
            Reflection.transposition(1, 2),
        ]

    def test_staircase_sixteen_terms(self):
        got = [str(t) for t in inversion_order(staircase(4))]
        assert got == [
            "[[1]]", "((-2 1))", "((-3 1))", "((-4 1))",
            "[[2]]", "((-3 2))", "((-4 2))", "((1 2))",
            "[[3]]", "((-4 3))", "((1 3))", "((2 3))",
            "[[4]]", "((1 4))", "((2 4))", "((3 4))",
        ]

    def test_matches_word_conjugation_oracle(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                by_tableau = inversion_order(alpha)
                by_word = inversion_order_from_word(sorting_word_longest(alpha), n)
                assert by_tableau == by_word

    def test_cross_check_always_runs(self, monkeypatch):
        # The word-conjugation oracle is compared on every call.
        monkeypatch.setattr(parabolic, "inversion_order_from_word", lambda word, n: [])
        with pytest.raises(AssertionError, match="inversion-order cross-check failed"):
            inversion_order(A422)

    def test_is_inversion_set_without_repeats(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                order = inversion_order(alpha)
                assert len(set(order)) == len(order)
                assert set(order) == longest_element(alpha).inversion_set()

    def test_member_inversions_lie_under_longest(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                top = longest_element(alpha).inversion_set()
                for pi in perms(quotient_rows(alpha)):
                    assert pi.inversion_set() <= top

    def test_suffix_chain_is_graded(self):
        chain = suffix_chain(sorting_word_longest(A3121), 7)
        assert [len(pi.inversion_set()) for pi in chain] == list(range(46))
