import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btamari import alignment, parabolic
from btamari.alignment import (
    _avoids,
    _block_plan,
    _scan_plan,
    _violations,
    aligned_mask,
    aligned_rows,
    count_aligned_subtree,
    cover_counts,
    decompositions,
    find_231_pattern,
    find_312_pattern,
    is_aligned_forcing,
    is_aligned_root,
)
from btamari.enumeration import cover_enumerator, t_sequence
from btamari.errors import CapExceededError
from btamari.parabolic import (
    DEFAULT_CAP,
    Composition,
    _build_rows,
    all_compositions,
    c_sorting_word,
    inversion_order,
    lex_sorted,
    quotient_rows,
    quotient_size,
)
from btamari.signed_perm import Reflection, SignedPermutation

from conftest import (
    _long_array,
    _long_row,
    aligned_block_steps,
    build_rows_two_arrays,
    checked_block_steps,
    c_sortable_rows,
    compositions,
    find_all_231_patterns,
    perm,
    perms,
    root_vector,
    scan_plan_by_rows,
    violations_by_gather,
)

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
                members = perms(quotient_rows(alpha))
                mask = aligned_mask(alpha, [m.right for m in members])
                for pi, batched in zip(members, mask):
                    root = is_aligned_root(pi, order)
                    forcing = is_aligned_forcing(alpha, pi)
                    pattern = find_231_pattern(alpha, pi) is None
                    assert root == forcing == pattern == bool(batched)

    @given(compositions(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_members_agree(self, alpha, rng):
        members = perms(quotient_rows(alpha))
        pi = members[rng.randrange(len(members))]
        order = inversion_order(alpha)
        assert (
            is_aligned_root(pi, order)
            == is_aligned_forcing(alpha, pi)
            == (find_231_pattern(alpha, pi) is None)
        )


class TestEnumerateAligned:
    def test_counts(self):
        assert len(aligned_rows(Composition((1, 1, 1), split=True))) == 20
        assert len(aligned_rows(Composition((1,), split=True))) == 2
        assert len(aligned_rows(Composition((1,)))) == 1

    def test_catalan_counts(self):
        from math import comb

        for n in (1, 2, 3, 4, 5):
            full = Composition((1,) * n, split=True)
            assert len(aligned_rows(full)) == comb(2 * n, n)

    def test_sorted_output(self):
        aligned = perms(lex_sorted(aligned_rows(Composition.parse("0,2,1"))))
        rights = [pi.right for pi in aligned]
        assert rights == sorted(rights)
        assert len(rights) == 16

    def test_matches_scalar_filter(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                by_mask = [pi.right for pi in perms(lex_sorted(aligned_rows(alpha)))]
                by_scalar = [
                    pi.right
                    for pi in perms(quotient_rows(alpha))
                    if find_231_pattern(alpha, pi) is None
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
        members = perms(rows)
        counts = cover_counts(rows)
        mask = aligned_mask(alpha, rows)
        assert [len(pi.cover_inversions()) for pi in members] == counts.tolist()
        for pi, keep in list(zip(members, mask))[::25]:
            assert (find_231_pattern(alpha, pi) is None) == bool(keep)
        assert np.array_equal(_sorted(aligned_rows(alpha)), rows[mask])

    def test_members_hold_python_ints(self):
        for alpha in (Composition.parse("0,2,1"), Composition.parse("2,1,1")):
            for rows in (quotient_rows(alpha), lex_sorted(aligned_rows(alpha))):
                members = perms(rows)
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

    @pytest.mark.parametrize(
        "count",
        [lambda alpha, cap=None: len(aligned_rows(alpha, cap)), cover_enumerator],
        ids=["aligned_rows", "cover_enumerator"],
    )
    def test_cap_one_below_largest_expansion(self, count):
        # The cap bounds the rows held before a block's prune, not the
        # quotient size; the two-array oracle reports each expansion to keep.
        for n in (4, 5):
            for alpha in all_compositions(n):
                held = largest_expansion(alpha)
                if held < 2:
                    continue
                with pytest.raises(CapExceededError) as info:
                    count(alpha, cap=held - 1)
                assert (info.value.required, info.value.cap) == (held, held - 1)
                assert count(alpha, cap=held) == count(alpha)

    def test_degree_eight_fits_the_default_cap(self):
        # The largest expansion at n = 8 is this composition's, 716,640 rows
        # before the prune, under DEFAULT_CAP though its quotient (2,580,480
        # members) is not.
        alpha = Composition.parse("0,1,1,1,1,1,2,1")
        assert quotient_size(alpha) > DEFAULT_CAP
        with pytest.raises(CapExceededError) as info:
            aligned_rows(alpha, cap=716_639)
        assert info.value.required == 716_640
        assert np.array_equal(
            aligned_rows(alpha, cap=DEFAULT_CAP), aligned_rows(alpha, cap=716_640)
        )

    def test_cap_checked_before_the_block_tables(self, monkeypatch):
        # 2^30 signings of one block: refused before any table is built.
        def not_called(*args):
            raise AssertionError("block tables built")

        monkeypatch.setattr(parabolic, "_block_gather", not_called)
        with pytest.raises(CapExceededError) as info:
            aligned_rows(Composition((30,), split=True), cap=DEFAULT_CAP)
        assert (info.value.required, info.value.cap) == (2**30, DEFAULT_CAP)


def nested_blocks(word) -> bool:
    """Whether a word's runs of rising letters, its blocks in c = s_0 s_1 ...
    s_{n-1}, each hold the letters of the next."""
    blocks = []
    for k, s in enumerate(word):
        if k == 0 or s <= word[k - 1]:
            blocks.append(set())
        blocks[-1].add(s)
    return all(a >= b for a, b in zip(blocks, blocks[1:]))


class TestCSortable:
    """The full group's aligned set by a second route, N. Reading's
    c-sortable elements for c = s_0 s_1 ... s_{n-1} (``c_sortable_rows``)."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_inverses_are_the_aligned_rows(self, n):
        sortable = c_sortable_rows(n)
        assert len(sortable) == len(set(sortable)) == math.comb(2 * n, n)
        inverses = {SignedPermutation(w).inverse().right for w in sortable}
        rows = aligned_rows(Composition((1,) * n, split=True))
        assert inverses == set(map(tuple, rows.tolist()))

    def test_nested_c_sorting_words_are_the_aligned_rows(self):
        # Read backwards, pi's c_sorting_word is the c-sorting word of pi's
        # inverse, which is c-sortable when the letter sets of its blocks
        # are nested.
        for n in range(1, 6):
            alpha = Composition((1,) * n, split=True)
            rows = quotient_rows(alpha)
            words = [c_sorting_word(SignedPermutation(r))[::-1] for r in rows.tolist()]
            nested = np.array([nested_blocks(w) for w in words])
            assert np.array_equal(rows[nested], _sorted(aligned_rows(alpha))), n


def largest_expansion(alpha):
    """The most rows the block build holds at once, by the two-array oracle."""
    return max(held_rows(alpha))


def held_rows(alpha):
    """The rows the block build holds at each block step, by the two-array oracle."""
    held = []

    def keep(b, rows):
        held.append(len(rows))
        plan = oracle_plan(_block_plan(alpha.split, alpha.parts[:b + 1]))
        return violations_by_gather(_long_array(rows), plan) < 0

    build_rows_two_arrays(alpha, None, keep)
    return held


def oracle_plan(plan):
    """A group plan in long rows, one entry per outer pair (i, k), with each
    middle span listed row by row."""
    return tuple(
        (_long_row(i), _long_row(k), span_rows(low), span_rows(high))
        for k, low, high, outer in plan
        for i in outer
    )


def span_rows(span):
    return () if span is None else tuple(_long_row(c + 1) for c in range(*span))


def oracle_positions(long, entries):
    """Per column of ``long``, the k of the last of the ``oracle_plan``
    entries the gather oracle finds held, or 0 when it finds none (-1)."""
    ks = np.array([kk // 2 + 1 for _, kk, _, _ in entries] + [0])
    return ks[violations_by_gather(long, entries)]


class TestDenseScan:
    """The group plan and the dense scan against the row-by-row plan and the
    per-hit gather scan they replaced (``tests/conftest.py``)."""

    def test_middle_sets_are_spans(self):
        for n in range(1, 10):
            for alpha in all_compositions(n):
                assert oracle_plan(_scan_plan(alpha)) == scan_plan_by_rows(alpha)

    def test_block_plans_group_the_plan_by_last_position(self):
        # A block's plan is keyed by the split flag and the parts so far; it
        # must hold exactly the composition's entries whose last read
        # position, max(|i|, k), lies in that block.
        for n in range(1, 10):
            for alpha in all_compositions(n):
                by_block = [[] for _ in alpha.parts]
                for entry in scan_plan_by_rows(alpha):
                    last = max(entry[0], entry[1]) // 2 + 1
                    by_block[alpha.region_of(last) - 1].append(entry)
                for b, entries in enumerate(by_block):
                    plan = _block_plan(alpha.split, alpha.parts[:b + 1])
                    assert oracle_plan(plan) == tuple(entries), (alpha, b)

    @pytest.mark.parametrize(
        "split, parts, entries",
        [(False, (32766,), 0), (True, (32766,), 0), (False, (32765, 1), 1)],
    )
    def test_block_plans_built_from_block_bounds(self, split, parts, entries):
        # At most r + 1 steps per position, with no pass over position
        # pairs: one block of the largest degree has no entry at all.
        start = time.perf_counter()
        plan = _block_plan.__wrapped__(split, parts)
        assert time.perf_counter() - start < 0.5
        assert len(plan) == entries

    @staticmethod
    def assert_scans_match_oracle(rows, plan):
        """Positions as the k of the gather oracle's last entry, and the
        prune, on the rows read position major, as positions 0."""
        largest = _violations(rows, plan)
        assert np.array_equal(
            largest, oracle_positions(_long_array(rows), oracle_plan(plan))
        )
        kept = _avoids(rows.T, plan)
        assert np.array_equal(kept, largest == 0)
        return largest, kept

    def test_positions_are_the_largest_pattern_k(self):
        # Every member of every quotient with n <= 5, against the patterns
        # the scalar scan lists.
        for n in range(1, 6):
            for alpha in all_compositions(n):
                rows = quotient_rows(alpha)
                expected = [
                    max((w.k for w in find_all_231_patterns(alpha, pi)), default=0)
                    for pi in perms(rows)
                ]
                assert _violations(rows, _scan_plan(alpha)).tolist() == expected, alpha

    def test_entries_match_gather_oracle(self):
        for n in range(1, 7):
            for alpha in all_compositions(n):
                self.assert_scans_match_oracle(quotient_rows(alpha), _scan_plan(alpha))

    @pytest.mark.parametrize("parts", [(125, 1), (127, 1)])
    def test_entries_match_gather_oracle_at_large_degree(self, parts):
        # int8 rows at n = 126, int16 ones at n = 128.
        alpha = Composition(parts)
        self.assert_scans_match_oracle(quotient_rows(alpha), _scan_plan(alpha))

    def test_entries_match_gather_oracle_past_255_entries(self):
        # Random signed permutations hold many patterns each: every row here
        # holds them at two positions k or more, so the largest position
        # held must win over the smallest, which the gather oracle finds on
        # the reversed plan.
        n = 14
        alpha = Composition((1,) * n, split=True)
        plan = _scan_plan(alpha)
        entries = oracle_plan(plan)
        assert len(entries) > 255
        rng = np.random.default_rng(0)
        rows = np.array([rng.permutation(n) + 1 for _ in range(2000)], dtype=np.int8)
        rows *= rng.choice(np.array([-1, 1], dtype=np.int8), size=rows.shape)
        largest, _ = self.assert_scans_match_oracle(rows, plan)
        smallest = oracle_positions(_long_array(rows), entries[::-1])
        assert (largest > smallest).all()

    def test_entries_match_gather_oracle_at_every_block(self):
        # Each block step of ``aligned_rows`` keeps the columns that its
        # block's plan, scanned on the positions ``_place_block`` filled,
        # keeps (``aligned_block_steps`` checks it), as the gather oracle
        # does; the rows returned are the last step's kept ones.
        for n in range(1, 8):
            for alpha in all_compositions(n):
                rows, steps = aligned_block_steps(alpha)
                assert len(steps) == alpha.r
                for b, (cols, plan, kept) in enumerate(steps):
                    assert cols.shape[0] == alpha.prefix[b + 1]
                    assert plan == _block_plan(alpha.split, alpha.parts[:b + 1])
                    assert np.array_equal(kept, self.assert_scans_match_oracle(cols.T, plan)[1])
                assert np.array_equal(rows, cols.T[kept])


class TestParentTables:
    """Each block step's prune reads its parent's placement tables: built
    once per parent, on the parent's kept state itself, with no copy, and
    read by every child placed from that state."""

    @staticmethod
    def watch(monkeypatch):
        """Check that every step reads the tables of the state it places
        from, and return the builds, each (split, prefix)."""
        built, state_of = [], {}
        build, grow = alignment._placement_tables, alignment._grow

        def building(state, split, prefix):
            assert state.flags.c_contiguous
            tables = build(state, split, prefix)
            built.append((split, prefix))
            state_of[id(tables)] = (tables, state)  # held, so no id is reused
            return tables

        def growing(state, split, parts, cap, tables):
            if tables is None:
                assert len(parts) == 1
            else:
                assert state_of[id(tables)][1] is state
            return grow(state, split, parts, cap, tables)

        monkeypatch.setattr(alignment, "_placement_tables", building)
        monkeypatch.setattr(alignment, "_grow", growing)
        return built

    def test_aligned_rows_build_tables_on_the_kept_state(self, monkeypatch):
        built = self.watch(monkeypatch)
        for n in range(1, 7):
            for alpha in all_compositions(n):
                built.clear()
                aligned_rows(alpha)
                assert [sum(prefix) for _, prefix in built] == list(alpha.prefix[1:-1])

    def test_prefix_walk_builds_tables_on_the_kept_state(self, monkeypatch):
        # Once per node below degree n: 2^(n - 1 - first) of them, the
        # first one the root's.
        built = self.watch(monkeypatch)
        for n in range(1, 6):
            for split in (False, True):
                for first in range(1, n + 1):
                    built.clear()
                    count_aligned_subtree(n, split, first)
                    nodes = 2 ** (n - 1 - first) if first < n else 0
                    assert len(built) == len(set(built)) == nodes
                    assert not built or built[0] == (split, (first,))

    def test_walk_builds_tables_once_per_parent(self, monkeypatch):
        # The degree-7 walk's 126 parents, the compositions of degree <= 6,
        # build their tables once each for all their children, and each of
        # its 254 steps keeps what the dense scan keeps.
        built = self.watch(monkeypatch)
        with checked_block_steps() as steps:
            assert t_sequence(7) == [3, 15, 91, 598, 4109, 29071, 209933]
        assert len(built) == len(set(built)) == 126
        assert len(steps) == len(set(steps)) == 254

    @pytest.mark.parametrize("text", ["125,1", "127,1", "124,1,1", "126,1,1"])
    def test_aligned_rows_at_the_dtype_edges(self, text):
        # int8 states at n = 126, int16 ones at n = 128, where the tables'
        # values reach pred(-n) = -n - 1 and -succ(n) = -n - 1.
        alpha = Composition.parse(text)
        rows = quotient_rows(alpha)
        aligned = aligned_rows(alpha)
        assert aligned.dtype == rows.dtype == (np.int8 if alpha.n == 126 else np.int16)
        assert np.array_equal(lex_sorted(aligned), rows[aligned_mask(alpha, rows)])


class TestPrefixWalk:
    """``t_sequence``'s walk of composition prefixes against the sum of
    ``aligned_rows`` counted over the compositions, its oracle."""

    @staticmethod
    def per_subtree(count, max_n):
        """``count`` summed by degree, split flag and first part, over every
        composition of degree at most ``max_n``."""
        sums = Counter()
        for w in range(1, max_n + 1):
            for alpha in all_compositions(w):
                sums[w, alpha.split, alpha.first_part] += count(alpha)
        return sums

    def assert_every_degree(self, count, max_n):
        # Entry w - 1 of a subtree of degree n counts the compositions of w.
        sums = self.per_subtree(count, max_n)
        for n in range(1, max_n + 1):
            for split in (False, True):
                for first in range(1, n + 1):
                    expected = [sums[w, split, first] for w in range(1, n + 1)]
                    assert count_aligned_subtree(n, split, first) == expected

    def test_subtrees_match_per_composition_counts(self):
        self.assert_every_degree(lambda alpha: len(aligned_rows(alpha)), 7)

    def test_subtrees_match_filter_counts(self):
        # ``aligned_rows`` shares the walk's block step; the filter over
        # the whole quotient does not.
        self.assert_every_degree(
            lambda alpha: int(aligned_mask(alpha, quotient_rows(alpha)).sum()), 6
        )

    def test_lower_degrees_read_off_the_largest(self):
        for n in range(1, 8):
            values = t_sequence(n)
            for k in range(1, n + 1):
                assert values[:k] == t_sequence(k)

    def test_one_block_step_per_composition(self, monkeypatch):
        # The degree-7 walk's nodes are the 254 compositions of degree <= 7,
        # each stepped once.
        steps = []
        grow = alignment._grow

        def counting(state, split, parts, cap, tables):
            steps.append((split, parts))
            return grow(state, split, parts, cap, tables)

        monkeypatch.setattr(alignment, "_grow", counting)
        assert t_sequence(7) == [3, 15, 91, 598, 4109, 29071, 209933]
        assert len(steps) == len(set(steps)) == 254

    def test_refused_exactly_when_some_step_exceeds_the_cap(self):
        # Every block step of a composition of n is a step of the walk, and
        # a lower degree's step holds no more rows than its match there, so
        # the walk refuses exactly when one of them exceeds the cap, and
        # raises one of those counts.
        held = set()
        for n in range(1, 6):
            for alpha in all_compositions(n):
                held.update(held_rows(alpha))
            largest = max(held)
            caps = {1, 2, largest - 1, largest, largest + 1}
            caps |= {c + d for c in held for d in (-1, 0) if c > 1}
            for cap in sorted(caps):
                if cap >= largest:
                    assert len(t_sequence(n, cap=cap)) == n
                    continue
                with pytest.raises(CapExceededError) as info:
                    t_sequence(n, cap=cap)
                assert info.value.cap == cap
                assert info.value.required > cap and info.value.required in held


class TestCoverCounts:
    def test_against_scalar(self, all_small_compositions):
        for n in (2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                batched = cover_counts([m.right for m in members])
                for pi, c in zip(members, batched):
                    assert len(pi.cover_inversions()) == int(c)
