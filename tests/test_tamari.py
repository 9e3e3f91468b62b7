import json
import math
from collections import Counter
from functools import cached_property
from itertools import combinations

import numpy as np
import pytest

from btamari import lattice, parabolic, projection, tamari
from btamari.cli import main
from btamari.errors import CapExceededError, NotALatticeError
from btamari.parabolic import (
    Composition,
    all_compositions,
    parabolic_length,
    quotient_rows,
    quotient_size,
    resolve_cap,
    sorting_word_longest,
)
from btamari.alignment import cover_counts, find_231_pattern, left_descents
from btamari.projection import fiber_bottoms, project_down
from btamari.signed_perm import POS, SIGN, SignedPermutation, format_right
from btamari.tamari import CHECKS, build_tamari, join_irreducible_for, verify_theorems

from conftest import (
    check_congruence,
    eliminate_231,
    full_group,
    inversion_words_whole,
    perm,
    perms,
    quotient_by,
    suffix_chain,
    tamari_meet_join_by_closure,
    weak_leq,
    weak_order_lattice,
    weak_order_matrix,
)

A021 = Composition.parse("0,2,1")


def weak_covers(rows):
    """``tamari._weak_covers``' cover pairs on rows, with their lookup."""
    return tamari._weak_covers(rows, projection.row_lookup(rows))


def row_major(pairs):
    """Cover pairs (below, above) sorted by below, then by above."""
    below, above = pairs
    order = np.lexsort((above, below))
    return below[order], above[order]


def graded_covers(rows):
    """The weak order's covers by definition: b covers a when a <= b and b
    is one longer, lengths being the inversion counts."""
    length = inversion_words_whole(rows)[1]
    return np.nonzero((length[:, None] + 1 == length) & weak_order_matrix(rows))


class TestBuildTamari:
    def test_two_chain(self):
        tam = build_tamari(Composition((1,), split=True))
        assert isinstance(tam, lattice.FiniteLattice)
        assert tam.n == 2

    def test_staircase_three(self):
        assert build_tamari(Composition((1, 1, 1), split=True)).n == 20

    def test_021_size(self):
        assert build_tamari(A021).n == 16

    def test_routes_isomorphic(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                weak = weak_order_lattice(alpha)
                bottoms = fiber_bottoms(alpha, quotient_rows(alpha))
                quot = quotient_by(weak, bottoms)
                tam = build_tamari(alpha)
                assert np.array_equal(tam.labels, quot.labels), alpha
                assert np.array_equal(tam.leq, quot.leq), alpha


class TestJoinIrreducibles:
    @pytest.mark.parametrize(
        "alpha,pair,expected",
        [
            ("0,3,1,2,1", (2, 6), "1,5,6,2,3,4,7"),
            ("4,2,2", (2, 6), "1,4,5,6,2,3,7,8"),
            ("0,3,1,2,1", (-5, 5), "-5,-4,-3,-2,-1,6,7"),
            ("4,2,2", (-6, 6), "3,4,5,6,-2,-1,7,8"),
            ("0,3,1,2,1", (-2, 6), "-6,-5,1,2,3,4,7"),
            ("4,2,2", (-5, 7), "4,5,6,7,-3,1,2,8"),
            ("4,2,2", (2, -5), "1,2,4,5,-3,6,7,8"),
        ],
    )
    def test_golden_rows(self, alpha, pair, expected):
        alpha = Composition.parse(alpha)
        built = join_irreducible_for(alpha, pair)
        assert built == perm(expected)
        # aligned, and the input inversion is the unique cover inversion
        assert find_231_pattern(alpha, built) is None
        assert len(built.cover_inversions()) == 1

    def test_mirror_realization_accepted(self):
        alpha = Composition.parse("0,3,1,2,1")
        assert join_irreducible_for(alpha, (-2, 6)) == join_irreducible_for(
            alpha, (-6, 2)
        )

    @pytest.mark.parametrize("alpha", ["0,3,1,2,1", "4,2,2"])
    def test_negated_pair_accepted(self, alpha):
        # (-j, -i) names the same transposition as (i, j).
        alpha = Composition.parse(alpha)
        assert join_irreducible_for(alpha, (-6, -2)) == join_irreducible_for(alpha, (2, 6))

    @pytest.mark.parametrize("pair", [(1, 1), (-3, -3), (0, 2)])
    def test_rejects_bad_pairs(self, pair):
        with pytest.raises(ValueError, match="bad inversion pair"):
            join_irreducible_for(Composition.parse("0,3,1,2,1"), pair)

    def test_rejects_non_inversions(self):
        with pytest.raises(ValueError):
            join_irreducible_for(Composition.parse("4,2,2"), (-2, 2))
        with pytest.raises(ValueError):
            join_irreducible_for(Composition.parse("0,2,1"), (1, 2))

    def test_bijection_with_lattice_irreducibles(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                pairs = [
                    (t.i, t.j) if t.kind == POS
                    else (-t.i, t.i) if t.kind == SIGN
                    else (-t.i, t.j)
                    for t in parabolic.inversion_order(alpha)
                ]
                assert len(pairs) == parabolic_length(alpha)
                built = {join_irreducible_for(alpha, pair).right for pair in pairs}
                assert len(built) == len(pairs)
                lat = build_tamari(alpha)
                brute = set(map(tuple, lat.labels[lat.irreducibles[0]].tolist()))
                assert built == brute

    def test_array_cover_check_matches_cover_inversions(self):
        # Every constructed row against every cell (and, up to n = 4, every
        # quotient row too): the array verdict is cover_inversions() == {t}.
        for n in range(1, 6):
            for alpha in parabolic.all_compositions(n):
                cells = [cell[-1] for row in parabolic.tableau_cells(alpha)[2] for cell in row]
                rows = np.array(
                    [tamari._join_irreducible(alpha, t) for t in cells], dtype=np.int64
                ).reshape(-1, n)
                if n <= 4:
                    rows = np.concatenate([rows, quotient_rows(alpha)])
                verdict = tamari._covers_exactly(
                    np.repeat(rows, len(cells), axis=0), cells * len(rows)
                )
                expected = [
                    SignedPermutation(r).cover_inversions() == {t}
                    for r in rows.tolist() for t in cells
                ]
                assert verdict.tolist() == expected, alpha
                assert verdict.sum() >= len(cells)

    def test_swapped_row_rejected(self, monkeypatch):
        # The first cell gets the second cell's irreducible.
        cells = [cell[-1] for row in parabolic.tableau_cells(A021)[2] for cell in row]
        original = tamari._join_irreducible
        monkeypatch.setattr(
            tamari, "_join_irreducible",
            lambda alpha, t: original(alpha, cells[1] if t == cells[0] else t),
        )
        built = np.array([tamari._join_irreducible(A021, t) for t in cells])
        assert tamari._covers_exactly(built, cells).tolist() == (
            [False] + [True] * (len(cells) - 1)
        )
        report = verify_theorems(A021)
        assert [name for name, ok in report.checks.items() if not ok] == [
            "irreducible_constructor"
        ]


class TestRowLocalMeetJoin:
    """Tam_B's tables against P9, which reads each pair's meet and join off
    the two rows alone, on every pair."""

    @staticmethod
    def assert_tables_match(alpha, rng=None, count=None):
        """On every pair, or on ``count`` pairs drawn by ``rng``."""
        tam = build_tamari(alpha)
        rows, m = tam.labels, tam.n
        if count is None:
            a, b = np.divmod(np.arange(m * m), m)
        else:
            a, b = rng.integers(m, size=(2, count))
        index = {row: q for q, row in enumerate(map(tuple, rows.tolist()))}
        for got, table in zip(
            tamari_meet_join_by_closure(alpha, rows[a], rows[b]),
            (tam.meet, tam.join),
        ):
            got = np.array([index[row] for row in map(tuple, got.tolist())])
            assert np.array_equal(got, table[a, b]), alpha

    def test_every_pair_to_degree_four(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                self.assert_tables_match(alpha)

    def test_every_pair_of_the_full_group_five(self):
        # 252 elements, 63,504 pairs.
        self.assert_tables_match(Composition((1,) * 5, split=True))

    def test_sampled_pairs_where_the_kernel_splits_its_rows(self):
        # Seed 38: 20,000 pairs of the n = 6 full group's Tam_B, whose 924
        # rows the join kernel takes in 27 blocks, then 2,000 pairs of each
        # of 20 compositions of 7 drawn without replacement.
        rng = np.random.default_rng(38)
        assert len(lattice.blocks(924, 8 * 924)) == 27
        self.assert_tables_match(Composition((1,) * 6, split=True), rng, 20_000)
        sevens = all_compositions(7)
        for k in rng.choice(len(sevens), 20, replace=False):
            self.assert_tables_match(sevens[k], rng, 2_000)


class TestMaximalChain:
    def test_suffixes_form_aligned_chain(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                chain = suffix_chain(sorting_word_longest(alpha), n)
                assert len(chain) == parabolic_length(alpha) + 1
                for pi in chain:
                    assert find_231_pattern(alpha, pi) is None
                for lower, upper in zip(chain, chain[1:]):
                    assert weak_leq(lower, upper)

    def test_tamari_length(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                lat = build_tamari(alpha)
                assert lat.length() == parabolic_length(alpha)


class TestNotSublattice:
    def test_021_witness(self):
        witness = verify_theorems(A021).witness
        pi1, pi2, weak_meet, tamari_meet = witness
        assert pi1 == perm("-2,1,-3")
        assert pi2 == perm("-3,-1,-2")
        assert weak_meet == perm("-3,1,-2")
        assert tamari_meet == perm("-3,2,1")

    def test_absent_for_tiny_and_full(self):
        assert verify_theorems(Composition((1,), split=True)).witness is None
        for n in (2, 3, 4):
            assert verify_theorems(Composition((1,) * n, split=True)).witness is None

    def test_matches_pairwise_scan(self, all_small_compositions, monkeypatch):
        # The weak meets come from the oracle's dense table; _meet_mismatch
        # gets the weak order as inversion words and cover pairs, in one
        # block and in blocks of one row and one word, and Tam_B's indices
        # among the rows both as the fibers' bottoms and as verify takes
        # them, by row_lookup.  0,2,1,2 and 1,2,1,1 have witnesses.
        from btamari.tamari import _inversion_words, _meet_mismatch

        alphas = [alpha for n in (2, 3, 4) for alpha in all_small_compositions[n]]
        alphas += map(Composition.parse, ["0,2,1,2", "0,1,1,1,1", "1,2,1,1"])
        for alpha in alphas:
            weak = weak_order_lattice(alpha)
            tam = build_tamari(alpha)
            index = {row: idx for idx, row in enumerate(map(tuple, weak.labels.tolist()))}
            tam_rows = list(map(tuple, tam.labels.tolist()))
            expected = None
            for a, b in combinations(range(tam.n), 2):
                pa, pb = tam_rows[a], tam_rows[b]
                wm = tuple(weak.labels[weak.meet[index[pa], index[pb]]].tolist())
                tm = tam_rows[tam.meet[a, b]]
                if wm != tm:
                    expected = (pb, pa, wm, tm)
                    break
            words = _inversion_words(weak.labels)
            covers = weak_covers(weak.labels)
            bottoms = fiber_bottoms(alpha, weak.labels)
            own_bottoms = np.flatnonzero(bottoms == np.arange(weak.n))
            looked_up = projection.row_lookup(weak.labels)(tam.labels)
            assert np.array_equal(own_bottoms, looked_up), alpha.format()

            def mismatch(into_weak, table):
                found = _meet_mismatch(weak.labels, table, covers, tam, into_weak)
                return found if found is None else tuple(tuple(r.tolist()) for r in found)

            # One inversion per word, 64 words: at BLOCK_BYTES = 1 every word
            # is a block, so a pair's verdict is ORed over 64 blocks.
            spread = words & (np.uint64(1) << np.arange(64, dtype=np.uint64))
            for into_weak in (own_bottoms, looked_up):
                for block_bytes in (lattice.BLOCK_BYTES, 1):
                    with monkeypatch.context() as patch:
                        patch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                        for table in (words, spread):
                            assert mismatch(into_weak, table) == expected, alpha.format()


class TestVerifyTheorems:
    def test_small_split(self):
        report = verify_theorems(Composition((1, 1), split=True))
        assert report.ok
        assert report.stats["length"] == 4
        assert report.witness is None

    def test_021_report(self):
        report = verify_theorems(A021)
        assert report.ok
        assert report.witness is not None
        data = report.to_json()
        assert data["alpha"] == "0,2,1"
        assert set(data["checks"]) == {
            "congruence_valid",
            "lattice_subposet",
            "lattice_quotient",
            "quotient_isomorphic_subposet",
            "congruence_uniform",
            "semidistributive",
            "extremal",
            "trim",
            "length_formula",
            "irreducible_counts",
            "irreducible_constructor",
        }
        assert tuple(data["checks"]) == tamari.CHECKS
        assert all(data["checks"].values())
        assert data["stats"] == {"size": 16, "length": 8, "join_irreducibles": 8}
        assert data["not_a_sublattice_witness"] == [
            "-2,1,-3",
            "-3,-1,-2",
            "-3,1,-2",
            "-3,2,1",
        ]

    def test_summary_text(self):
        report = verify_theorems(Composition((2,)))
        assert "PASS" in report.summary()
        assert report.stats["size"] == 1

    def test_semidistributivity_witness_reported(self, monkeypatch):
        passing = verify_theorems(A021)
        assert "semidistributivity_witness" not in passing.to_json()
        assert "not semidistributive" not in passing.summary()
        monkeypatch.setattr(
            lattice, "semidistributivity_witness", lambda L: ("meet", 3, 5, 6)
        )
        report = verify_theorems(A021)
        assert [name for name, ok in report.checks.items() if not ok] == [
            "semidistributive"
        ]
        L = build_tamari(A021)
        p, q, r = (format_right(L.labels[x].tolist()) for x in (3, 5, 6))
        assert report.to_json()["semidistributivity_witness"] == {
            "law": "meet", "triple": [p, q, r]
        }
        assert "  FAIL  semidistributive" in report.summary()
        assert report.summary().endswith(
            f"  not semidistributive: meet({p}, {q}) = meet({p}, {r})"
            f" but meet({p}, join({q}, {r})) differs"
        )

    def test_every_witness_listed_once_in_one_order(self):
        # A report holding all five witnesses lists each once in to_json()
        # and once in summary(), in one order: congruence, Tam_B, quotient,
        # sublattice, semidistributivity.
        p, q, r, t = map(perm, ("-2,1,-3", "-3,-1,-2", "-3,1,-2", "-3,2,1"))
        report = tamari.VerificationReport(
            A021, {"congruence_valid": False}, {},
            witness=(p, q, r, t),
            semidistributivity_witness=("join", p, q, r),
            congruence_failure="class 1 is not an interval",
            quotient_lattice_failure=("no-glb", q, r),
            tamari_lattice_failure=("no-lub", p, t),
        )
        data = report.to_json()
        assert json.loads(json.dumps(data)) == data
        assert list(data.items())[3:] == [
            ("congruence_failure", "class 1 is not an interval"),
            ("tamari_not_a_lattice", {"reason": "no-lub", "pair": ["-2,1,-3", "-3,2,1"]}),
            ("quotient_not_a_lattice", {"reason": "no-glb", "pair": ["-3,-1,-2", "-3,1,-2"]}),
            ("not_a_sublattice_witness", ["-2,1,-3", "-3,-1,-2", "-3,1,-2", "-3,2,1"]),
            ("semidistributivity_witness", {
                "law": "join", "triple": ["-2,1,-3", "-3,-1,-2", "-3,1,-2"]
            }),
        ]
        assert report.summary().splitlines() == [
            "alpha = 0,2,1",
            "  FAIL  congruence_valid",
            "  not a congruence: class 1 is not an interval",
            "  Tam_B not a lattice: no-lub for (-2,1,-3, -3,2,1)",
            "  quotient not a lattice: no-glb for (-3,-1,-2, -3,1,-2)",
            "  not a sublattice: meet(-2,1,-3, -3,-1,-2) is -3,1,-2 in the weak order"
            " but -3,2,1 in the Tamari lattice",
            "  not semidistributive: join(-2,1,-3, -3,-1,-2) = join(-2,1,-3, -3,1,-2)"
            " but join(-2,1,-3, meet(-3,-1,-2, -3,1,-2)) differs",
        ]

    def test_tam_of_another_composition_raises(self):
        # A Tam_B of another composition, of the same degree or not, has a
        # row that is no member of 0,2,1's quotient; the lookup names it.
        members = {format_right(r) for r in quotient_rows(A021).tolist()}
        for other, why in (
            ("0,1,2", "is not among the rows"), ("0,1,1", "is not a row of width 3")
        ):
            tam = build_tamari(Composition.parse(other))
            with pytest.raises(ValueError) as info:
                verify_theorems(A021, tam=tam)
            row, _, rest = str(info.value).partition(" ")
            assert rest == why, other
            assert row in {format_right(r) for r in tam.labels.tolist()} - members, other

    def test_sweep_n3(self, all_small_compositions):
        for alpha in all_small_compositions[3]:
            report = verify_theorems(alpha)
            assert report.ok, (alpha.format(), report.checks)


class TestWeakCovers:
    def test_int16_images_match_row_index(self):
        # Degree 127 takes int16 rows.  The left descents' images that the
        # row lookup finds give the graded covers, and the fiber steps give
        # project_down's bottoms.
        alpha = Composition.parse("126,1")
        rows = quotient_rows(alpha)
        assert rows.dtype == np.int16 and rows.shape == (254, 127)
        assert np.array_equal(graded_covers(rows), row_major(weak_covers(rows)))
        bottoms = fiber_bottoms(alpha, rows, projection.row_lookup(rows))
        for x in range(0, len(rows), 23):
            bottom = project_down(alpha, SignedPermutation(rows[x].tolist()))
            assert rows[bottoms[x]].tolist() == list(bottom.right), x

    def test_one_generator_per_block_gives_the_same_covers(self, monkeypatch):
        for n in range(1, 6):
            for alpha in all_compositions(n):
                rows = quotient_rows(alpha)
                whole = weak_covers(rows)
                monkeypatch.setattr(lattice, "BLOCK_BYTES", 1)
                blocked = weak_covers(rows)
                monkeypatch.undo()
                for a, b in zip(whole, blocked):
                    assert np.array_equal(a, b), alpha

    def test_left_descents_match_definition(self):
        # s is a left descent of x when s x is one shorter, on every member
        # of every quotient with n <= 4.
        for n in range(1, 5):
            for alpha in all_compositions(n):
                members = perms(quotient_rows(alpha))
                mask = left_descents([pi.right for pi in members])
                expected = [
                    [
                        len(pi.mul_gen_left(s).inversion_set())
                        == len(pi.inversion_set()) - 1
                        for pi in members
                    ]
                    for s in range(n)
                ]
                assert mask.tolist() == expected, alpha

    def test_full_groups_have_one_cover_per_descent(self):
        # The full group of degree n has n 2^n n! / 2 left descents in all,
        # half of n per element, and as many covers.
        for n in range(1, 7):
            rows = quotient_rows(Composition.parse(",".join(["0"] + ["1"] * n)))
            below = weak_covers(rows)[0]
            assert len(below) == cover_counts(rows).sum()
            assert len(below) == n * 2**n * math.factorial(n) // 2, n

    def test_pairs_own_their_memory(self):
        # Neither end is a view of a larger array, such as the (pairs, 2)
        # index array np.nonzero returns, which would double what they hold.
        below, above = weak_covers(quotient_rows(A021))
        assert below.base is None and above.base is None

    def test_missing_image_raises(self):
        # Every row of 0,2,1 but the longest is s x for some row x and left
        # descent s of it; with that row deleted, the lookup cannot find it.
        rows = quotient_rows(A021)
        top = int(np.argmax(inversion_words_whole(rows)[1]))
        for k in range(len(rows)):
            if k == top:
                continue
            kept = np.delete(rows, k, axis=0)
            with pytest.raises(ValueError) as info:
                weak_covers(kept)
            assert str(info.value) == f"{format_right(rows[k])} is not among the rows"


class TestInversionWords:
    def test_blocks_pack_as_the_whole_table(self, monkeypatch):
        # Groups of one position block (BLOCK_BYTES = 1) carry their odd
        # widths' last columns into the next; every group packs to the bits
        # of the whole table, up to n = 5, for the 645,120 rows of n = 7
        # and for one row of degree 300.
        alphas = [alpha for n in range(1, 6) for alpha in all_compositions(n)]
        alphas += [Composition.parse("0,1,1,1,1,1,1,1"), Composition.parse("300")]
        for alpha in alphas:
            rows = quotient_rows(alpha)
            words = inversion_words_whole(rows)[0]
            for block_bytes in (lattice.BLOCK_BYTES, 64, 1):
                with monkeypatch.context() as patch:
                    patch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                    got = tamari._inversion_words(rows)
                assert got.dtype == words.dtype, alpha
                assert np.array_equal(got, words), (alpha, block_bytes)


class TestVerifyBuildsOnce:
    def test_each_structure_built_once(self, monkeypatch):
        calls = Counter()
        for module, name in [
            (tamari, "fiber_bottoms"),
            (tamari, "quotient_rows"),
            (tamari, "_inversion_words"),
            (lattice, "_congruence_failure"),
            (lattice, "try_lattice"),
            (projection, "theta_classes"),
            (projection, "project_up"),
            (projection, "find_312_pattern"),
            # every module that imports them
            (parabolic, "longest_element"),
            (projection, "longest_element"),
            (tamari, "longest_element"),
            (tamari, "tableau_cells"),
            (tamari, "row_lookup"),
            (lattice.FinitePoset, "length"),
        ]:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        found = lattice.FiniteLattice.irreducibles.func
        irreducibles = cached_property(
            lambda self: calls.update(["irreducibles"]) or found(self)
        )
        irreducibles.__set_name__(lattice.FiniteLattice, "irreducibles")
        monkeypatch.setattr(lattice.FiniteLattice, "irreducibles", irreducibles)
        assert verify_theorems(A021).ok
        # one quotient enumeration and one table of its inversion words;
        # tables for the subposet lattice only, none for the weak order or
        # the quotient; covers and fibers read off the quotient's rows, with
        # one row lookup for their generator images and Tam_B's rows; one
        # congruence test; the tableau's labels once, with
        # no longest element as a signed permutation;
        # the irreducibles found once each for L and its dual, and L's
        # length once, for extremality, trimness and the stats alike
        assert calls == {
            "fiber_bottoms": 1,
            "quotient_rows": 1,
            "_inversion_words": 1,
            "_congruence_failure": 1,
            "try_lattice": 1,
            "tableau_cells": 1,
            "row_lookup": 1,
            "irreducibles": 2,
            "length": 1,
        }

    def test_weak_covers_not_multiplied(self, monkeypatch):
        # The weak order's covers come from the generators; only the Tamari
        # lattice evaluates the m^3 product.
        sizes = []
        product = lattice.FinitePoset.covers.func
        counted = cached_property(lambda self: sizes.append(self.n) or product(self))
        counted.__set_name__(lattice.FinitePoset, "covers")
        monkeypatch.setattr(lattice.FinitePoset, "covers", counted)
        alpha = Composition.parse("0,1,1,1")
        assert verify_theorems(alpha).ok
        assert sizes == [build_tamari(alpha).n]
        assert quotient_size(alpha) not in sizes

    def test_no_weak_order_matrix(self, monkeypatch):
        # Verify builds one containment matrix, Tam_B's, m x m: the
        # quotient's order on the class minima, the same array when the
        # element sets agree, is not built.
        alpha = Composition.parse("0,1,1,1")
        m = build_tamari(alpha).n
        sizes = []
        original = lattice.contained
        monkeypatch.setattr(
            lattice, "contained", lambda words: sizes.append(len(words)) or original(words)
        )
        assert verify_theorems(alpha).ok
        assert sizes == [m]

    def test_semidistributivity_scanned_once(self, monkeypatch):
        # verify_theorems calls semidistributivity_witness once, for both
        # the check and the report's witness; it runs the kappa criterion
        # once per law, join first.
        laws = []
        original = lattice._kappa_witness
        monkeypatch.setattr(
            lattice, "_kappa_witness",
            lambda lat, name: laws.append(name) or original(lat, name),
        )
        assert verify_theorems(A021).ok
        assert laws == ["join", "meet"]

    def test_failed_congruence_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            lattice, "_congruence_failure",
            lambda words, covers, block_of: ("class 0 is not an interval", None),
        )
        report = verify_theorems(A021)
        assert not report.ok
        failed = [name for name, value in report.checks.items() if not value]
        assert failed == [
            "congruence_valid", "lattice_quotient", "quotient_isomorphic_subposet"
        ]


class TestQuotientOrder:
    # The quotient's order is built only when its element set differs from
    # Tam_B's; it is then tested for being a lattice, and fails without a
    # traceback.
    @pytest.fixture
    def rekeyed(self, monkeypatch):
        """One fiber keyed by a member above its minimum: the partition, so
        the congruence, is kept, but the rows that are their own bottom are
        no longer the class minima."""
        original = tamari.fiber_bottoms

        def bottoms(*args):
            found = original(*args)
            key = np.bincount(found).argmax()
            members = np.flatnonzero(found == key)
            found[members] = members[members != key][0]
            return found

        monkeypatch.setattr(tamari, "fiber_bottoms", bottoms)

    @staticmethod
    def failed_checks(monkeypatch, replace):
        original = lattice.quotient_order
        monkeypatch.setattr(
            lattice, "quotient_order", lambda *args: replace(original(*args))
        )
        report = verify_theorems(A021)
        failed = [name for name, ok in report.checks.items() if not ok]
        assert all(f"  FAIL  {name}" in report.summary() for name in failed)
        return failed

    def test_not_a_lattice(self, monkeypatch, rekeyed):
        def antichain(quot):
            return lattice.FinitePoset(quot.labels[:2], np.eye(2, dtype=bool))

        assert self.failed_checks(monkeypatch, antichain) == [
            "lattice_quotient", "quotient_isomorphic_subposet"
        ]
        # The two elements have no upper bound: the first pair, no-lub.
        report = verify_theorems(A021)
        pair = [format_right(r) for r in quotient_rows(A021)[:2]]
        assert report.to_json()["quotient_not_a_lattice"] == {
            "reason": "no-lub", "pair": pair
        }
        assert (
            f"  quotient not a lattice: no-lub for ({pair[0]}, {pair[1]})"
            in report.summary().splitlines()
        )

    def test_congruence_tested_once(self, monkeypatch, rekeyed):
        # The quotient order is built on the minima of verify's one
        # congruence test, which it does not run again.
        calls, built = [], []
        original = lattice._congruence_failure
        monkeypatch.setattr(
            lattice, "_congruence_failure",
            lambda *args: calls.append(1) or original(*args),
        )
        assert self.failed_checks(monkeypatch, lambda quot: built.append(quot) or quot) == [
            "quotient_isomorphic_subposet"
        ]
        assert (len(built), len(calls)) == (1, 1)

    def test_wrong_key_not_isomorphic(self, monkeypatch, rekeyed):
        # The quotient order on the class minima is Tam_B's, a lattice.
        assert self.failed_checks(monkeypatch, lambda quot: quot) == [
            "quotient_isomorphic_subposet"
        ]

    def test_lattice_not_isomorphic(self, monkeypatch):
        # Tam_B without element 7, one lower and one upper cover and off
        # every longest chain, is a sublattice of it of the same length:
        # both routes give lattices, on element sets that differ by that
        # element.  Its constructor check fails too, for the same element.
        full = build_tamari(A021)
        lower, upper = full.covers
        assert (upper == 7).sum() == (lower == 7).sum() == 1
        kept = np.delete(full.labels, 7, axis=0)
        monkeypatch.setattr(tamari, "aligned_rows", lambda alpha, cap=None: kept)
        built = []
        assert self.failed_checks(monkeypatch, lambda quot: built.append(quot) or quot) == [
            "quotient_isomorphic_subposet", "irreducible_constructor"
        ]
        assert np.array_equal(built[0].labels, full.labels)
        assert np.array_equal(built[0].leq, full.leq)


class TestTamariNotALattice:
    # Tam_B without its top row: the maximal elements have no join.
    @pytest.fixture
    def topless(self, monkeypatch):
        """Drops Tam_B's top; returns the kernel's error on what is left."""
        full = build_tamari(A021)
        kept = np.delete(full.labels, full.leq.all(axis=0).argmax(), axis=0)
        monkeypatch.setattr(tamari, "aligned_rows", lambda alpha, cap=None: kept)
        order = lattice.FinitePoset(kept, weak_order_matrix(kept))
        with pytest.raises(NotALatticeError) as info:
            lattice.try_lattice(order)
        return info.value

    def test_fail_row_names_the_pair(self, topless):
        report = verify_theorems(A021)
        pair = [format_right(r) for r in topless.labels]
        assert topless.reason == "no-lub"
        assert report.to_json()["tamari_not_a_lattice"] == {
            "reason": "no-lub", "pair": pair
        }
        assert (
            f"  Tam_B not a lattice: no-lub for ({pair[0]}, {pair[1]})"
            in report.summary().splitlines()
        )
        # The quotient's own checks still run; every check on Tam_B fails.
        assert list(report.checks) == list(CHECKS)
        assert [name for name, ok in report.checks.items() if ok] == [
            "congruence_valid", "lattice_quotient"
        ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cli_exits_one_without_traceback(self, topless, capsys, fmt):
        code = main(["lattice", "--alpha", "0,2,1", "--check", "all", "--format", fmt])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        if fmt == "json":
            assert json.loads(out)["tamari_not_a_lattice"]["reason"] == "no-lub"
        else:
            assert "  Tam_B not a lattice: no-lub for (" in out


class TestRowsNotObjects:
    def test_verify_builds_few_signed_permutations(self, monkeypatch):
        # Rows travel from enumeration to the checks; only the report's
        # witnesses are signed permutations: none for the full group of
        # degree 5, which has no witness, and the four of 0,2,1's.
        built = Counter()
        original = SignedPermutation.__post_init__
        monkeypatch.setattr(
            SignedPermutation, "__post_init__",
            lambda self: built.update(["built"]) or original(self),
        )
        assert verify_theorems(Composition.parse("0,1,1,1,1,1")).ok
        assert built["built"] == 0
        report = verify_theorems(A021)
        assert report.ok and len(report.witness) == 4
        assert built["built"] == 4


class TestCongruenceFailure:
    @staticmethod
    def merge_first_and_last(alpha, rows, find=None):
        # The bottom's and the top's fibers: their union is no interval.
        bottoms = fiber_bottoms(alpha, rows, find)
        first, last = np.unique(bottoms)[[0, -1]]
        return np.where(bottoms == last, first, bottoms)

    def test_why_in_text_and_json(self, monkeypatch):
        weak = weak_order_lattice(A021)
        ok, why = check_congruence(weak, self.merge_first_and_last(A021, weak.labels))
        assert not ok and why
        monkeypatch.setattr(tamari, "fiber_bottoms", self.merge_first_and_last)
        report = verify_theorems(A021)
        assert not report.checks["congruence_valid"]
        assert report.to_json()["congruence_failure"] == why
        summary = report.summary()
        assert "  FAIL  congruence_valid" in summary
        assert f"  not a congruence: {why}" in summary.splitlines()

    def test_absent_when_valid(self):
        report = verify_theorems(A021)
        assert report.congruence_failure is None
        assert "congruence_failure" not in report.to_json()
        assert "not a congruence" not in report.summary()


class TestGeneratorImages:
    def test_missing_image_raises_as_the_lookup_does(self):
        rows = quotient_rows(A021)
        hit, eliminated = eliminate_231(A021, rows)
        kept = rows[~(rows == eliminated[0]).all(axis=1)]
        with pytest.raises(ValueError, match="not among the rows"):
            fiber_bottoms(A021, kept)


class TestWeakOrderLattice:
    def test_sizes(self):
        assert weak_order_lattice(Composition((1, 1), split=True)).n == 8
        assert weak_order_lattice(Composition.parse("1,2")).n == 12

    def test_is_a_lattice(self, all_small_compositions):
        # Björner and Wachs: the weak order on a parabolic quotient is a
        # lattice.  verify_theorems relies on it and builds no weak tables.
        alphas = [alpha for n in (1, 2, 3, 4) for alpha in all_small_compositions[n]]
        alphas += [a for a in parabolic.all_compositions(5) if quotient_size(a) <= 960]
        assert len(alphas) == 30 + 26
        for alpha in alphas:
            weak = weak_order_lattice(alpha)
            assert (weak.n, weak.length()) == (quotient_size(alpha), parabolic_length(alpha))

    def test_graded_covers_match_product(self, all_small_compositions):
        # The covers verify_theorems finds from the generators are the ones
        # the m^3 product of FinitePoset.covers finds.
        alphas = [alpha for n in (1, 2, 3, 4) for alpha in all_small_compositions[n]]
        alphas += [a for a in parabolic.all_compositions(5) if quotient_size(a) <= 960]
        for alpha in alphas:
            rows = quotient_rows(alpha)
            covers = lattice.FinitePoset(rows, weak_order_matrix(rows)).covers
            assert np.array_equal(covers, row_major(weak_covers(rows))), alpha

    def test_generator_covers_match_graded_covers(self):
        # The quotient is graded by length: b covers a exactly when a <= b
        # and b is one longer.  For every composition with n <= 5, the
        # generators' cover pairs, sorted, are the graded dense covers.
        alphas = [alpha for n in range(1, 6) for alpha in parabolic.all_compositions(n)]
        assert len(alphas) == 62
        for alpha in alphas:
            rows = quotient_rows(alpha)
            assert np.array_equal(graded_covers(rows), row_major(weak_covers(rows))), alpha

    def test_matrix_matches_pairwise_weak_leq(self, all_small_compositions):
        inputs = [
            perms(quotient_rows(alpha))
            for n in (1, 2, 3)
            for alpha in all_small_compositions[n]
        ]
        inputs.append(full_group(4))
        # n^2 > 64 inversion columns: two bit words per row, read as two
        # column blocks at BLOCK_BYTES = 1
        inputs += [perms(quotient_rows(Composition.parse(a))) for a in ("8,1", "7,2")]
        for members in inputs:
            expected = np.array(
                [[weak_leq(a, b) for b in members] for a in members], dtype=bool
            )
            rows = np.array([pi.right for pi in members], dtype=np.int8)
            for block_bytes in (lattice.BLOCK_BYTES, 1):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(lattice, "BLOCK_BYTES", block_bytes)
                    assert np.array_equal(weak_order_matrix(rows), expected)

    def test_refused_before_enumerating(self, monkeypatch):
        # Tam_B's rows are counted first, so one whose tables exceed the cap
        # is refused before the quotient is enumerated.  With one element per
        # value, Tam_B's 252 x 252 order counts 63,504 elements against a
        # cap that admits the quotient's 3,840 rows.
        def not_called(*args, **kwargs):
            raise AssertionError("quotient_rows called")

        monkeypatch.setattr(tamari, "quotient_rows", not_called)
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        with pytest.raises(CapExceededError) as info:
            verify_theorems(Composition.parse("0,1,1,1,1,1"), cap=50_000)
        assert str(info.value) == "enumeration needs 63504 elements, cap is 50000"
        assert (info.value.required, info.value.cap) == (63504, 50_000)

    def test_refused_above_table_bound_before_allocating(self, monkeypatch):
        # Tam_B(0,1,1) has 6 elements: its 6 x 6 order counts 36 against 35.
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        # any numpy call in tamari would fail with AttributeError instead
        monkeypatch.setattr(tamari, "np", None)
        with pytest.raises(CapExceededError) as info:
            verify_theorems(Composition.parse("0,1,1"), cap=35)
        assert (info.value.required, info.value.cap) == (36, 35)

    def test_class_minima_order_refused_before_allocating(self, monkeypatch):
        # Tam_B(0,1,1) without its first row: its 5 x 5 order fits 35
        # values, and the element sets differ, so the quotient order on the
        # 6 class minima is counted, 36 values, before quotient_order runs.
        kept = build_tamari(Composition.parse("0,1,1")).labels[1:]
        monkeypatch.setattr(tamari, "aligned_rows", lambda alpha, cap=None: kept)

        def not_called(*args, **kwargs):
            raise AssertionError("quotient_order called")

        monkeypatch.setattr(lattice, "quotient_order", not_called)
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        with pytest.raises(CapExceededError) as info:
            verify_theorems(Composition.parse("0,1,1"), cap=35)
        assert (info.value.required, info.value.cap) == (36, 35)

    def test_tamari_passed_in_is_counted(self, monkeypatch):
        # A Tam_B passed in gives the rows; its 6 x 6 order counts 36
        # values against 35 before the quotient is enumerated.
        L = build_tamari(Composition.parse("0,1,1"))

        def not_called(*args, **kwargs):
            raise AssertionError("quotient_rows called")

        monkeypatch.setattr(tamari, "quotient_rows", not_called)
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        with pytest.raises(CapExceededError) as info:
            verify_theorems(Composition.parse("0,1,1"), cap=35, tam=L)
        assert (info.value.required, info.value.cap) == (36, 35)

    def test_table_bound_is_the_cap_on_m_squared_values(self, monkeypatch):
        # 11,313^2 values fit 64 to an element under the default cap; 11,314^2
        # do not, and build_tamari refuses them before packing any word.
        def not_packed(*args, **kwargs):
            raise AssertionError("_inversion_words called")

        rows = np.zeros((11_314, 1), dtype=np.int8)
        monkeypatch.setattr(tamari, "_inversion_words", not_packed)
        monkeypatch.setattr(tamari, "aligned_rows", lambda alpha, cap=None: rows)
        with pytest.raises(CapExceededError) as info:
            build_tamari(Composition.parse("1"), cap=2_000_000)
        assert str(info.value) == "enumeration needs 2000104 elements, cap is 2000000"
        # One row fewer is admitted, and reaches the words.
        monkeypatch.setattr(tamari, "aligned_rows", lambda alpha, cap=None: rows[1:])
        with pytest.raises(AssertionError, match="_inversion_words called"):
            build_tamari(Composition.parse("1"), cap=2_000_000)

    def test_weak_order_above_table_bound_verifies(self):
        # 23,040 members: the weak side holds no m x m matrix, whose values
        # alone would exceed the cap; only Tam_B (792 elements) is tabled.
        alpha = Composition.parse("1,1,1,1,1,1")
        assert quotient_size(alpha) ** 2 > parabolic.ROW_VALUES * resolve_cap()
        report = verify_theorems(alpha)
        assert report.ok
        assert report.stats == {"size": 792, "length": 35, "join_irreducibles": 35}
