from collections import Counter
from itertools import combinations

import pytest

from btamari import lattice, tamari
from btamari.errors import CapExceededError, TableBoundError
from btamari.lattice import join_irreducibles, length
from btamari.parabolic import (
    Composition,
    parabolic_length,
    sorting_word_longest,
    word_suffix_chain,
)
from btamari.alignment import is_aligned
from btamari.tamari import (
    QUOTIENT,
    SUBPOSET,
    build_tamari,
    irreducible_pairs,
    join_irreducible_for,
    not_sublattice_witness,
    verify_theorems,
    weak_order_lattice,
)

from conftest import perm

A021 = Composition.parse("0,2,1")


class TestBuildTamari:
    def test_two_chain(self):
        built = build_tamari(Composition((1,), split=True))
        assert built.lattice.n == 2
        assert built.provenance == SUBPOSET

    def test_staircase_three(self):
        built = build_tamari(Composition((1, 1, 1), split=True))
        assert built.lattice.n == 20

    def test_021_size(self):
        assert build_tamari(A021).lattice.n == 16

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            build_tamari(A021, route="other")

    def test_routes_isomorphic(self, all_small_compositions):
        from btamari.tamari import _isomorphic

        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                sub = build_tamari(alpha, SUBPOSET)
                quot = build_tamari(alpha, QUOTIENT)
                assert quot.provenance == QUOTIENT
                assert _isomorphic(sub.lattice, quot.lattice)


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
        assert is_aligned(alpha, built)
        assert len(built.cover_inversions()) == 1

    def test_mirror_realization_accepted(self):
        alpha = Composition.parse("0,3,1,2,1")
        assert join_irreducible_for(alpha, (-2, 6)) == join_irreducible_for(
            alpha, (-6, 2)
        )

    def test_rejects_non_inversions(self):
        with pytest.raises(ValueError):
            join_irreducible_for(Composition.parse("4,2,2"), (-2, 2))
        with pytest.raises(ValueError):
            join_irreducible_for(Composition.parse("0,2,1"), (1, 2))

    def test_bijection_with_lattice_irreducibles(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                pairs = irreducible_pairs(alpha)
                assert len(pairs) == parabolic_length(alpha)
                built = {join_irreducible_for(alpha, pair).right for pair in pairs}
                assert len(built) == len(pairs)
                lat = build_tamari(alpha).lattice
                brute = {lat.labels[j].right for j in join_irreducibles(lat)}
                assert built == brute


class TestMaximalChain:
    def test_suffixes_form_aligned_chain(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                chain = word_suffix_chain(sorting_word_longest(alpha), n)
                assert len(chain) == parabolic_length(alpha) + 1
                for pi in chain:
                    assert is_aligned(alpha, pi)
                for lower, upper in zip(chain, chain[1:]):
                    assert lower.weak_leq(upper)

    def test_tamari_length(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                lat = build_tamari(alpha).lattice
                assert length(lat) == parabolic_length(alpha)


class TestNotSublattice:
    def test_021_witness(self):
        witness = not_sublattice_witness(A021)
        pi1, pi2, weak_meet, tamari_meet = witness
        assert pi1 == perm("-2,1,-3")
        assert pi2 == perm("-3,-1,-2")
        assert weak_meet == perm("-3,1,-2")
        assert tamari_meet == perm("-3,2,1")

    def test_absent_for_tiny_and_full(self):
        assert not_sublattice_witness(Composition((1,), split=True)) is None
        for n in (2, 3, 4):
            assert not_sublattice_witness(Composition((1,) * n, split=True)) is None

    def test_matches_pairwise_scan(self, all_small_compositions):
        from btamari.tamari import _meet_mismatch

        for n in (2, 3, 4):
            for alpha in all_small_compositions[n]:
                weak = weak_order_lattice(alpha)
                tam = build_tamari(alpha).lattice
                index = {pi.right: idx for idx, pi in enumerate(weak.labels)}
                expected = None
                for a, b in combinations(range(tam.n), 2):
                    pa, pb = tam.labels[a], tam.labels[b]
                    wm = weak.labels[weak.meet(index[pa.right], index[pb.right])]
                    tm = tam.labels[tam.meet(a, b)]
                    if wm != tm:
                        expected = (pb, pa, wm, tm)
                        break
                assert _meet_mismatch(weak, tam) == expected, alpha.format()


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

    def test_sweep_n3(self, all_small_compositions):
        for alpha in all_small_compositions[3]:
            report = verify_theorems(alpha, verify_chain=True)
            assert report.ok, (alpha.format(), report.checks)


class TestVerifyBuildsOnce:
    def test_each_structure_built_once(self, monkeypatch):
        calls = Counter()
        for module, name in [
            (tamari, "weak_order_lattice"),
            (tamari, "theta_classes"),
            (lattice, "check_congruence"),
            (lattice, "try_lattice"),
        ]:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert verify_theorems(A021).ok
        # the weak order, the subposet lattice and the quotient lattice
        assert calls == {
            "weak_order_lattice": 1,
            "theta_classes": 1,
            "check_congruence": 1,
            "try_lattice": 3,
        }

    def test_semidistributivity_scanned_once(self, monkeypatch):
        # is_trim asks again after the semidistributive check; both read one scan.
        scans = []
        original = lattice._semidistributivity_scan
        monkeypatch.setattr(
            lattice, "_semidistributivity_scan",
            lambda lat: scans.append(lat) or original(lat),
        )
        assert verify_theorems(A021).ok
        assert len(scans) == 1

    def test_failed_congruence_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            lattice, "check_congruence", lambda lat, theta: (False, "not an interval")
        )
        report = verify_theorems(A021)
        assert not report.ok
        failed = [name for name, value in report.checks.items() if not value]
        assert failed == [
            "congruence_valid", "lattice_quotient", "quotient_isomorphic_subposet"
        ]


class TestWeakOrderLattice:
    def test_sizes(self):
        assert weak_order_lattice(Composition((1, 1), split=True)).n == 8
        assert weak_order_lattice(Composition.parse("1,2")).n == 12

    def test_refused_before_enumerating(self, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("enumerate_quotient called")

        monkeypatch.setattr(tamari, "enumerate_quotient", not_called)
        with pytest.raises(TableBoundError) as info:
            weak_order_lattice(Composition.parse("0,1,1,1,1,1,1,1"))
        assert str(info.value) == (
            "weak-order table needs 645120 elements, bound is 20000"
        )
        assert (info.value.required, info.value.cap) == (645120, 20000)

    def test_refused_above_table_bound_before_allocating(self, monkeypatch):
        monkeypatch.setattr(tamari, "TABLE_THRESHOLD", 4)
        # any numpy call in tamari would fail with AttributeError instead
        monkeypatch.setattr(tamari, "np", None)
        with pytest.raises(CapExceededError) as info:
            weak_order_lattice(Composition.parse("0,1,1"))
        assert (info.value.required, info.value.cap) == (8, 4)
