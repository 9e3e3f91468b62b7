from math import comb

import pytest

from btamari.alignment import aligned_mask, cover_counts
from btamari.enumeration import (
    Polynomial,
    check_conjecture_t,
    check_type_d_count,
    cover_enumerator,
    narayana_polynomial,
    t_sequence,
    type_d_catalan,
)
from btamari.errors import CapExceededError, CompositionError
from btamari.parabolic import Composition, _build_rows, all_compositions


class TestPolynomial:
    def test_trimming_and_eval(self):
        p = Polynomial((1, 2, 0, 0))
        assert p.coefficients == (1, 2)
        assert p(1) == 3 and p(2) == 5
        assert p.format() == "1,2"

    def test_zero(self):
        assert Polynomial((0, 0)).coefficients == (0,)


class TestCoverEnumerator:
    def test_examples(self):
        assert cover_enumerator(Composition((1,), split=True)) == Polynomial((1, 1))
        assert cover_enumerator(Composition((1,))) == Polynomial((1,))
        assert cover_enumerator(Composition((1, 1, 1), split=True)) == Polynomial(
            (1, 9, 9, 1)
        )

    def test_histogram_matches_loop(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                rows = _build_rows(alpha, None)
                counts = cover_counts(rows)[aligned_mask(alpha, rows)]
                coeffs = [0] * (int(counts.max()) + 1)
                for c in counts:
                    coeffs[int(c)] += 1
                poly = cover_enumerator(alpha)
                assert poly.coefficients == tuple(coeffs)
                assert all(type(c) is int for c in poly.coefficients)

    def test_narayana_match(self):
        for n in range(1, 6):
            full = Composition((1,) * n, split=True)
            assert cover_enumerator(full) == narayana_polynomial(n)

    def test_unit_constant_coefficient(self, all_small_compositions):
        # only the identity lacks cover inversions; the top coefficient is in
        # general bigger than one (several aligned elements can share the
        # maximal cover count)
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                poly = cover_enumerator(alpha)
                assert poly.coefficients[0] == 1
                assert all(c >= 0 for c in poly.coefficients)

    def test_value_at_one_is_tamari_size(self, all_small_compositions):
        from btamari.tamari import build_tamari

        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                poly = cover_enumerator(alpha)
                assert poly(1) == build_tamari(alpha).n

    def test_cap(self):
        with pytest.raises(CapExceededError):
            cover_enumerator(Composition((1,) * 5, split=True), cap=10)


class TestSequence:
    def test_first_three(self):
        assert t_sequence(3) == [3, 15, 91]

    def test_matches_per_composition_sums(self):
        # The prefix walk against the per-composition counts it replaced.
        totals = [
            sum(cover_enumerator(a)(1) for a in all_compositions(n)) for n in range(1, 8)
        ]
        assert t_sequence(7) == totals

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            t_sequence(0)

    def test_refused_above_the_cap(self):
        with pytest.raises(CapExceededError) as info:
            t_sequence(40, cap=1000)
        assert info.value.cap == 1000

    def test_huge_counts_worded_as_a_power_of_ten(self):
        # Python will not write out an integer of more than 4,300 digits.
        exc = CapExceededError(10**18 - 1, 5)
        assert str(exc) == "enumeration needs 999999999999999999 elements, cap is 5"
        for required in (10**18, 2**32766, 3**20000):
            exc = CapExceededError(required, 5)
            k = int(str(exc).split("10^")[1].split()[0])
            assert exc.required == required
            assert 10**k <= required < 10 ** (k + 2)


class TestConjectures:
    def test_t1_n2(self):
        report = check_conjecture_t(1, 2)
        assert report.predicted == Polynomial((1, 3))
        assert report.ok
        assert report.predicted_size == comb(4, 1)

    def test_full_t_at_top(self):
        for n in (1, 2, 3, 4):
            report = check_conjecture_t(n, n)
            assert report.predicted == Polynomial((1,))
            assert report.ok

    def test_small_sweep_matches(self):
        for t in (1, 2):
            for n in range(t, 5):
                report = check_conjecture_t(t, n)
                assert report.polynomial_matches and report.size_matches

    def test_rejects_bad_t(self):
        with pytest.raises(CompositionError):
            check_conjecture_t(3, 2)

    def test_report_json(self):
        data = check_conjecture_t(1, 2).to_json()
        assert data["alpha"] == "1,1"
        assert data["observed"] == [1, 3]
        assert data["polynomial_matches"] is True


class TestTypeD:
    def test_closed_form_values(self):
        assert [type_d_catalan(n) for n in range(2, 7)] == [4, 14, 50, 182, 672]

    def test_counts_match(self):
        for n in (2, 3, 4):
            report = check_type_d_count(n)
            assert report.size_matches
            assert report.predicted is None
            assert report.polynomial_matches  # vacuous without a predicted polynomial

    def test_rejects_n1(self):
        with pytest.raises(CompositionError):
            check_type_d_count(1)
