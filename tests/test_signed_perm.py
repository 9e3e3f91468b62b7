import pytest
from hypothesis import given
from hypothesis import strategies as st

from btamari.errors import NotAPermutationError
from btamari.signed_perm import (
    Reflection,
    SignedPermutation,
    format_long,
    generator_element,
    reflection_from_element,
)

from conftest import (
    full_group,
    mul_reflection_left,
    mul_reflection_right,
    perm,
    signed_perms,
    weak_leq,
)


class TestConstruction:
    def test_identity(self):
        assert SignedPermutation.identity(3).right == (1, 2, 3)
        assert SignedPermutation.identity(1).right == (1,)
        assert SignedPermutation.identity(5).right == (1, 2, 3, 4, 5)

    def test_identity_rejects_zero(self):
        with pytest.raises(NotAPermutationError):
            SignedPermutation.identity(0)

    def test_parse_format_round_trip(self):
        assert perm("-2,-1,5,3,4").right == (-2, -1, 5, 3, 4)
        assert perm("1,2,3") == SignedPermutation.identity(3)
        assert perm("-2,4,3,-1").format() == "-2,4,3,-1"

    @pytest.mark.parametrize("bad", ["1,1,2", "0,1", "1,3", "", "a,b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(NotAPermutationError):
            perm(bad)

    def test_long_one_line(self):
        assert format_long(perm("-2,1").right) == "-1,2|-2,1"

    def test_call_and_sign_symmetry(self):
        pi = perm("-2,4,3,-1")
        assert pi(1) == -2 and pi(-1) == 2
        assert pi(4) == -1 and pi(-4) == 1
        with pytest.raises(ValueError):
            pi(0)


class TestMultiplication:
    def test_mul_gen_left_examples(self):
        assert SignedPermutation.identity(2).mul_gen_left(0) == perm("-1,2")
        assert perm("-1,2").mul_gen_left(1) == perm("-2,1")
        assert perm("-1,2").mul_gen_left(0) == perm("1,2")

    def test_mul_gen_right_examples(self):
        assert SignedPermutation.identity(2).mul_gen_right(1) == perm("2,1")
        assert perm("2,1").mul_gen_right(1) == perm("1,2")
        assert perm("-1,2").mul_gen_right(0) == perm("1,2")

    def test_mul_gen_out_of_range(self):
        with pytest.raises(ValueError):
            SignedPermutation.identity(2).mul_gen_right(2)
        with pytest.raises(ValueError):
            SignedPermutation.identity(2).mul_gen_left(-1)

    def test_mul_reflection_right_examples(self):
        e3 = SignedPermutation.identity(3)
        assert mul_reflection_right(e3, Reflection.sign(2)) == perm("1,-2,3")
        assert mul_reflection_right(e3, Reflection.transposition(1, 3)) == perm("3,2,1")
        assert mul_reflection_right(e3, Reflection.mixed(1, 3)) == perm("-3,2,-1")

    def test_mul_reflection_left_examples(self):
        e2 = SignedPermutation.identity(2)
        assert mul_reflection_left(Reflection.sign(1), e2) == perm("-1,2")
        assert mul_reflection_left(Reflection.transposition(1, 2), perm("2,1")) == e2
        assert mul_reflection_left(Reflection.mixed(1, 2), e2) == perm("-2,-1")

    @given(signed_perms(max_n=4), st.integers(0, 3))
    def test_generators_are_involutions(self, pi, s):
        s %= pi.n
        assert pi.mul_gen_left(s).mul_gen_left(s) == pi
        assert pi.mul_gen_right(s).mul_gen_right(s) == pi

    @given(signed_perms(max_n=4), st.integers(0, 3))
    def test_right_multiplication_changes_length_by_one(self, pi, s):
        s %= pi.n
        assert abs(len(pi.mul_gen_right(s).inversion_set()) - len(pi.inversion_set())) == 1

    def test_compose_and_inverse(self):
        pi = perm("-2,4,3,-1")
        assert pi.compose(pi.inverse()) == SignedPermutation.identity(4)
        assert pi.inverse().compose(pi) == SignedPermutation.identity(4)


class TestInversions:
    def test_paper_nine_element_example(self):
        pi = perm("-2,4,3,-1,6,5,8,7,9")
        expected = {
            Reflection.sign(1),
            Reflection.sign(4),
            Reflection.transposition(2, 3),
            Reflection.transposition(2, 4),
            Reflection.transposition(3, 4),
            Reflection.transposition(5, 6),
            Reflection.transposition(7, 8),
            Reflection.mixed(1, 4),
        }
        assert pi.inversion_set() == expected
        assert pi.cover_inversions() == {
            Reflection.sign(4),
            Reflection.transposition(2, 3),
            Reflection.transposition(5, 6),
            Reflection.transposition(7, 8),
        }
        assert len(pi.inversion_set()) == 8

    def test_identity_has_no_inversions(self):
        assert SignedPermutation.identity(4).inversion_set() == frozenset()
        assert SignedPermutation.identity(3).cover_inversions() == frozenset()

    def test_aligned_example_inversions(self):
        pi = perm("-2,-1,5,3,4")
        assert pi.inversion_set() == {
            Reflection.sign(1),
            Reflection.sign(2),
            Reflection.mixed(1, 2),
            Reflection.transposition(3, 4),
            Reflection.transposition(3, 5),
        }
        assert pi.cover_inversions() == {
            Reflection.sign(2),
            Reflection.transposition(3, 5),
        }

    def test_longest_element_length(self):
        for n in (2, 3, 5):
            w0 = SignedPermutation(tuple(-a for a in range(1, n + 1)))
            assert len(w0.inversion_set()) == n * n

    @given(signed_perms(max_n=4))
    def test_covers_are_inversions(self, pi):
        assert pi.cover_inversions() <= pi.inversion_set()

    def test_cover_count_matches_left_descents(self):
        for pi in full_group(3):
            left_descents = sum(
                len(pi.mul_gen_left(s).inversion_set()) < len(pi.inversion_set())
                for s in range(3)
            )
            assert len(pi.cover_inversions()) == left_descents

    def test_cover_reflection_shortens_by_one(self):
        for pi in full_group(3):
            for t in pi.cover_inversions():
                sigma = mul_reflection_right(pi, t)
                assert len(sigma.inversion_set()) == len(pi.inversion_set()) - 1
                # the same element arises by exchanging the value pair on the left
                assert any(
                    pi.mul_gen_left(s) == sigma for s in range(3)
                )

    def test_bfs_length_oracle(self):
        for n in (2, 3):
            dist = {SignedPermutation.identity(n).right: 0}
            frontier = [SignedPermutation.identity(n)]
            while frontier:
                new = []
                for pi in frontier:
                    for s in range(n):
                        nxt = pi.mul_gen_left(s)
                        if nxt.right not in dist:
                            dist[nxt.right] = dist[pi.right] + 1
                            new.append(nxt)
                frontier = new
            for pi in full_group(n):
                assert len(pi.inversion_set()) == dist[pi.right]


class TestWeakOrder:
    def test_examples(self):
        e = SignedPermutation.identity(2)
        assert weak_leq(e, perm("2,1"))
        assert weak_leq(perm("2,1"), perm("2,1"))
        assert not weak_leq(perm("-1,2"), perm("2,1"))

    def test_partial_order_axioms_exhaustive(self):
        group = full_group(2)
        for u in group:
            assert weak_leq(u, u)
            for v in group:
                if weak_leq(u, v) and weak_leq(v, u):
                    assert u == v
                for w in group:
                    if weak_leq(u, v) and weak_leq(v, w):
                        assert weak_leq(u, w)


class TestRightDescents:
    def test_examples(self):
        assert not SignedPermutation.identity(3).has_right_descent(1)
        assert perm("-1,2").has_right_descent(0)

    def test_against_length_oracle(self):
        import random

        rng = random.Random(20240817)
        for _ in range(1000):
            base = list(range(1, 6))
            rng.shuffle(base)
            pi = SignedPermutation(
                tuple(v if rng.random() < 0.5 else -v for v in base)
            )
            s = rng.randrange(5)
            predicted = pi.has_right_descent(s)
            actual = len(pi.mul_gen_right(s).inversion_set()) < len(pi.inversion_set())
            assert predicted == actual


class TestReflectionHelpers:
    def test_canonical_ordering(self):
        refs = [
            Reflection.mixed(1, 2),
            Reflection.transposition(1, 2),
            Reflection.sign(2),
            Reflection.sign(1),
        ]
        assert [str(t) for t in sorted(refs)] == [
            "[[1]]",
            "[[2]]",
            "((1 2))",
            "((-2 1))",
        ]

    def test_normalization(self):
        assert Reflection.transposition(3, 1) == Reflection.transposition(1, 3)
        assert Reflection.mixed(5, 2) == Reflection.mixed(2, 5)
        with pytest.raises(ValueError):
            Reflection.sign(0)
        with pytest.raises(ValueError):
            Reflection.transposition(2, 2)

    def test_reflection_round_trip_through_elements(self):
        n = 4
        for t in [
            Reflection.sign(3),
            Reflection.transposition(2, 4),
            Reflection.mixed(1, 4),
        ]:
            element = mul_reflection_left(t, SignedPermutation.identity(n))
            assert reflection_from_element(element) == t

    def test_generator_element(self):
        assert generator_element(3, 0) == perm("-1,2,3")
        assert generator_element(3, 2) == perm("1,3,2")
