import random

import numpy as np
import pytest

from btamari.alignment import (
    aligned_mask,
    cover_counts,
    find_231_pattern,
    find_312_pattern,
)
from btamari.parabolic import (
    Composition,
    _build_rows,
    all_compositions,
    lex_sorted,
    longest_element,
    quotient_rows,
)
from btamari.projection import (
    eliminate_pattern,
    fiber_bottoms,
    iota,
    left_act,
    project_down,
    project_onto_312,
    project_up,
    row_lookup,
    theta_classes,
)
from btamari.signed_perm import SignedPermutation

from conftest import (
    eliminate_231,
    find_all_231_patterns,
    full_group,
    mul_reflection_right,
    perm,
    perms,
    weak_leq,
)

A021 = Composition.parse("0,2,1")


def recursive_fiber_bottoms(alpha, members):
    """Right part of each member's downward projection, by memoised recursion.

    The scalar route that preceded the batched ``fiber_bottoms``, kept as an
    oracle: one ``find_231_pattern`` and one elimination per member.
    """
    cache = {}

    def down(pi):
        key = pi.right
        cached = cache.get(key)
        if cached is not None:
            return cached
        witness = find_231_pattern(alpha, pi)
        result = key if witness is None else down(eliminate_pattern(pi, witness))
        cache[key] = result
        return result

    return [down(pi) for pi in members]


@pytest.fixture(scope="module")
def quotients_to_five():
    """Rows and members of every quotient with n <= 5."""
    out = []
    for n in range(1, 6):
        for alpha in all_compositions(n):
            rows = quotient_rows(alpha)
            out.append((alpha, rows, [SignedPermutation(r) for r in rows.tolist()]))
    return out


class TestProjectDown:
    def test_examples(self):
        e = SignedPermutation.identity(3)
        assert project_down(A021, e) == e
        omega = longest_element(A021)
        assert project_down(A021, omega) == omega
        assert project_down(A021, perm("-3,1,-2")) == perm("-3,2,1")

    def test_fixpoint_iff_avoiding(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                for pi in perms(quotient_rows(alpha)):
                    fixed = project_down(alpha, pi) == pi
                    assert fixed == (find_231_pattern(alpha, pi) is None)

    def test_result_is_maximal_avoider_below(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                avoiders = [p for p in members if find_231_pattern(alpha, p) is None]
                for pi in members:
                    down = project_down(alpha, pi)
                    below = [s for s in avoiders if weak_leq(s, pi)]
                    assert down in below
                    assert all(weak_leq(s, down) for s in below)

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            project_down(A021, perm("2,1,3"))


class TestConfluence:
    def test_randomized_elimination_orders(self, all_small_compositions):
        rng = random.Random(991)
        for alpha in all_small_compositions[3]:
            members = perms(quotient_rows(alpha))
            expected = {pi.right: project_down(alpha, pi).right for pi in members}
            witness_cache: dict = {}

            def witnesses(pi):
                ws = witness_cache.get(pi.right)
                if ws is None:
                    ws = find_all_231_patterns(alpha, pi)
                    witness_cache[pi.right] = ws
                return ws

            for pi in members:
                for _ in range(50):
                    cur = pi
                    while True:
                        ws = witnesses(cur)
                        if not ws:
                            break
                        cur = eliminate_pattern(cur, rng.choice(ws))
                    assert cur.right == expected[pi.right]

    def test_every_elimination_stays_in_its_fiber(self, all_small_compositions):
        # The batch scan may name any of a row's patterns; exhaustively, every
        # single elimination keeps the element's downward projection.
        count = 0
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                rights = [pi.right for pi in members]
                bottoms = dict(zip(rights, recursive_fiber_bottoms(alpha, members)))
                for pi in members:
                    for w in find_all_231_patterns(alpha, pi):
                        down = eliminate_pattern(pi, w).right
                        assert bottoms[down] == bottoms[pi.right], (alpha, pi, w)
                        count += 1
        assert count == 2150


class TestIota:
    def test_endpoints(self):
        omega = longest_element(A021)
        assert iota(A021, SignedPermutation.identity(3)) == omega
        assert iota(A021, omega) == SignedPermutation.identity(3)

    def test_recipe_example(self):
        assert iota(A021, perm("-3,2,1")) == perm("-2,3,-1")

    def test_matches_algebraic_product(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                omega = longest_element(alpha)
                for pi in perms(quotient_rows(alpha)):
                    assert iota(alpha, pi) == pi.compose(omega)

    def test_involution_and_order_reversal(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                for pi in members:
                    assert iota(alpha, iota(alpha, pi)) == pi
                for u in members:
                    for v in members:
                        assert weak_leq(u, v) == weak_leq(iota(alpha, v), iota(alpha, u))

    def test_inversion_complementation(self, all_small_compositions):
        # inversions of pi and of iota(pi) partition the longest element's inversions
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                top = longest_element(alpha).inversion_set()
                for pi in perms(quotient_rows(alpha)):
                    image = iota(alpha, pi)
                    assert len(pi.inversion_set()) + len(image.inversion_set()) == len(top)


class TestProjectUp:
    def test_fixpoints(self):
        omega = longest_element(A021)
        assert project_up(A021, omega) == omega
        # sigma_1 is the maximum of its own fiber, hence fixed
        assert project_up(A021, perm("-3,1,-2")) == perm("-3,1,-2")

    def test_up_is_class_maximum(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                fibers: dict = {}
                for pi in members:
                    fibers.setdefault(project_down(alpha, pi).right, []).append(pi)
                for group in fibers.values():
                    tops = [p for p in group if all(weak_leq(q, p) for q in group)]
                    assert len(tops) == 1
                    for pi in group:
                        assert project_up(alpha, pi) == tops[0]

    def test_312_projection_fixpoints(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                for pi in perms(quotient_rows(alpha)):
                    fixed = project_onto_312(alpha, pi) == pi
                    assert fixed == (find_312_pattern(alpha, pi) is None)

    def test_312_count_matches_231_count(self, all_small_compositions):
        for n in (1, 2, 3, 4):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                n231 = sum(find_231_pattern(alpha, p) is None for p in members)
                n312 = sum(find_312_pattern(alpha, p) is None for p in members)
                assert n231 == n312

    def test_iota_sends_312_avoiders_to_fiber_tops(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                tops = {project_up(alpha, pi).right for pi in members}
                avoiders = {
                    iota(alpha, p).right
                    for p in members
                    if find_312_pattern(alpha, p) is None
                }
                assert avoiders == tops


class TestBatchedFibers:
    def test_hit_rows_are_the_rows_with_a_pattern(self, quotients_to_five):
        for alpha, rows, members in quotients_to_five:
            hit, _ = eliminate_231(alpha, rows)
            expected = [
                idx for idx, pi in enumerate(members) if find_231_pattern(alpha, pi)
            ]
            assert hit.tolist() == expected, alpha

    def test_each_elimination_is_one_of_the_patterns(self, quotients_to_five):
        for alpha, rows, members in quotients_to_five:
            hit, eliminated = eliminate_231(alpha, rows)
            for idx, row in zip(hit.tolist(), eliminated.tolist()):
                pi = members[idx]
                options = {
                    eliminate_pattern(pi, w).right
                    for w in find_all_231_patterns(alpha, pi)
                }
                assert tuple(row) in options, (alpha, pi)

    def test_bottoms_match_recursion(self, quotients_to_five):
        for alpha, rows, members in quotients_to_five:
            bottoms = fiber_bottoms(alpha, rows)
            assert [members[b].right for b in bottoms] == recursive_fiber_bottoms(
                alpha, members
            ), alpha

    def test_accepts_right_parts_in_any_order(self):
        rows = quotient_rows(A021)
        shuffled = rows[np.random.default_rng(3).permutation(len(rows))]
        members = [SignedPermutation(r) for r in shuffled.tolist()]
        bottoms = fiber_bottoms(A021, shuffled.astype(np.int64).tolist())
        assert [members[b].right for b in bottoms] == recursive_fiber_bottoms(
            A021, members
        )

    def test_missing_eliminated_row_raises(self):
        rows = quotient_rows(A021)
        hit, eliminated = eliminate_231(A021, rows)
        keep = ~(rows == eliminated[0]).all(axis=1)
        with pytest.raises(ValueError, match="not among the rows"):
            fiber_bottoms(A021, rows[keep])


class TestGeneratorTable:
    """``left_act``, which gives the generator images for covers and fiber steps."""

    def test_rows_act_as_mul_gen_left(self):
        for n in range(1, 5):
            group = full_group(n)
            rows = np.array([pi.right for pi in group])
            for dtype in (np.int8, np.int16):
                moved = left_act(rows.astype(dtype), np.arange(n)[:, None, None])
                assert moved.dtype == dtype
                for s in range(n):
                    expected = [pi.mul_gen_left(s).right for pi in group]
                    assert moved[s].tolist() == list(map(list, expected))


class TestRowIndex:
    def test_absent_rows_raise(self):
        rows = quotient_rows(A021)
        find = row_lookup(rows)
        absent = [(2, 1, 3), (3, -1, -2)]  # not in 0,2,1: its first block ascends
        with pytest.raises(ValueError, match=r"^2,1,3 is not among the rows$"):
            find(absent)
        with pytest.raises(ValueError, match=r"^9,9,9 is not among the rows$"):
            find([rows[5], (9, 9, 9), rows[0]])
        assert find([rows[5], rows[0]]).tolist() == [5, 0]
        assert find(rows[5]).tolist() == [5]
        assert find(np.empty((0, 3), dtype=np.int8)).tolist() == []

    def test_rows_of_another_width_raise(self):
        # Three rows of width 2 side by side are one row of width 6, not three.
        rows = quotient_rows(Composition.parse("0,1,1"))
        find = row_lookup(rows)
        glued = rows[[2, 5, 7]].reshape(1, 6)
        named = ",".join(map(str, glued[0].tolist()))
        with pytest.raises(ValueError, match=f"^{named} is not a row of width 2$"):
            find(glued)
        with pytest.raises(ValueError, match=r"^1 is not a row of width 2$"):
            find([(1,), (2,)])

    def test_values_the_dtype_cannot_hold_raise(self):
        # In int8, 253 wraps to -3, and -3,-2,-1 is row 0 of 0,2,1.
        rows = quotient_rows(A021)
        find = row_lookup(rows)
        assert rows.dtype == np.int8 and rows[0].tolist() == [-3, -2, -1]
        message = r"^253,-2,-1 does not fit the rows' dtype int8$"
        with pytest.raises(ValueError, match=message):
            find(np.array([(253, -2, -1)], dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            find([253, -2, -1])
        with pytest.raises(ValueError, match=r"^-1\.0,1\.0,-2\.5 does not fit"):
            find([(-3, -2, -1), (-1.0, 1.0, -2.5)])
        with pytest.raises(ValueError, match=f"^{2**70},-2,-1 does not fit"):
            find([(2**70, -2, -1)])
        assert find(np.array([(-3, -2, -1)], dtype=np.int64)).tolist() == [0]

    def test_empty_table(self):
        find = row_lookup(np.empty((0, 3), dtype=np.int8))
        with pytest.raises(ValueError, match=r"^1,2,3 is not among the rows$"):
            find([(1, 2, 3)])
        assert find(np.empty((0, 3), dtype=np.int8)).tolist() == []

    def test_same_answer_for_any_integer_input(self):
        rows = quotient_rows(A021)
        wanted = rows[np.random.default_rng(5).permutation(len(rows))]
        expected = row_lookup(rows)(wanted)
        assert np.array_equal(rows[expected], wanted)
        assert np.array_equal(row_lookup(rows)(wanted.astype(np.int64)), expected)
        assert np.array_equal(row_lookup(rows)(list(map(tuple, wanted.tolist()))), expected)
        assert np.array_equal(row_lookup(rows.astype(np.int64))(wanted), expected)

    def test_degree_fourteen(self):
        # (2n + 1)^n overflows int64 from n = 14 on; byte keys do not care.
        alpha = Composition.parse("12,1,1")
        rows = quotient_rows(alpha)
        members = [SignedPermutation(r) for r in rows.tolist()]
        bottoms = fiber_bottoms(alpha, rows)
        assert [members[b] for b in bottoms] == [project_down(alpha, pi) for pi in members]
        classes = list(theta_classes(alpha))
        assert (len(rows), len(classes)) == (728, 378)
        assert max(len(c.members) for c in classes) == 27
        for cls in classes:
            bottom = SignedPermutation(cls.bottom.tolist())
            assert project_up(alpha, bottom).right == tuple(cls.top.tolist())


class TestRowLayout:
    """``aligned_rows`` and ``_build_rows`` return their rows as
    Fortran-ordered views of a position-major state; every row-major caller
    must answer on them as on C-ordered rows."""

    def test_fortran_ordered_rows_answer_as_c_ordered(self):
        for n in range(1, 6):
            for alpha in all_compositions(n):
                built = _build_rows(alpha, None)
                assert built.flags.f_contiguous
                answers = []
                for rows in (np.ascontiguousarray(built), np.asfortranarray(built)):
                    hit, eliminated = eliminate_231(alpha, rows)
                    answers.append((
                        aligned_mask(alpha, rows),
                        cover_counts(rows),
                        hit,
                        eliminated,
                        row_lookup(rows)(eliminated),
                        row_lookup(rows)(np.asfortranarray(rows[::-1])),
                        lex_sorted(rows),
                    ))
                for c_answer, f_answer in zip(*answers):
                    assert np.array_equal(c_answer, f_answer), alpha


class TestThetaClasses:
    def test_tiny(self):
        classes = list(theta_classes(Composition((1,), split=True)))
        assert len(classes) == 2
        assert all(len(c.members) == 1 for c in classes)

    def test_staircase_three(self):
        classes = list(theta_classes(Composition((1, 1, 1), split=True)))
        assert len(classes) == 20
        assert sum(len(c.members) for c in classes) == 48

    def test_021_classes(self):
        classes = list(theta_classes(A021))
        assert len(classes) == 16
        assert sum(len(c.members) for c in classes) == 24
        sizes = sorted(len(c.members) for c in classes)
        assert sizes == [1] * 12 + [2, 3, 3, 4]

    def test_classes_are_intervals(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                classes = list(theta_classes(alpha))
                assert sum(len(c.members) for c in classes) == len(members)
                for cls in classes:
                    bottom = SignedPermutation(cls.bottom.tolist())
                    top = SignedPermutation(cls.top.tolist())
                    assert find_231_pattern(alpha, bottom) is None
                    assert project_up(alpha, bottom) == top
                    interval = [
                        pi
                        for pi in members
                        if weak_leq(bottom, pi) and weak_leq(pi, top)
                    ]
                    assert sorted(p.right for p in interval) == list(
                        map(tuple, cls.members.tolist())
                    )

    def test_projection_order_preserving_on_covers(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                for u in members:
                    for v in members:
                        if weak_leq(u, v):
                            assert weak_leq(project_down(alpha, u), project_down(alpha, v))
                            assert weak_leq(project_up(alpha, u), project_up(alpha, v))

    def test_two_ends_meet(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                down = {p.right: project_down(alpha, p).right for p in members}
                up = {p.right: project_up(alpha, p).right for p in members}
                for u in members:
                    for v in members:
                        assert (down[u.right] == down[v.right]) == (
                            up[u.right] == up[v.right]
                        )

    def test_order_convexity(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                down = {p.right: project_down(alpha, p).right for p in members}
                for u in members:
                    for w in members:
                        if down[u.right] != down[w.right] or not weak_leq(u, w):
                            continue
                        for v in members:
                            if weak_leq(u, v) and weak_leq(v, w):
                                assert down[v.right] == down[u.right]

    def test_cover_trichotomy(self, all_small_compositions):
        for n in (1, 2, 3):
            for alpha in all_small_compositions[n]:
                members = perms(quotient_rows(alpha))
                down = {p.right: project_down(alpha, p).right for p in members}
                up = {p.right: project_up(alpha, p).right for p in members}
                for pi in members:
                    for t in pi.cover_inversions():
                        sigma = mul_reflection_right(pi, t)
                        # the new cover inversion violates forcing iff the
                        # projections of the two cover endpoints agree
                        collapsed = down[pi.right] == down[sigma.right]
                        assert collapsed == (up[pi.right] == up[sigma.right])
                        violates = _cover_violates_forcing(alpha, pi, t)
                        assert collapsed == violates


def _cover_violates_forcing(alpha, pi, t):
    """Forcing conditions restricted to the single cover inversion t."""
    from btamari.signed_perm import POS, SIGN, Reflection

    inv = pi.inversion_set()
    region = alpha.region_of
    a1 = alpha.first_part
    required = []
    if t.kind == SIGN:
        i = t.i
        for j in range(1, i):
            if alpha.join and j <= a1:
                continue
            if region(j) < region(i):
                required.append(Reflection.sign(j))
    elif t.kind == POS:
        i, k = t.i, t.j
        for j in range(i + 1, k):
            if region(i) < region(j) < region(k):
                required.append(Reflection.transposition(i, j))
    elif alpha.split:
        i, k = t.i, t.j
        required.append(Reflection.sign(i))
        for j in range(1, k):
            if j != i and region(j) < region(k):
                required.append(Reflection.mixed(i, j))
        for j in range(1, i):
            if region(j) < region(i):
                required.append(Reflection.mixed(j, k))
    else:
        i, k = t.i, t.j
        if i > a1:
            required.append(Reflection.sign(i))
        for j in range(1, k):
            if j == i or region(j) == region(k):
                continue
            if j <= a1:
                if i > a1:
                    required.append(Reflection.transposition(j, k))
            else:
                required.append(Reflection.mixed(i, j))
        for j in range(1, i):
            if region(j) == region(i):
                continue
            if j <= a1:
                required.append(Reflection.transposition(j, i))
            else:
                required.append(Reflection.mixed(j, k))
    return any(r not in inv for r in required)
