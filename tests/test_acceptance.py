"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import random
import time
from math import comb

import numpy as np

from btamari.alignment import (
    aligned_mask,
    find_231_pattern,
    is_aligned_forcing,
    is_aligned_root,
)
from btamari.enumeration import (
    check_conjecture_t,
    check_type_d_count,
    cover_enumerator,
    narayana_polynomial,
    t_sequence,
    type_d_catalan,
)
from btamari.lattice import (
    is_congruence_uniform,
    semidistributivity_witness,
)
from btamari.parabolic import (
    Composition,
    all_compositions,
    inversion_order,
    is_member,
    longest_element,
    parabolic_length,
    quotient_rows,
    sorting_word_longest,
)
from btamari.projection import eliminate_pattern, fiber_bottoms, project_down
from btamari.tamari import build_tamari, join_irreducible_for, verify_theorems

from conftest import (
    find_all_231_patterns,
    full_group,
    is_trim,
    perm,
    perms,
    quotient_by,
    weak_order_lattice,
)


def report(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_sequence_reproduction():
    start = time.time()
    values = t_sequence(6)
    elapsed = time.time() - start
    assert values == [3, 15, 91, 598, 4109, 29071]
    assert elapsed < 120
    report(1, f"t_1..t_6 = {values} in {elapsed:.1f}s")


def test_criterion_02_characterization_equivalence():
    start = time.time()
    mismatches = 0
    checked = 0
    for n in (2, 3, 4):
        for alpha in all_compositions(n):
            order = inversion_order(alpha)
            members = perms(quotient_rows(alpha))
            batched = aligned_mask(alpha, [m.right for m in members])
            for pi, mask_val in zip(members, batched):
                root = is_aligned_root(pi, order)
                forcing = is_aligned_forcing(alpha, pi)
                pattern = find_231_pattern(alpha, pi) is None
                checked += 1
                if not (root == forcing == pattern == bool(mask_val)):
                    mismatches += 1
    elapsed = time.time() - start
    assert mismatches == 0
    assert elapsed < 60
    report(2, f"root/forcing/pattern agree on {checked} members in {elapsed:.1f}s")


def test_criterion_03_theorem_one():
    failures = []
    for n in (1, 2, 3, 4):
        for alpha in all_compositions(n):
            weak = weak_order_lattice(alpha)
            bottoms = fiber_bottoms(alpha, weak.labels)
            # quotient_by asserts that the fibers are a congruence.
            quot = quotient_by(weak, bottoms)
            tam = build_tamari(alpha)
            same_labels = np.array_equal(tam.labels, quot.labels)
            if not (same_labels and np.array_equal(tam.leq, quot.leq)):
                failures.append(alpha.format())
    assert failures == []
    report(3, "both routes built, congruence valid, quotient iso subposet, all alpha n<=4")


def test_criterion_04_theorem_two():
    failures = []
    for n in (1, 2, 3, 4):
        for alpha in all_compositions(n):
            lat = build_tamari(alpha)
            ln = lat.length()
            good = (
                is_congruence_uniform(lat)
                and semidistributivity_witness(lat) is None
                and is_trim(lat)
                and ln == parabolic_length(alpha)
                and len(lat.irreducibles[0]) == len(lat.dual.irreducibles[0]) == ln
            )
            if not good:
                failures.append(alpha.format())
    assert failures == []
    report(4, "congruence uniform + semidistributive + trim + extremal counts, all alpha n<=4")


def test_criterion_05_paper_examples_bit_exact():
    a3121 = Composition.parse("0,3,1,2,1")
    a422 = Composition.parse("4,2,2")
    assert longest_element(a3121) == perm("-3,-2,-1,-4,-6,-5,-7")
    assert longest_element(a422) == perm("1,2,3,4,-6,-5,-8,-7")
    assert sorting_word_longest(a3121) == (
        (6, 5, 4, 3, 2, 1, 0) + (5, 4, 3, 2, 1, 0) + (6, 5, 4, 3, 2, 1, 0)
        + (6, 5, 4, 3, 2, 1, 0) + (4, 3, 2, 1, 0) + (5, 4, 3, 2, 1, 0)
        + (6, 5, 4, 3, 2, 1, 0)
    )
    assert sorting_word_longest(a422) == (
        (6, 5, 4, 3, 2, 1, 0) + (7, 6, 5, 4, 3, 2, 1, 0) + (6, 5, 4, 3, 2, 1, 0)
        + (7, 6, 5, 4, 3, 2, 1, 0) + (4, 3, 2, 1) + (5, 4, 3, 2)
        + (6, 5, 4, 3) + (7, 6, 5, 4)
    )
    staircase4 = Composition((1, 1, 1, 1), split=True)
    assert [str(t) for t in inversion_order(staircase4)] == [
        "[[1]]", "((-2 1))", "((-3 1))", "((-4 1))",
        "[[2]]", "((-3 2))", "((-4 2))", "((1 2))",
        "[[3]]", "((-4 3))", "((1 3))", "((2 3))",
        "[[4]]", "((1 4))", "((2 4))", "((3 4))",
    ]
    golden = [
        (a3121, (2, 6), "1,5,6,2,3,4,7"),
        (a422, (2, 6), "1,4,5,6,2,3,7,8"),
        (a3121, (-5, 5), "-5,-4,-3,-2,-1,6,7"),
        (a422, (-6, 6), "3,4,5,6,-2,-1,7,8"),
        (a3121, (-2, 6), "-6,-5,1,2,3,4,7"),
        (a422, (-5, 7), "4,5,6,7,-3,1,2,8"),
        (a422, (2, -5), "1,2,4,5,-3,6,7,8"),
    ]
    for alpha, pair, expected in golden:
        assert join_irreducible_for(alpha, pair) == perm(expected)
    witness = verify_theorems(Composition.parse("0,2,1")).witness
    assert witness is not None
    pi1, pi2, weak_meet, tamari_meet = witness
    assert (pi1, pi2) == (perm("-2,1,-3"), perm("-3,-1,-2"))
    assert weak_meet == perm("-3,1,-2")
    assert tamari_meet == perm("-3,2,1")
    assert weak_meet != tamari_meet
    report(5, "longest elements, sorting words, inversion order, irreducibles, witness")


def test_criterion_06_narayana():
    sizes = []
    for n in range(1, 6):
        full = Composition((1,) * n, split=True)
        poly = cover_enumerator(full)
        assert poly == narayana_polynomial(n)
        assert poly(1) == comb(2 * n, n)
        sizes.append(poly(1))
    assert sizes[2:] == [20, 70, 252]
    report(6, f"cover enumerators match sum C(n,k)^2 x^k; sizes {sizes}")


def test_criterion_07_conjecture_sweep():
    lines = []
    mismatches = []
    for t in (1, 2):
        for n in range(t, 7):
            r = check_conjecture_t(t, n)
            lines.append(r.summary())
            if not r.ok:
                mismatches.append(r.summary())
    assert len(lines) == 11
    print()
    for line in lines:
        print("  conjecture:", line)
    if mismatches:
        print("  *** CONJECTURE MISMATCH ***")
        for line in mismatches:
            print("  ***", line)
    report(7, f"emitted {len(lines)} comparisons, {len(mismatches)} mismatches flagged")


def test_criterion_08_type_d_observation():
    targets = [4, 14, 50, 182, 672]
    assert [type_d_catalan(n) for n in range(2, 7)] == targets
    lines = []
    mismatches = []
    for n in range(2, 7):
        r = check_type_d_count(n)
        lines.append(r.summary())
        if not r.size_matches:
            mismatches.append(r.summary())
    print()
    for line in lines:
        print("  type-D:", line)
    if mismatches:
        print("  *** TYPE-D MISMATCH ***")
    report(8, f"emitted {len(lines)} comparisons against {targets}, "
              f"{len(mismatches)} mismatches flagged")


def test_criterion_09_confluence():
    rng = random.Random(73)
    divergences = 0
    runs = 0
    for alpha in all_compositions(3):
        members = perms(quotient_rows(alpha))
        expected = {pi.right: project_down(alpha, pi).right for pi in members}
        cache = {}

        def witnesses(pi):
            ws = cache.get(pi.right)
            if ws is None:
                ws = find_all_231_patterns(alpha, pi)
                cache[pi.right] = ws
            return ws

        for pi in members:
            for _ in range(1000):
                cur = pi
                while True:
                    ws = witnesses(cur)
                    if not ws:
                        break
                    cur = eliminate_pattern(cur, rng.choice(ws))
                runs += 1
                if cur.right != expected[pi.right]:
                    divergences += 1
    assert divergences == 0
    report(9, f"{runs} randomized eliminations, zero divergences")


def test_criterion_10_enumeration_oracle():
    compared = 0
    for n in (1, 2, 3, 4):
        group = full_group(n)
        for alpha in all_compositions(n):
            direct = [pi.right for pi in perms(quotient_rows(alpha))]
            filtered = sorted(pi.right for pi in group if is_member(alpha, pi))
            assert direct == filtered
            compared += 1
    report(10, f"blockwise and filter enumerations identical for {compared} compositions")
