"""Projections onto pattern-avoiding representatives and their fibers.

Eliminating a 231 pattern swaps the consecutive values at its outer positions,
shortening the element by one; iterating reaches the unique maximal
231-avoider below the input.  The dual elimination of 312 patterns, conjugated
by the order-reversing involution iota, climbs to the top of the fiber.  The
fibers partition the quotient into intervals, one per aligned element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import config
from .alignment import (
    PatternWitness,
    find_231_pattern,
    find_312_pattern,
    _require_member,
)
from .parabolic import Composition, enumerate_quotient, longest_element
from .signed_perm import SignedPermutation


def eliminate_pattern(pi: SignedPermutation, witness: PatternWitness) -> SignedPermutation:
    """Swap the consecutive values sitting at the witness's outer positions."""
    v = pi(witness.k)
    if v == -1:
        s = 0
    elif v > 0:
        s = v
    else:
        s = -v - 1
    return pi.mul_gen_left(s)


def project_down(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Greatest 231-avoiding element weakly below pi."""
    _require_member(alpha, pi)
    while True:
        witness = find_231_pattern(alpha, pi)
        if witness is None:
            return pi
        pi = eliminate_pattern(pi, witness)


def project_onto_312(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Greatest 312-avoiding element weakly below pi."""
    _require_member(alpha, pi)
    while True:
        witness = find_312_pattern(alpha, pi)
        if witness is None:
            return pi
        pi = eliminate_pattern(pi, witness)


def iota(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Right multiplication by the longest element: negate and sort each region.

    Positions in the join region of a join composition are left untouched;
    every other region is negated and reversed, which keeps blocks increasing.
    """
    _require_member(alpha, pi)
    right = []
    p = alpha.prefix
    for i in range(1, alpha.r + 1):
        block = pi.right[p[i - 1]:p[i]]
        if alpha.join and i == 1:
            right.extend(block)
        else:
            right.extend(-v for v in reversed(block))
    image = SignedPermutation(tuple(right))
    if config.debug_crosschecks:
        if image != pi.compose(longest_element(alpha)):
            raise AssertionError(f"iota cross-check failed for {alpha}, {pi}")
    return image


def project_up(alpha: Composition, pi: SignedPermutation) -> SignedPermutation:
    """Least element of pi's fiber seen from above: iota-conjugated 312 projection."""
    return iota(alpha, project_onto_312(alpha, iota(alpha, pi)))


@dataclass(frozen=True)
class ThetaClass:
    """One fiber of the downward projection: the interval [bottom, top]."""

    bottom: SignedPermutation
    top: SignedPermutation
    members: tuple[SignedPermutation, ...]

    def to_json(self) -> dict:
        return {
            "bottom": self.bottom.format(),
            "top": self.top.format(),
            "members": [pi.format() for pi in self.members],
        }


def fiber_bottoms(
    alpha: Composition, members: Sequence[SignedPermutation]
) -> list[tuple[int, ...]]:
    """Right part of each member's downward projection, in member order.

    Members with equal bottoms share a fiber, so the list labels the
    partition of ``members`` into fibers.
    """
    cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def down(pi: SignedPermutation) -> tuple[int, ...]:
        key = pi.right
        cached = cache.get(key)
        if cached is not None:
            return cached
        witness = find_231_pattern(alpha, pi)
        result = key if witness is None else down(eliminate_pattern(pi, witness))
        cache[key] = result
        return result

    return [down(pi) for pi in members]


def theta_classes(alpha: Composition, cap: int | None = None) -> list[ThetaClass]:
    """The fibers of the downward projection, ordered by their bottom element."""
    members = enumerate_quotient(alpha, cap)
    groups: dict[tuple[int, ...], list[SignedPermutation]] = {}
    for pi, bottom_right in zip(members, fiber_bottoms(alpha, members)):
        groups.setdefault(bottom_right, []).append(pi)
    classes = []
    for bottom_right in sorted(groups):
        block = sorted(groups[bottom_right], key=lambda pi: pi.right)
        bottom = SignedPermutation(bottom_right)
        classes.append(
            ThetaClass(bottom, project_up(alpha, bottom), tuple(block))
        )
    return classes
