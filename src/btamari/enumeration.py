"""Enumerative statistics: cover enumerators, the aligned-count sequence,
and automated conjecture reports.

Conjecture checkers never assert; they compare observed data against the
closed forms and report the outcome, mismatches included.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from multiprocessing import Pool

import numpy as np

from .alignment import aligned_rows, count_aligned, cover_counts
from .config import resolve_cap
from .errors import CompositionError
from .parabolic import Composition, all_compositions


@dataclass(frozen=True)
class Polynomial:
    """Dense nonnegative-integer polynomial; index = exponent."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x: int) -> int:
        total = 0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def format(self) -> str:
        return ",".join(str(c) for c in self.coefficients)

    def __str__(self) -> str:
        return self.format()


def cover_enumerator(alpha: Composition, cap: int | None = None) -> Polynomial:
    """Generating polynomial of aligned elements by number of cover inversions."""
    counts = cover_counts(aligned_rows(alpha, cap))
    return Polynomial(tuple(np.bincount(counts, minlength=1).tolist()))


def narayana_polynomial(n: int) -> Polynomial:
    """The cover enumerator of the full-group Tamari lattice: sum C(n,k)^2 x^k."""
    return Polynomial(tuple(comb(n, k) ** 2 for k in range(n + 1)))


def conjectured_polynomial(t: int, n: int) -> Polynomial:
    """Predicted cover enumerator for the composition (t, 1, ..., 1) of n."""
    return Polynomial(
        tuple(comb(n - t, k) * comb(n + t, k) for k in range(n - t + 1))
    )


def _count_for(args) -> int:
    alpha, cap = args
    return count_aligned(alpha, cap)


def t_sequence(
    max_n: int, cap: int | None = None, threads: int = 1
) -> list[int]:
    """Totals of aligned elements over all type-B compositions, degree by degree."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    cap = resolve_cap(cap)
    degrees = [all_compositions(n) for n in range(1, max_n + 1)]
    if threads <= 1:
        return [sum(count_aligned(a, cap) for a in comps) for comps in degrees]
    # One pool serves every degree; no degree has more compositions than the last.
    with Pool(min(threads, len(degrees[-1]))) as pool:
        return [
            sum(pool.map(_count_for, [(a, cap) for a in comps])) for comps in degrees
        ]


@dataclass(frozen=True)
class ConjectureReport:
    alpha: Composition
    observed: Polynomial
    predicted: Polynomial | None
    observed_size: int
    predicted_size: int

    @property
    def polynomial_matches(self) -> bool:
        return self.predicted is None or self.observed == self.predicted

    @property
    def size_matches(self) -> bool:
        return self.observed_size == self.predicted_size

    @property
    def ok(self) -> bool:
        return self.polynomial_matches and self.size_matches

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.format(),
            "observed": list(self.observed.coefficients),
            "predicted": (
                None if self.predicted is None else list(self.predicted.coefficients)
            ),
            "observed_size": self.observed_size,
            "predicted_size": self.predicted_size,
            "polynomial_matches": self.polynomial_matches,
            "size_matches": self.size_matches,
        }

    def summary(self) -> str:
        status = "match" if self.ok else "MISMATCH"
        parts = [
            f"alpha={self.alpha.format()}: {status};",
            f"observed {self.observed} ({self.observed_size} elements),",
        ]
        if self.predicted is not None:
            parts.append(f"predicted {self.predicted} ({self.predicted_size})")
        else:
            parts.append(f"predicted size {self.predicted_size}")
        return " ".join(parts)


def check_conjecture_t(t: int, n: int, cap: int | None = None) -> ConjectureReport:
    """Compare the cover enumerator of (t, 1, ..., 1) against the closed form."""
    if not 1 <= t <= n:
        raise CompositionError(f"need 1 <= t <= n, got t={t}, n={n}")
    alpha = Composition((t,) + (1,) * (n - t), split=False)
    observed = cover_enumerator(alpha, cap)
    return ConjectureReport(
        alpha,
        observed,
        conjectured_polynomial(t, n),
        observed(1),
        comb(2 * n, n - t),
    )


def type_d_catalan(n: int) -> int:
    value = (3 * n - 2) * comb(2 * n - 2, n - 1)
    if value % n:
        raise ArithmeticError(f"type-D count is not integral at n={n}")
    return value // n


def check_type_d_count(n: int, cap: int | None = None) -> ConjectureReport:
    """Compare the aligned count of (0, 1, ..., 1, 2) against the type-D number."""
    if n < 2:
        raise CompositionError("the composition (0, 1, ..., 1, 2) needs n >= 2")
    alpha = Composition((1,) * (n - 2) + (2,), split=True)
    observed = cover_enumerator(alpha, cap)
    return ConjectureReport(alpha, observed, None, observed(1), type_d_catalan(n))
