"""Exception types shared across the package."""

from __future__ import annotations


class NotAPermutationError(ValueError):
    """Raised when a right part does not describe a sign-symmetric permutation."""


class CompositionError(ValueError):
    """Raised on malformed compositions or out-of-range region queries."""


class CapExceededError(RuntimeError):
    """An enumeration would produce more elements than the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration needs {_count(required)} elements, cap is {cap}")
        self.required = required
        self.cap = cap


def out_of_memory(cap: int) -> str:
    """The one line a command prints when the arrays the cap admits do not fit."""
    return f"out of memory: the enumeration cap {cap} admits more than memory holds"


def _count(required: int) -> str:
    """Exact below 10^18, else "at least 10^k" from the bit length and log10(2)
    rounded down: Python will not write out an int of over 4,300 digits."""
    if required < 10**18:
        return str(required)
    return f"at least 10^{(required.bit_length() - 1) * 3010299956 // 10**10}"


class NotALatticeError(ValueError):
    """A poset misses a bound; carries the offending pair and, when known, its labels."""

    def __init__(self, pair: tuple[int, int], reason: str, labels=None):
        super().__init__(f"{reason} for element pair {pair}")
        self.pair = pair
        self.reason = reason
        self.labels = labels
