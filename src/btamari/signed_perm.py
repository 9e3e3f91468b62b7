"""Sign-symmetric permutations of {-n, ..., -1, 1, ..., n}.

A sign-symmetric permutation pi satisfies pi(-a) = -pi(a), so it is stored by
its right part (pi(1), ..., pi(n)) alone.  Generators are indexed 0..n-1;
multiplying by a generator on the left acts on values (s_0 exchanges the
values 1 and -1, s_i exchanges the values i and i+1 together with their
negatives), multiplying on the right acts on positions.

Reflections, the involutions conjugate to generators, come in three kinds and
are kept in a canonical form so that membership tests are purely syntactic:

* ``[[i]]``     with i > 0       exchanges the values i and -i,
* ``((i j))``   with 0 < i < j   exchanges i and j (and -i and -j),
* ``((-j i))``  with 0 < i < j   exchanges i and -j (and -i and j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotAPermutationError

SIGN, POS, NEG = 0, 1, 2


@dataclass(frozen=True, order=True)
class Reflection:
    """Canonical form of a reflection; ordering is sign < pos < neg, then (i, j)."""

    kind: int
    i: int
    j: int = 0

    def __post_init__(self):
        if self.kind == SIGN:
            if self.i <= 0 or self.j != 0:
                raise ValueError(f"bad sign reflection ({self.i}, {self.j})")
        elif self.kind in (POS, NEG):
            if not 0 < self.i < self.j:
                raise ValueError(f"bad reflection indices ({self.i}, {self.j})")
        else:
            raise ValueError(f"unknown reflection kind {self.kind}")

    @staticmethod
    def sign(i: int) -> "Reflection":
        return Reflection(SIGN, i)

    @staticmethod
    def transposition(i: int, j: int) -> "Reflection":
        if i == j:
            raise ValueError("transposition needs two distinct indices")
        return Reflection(POS, min(i, j), max(i, j))

    @staticmethod
    def mixed(i: int, j: int) -> "Reflection":
        """The reflection exchanging the values i and -j (equivalently -i and j)."""
        if i == j:
            raise ValueError("mixed reflection needs two distinct indices")
        return Reflection(NEG, min(i, j), max(i, j))

    @staticmethod
    def exchanging(x: int, y: int) -> "Reflection":
        """The reflection exchanging the signed positions x and y (and -x and -y).

        x = -y gives the sign reflection; a pair that is no such exchange
        (a zero, or x = y) raises ValueError.
        """
        if x == 0 or y == 0 or abs(x) == abs(y) and x != -y:
            raise ValueError(f"bad inversion pair {(x, y)}")
        if x == -y:
            return Reflection.sign(abs(x))
        if (x > 0) == (y > 0):
            return Reflection.transposition(abs(x), abs(y))
        return Reflection.mixed(abs(x), abs(y))

    def apply(self, v: int) -> int:
        """Image of the signed value v under this reflection."""
        a, s = abs(v), (1 if v > 0 else -1)
        if self.kind == SIGN:
            return -v if a == self.i else v
        if self.kind == POS:
            if a == self.i:
                return s * self.j
            if a == self.j:
                return s * self.i
            return v
        if a == self.i:
            return -s * self.j
        if a == self.j:
            return -s * self.i
        return v

    def max_index(self) -> int:
        return self.i if self.kind == SIGN else self.j

    def __str__(self) -> str:
        if self.kind == SIGN:
            return f"[[{self.i}]]"
        if self.kind == POS:
            return f"(({self.i} {self.j}))"
        return f"((-{self.j} {self.i}))"


def format_right(right) -> str:
    """A right part in one-line notation: its entries, comma-separated."""
    return ",".join(map(str, right))


def format_long(right) -> str:
    """Long one-line notation, negatives spelled with '-', halves split by '|'."""
    return f"{','.join(str(-v) for v in reversed(right))}|{format_right(right)}"


def predecessor(v: int) -> int:
    return -1 if v == 1 else v - 1


@dataclass(frozen=True)
class SignedPermutation:
    right: tuple[int, ...]

    def __post_init__(self):
        right = tuple(self.right)
        object.__setattr__(self, "right", right)
        n = len(right)
        if n == 0:
            raise NotAPermutationError("right part must be nonempty")
        seen = [False] * n
        for v in right:
            if not isinstance(v, int) or v == 0 or abs(v) > n:
                raise NotAPermutationError(f"entry {v!r} out of range for degree {n}")
            if seen[abs(v) - 1]:
                raise NotAPermutationError(f"absolute value {abs(v)} repeats")
            seen[abs(v) - 1] = True

    @property
    def n(self) -> int:
        return len(self.right)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        if n < 1:
            raise NotAPermutationError("degree must be at least 1")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "SignedPermutation":
        tokens = [t.strip() for t in text.strip().split(",") if t.strip()]
        if not tokens:
            raise NotAPermutationError("empty permutation string")
        try:
            values = tuple(int(t) for t in tokens)
        except ValueError as exc:
            raise NotAPermutationError(f"cannot parse {text!r}") from exc
        return cls(values)

    def format(self) -> str:
        return format_right(self.right)

    def __str__(self) -> str:
        return self.format()

    def __call__(self, a: int) -> int:
        if a > 0:
            return self.right[a - 1]
        if a < 0:
            return -self.right[-a - 1]
        raise ValueError("position 0 does not exist")

    @cached_property
    def _inverse_right(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for idx, v in enumerate(self.right, start=1):
            if v > 0:
                inv[v - 1] = idx
            else:
                inv[-v - 1] = -idx
        return tuple(inv)

    def position(self, v: int) -> int:
        """The signed position a with pi(a) = v."""
        if v > 0:
            return self._inverse_right[v - 1]
        return -self._inverse_right[-v - 1]

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation(self._inverse_right)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Group product: (self * other)(a) = self(other(a))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return SignedPermutation(tuple(self(other(a)) for a in range(1, self.n + 1)))

    # -- multiplication by generators ------------------------------------------

    def _check_gen(self, s: int):
        if not 0 <= s < self.n:
            raise ValueError(f"generator index {s} out of range for degree {self.n}")

    def mul_gen_left(self, s: int) -> "SignedPermutation":
        """s * pi: exchange the values s and s+1 (values 1 and -1 for s = 0)."""
        self._check_gen(s)
        if s == 0:
            return SignedPermutation(
                tuple(-v if abs(v) == 1 else v for v in self.right)
            )
        def swap(v: int) -> int:
            if abs(v) == s:
                return v + 1 if v > 0 else v - 1
            if abs(v) == s + 1:
                return v - 1 if v > 0 else v + 1
            return v
        return SignedPermutation(tuple(swap(v) for v in self.right))

    def mul_gen_right(self, s: int) -> "SignedPermutation":
        """pi * s: flip the sign of pi(1) for s = 0, else swap positions s, s+1."""
        self._check_gen(s)
        r = list(self.right)
        if s == 0:
            r[0] = -r[0]
        else:
            r[s - 1], r[s] = r[s], r[s - 1]
        return SignedPermutation(tuple(r))

    # -- inversions and descents ---------------------------------------------

    @cached_property
    def _inversions(self) -> frozenset[Reflection]:
        out = []
        r = self.right
        n = self.n
        for i in range(1, n + 1):
            if r[i - 1] < 0:
                out.append(Reflection(SIGN, i))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if r[i - 1] > r[j - 1]:
                    out.append(Reflection(POS, i, j))
                if -r[j - 1] > r[i - 1]:
                    out.append(Reflection(NEG, i, j))
        return frozenset(out)

    def inversion_set(self) -> frozenset[Reflection]:
        return self._inversions

    def cover_inversions(self) -> frozenset[Reflection]:
        """Inversions realizing a weak-order cover below this element."""
        out = []
        r = self.right
        n = self.n
        for i in range(1, n + 1):
            if r[i - 1] == -1:
                out.append(Reflection(SIGN, i))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if r[i - 1] == r[j - 1] + 1:
                    out.append(Reflection(POS, i, j))
                if -r[j - 1] == r[i - 1] + 1:
                    out.append(Reflection(NEG, i, j))
        return frozenset(out)

    def has_right_descent(self, i: int) -> bool:
        """Whether right multiplication by s_i shortens this element.

        For i = 0 this happens exactly when pi(1) < 0; for i >= 1 exactly when
        pi(i) > pi(i+1), whichever signs the two entries carry.
        """
        self._check_gen(i)
        if i == 0:
            return self.right[0] < 0
        return self.right[i - 1] > self.right[i]

    def is_identity(self) -> bool:
        return all(v == a for a, v in enumerate(self.right, start=1))


def generator_element(n: int, s: int) -> SignedPermutation:
    """The generator s_s as a group element of degree n."""
    return SignedPermutation.identity(n).mul_gen_left(s)


def reflection_from_element(pi: SignedPermutation) -> Reflection:
    """Recover the canonical reflection equal to the given involution."""
    moved = [v for v in range(1, pi.n + 1) if pi(v) != v]
    if not moved:
        raise ValueError("the identity is not a reflection")
    v = moved[0]
    w = pi(v)
    if w == -v:
        t = Reflection.sign(v)
    elif w > 0:
        t = Reflection.transposition(v, w)
    else:
        t = Reflection.mixed(v, -w)
    if any(t.apply(u) != pi(u) for u in range(1, pi.n + 1)):
        raise ValueError(f"{pi} is not a reflection")
    return t
