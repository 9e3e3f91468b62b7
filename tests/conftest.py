import itertools

import pytest
from hypothesis import strategies as st

from btamari.lattice import FiniteLattice, FinitePoset, try_lattice
from btamari.parabolic import Composition, all_compositions, quotient_rows
from btamari.signed_perm import SignedPermutation
from btamari.tamari import _weak_leq_matrix


def perm(text: str) -> SignedPermutation:
    return SignedPermutation.parse(text)


def weak_order_lattice(alpha: Composition) -> FiniteLattice:
    """The weak order on the full parabolic quotient, with dense meet and join tables.

    The oracle for the weak order on a parabolic quotient being a lattice
    (A. Björner and M. Wachs, Generalized quotients in Coxeter groups, Trans.
    AMS 308, 1988): ``try_lattice`` raises NotALatticeError otherwise.  The
    library keeps the weak order as a poset and builds no tables for it.
    Its labels are the quotient's right-part rows.
    """
    rows = quotient_rows(alpha)
    return try_lattice(FinitePoset(rows, _weak_leq_matrix(rows)))


def full_group(n: int) -> list[SignedPermutation]:
    out = []
    for base in itertools.permutations(range(1, n + 1)):
        for mask in range(1 << n):
            out.append(
                SignedPermutation(
                    tuple(-v if mask >> t & 1 else v for t, v in enumerate(base))
                )
            )
    return out


@st.composite
def signed_perms(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation(tuple(-v if s else v for v, s in zip(base, signs)))


@st.composite
def compositions(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    split = draw(st.booleans())
    parts = []
    left = n
    while left:
        p = draw(st.integers(1, left))
        parts.append(p)
        left -= p
    return Composition(tuple(parts), split)


@pytest.fixture(scope="session")
def all_small_compositions():
    return {n: all_compositions(n) for n in (1, 2, 3, 4)}
