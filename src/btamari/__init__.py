"""Type-B parabolic quotients, aligned elements, and parabolic Tamari lattices."""

from .alignment import (
    Decomposition,
    PatternWitness,
    decompositions,
    find_231_pattern,
    find_312_pattern,
    is_aligned_forcing,
    is_aligned_root,
)
from .enumeration import (
    Polynomial,
    check_conjecture_t,
    check_type_d_count,
    cover_enumerator,
    narayana_polynomial,
    t_sequence,
)
from .errors import (
    CapExceededError,
    CompositionError,
    NotACongruenceError,
    NotALatticeError,
    NotAPermutationError,
)
from .parabolic import (
    Composition,
    InversionTableau,
    all_compositions,
    c_sorting_word,
    inversion_order,
    is_member,
    longest_element,
    parabolic_length,
    sorting_word_longest,
)
from .projection import (
    ThetaClass,
    iota,
    project_down,
    project_up,
    theta_classes,
)
from .signed_perm import Reflection, SignedPermutation
from .tamari import build_tamari, join_irreducible_for, verify_theorems

__all__ = [name for name in dir() if not name.startswith("_")]
