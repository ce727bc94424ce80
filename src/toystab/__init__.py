"""Exact simulator for a discrete epistemically-restricted toy theory.

States are stabilizer-style groups of signed X/Y/Z words over GF(2);
the ontic oracle enumerates the underlying 4^n-point sample space with
dyadic-rational probabilities; dynamics are state-space permutations.
Higher layers implement bit-commitment cheating demos, error
correction and secret sharing, measurement-based computation with
gflow, and blind/verified delegated computation.
"""

from .algebra import Element, Group, matrix_diag, solve_gf2
from .dynamics import (NAMED_PERMS, Permutation, erase, measure_element,
                       partial_trace, purify, relate_purifications)
from .oracle import DEFAULT_CAP, CapExceeded, Distribution, measure_observable

__version__ = "1.0.0"

__all__ = [
    "Element", "Group", "matrix_diag", "solve_gf2",
    "Permutation", "NAMED_PERMS",
    "measure_element", "partial_trace", "erase", "purify",
    "relate_purifications",
    "Distribution", "measure_observable", "DEFAULT_CAP", "CapExceeded",
    "__version__",
]
