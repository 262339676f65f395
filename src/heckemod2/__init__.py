"""Exact GF(2) computations with modular forms mod 2.

The space spanned by the odd powers of delta (the generating series of odd
squares) is stable under every odd Hecke operator.  This package computes
that action exactly: bit-packed truncated q-expansions, the Hecke matrices
on the finite filtration levels, the canonical m(a,b) basis dual to the
monomials in T_3 and T_5, the expansion of every T_p as a power series in
those two operators, and the two binary theta families whose Hecke action
is a translation under a class-group composition law on Z/2^n.
"""

from .mbasis import FrobenianReport, LevelExhausted, MBasis
from .series import (F2Series, PrecisionError, delta, delta_pow, hecke, mul,
                     square)
from .spaces import (DeltaCoords, GF2Matrix, NotInSpan, algebra_dimension,
                     check_divisibility, commutant_dimension,
                     expand_in_delta_basis, hecke_matrix, nilpotency_index)
from .theta import (CompositionLaw, NoRepresentation, t_of_prime, theta_coords,
                    theta_series)

__version__ = "0.1.0"

__all__ = [
    "CompositionLaw",
    "DeltaCoords",
    "F2Series",
    "FrobenianReport",
    "GF2Matrix",
    "LevelExhausted",
    "MBasis",
    "NoRepresentation",
    "NotInSpan",
    "PrecisionError",
    "algebra_dimension",
    "check_divisibility",
    "commutant_dimension",
    "delta",
    "delta_pow",
    "expand_in_delta_basis",
    "hecke",
    "hecke_matrix",
    "mul",
    "nilpotency_index",
    "square",
    "t_of_prime",
    "theta_coords",
    "theta_series",
]
