"""Numerical abstract domain substrate (APRON replacement).

This package provides the numeric layer the paper obtains from APRON:

- :mod:`repro.numeric.linexpr` -- linear expressions and constraints over
  named terms, with exact :class:`fractions.Fraction` arithmetic.
- :mod:`repro.numeric.simplex` -- an exact rational LP solver (primal
  simplex with Bland's rule) used for feasibility and entailment.
- :mod:`repro.numeric.polyhedra` -- a conjunction-of-linear-constraints
  domain ("polyhedra-lite") with meet, weak join, entailment, projection
  (Fourier-Motzkin), renaming, assignment and widening.
"""

from repro.numeric.linexpr import LinExpr, Constraint
from repro.numeric.polyhedra import Polyhedron

__all__ = [
    "LinExpr",
    "Constraint",
    "Polyhedron",
]
