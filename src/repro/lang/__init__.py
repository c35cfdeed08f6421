"""LISL: the list/scalar language of the paper (§2), with frontend.

The paper analyzes C programs (through Frama-C) restricted to
singly-linked lists with one integer data field and integer scalars.  LISL
is a small concrete language generating exactly the paper's statement
alphabet:

- pointer statements ``p = NULL | q | q->next | new``, ``p->next = q``;
- data statements ``p->data = t``, ``d = t`` with ``t`` affine over data
  variables and ``q->data`` terms;
- conditions on pointers (``p == q``) and on data;
- ``assert``/``assume``, ``if``/``while``, and procedure calls
  ``(y, ...) = Q(x, ...)`` with call-by-value parameters.

Pipeline: :mod:`lexer` → :mod:`parser` → :mod:`typecheck` →
:mod:`normalize` (three-address form: dereferences lifted out of
conditions and nested expressions) → :mod:`cfg` (intra-procedural CFGs and
the ICFG).  :func:`parse_source` runs the chain from source text up to
normalization.  :mod:`benchlib` holds the paper's benchmark programs.
"""

from repro.lang.ast import Program, Procedure
from repro.lang.parser import parse_program
from repro.lang.typecheck import typecheck_program, TypeError_
from repro.lang.normalize import normalize_program
from repro.lang.cfg import build_icfg, ICFG, CFG


def parse_source(source: str) -> Program:
    """Parse, typecheck and normalize LISL source text; raises the
    parser's or typechecker's error on bad input."""
    return normalize_program(typecheck_program(parse_program(source)))


__all__ = [
    "parse_source",
    "Program",
    "Procedure",
    "parse_program",
    "typecheck_program",
    "TypeError_",
    "normalize_program",
    "build_icfg",
    "ICFG",
    "CFG",
]
