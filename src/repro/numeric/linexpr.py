"""Linear expressions and constraints over named terms.

The whole analysis works with *symbolic terms* as variables: strings such
as ``"hd(n3)"``, ``"len(n3)"``, ``"n3[y1]"``, ``"y1"`` or a plain data
variable name.  A :class:`LinExpr` is an affine combination of such terms
with exact rational coefficients; a :class:`Constraint` is ``expr >= 0`` or
``expr == 0``, stored in a canonical form (see :class:`Constraint`).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Union

Coeff = Union[int, Fraction]

GE = ">="
EQ = "=="


def _frac(value: Coeff):
    """Coerce to an exact rational, keeping plain ints as ints.

    ``int`` is a drop-in exact rational here: it supports ``.numerator``/
    ``.denominator``, promotes through mixed arithmetic with Fraction,
    and hashes/compares equal to the same-valued Fraction -- while its
    add/mul skip Fraction's per-operation gcd normalization.  The few
    true divisions over coefficient values coerce their operands
    explicitly (see multiset/simplex).
    """
    return value if isinstance(value, (Fraction, int)) else Fraction(value)


class LinExpr:
    """An immutable affine expression ``sum(coeff_i * var_i) + const``."""

    __slots__ = ("coeffs", "const", "_hash", "_support")

    def __init__(self, coeffs: Mapping[str, Coeff] = (), const: Coeff = 0):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: Dict[str, Fraction] = {}
        for var, c in items:
            fc = _frac(c)
            if fc != 0:
                clean[var] = fc
        self.coeffs: Dict[str, Fraction] = clean
        self.const: Fraction = _frac(const)
        self._hash = None
        self._support = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def _of_ints(cls, coeffs: Dict[str, int], const: int) -> "LinExpr":
        """Wrap a dict that is already zero-free and all ``int``, as is.

        Skips the per-value coercion and the ``Mapping`` check of
        ``__init__``; the caller hands over ``coeffs`` and must not
        mutate it afterwards.
        """
        self = cls.__new__(cls)
        self.coeffs = coeffs
        self.const = const
        self._hash = None
        self._support = None
        return self

    @staticmethod
    def var(name: str) -> "LinExpr":
        """The expression consisting of the single term ``name``."""
        return LinExpr({name: 1})

    @staticmethod
    def const_expr(value: Coeff) -> "LinExpr":
        """A constant expression."""
        return LinExpr({}, value)

    # -- basic queries ----------------------------------------------------

    def is_const(self) -> bool:
        return not self.coeffs

    def support(self) -> frozenset:
        """The set of term names with non-zero coefficient."""
        if self._support is None:
            self._support = frozenset(self.coeffs)
        return self._support

    def coeff(self, var: str):
        return self.coeffs.get(var, 0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return LinExpr(self.coeffs, self.const + _frac(other))
        coeffs = dict(self.coeffs)
        for var, c in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + c
        return LinExpr(coeffs, self.const + other.const)

    def __sub__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return LinExpr(self.coeffs, self.const - _frac(other))
        return self + other.scale(-1)

    def __neg__(self) -> "LinExpr":
        return self.scale(-1)

    def scale(self, k: Coeff) -> "LinExpr":
        fk = _frac(k)
        if fk == 1:
            return self
        if fk == -1:  # negation needs no gcd work
            return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)
        return LinExpr({v: c * fk for v, c in self.coeffs.items()}, self.const * fk)

    def substitute(self, mapping: Mapping[str, "LinExpr"]) -> "LinExpr":
        """Replace each term in ``mapping`` by the given expression."""
        if not any(var in mapping for var in self.coeffs):
            return self
        coeffs: Dict[str, Fraction] = {}
        const = self.const
        zero = Fraction(0)
        for var, c in self.coeffs.items():
            repl = mapping.get(var)
            if repl is None:
                coeffs[var] = coeffs.get(var, zero) + c
            else:
                const += repl.const * c
                for v, k in repl.coeffs.items():
                    coeffs[v] = coeffs.get(v, zero) + k * c
        return LinExpr(coeffs, const)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename terms (non-renamed terms are kept)."""
        coeffs: Dict[str, Fraction] = {}
        for var, c in self.coeffs.items():
            new = mapping.get(var, var)
            coeffs[new] = coeffs.get(new, 0) + c
        return LinExpr(coeffs, self.const)

    def evaluate(self, env: Mapping[str, Coeff]) -> Fraction:
        """Evaluate under a full assignment of the support."""
        total = self.const
        for var, c in self.coeffs.items():
            total += c * _frac(env[var])
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinExpr)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(sorted(self.coeffs.items())), self.const))
        return self._hash

    def __reduce__(self):
        # Rebuild from the values alone: a cached hash of string terms is
        # only valid under the hash seed of the process that computed it.
        return (LinExpr, (self.coeffs, self.const))

    def __repr__(self) -> str:
        parts = []
        for var in sorted(self.coeffs):
            c = self.coeffs[var]
            if c == 1:
                parts.append(f"+ {var}")
            elif c == -1:
                parts.append(f"- {var}")
            elif c > 0:
                parts.append(f"+ {c}*{var}")
            else:
                parts.append(f"- {-c}*{var}")
        if self.const != 0 or not parts:
            parts.append(f"+ {self.const}" if self.const >= 0 else f"- {-self.const}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def _canonical(expr: LinExpr, rel: str) -> LinExpr:
    """``expr`` rescaled to coprime plain-int coefficients and constant.

    The factor is positive, except that an equality's coefficient on its
    smallest variable (its constant, if it has no variable) is made
    positive.  Returns ``expr`` itself when it is already in that form.
    """
    coeffs = expr.coeffs
    const = expr.const
    try:
        g = gcd(const, *coeffs.values())
    except TypeError:  # a Fraction among the values: clear denominators
        lcm = const.denominator
        for k in coeffs.values():
            lcm = lcm * k.denominator // gcd(lcm, k.denominator)
        cleared = {v: int(k * lcm) for v, k in coeffs.items()}
        return _canonical(LinExpr._of_ints(cleared, int(const * lcm)), rel)
    if rel == EQ and (coeffs[min(coeffs)] if coeffs else const) < 0:
        g = -g
    if g in (0, 1):  # 0: the zero expression
        return expr
    return LinExpr._of_ints({v: k // g for v, k in coeffs.items()}, const // g)


class Constraint:
    """A linear constraint ``expr >= 0`` (``GE``) or ``expr == 0`` (``EQ``).

    The constructor stores ``expr`` in canonical form (see
    ``_canonical``): coprime plain-int values and, for an equality, a
    positive leading value.  Two constraints that differ by such a
    rescaling are therefore ``==`` and hash alike, so a constraint
    serves as its own memo key.
    """

    __slots__ = ("expr", "rel", "_hash", "_frow", "_dir")

    def __init__(self, expr: LinExpr, rel: str):
        if rel not in (GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        self.expr = _canonical(expr, rel)
        self.rel = rel
        self._hash = None
        self._frow = None  # cached float view for the LP fast path
        self._dir = None  # cached (direction, eff const); see polyhedra

    def float_row(self):
        """((var, float coeff)...), float const -- cached for the LP layer."""
        if self._frow is None:
            self._frow = (
                tuple((v, float(k)) for v, k in self.expr.coeffs.items()),
                float(self.expr.const),
            )
        return self._frow

    # -- constructors ----------------------------------------------------

    @staticmethod
    def ge(lhs: LinExpr, rhs: Union[LinExpr, Coeff] = 0) -> "Constraint":
        """``lhs >= rhs``."""
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.const_expr(rhs)
        return Constraint(lhs - rhs_expr, GE)

    @staticmethod
    def le(lhs: LinExpr, rhs: Union[LinExpr, Coeff] = 0) -> "Constraint":
        """``lhs <= rhs``."""
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.const_expr(rhs)
        return Constraint(rhs_expr - lhs, GE)

    @staticmethod
    def eq(lhs: LinExpr, rhs: Union[LinExpr, Coeff] = 0) -> "Constraint":
        """``lhs == rhs``."""
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.const_expr(rhs)
        return Constraint(lhs - rhs_expr, EQ)

    @staticmethod
    def lt_int(lhs: LinExpr, rhs: Union[LinExpr, Coeff] = 0) -> "Constraint":
        """``lhs < rhs`` under *integer* semantics, i.e. ``lhs <= rhs - 1``.

        All analysis variables denote integers, so strict inequalities are
        tightened rather than approximated.
        """
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.const_expr(rhs)
        return Constraint(rhs_expr - lhs - LinExpr.const_expr(1), GE)

    @staticmethod
    def gt_int(lhs: LinExpr, rhs: Union[LinExpr, Coeff] = 0) -> "Constraint":
        """``lhs > rhs`` under integer semantics, i.e. ``lhs >= rhs + 1``."""
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.const_expr(rhs)
        return Constraint(lhs - rhs_expr - LinExpr.const_expr(1), GE)

    # -- queries ----------------------------------------------------------

    def support(self) -> frozenset:
        return self.expr.support()

    def is_trivial(self) -> bool:
        """True for constraints with empty support that hold (e.g. 3 >= 0)."""
        if self.expr.coeffs:
            return False
        if self.rel == GE:
            return self.expr.const >= 0
        return self.expr.const == 0

    def is_contradiction(self) -> bool:
        """True for constraints with empty support that fail (e.g. -1 >= 0)."""
        if self.expr.coeffs:
            return False
        if self.rel == GE:
            return self.expr.const < 0
        return self.expr.const != 0

    # -- transforms -------------------------------------------------------

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Constraint":
        return Constraint(self.expr.substitute(mapping), self.rel)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.rel)

    def halves(self) -> Iterable["Constraint"]:
        """Decompose into inequality halves (an equality gives two)."""
        if self.rel == GE:
            yield self
        else:
            yield Constraint(self.expr, GE)
            yield Constraint(self.expr.scale(-1), GE)

    def holds(self, env: Mapping[str, Coeff]) -> bool:
        value = self.expr.evaluate(env)
        return value >= 0 if self.rel == GE else value == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constraint)
            and self.rel == other.rel
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rel, self.expr))
        return self._hash

    def __reduce__(self):
        return (Constraint, (self.expr, self.rel))

    def __repr__(self) -> str:
        return f"{self.expr!r} {self.rel} 0"
