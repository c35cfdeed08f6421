"""Exact rational linear algebra over sparse dict-rows.

Shared by the AM multiset domain (row spaces of multiset equalities) and
the polyhedra join (affine-hull intersection).  Rows are dicts mapping
column names to exact rationals (Fraction or int); systems are
homogeneous.

``rref`` runs fraction-free: each input row is scaled to coprime
integers (legal because the system is homogeneous -- scaling a row does
not change its span), elimination works on integer rows with a gcd
reduction after every combination, and pivot rows are divided down to a
unit lead only at the end.  The reduced row echelon form of a row space
is unique, so the result is the same canonical basis the naive
Fraction-by-Fraction elimination produces -- just without the millions
of intermediate Fraction allocations.

A *canonical basis* is ``rref(rows, sorted(columns))``: every row has a
unit lead at its smallest column, that column is zero in every other
row, and rows are ordered by lead.  ``spans`` and ``insert_row`` work
on such a basis directly, without re-eliminating it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Row = Dict[str, Fraction]


def _int_row(row: Row) -> Dict[str, int]:
    """Scale a homogeneous row to coprime integers, dropping zeros."""
    lcm = 1
    for k in row.values():
        d = k.denominator
        if d != 1:
            lcm = lcm * d // gcd(lcm, d)
    if lcm == 1:
        out = {c: k.numerator for c, k in row.items() if k}
    else:
        out = {}
        for c, k in row.items():
            if k:
                out[c] = k.numerator * (lcm // k.denominator)
    return _gcd_reduce(out)


def _gcd_reduce(row: Dict[str, int]) -> Dict[str, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def rref(rows: List[Row], columns: List[str]) -> List[Row]:
    """Reduced row echelon form of homogeneous rows over ordered columns."""
    work = [r for r in (_int_row(dict(r)) for r in rows) if r]
    pivots: List[str] = []
    row_idx = 0
    for col in columns:
        pivot_row = None
        for r in range(row_idx, len(work)):
            if work[r].get(col):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[row_idx], work[pivot_row] = work[pivot_row], work[row_idx]
        lead_row = work[row_idx]
        p = lead_row[col]
        for r in range(len(work)):
            if r == row_idx:
                continue
            f = work[r].get(col)
            if f:
                new = {c: k * p for c, k in work[r].items()}
                for c, k in lead_row.items():
                    cur = new.get(c)
                    nv = -f * k if cur is None else cur - f * k
                    if nv:
                        new[c] = nv
                    elif cur is not None:
                        del new[c]
                work[r] = _gcd_reduce(new)
        pivots.append(col)
        row_idx += 1
    out: List[Row] = []
    for i, col in enumerate(pivots):
        r = work[i]
        p = r[col]
        if p == 1:
            out.append(r)
        else:
            # Exact unit-lead normalization; Fraction(v, p) keeps the
            # denominator positive and reduces automatically.
            out.append({c: Fraction(v, p) for c, v in r.items()})
    return out


def _lead_of(row: Row, col_pos: Dict[str, int]):
    """The row's leading column (smallest in the column order), or None.

    Scans only the row's nonzero entries instead of the full column list.
    """
    lead = None
    best = -1
    for c in row:
        p = col_pos.get(c)
        if p is not None and (lead is None or p < best):
            lead = c
            best = p
    return lead


def reduce_against(row: Row, basis: List[Row], columns: List[str]) -> Row:
    """Reduce one row against an RREF basis; zero result means membership."""
    col_pos = {c: i for i, c in enumerate(columns)}
    work = dict(row)
    for b in basis:
        lead = _lead_of(b, col_pos)
        if lead is None:
            continue
        factor_raw = work.get(lead)
        if not factor_raw:
            continue
        pivot = b[lead]
        # RREF basis rows have a unit lead; divide exactly if not.
        factor = factor_raw if pivot == 1 else Fraction(factor_raw) / pivot
        for c, k in b.items():
            cur = work.get(c)
            work[c] = -factor * k if cur is None else cur - factor * k
    return {c: k for c, k in work.items() if k}


def nullspace(rows: List[Row], unknowns: List[str]) -> List[Row]:
    """Basis of the null space of a homogeneous system over ``unknowns``."""
    reduced = rref([dict(r) for r in rows], unknowns)
    col_pos = {c: i for i, c in enumerate(unknowns)}
    pivot_cols: Dict[str, Row] = {}
    for r in reduced:
        lead = _lead_of(r, col_pos)
        if lead is not None:
            pivot_cols[lead] = r
    free = [c for c in unknowns if c not in pivot_cols]
    basis: List[Row] = []
    for f in free:
        vec: Row = {f: Fraction(1)}
        for lead, row in pivot_cols.items():
            k = row.get(f)
            if k:
                vec[lead] = -k
        basis.append(vec)
    return basis


# -- canonical bases (rref over sorted columns) ----------------------------


def _reduce_by_leads(row: Row, leads: Mapping[str, Row]) -> Row:
    """``row`` minus its combination of the canonical basis ``leads``.

    A lead column is zero in every other basis row, so the multiple of
    each basis row to subtract is ``row``'s own coefficient at its lead:
    one pass, in any order.  The result has no zero entries.
    """
    work = {c: k for c, k in row.items() if k}
    for c, k in row.items():
        b = leads.get(c)
        if b is None or not k:
            continue
        for c2, v in b.items():
            nv = work.get(c2, 0) - k * v
            if nv:
                work[c2] = nv
            else:
                work.pop(c2, None)
    return work


def spans(basis: Sequence[Row], rows: Iterable[Row]) -> bool:
    """Whether every zero-free row lies in the span of a canonical basis.

    A row equal to a basis row is accepted, and a row with a column
    outside the basis's support rejected, before any reduction.
    """
    leads = {min(b): b for b in basis}
    support = set().union(*basis)
    for row in rows:
        if not row or leads.get(min(row)) == row:
            continue
        if not row.keys() <= support or _reduce_by_leads(row, leads):
            return False
    return True


def _canonical_row(row: Row) -> Row:
    """The row with ints for its integral entries when all of them are
    (int arithmetic is the cheap case for later combinations)."""
    if all(type(v) is int for v in row.values()):
        return row
    if all(v.denominator == 1 for v in row.values()):
        return {c: v.numerator for c, v in row.items()}
    return {c: Fraction(v) for c, v in row.items()}


def insert_row(basis: List[Row], row: Row) -> List[Row]:
    """``rref(basis + [row], sorted(columns))`` for a canonical ``basis``.

    ``row`` is reduced by the basis leads; the remainder, scaled to a
    unit lead at its smallest column, is eliminated from the basis rows
    that use that column (their leads are smaller, so they keep them)
    and placed by lead.  Returns ``basis`` itself when ``row`` lies in
    its span.
    """
    lead_cols = [min(b) for b in basis]
    work = _reduce_by_leads(row, dict(zip(lead_cols, basis)))
    if not work:
        return basis
    lead = min(work)
    p = work[lead]
    if p != 1:
        work = {c: Fraction(v) / p for c, v in work.items()}
    work = _canonical_row(work)
    out: List[Row] = []
    placed = False
    for b, b_lead in zip(basis, lead_cols):
        if not placed and b_lead > lead:
            out.append(work)
            placed = True
        f = b.get(lead)
        if f:
            b = dict(b)
            for c, v in work.items():
                nv = b.get(c, 0) - f * v
                if nv:
                    b[c] = nv
                else:
                    del b[c]
            b = _canonical_row(b)
        out.append(b)
    if not placed:
        out.append(work)
    return out
