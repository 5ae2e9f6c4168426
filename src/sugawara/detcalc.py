"""Operator-valued matrices and their column determinants.

The central object is a polynomial in two commuting variables u, x whose
coefficients live in an algebra (vacuum-module elements, enveloping
algebra elements, or commutative polynomials).  Matrix entries are of
the shape

    delta_ij * (x + lambda_i * T) + sum_r E[i,j,r][-1] u^r,

and the column determinant applies them as operators, rightmost column
first.  One column recursion over row subsets (2^n * n states instead
of n! products), generic over how an entry acts on the determinant to its
right, evaluates every determinant of the package: this one, the tau
presentation below, and the center and symbol determinants of
:mod:`sugawara.shift`.  :func:`ux_matrix` builds the three u, x
matrices.  The carriers here are :class:`~sugawara.pbw.Sparse`
subclasses, like the algebra elements they hold: :class:`UXElem` sets
the join of its (u, x) keys and :class:`TauPoly` keeps its own skew
product.

A second, tau-based presentation replaces x + lambda_i T by powers of a
skew variable tau with tau * X[r] = X[r] * tau - r X[r-1]; moving tau
right through a word costs a binomial sum of translation derivatives.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

from .pbw import Element, Sparse, _axpy, get_context, translation_T
from .pyramid import Pyramid


class UXElem(Sparse):
    """Polynomial in commuting u, x: (u, x) exponents -> coefficient."""

    __slots__ = ()

    @staticmethod
    def _join(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    def shift_x(self) -> "UXElem":
        return UXElem({(u, x + 1): c for (u, x), c in self.terms.items()})

    def map_coeffs(self, f: Callable) -> "UXElem":
        return UXElem({k: f(c) for k, c in self.terms.items()})

    def coeff(self, u: int, x: int, zero):
        return self.terms.get((u, x), zero)

    def x_coefficient(self, x: int) -> Dict[int, object]:
        """Map u-exponent -> coefficient of x^x u^u."""
        return {u: c for (u, xx), c in self.terms.items() if xx == x}

    def coefficient_table(self, n: int) -> Dict[Tuple[int, int], object]:
        """Map (k, r) -> coefficient of x^(n-k) u^r, for k = 1..n."""
        return {(n - x, u): c for (u, x), c in self.terms.items() if x < n}


@dataclass(frozen=True)
class MatrixEntry:
    """One matrix entry: x_flag*x + t_coeff*T + a multiplication part."""

    x_flag: int
    t_coeff: int
    mult: UXElem


def apply_entry(entry: MatrixEntry, s: UXElem) -> UXElem:
    """Apply an entry as an operator to a UX polynomial.

    u and x commute with everything; the translation derivation acts on
    the coefficients only (an entry carries T only over the vacuum module).
    """
    out = entry.mult * s
    if entry.x_flag:
        out = out + s.shift_x()
    if entry.t_coeff:
        out = out + s.map_coeffs(translation_T).scale(entry.t_coeff)
    return out


def column_determinant(matrix: List[list], unit, apply: Callable):
    """Column determinant by a column recursion over row subsets.

    ``matrix[i][c]`` (0-based) is applied with column c+1 choosing row
    i+1: ``apply(entry, inner)`` applies one entry to the determinant of
    the columns to its right, and ``unit`` is the empty determinant.
    Columns are taken from the right; the determinants of the last s
    columns, one per subset of s rows, are built from those of the last
    s-1 columns and then replace them.  Signs come from the position of
    the chosen row among the rows still available, which reproduces sgn
    of the permutation.
    """
    n = len(matrix)
    level = {(): unit}
    for size in range(1, n + 1):
        col = n - size
        nxt = {}
        for rows in itertools.combinations(range(n), size):
            out: dict = {}
            for pos, i in enumerate(rows):
                piece = apply(matrix[i][col], level[rows[:pos] + rows[pos + 1 :]])
                _axpy(out, piece.terms, -1 if pos % 2 else 1)
            nxt[rows] = unit._like(out)
        level = nxt
    return level[tuple(range(n))]


def ux_matrix(
    p: Pyramid,
    symbol: Callable,
    t_coeff: Optional[Callable] = None,
    const: Optional[Callable] = None,
) -> List[List[MatrixEntry]]:
    """Entries delta_ij (x + t_coeff(i) T + const(i)) + sum_r symbol(i,j,r) u^r.

    r = 0 lies in every diagonal window, so ``const`` adds onto the
    u^0 term of the diagonal.
    """
    matrix: List[List[MatrixEntry]] = []
    for i in range(1, p.n + 1):
        row = []
        for j in range(1, p.n + 1):
            terms = {(r, 0): symbol(i, j, r) for r in p.window(i, j)}
            if i != j:
                row.append(MatrixEntry(0, 0, UXElem(terms)))
                continue
            if const is not None:
                terms[(0, 0)] = terms[(0, 0)] + const(i)
            row.append(MatrixEntry(1, t_coeff(i) if t_coeff else 0, UXElem(terms)))
        matrix.append(row)
    return matrix


def build_entry_matrix(p: Pyramid) -> List[List[MatrixEntry]]:
    """Vacuum-module matrix: delta_ij (x + lambda_i T) + sum_r E[i,j,r][-1] u^r."""
    ctx = get_context(p, "affine")
    return ux_matrix(
        p,
        lambda i, j, r: ctx.gen(i, j, r, depth=-1),
        t_coeff=lambda i: p.lambdas[i - 1],
    )


def cdet(p: Pyramid) -> UXElem:
    """The column determinant of the pyramid's operator matrix, as a
    polynomial in x with coefficients in the vacuum module tensored with
    polynomials in u."""
    ctx = get_context(p, "affine")
    return column_determinant(
        build_entry_matrix(p), UXElem({(0, 0): ctx.one()}), apply_entry
    )


# -- the tau presentation


class TauPoly(Sparse):
    """Polynomial in the skew variable tau with vacuum-module coefficients,
    tau powers kept to the right."""

    __slots__ = ()

    def __mul__(self, other: "TauPoly") -> "TauPoly":
        # (A tau^a)(B tau^b): tau^a B = sum_k C(a,k) T^k(B) tau^(a-k)
        if not self.terms or not other.terms:
            return TauPoly({})
        max_a = max(self.terms)
        tpow: Dict[int, List[Element]] = {}
        for eb, cb in other.terms.items():
            row = [cb]
            for _ in range(max_a):
                row.append(translation_T(row[-1]))
            tpow[eb] = row
        out: Dict[int, Element] = {}
        for ea, ca in self.terms.items():
            for eb in other.terms:
                for k in range(ea + 1):
                    _axpy(out, {ea - k + eb: ca * tpow[eb][k]}, comb(ea, k))
        return TauPoly(out)

    def coeff(self, e: int, zero: Element) -> Element:
        return self.terms.get(e, zero)


def build_tau_matrix(p: Pyramid) -> List[List[TauPoly]]:
    """Entries delta_ij tau^{lambda_j} + sum_m E[i,j,lambda_j-1-m][-1] tau^m."""
    ctx = get_context(p, "affine")
    matrix: List[List[TauPoly]] = []
    for i in range(1, p.n + 1):
        row = []
        for j in range(1, p.n + 1):
            lj = p.lambdas[j - 1]
            terms = {lj - 1 - r: ctx.gen(i, j, r, depth=-1) for r in p.window(i, j)}
            if i == j:
                terms[lj] = ctx.one()
            row.append(TauPoly(terms))
        matrix.append(row)
    return matrix


def cdet_tau(p: Pyramid) -> TauPoly:
    """Column determinant in the skew ring; the result is monic of
    degree N in tau and its lower coefficients are the phi-circle
    elements of the alternative presentation."""
    ctx = get_context(p, "affine")
    return column_determinant(
        build_tau_matrix(p), TauPoly({0: ctx.one()}), operator.mul
    )
