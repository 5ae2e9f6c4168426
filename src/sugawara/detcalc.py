"""Operator-valued matrices and their column determinants.

The central object is a polynomial in two commuting variables u, x whose
coefficients live in an algebra (vacuum-module elements, enveloping
algebra elements, or commutative polynomials).  A matrix entry is the
operator it applies, over the vacuum module

    delta_ij * (x + lambda_i * T) + sum_r E[i,j,r][-1] u^r,

and the column determinant applies each entry to the determinant of the
columns to its right, rightmost column first.  One column recursion over
row subsets (2^n * n states instead of n! products) evaluates every
determinant of the package: this one, the tau presentation below, and
the center and symbol determinants of :mod:`sugawara.shift`.
:func:`ux_matrix` builds the three u, x matrices; their carrier is
:class:`UXElem`, a :class:`~sugawara.pbw.Sparse` subclass that sets the
join of its (u, x) keys.

A second, tau-based presentation replaces x + lambda_i T by powers of a
skew variable tau with tau * X[r] = X[r] * tau - r X[r-1]; moving tau
right through a word costs a binomial sum of translation derivatives.
Its entries are operators too, on a plain :class:`~sugawara.pbw.Sparse`
map from tau power to coefficient.  They multiply on the right, with
the columns reversed, so tau only ever moves through an entry's own
letters, never through a determinant built so far.
"""

from __future__ import annotations

import itertools
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

    def x_coefficient(self, x: int) -> Dict[int, object]:
        """Map u-exponent -> coefficient of x^x u^u."""
        return {u: c for (u, xx), c in self.terms.items() if xx == x}

    def coefficient_table(self, n: int) -> Dict[Tuple[int, int], object]:
        """Map (k, r) -> coefficient of x^(n-k) u^r, for k = 1..n."""
        return {(n - x, u): c for (u, x), c in self.terms.items() if x < n}


def column_determinant(matrix: List[list], unit):
    """Column determinant by a column recursion over row subsets.

    ``matrix[i][c](inner)`` (0-based) applies the entry of column c+1 at
    row i+1 to ``inner``, the determinant of the columns to its right;
    ``unit`` is the empty determinant.  Columns are taken from the right;
    the determinants of the last s columns, one per subset of s rows, are
    built from those of the last s-1 columns and then replace them.
    Signs come from the position of the chosen row among the rows still
    available, which reproduces sgn of the permutation.
    """
    n = len(matrix)
    level = {(): unit}
    for size in range(1, n + 1):
        col = n - size
        nxt = {}
        for rows in itertools.combinations(range(n), size):
            out: dict = {}
            for pos, i in enumerate(rows):
                piece = matrix[i][col](level[rows[:pos] + rows[pos + 1 :]])
                _axpy(out, piece.terms, -1 if pos % 2 else 1)
            nxt[rows] = unit._like(out)
        level = nxt
    return level[tuple(range(n))]


def ux_matrix(
    p: Pyramid, symbol: Callable, diag: Optional[Callable] = None
) -> List[List[Callable]]:
    """Operators delta_ij (x + diag(i, .)) + sum_r symbol(i,j,r) u^r.

    u and x commute with everything, so an entry off the diagonal is a
    product, and one on it also adds x s and ``diag(i, s)`` to the
    image of s.
    """

    def entry(i: int, j: int) -> Callable:
        mult = UXElem({(r, 0): symbol(i, j, r) for r in p.window(i, j)})
        if i != j:
            return mult.__mul__

        def apply(s: UXElem) -> UXElem:
            out = (mult * s).terms  # a fresh dict
            _axpy(out, {(u, x + 1): c for (u, x), c in s.terms.items()}, 1)
            if diag is not None:
                _axpy(out, diag(i, s).terms, 1)
            return s._like(out)

        return apply

    rows = range(1, p.n + 1)
    return [[entry(i, j) for j in rows] for i in rows]


def build_entry_matrix(p: Pyramid) -> List[List[Callable]]:
    """Vacuum-module matrix: delta_ij (x + lambda_i T) + sum_r E[i,j,r][-1] u^r,
    T acting on the coefficients."""
    ctx = get_context(p, "affine")
    return ux_matrix(
        p,
        lambda i, j, r: ctx.gen(i, j, r, depth=-1),
        diag=lambda i, s: UXElem(
            {k: translation_T(c) for k, c in s.terms.items()}
        ).scale(p.lambdas[i - 1]),
    )


def cdet(p: Pyramid) -> UXElem:
    """The column determinant of the pyramid's operator matrix, as a
    polynomial in x with coefficients in the vacuum module tensored with
    polynomials in u."""
    ctx = get_context(p, "affine")
    return column_determinant(build_entry_matrix(p), UXElem({(0, 0): ctx.one()}))


# -- the tau presentation


def build_tau_matrix(p: Pyramid) -> List[List[Callable]]:
    """Operators delta_ij tau^{lambda_j} + sum_m E[i,j,lambda_j-1-m][-1] tau^m
    on polynomials in tau with vacuum-module coefficients, tau powers kept
    to the right, with the columns reversed and each entry multiplying its
    argument on the right: :func:`column_determinant` applied to this
    matrix builds the column products from the left.  The product
    B tau^b * A tau^a is sum_k C(b,k) B T^k(A) tau^(b-k+a); each entry
    coefficient A is one letter or 1, so each T^k(A) is one word, built
    once per entry, when first needed."""
    ctx = get_context(p, "affine")

    def entry(i: int, j: int) -> Callable:
        lj = p.lambdas[j - 1]
        # powers[a] = [A, T(A), T^2(A), ...] for the coefficient A of tau^a
        powers = {lj - 1 - r: [ctx.gen(i, j, r, depth=-1)] for r in p.window(i, j)}
        if i == j:
            powers[lj] = [ctx.one()]

        def apply(inner: Sparse) -> Sparse:
            out: Dict[int, Element] = {}
            for eb, cb in inner.terms.items():
                for ea, row in powers.items():
                    while len(row) <= eb:
                        row.append(translation_T(row[-1]))
                    for k in range(eb + 1):
                        if row[k]:
                            _axpy(out, {eb - k + ea: cb * row[k]}, comb(eb, k))
            return Sparse(out)

        return apply

    rows = range(1, p.n + 1)
    return [[entry(i, j) for j in reversed(rows)] for i in rows]


def cdet_tau(p: Pyramid) -> Sparse:
    """Column determinant in the skew ring, as tau power -> coefficient;
    the result is monic of degree N in tau and its lower coefficients are
    the phi-circle elements of the alternative presentation.  The tau
    matrix has its columns reversed, which multiplies the column
    recursion's signs by that of the reversal, (-1)^(n(n-1)/2)."""
    ctx = get_context(p, "affine")
    det = column_determinant(build_tau_matrix(p), Sparse({0: ctx.one()}))
    return det.scale(-1) if p.n * (p.n - 1) // 2 % 2 else det
