"""Operator-valued matrices and their column determinants.

The central object is a polynomial in two commuting variables u, x whose
coefficients live in an algebra (vacuum-module elements or enveloping
algebra elements).  A matrix entry is the operator it applies, over the
vacuum module

    delta_ij * (x + lambda_i * T) + sum_r E[i,j,r][-1] u^r,

and the column determinant applies each entry to the determinant of the
columns to its right, rightmost column first.  One column recursion over
row subsets (2^n * n states instead of n! products) evaluates every
determinant of the package: this one, the tau presentation below, and
the center determinant of :mod:`sugawara.shift`.

The recursion works on raw terms: a determinant is a map from a key (a
(u, x) or tau exponent) to the ``terms`` dict of its coefficient, and an
entry adds its signed image into the caller's buckets, by the raw
product ``LieContext._into`` or the raw derivation
``LieContext._derive``.  No coefficient is built or copied on the way;
each determinant wraps the coefficients of its result once, and returns
a plain dict: :func:`ux_matrix` builds the two u, x matrices, whose
results map (u, x) exponents to coefficients, read by
:func:`coefficient_table`.

A second, tau-based presentation replaces x + lambda_i T by powers of a
skew variable tau with tau * X[r] = X[r] * tau - r X[r-1]; moving tau
right through a word costs a binomial sum of translation derivatives.
Its entries are operators too, keyed by (tau power, weight), the weight
of a word being the sum of its letters' shifts r, and its result a
plain dict from tau power to coefficient.  They multiply on the right,
with the columns reversed, so tau only ever moves through an entry's
own letters, never through a determinant built so far.

A reader that reads a few coefficients has the recursion build only
what leads to them: ``column_determinant(matrix, unit, keep)`` drops,
after each level, every bucket whose key ``keep(size, key)`` refuses.
The test looks at keys only, and two invariants make it exact
(:func:`~sugawara.suga.ux_keep` and :func:`~sugawara.suga.tau_keep`):

* u, x: u and x never fall, and the columns still to come add at most
  one x each and at most their largest shift, lambda_j - 1, to u;
* tau: after the columns j = 1..size, a bucket (e, w) holds only words
  of weight w and degree lambda_1 + ... + lambda_size - e - w, since
  weight adds under brackets and T (the central term lives at weight
  0) and normal ordering and T-moves keep weight + power + degree; so
  weight and degree never fall, and the columns still to come add at
  most lambda_j - 1 each to the weight.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

from .pbw import Element, LieContext, _axpy, get_context
from .pyramid import Pyramid

UX = Tuple[int, int]


def coefficient_table(det: Dict[UX, object], n: int) -> Dict[UX, object]:
    """Map (k, r) -> coefficient of x^(n-k) u^r in the (u, x) map det,
    for k = 1..n."""
    return {(n - x, u): c for (u, x), c in det.items() if x < n}


def column_determinant(
    matrix: List[list],
    unit: Dict[object, dict],
    keep: Optional[Callable[[int, object], bool]] = None,
) -> Dict[object, dict]:
    """Column determinant by a column recursion over row subsets, on raw
    terms: a determinant is a map key -> terms, the ``terms`` dict of
    the coefficient at each key.

    ``matrix[i][c](out, inner, sign)`` (0-based) adds sign times the
    image of ``inner``, the determinant of the columns to its right,
    under the entry of column c+1 at row i+1 into the buckets of
    ``out``; it only reads ``inner``.  ``unit`` is the empty
    determinant.  Columns are taken from the right; the determinants of
    the last s columns, one per subset of s rows, are built from those
    of the last s-1 columns, each of which is dropped once the last
    subset that reads it is built.  Signs come from the
    position of the chosen row among the rows still available, which
    reproduces sgn of the permutation.  The result keeps only its
    nonzero buckets.

    With ``keep``, each determinant of s columns drops every bucket key
    k with ``keep(s, k)`` false as soon as it is built.  A caller that
    reads only some buckets of the result passes a test that refuses a
    key only when no bucket it reads can come of it: the buckets it
    reads are then exact, and the others are not to be trusted.
    """
    n = len(matrix)
    level = {(): unit}
    for size in range(1, n + 1):
        col = n - size
        nxt = {}
        for rows in itertools.combinations(range(n), size):
            out: dict = {}
            for pos, i in enumerate(rows):
                rest = rows[:pos] + rows[pos + 1 :]
                matrix[i][col](out, level[rest], -1 if pos % 2 else 1)
                if len(rows) - pos == n - i:
                    # every row above i is in rest: no later subset reads it
                    del level[rest]
            if keep is not None:
                out = {k: t for k, t in out.items() if keep(size, k)}
            nxt[rows] = out
        level = nxt
    return {k: t for k, t in level[tuple(range(n))].items() if t}


def ux_matrix(
    p: Pyramid, ctx: LieContext, depth: int, diag: Callable
) -> List[List[Callable]]:
    """Operators delta_ij (x + diag(i, .)) + sum_r E[i,j,r][depth] u^r on
    determinants keyed by (u, x) exponents, with coefficients in ctx.

    u and x commute with everything, so the image of each bucket s is
    E[i,j,r][depth] s in the bucket shifted by u^r, the letter taking s
    from the left by one ``_into``; on the diagonal it is also s in the
    bucket shifted by x, and ``diag(i, out, s, c)``, which adds
    c diag_i(s) into the unshifted bucket ``out``.
    """
    into = ctx._into

    def entry(i: int, j: int) -> Callable:
        heads = [(r, (ctx.loop(i, j, r, depth),)) for r in p.window(i, j)]
        on_diag = i == j

        def apply(out: dict, inner: dict, sign: int) -> None:
            for (u, x), s in inner.items():
                for r, head in heads:
                    into(out.setdefault((u + r, x), {}), head, s, sign)
                if on_diag:
                    _axpy(out.setdefault((u, x + 1), {}), s, sign)
                    diag(i, out.setdefault((u, x), {}), s, sign)

        return apply

    rows = range(1, p.n + 1)
    return [[entry(i, j) for j in rows] for i in rows]


def ux_determinant(
    matrix: List[List[Callable]], ctx: LieContext, keep: Optional[Callable] = None
) -> Dict[UX, Element]:
    """The column determinant of a u, x matrix over ctx from the unit, as
    a map (u, x) -> coefficient, each coefficient's terms wrapped once;
    ``keep`` as in :func:`column_determinant`."""
    det = column_determinant(matrix, {(0, 0): {(): 1}}, keep)
    return {k: Element.wrap(ctx, t) for k, t in det.items()}


def build_entry_matrix(p: Pyramid) -> List[List[Callable]]:
    """Vacuum-module matrix: delta_ij (x + lambda_i T) + sum_r E[i,j,r][-1] u^r,
    T acting on the coefficients by the raw derivation."""
    ctx = get_context(p, "affine")
    return ux_matrix(
        p, ctx, -1, lambda i, out, s, c: ctx._derive(out, s, -1, c * p.lambdas[i - 1])
    )


def cdet(p: Pyramid, keep: Optional[Callable] = None) -> Dict[UX, Element]:
    """The column determinant of the pyramid's operator matrix, a
    polynomial in u and x with vacuum-module coefficients, as a map
    (u, x) -> coefficient; ``keep`` as in :func:`column_determinant`."""
    return ux_determinant(build_entry_matrix(p), get_context(p, "affine"), keep)


# -- the tau presentation


def build_tau_matrix(p: Pyramid) -> List[List[Callable]]:
    """Operators delta_ij tau^{lambda_j} + sum_m E[i,j,lambda_j-1-m][-1] tau^m
    on polynomials in tau with vacuum-module coefficients, keyed by (tau
    power, weight), tau powers kept to the right, with the columns
    reversed and each entry multiplying its argument on the right:
    :func:`column_determinant` applied to this matrix builds the column
    products from the left.  The product B tau^b * A tau^a is
    sum_k C(b,k) B T^k(A) tau^(b-k+a), each term of B taking T^k(A) by
    one ``_into``; each entry coefficient A is one letter or 1, so each
    T^k(A) is one word, built once per entry, when first needed.  The
    weight of A is its letter's shift r (0 for 1), and the weight of
    B T^k(A) is the sum of the two."""
    ctx = get_context(p, "affine")
    into = ctx._into

    def entry(i: int, j: int) -> Callable:
        lj = p.lambdas[j - 1]
        # powers[a, w] = [A, T(A), T^2(A), ...] for the coefficient A of
        # tau^a, of weight w
        powers = {
            (lj - 1 - r, r): [{(ctx.loop(i, j, r, -1),): 1}] for r in p.window(i, j)
        }
        if i == j:
            powers[lj, 0] = [{(): 1}]

        def apply(out: dict, inner: dict, sign: int) -> None:
            for (eb, wb), sb in inner.items():
                for (ea, wa), row in powers.items():
                    while len(row) <= eb:
                        row.append({})
                        ctx._derive(row[-1], row[-2], -1, 1)
                    for k in range(eb + 1):
                        if row[k]:
                            target = out.setdefault((eb - k + ea, wb + wa), {})
                            c = sign * comb(eb, k)
                            for m, v in sb.items():
                                into(target, m, row[k], c * v)

        return apply

    rows = range(1, p.n + 1)
    return [[entry(i, j) for j in reversed(rows)] for i in rows]


def cdet_tau(p: Pyramid, keep: Optional[Callable] = None) -> Dict[object, Element]:
    """Column determinant in the skew ring, as tau power -> coefficient;
    the result is monic of degree N in tau and its lower coefficients are
    the phi-circle elements of the alternative presentation.  The tau
    matrix has its columns reversed, which multiplies the column
    recursion's signs by that of the reversal, (-1)^(n(n-1)/2): the
    unit carries it.

    With ``keep`` (as in :func:`column_determinant`) the result is
    pruned and keyed by (tau power, weight), as the recursion builds it.
    Without, the weight buckets of each power are merged: a word has one
    weight, so they hold disjoint words and merging adds nothing."""
    ctx = get_context(p, "affine")
    sign = -1 if p.n * (p.n - 1) // 2 % 2 else 1
    det = column_determinant(build_tau_matrix(p), {(0, 0): {(): sign}}, keep)
    if keep is None:
        merged: Dict[object, dict] = {}
        for (e, _), t in det.items():
            merged.setdefault(e, {}).update(t)
        det = merged
    return {k: Element.wrap(ctx, t) for k, t in det.items()}
