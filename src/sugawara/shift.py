"""Shift-of-argument subalgebras and the center of the enveloping algebra.

The evaluation homomorphism sends a loop generator to

    X[r]  |->  X z^r + delta_{r,-1} chi(X),        r < 0,

for a linear functional chi on the centralizer.  Applied to a
Segal-Sugawara vector of degree k it produces a Laurent polynomial in
z^{-1} whose coefficients generate the quantum shift-of-argument
subalgebra; at chi = 0 that subalgebra is the center of the enveloping
algebra, and the center generators are also produced directly from a
column determinant with shifted diagonal.

The symbols of the vectors, their top words read as commutative
monomials in the symmetric algebra, give an exact-rank Jacobian
surrogate for algebraic independence; all linear algebra is
fraction-exact, no floating point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .detcalc import UX, ux_determinant, ux_matrix
from .pbw import Element, LoopGen, Monomial, _axpy, get_context
from .pbw import _coeff_str, exact
from .pyramid import GenId, Pyramid
from .suga import selected_pairs, ux_keep

Chi = Dict[GenId, Fraction]


def check_chi(p: Pyramid, chi: Chi) -> Chi:
    for g in chi:
        p.check(g)
    return chi


def chi_from_obj(p: Pyramid, obj: Dict[str, str]) -> Chi:
    """Parse chi from JSON through :func:`~sugawara.pbw.exact`: values are
    strings or integers, and integral ones are kept as int."""
    if not isinstance(obj, dict):
        raise ValueError("chi must be a JSON object mapping E[i,j,r] to a value")
    chi = {}
    for k, v in obj.items():
        g = GenId.parse(k)
        # two spellings of one symbol, such as E[1,1,0] and E[1,1,00]
        if g in chi:
            raise ValueError(f"chi gives a value for {g.text()} twice (key {k!r})")
        try:
            chi[g] = exact(v)
        except ValueError as exc:
            raise ValueError(f"chi value for {k}: {exc}") from None
    # every symbol is checked, a zero value's too
    return {g: c for g, c in check_chi(p, chi).items() if c}


def chi_to_obj(chi: Chi) -> Dict[str, str]:
    return {g.text(): _coeff_str(c) for g, c in sorted(chi.items())}


def random_point(p: Pyramid, seed: int) -> Dict[GenId, int]:
    """Seeded integers in -2^20..2^20 on every basis symbol: a Jacobian
    minor that is not identically zero vanishes at such a point with
    probability at most its degree over 2^21 + 1 (Schwartz-Zippel), where
    values in -3..3 left minors of 2,2,2,2 and 1,2 zero at some seeds."""
    rng = random.Random(seed)
    return {g: rng.randint(-(1 << 20), 1 << 20) for g in p.basis()}


def _drop_constants(
    m: Monomial, const: Callable[[LoopGen], Fraction]
) -> Iterator[Tuple[Monomial, Fraction]]:
    """Expand a word in which every letter g with const(g) nonzero either
    stays or becomes that constant: yields (kept subword, product of the
    dropped constants) once per subset of such letters."""
    if not m:
        yield (), 1
        return
    g = m[-1]
    k = const(g)
    for word, c in _drop_constants(m[:-1], const):
        yield word + (g,), c
        if k:
            yield word, c * k


def rho_chi(v: Element, chi: Chi) -> Dict[int, Element]:
    """Evaluation homomorphism into the enveloping algebra with a formal
    z-grading: returns the Laurent polynomial in z as a map z exponent ->
    nonzero finite-mode element.

    Each depth -1 factor may either stay (contributing X z^{-1}) or be
    replaced by the constant chi(X); deeper factors only stay.
    """
    p = v.ctx.pyramid
    if v.ctx.mode != "affine":
        raise ValueError("the evaluation homomorphism consumes vacuum-module states")
    check_chi(p, chi)
    fin = get_context(p, "finite")
    def const(g: LoopGen) -> Fraction:
        return chi.get(g.gen, 0) if g.depth == -1 else 0

    pieces: Dict[int, list] = {}
    for m, c in v.terms.items():
        for word, k in _drop_constants(m, const):
            zexp = sum(g.depth for g in word)
            word = [LoopGen(0, g.i, g.j, g.r) for g in word]
            pieces.setdefault(zexp, []).append((word, c * k))
    return {e: elem for e, words in pieces.items() if (elem := fin.combine(words))}


def zseries_eval(p: Pyramid, series: Dict[int, Element], z: Fraction) -> Element:
    if not z:
        raise ValueError("z must be nonzero")
    out: dict = {}
    for e, elem in series.items():
        _axpy(out, elem.terms, Fraction(z) ** e)
    return Element(get_context(p, "finite"), out)


class AChiGen(NamedTuple):
    """One shift-of-argument generator: z^{m-k} coefficient of the image
    of the selected vector phi_k^(r)."""

    k: int
    r: int
    m: int
    element: Element


def a_chi_generators(
    p: Pyramid,
    vectors: List[Tuple[int, int, Element]],
    chi: Chi,
    series: Optional[List[Dict[int, Element]]] = None,
) -> List[AChiGen]:
    """Generators of the shift-of-argument subalgebra: the components
    m = 0..k-1 of the image of each selected vector (k, r, phi_k^(r)).
    The m = k component (the constant term of the expansion) is exposed
    through :func:`rho_chi` but is not part of the generating family.
    ``series`` holds each vector's :func:`rho_chi` image when the caller
    reads it too; it is computed here if not given."""
    if series is None:
        series = [rho_chi(elem, chi) for _, _, elem in vectors]
    zero = get_context(p, "finite").zero()
    return [
        AChiGen(k, r, m, image.get(m - k, zero))
        for (k, r, _), image in zip(vectors, series)
        for m in range(k)
    ]


# -- center generators from the shifted determinant


def center_determinant(
    p: Pyramid, keep: Optional[Callable] = None
) -> Dict[UX, Element]:
    """Finite-mode determinant with entries
    delta_ij (x + (n-i) lambda_i) + sum_r E[i,j,r] u^r; ``keep`` as in
    :func:`~sugawara.detcalc.column_determinant`."""
    fin = get_context(p, "finite")
    matrix = ux_matrix(
        p, fin, 0, lambda i, out, s, c: _axpy(out, s, c * (p.n - i) * p.lambdas[i - 1])
    )
    return ux_determinant(matrix, fin, keep)


def center_generators(p: Pyramid) -> List[Tuple[int, int, Element]]:
    """The N central elements of the enveloping algebra as (k, r, x^{n-k}
    u^r coefficient) of the shifted determinant at the selected indices,
    the only ones its recursion builds: the shape of the selected vectors."""
    d = center_determinant(p, ux_keep(p))
    zero = get_context(p, "finite").zero()
    return [(k, r, d.get((r, p.n - k), zero)) for k, r in selected_pairs(p)]


def apply_automorphism(p: Pyramid, v: Element, c: Fraction) -> Element:
    """Substitution E[i,j,r] -> E[i,j,r] + delta_{r,0} delta_{ij} c lambda_i,
    extended multiplicatively.

    Scalars commute, so dropping factors of a normal-ordered word keeps
    the remaining subword normal-ordered and no rewriting is needed.
    """
    fin = get_context(p, "finite")
    if v.ctx.key != fin.key:
        raise ValueError("the automorphism acts on finite-mode elements")
    if not c:
        return v

    def const(g: LoopGen) -> Fraction:
        return c * p.lambdas[g.i - 1] if g.i == g.j and g.r == 0 else 0

    return fin.combine(
        (word, coeff * k)
        for m, coeff in v.terms.items()
        for word, k in _drop_constants(m, const)
    )


# -- commutative symbols and the exact-rank independence surrogate


Symbol = Dict[Tuple[GenId, ...], Fraction]


def symbols(vectors: List[Tuple[int, int, Element]]) -> Dict[Tuple[int, int], Symbol]:
    """The symbols that :func:`jacobian_rank` reads: the k-letter words
    of each selected phi_k^(r), each read as a commutative monomial, the
    sorted tuple of its letters' GenIds.  Such a word takes one depth -1
    letter from each of k distinct rows, so a symbol is multilinear."""
    gens: Dict[LoopGen, GenId] = {}
    out = {}
    for k, r, elem in vectors:
        poly = {}
        for m, c in elem.terms.items():
            if len(m) == k:
                for g in m:
                    if g not in gens:
                        gens[g] = g.gen
                poly[tuple([gens[g] for g in m])] = c
        if poly:
            out[(k, r)] = poly
    return out


def _gradient(poly: Symbol, point: Dict[GenId, Fraction]) -> Dict[GenId, Fraction]:
    """The partial derivatives of poly at the point: in a letter of a
    monomial, the product of its other letters' values.  A symbol absent
    from the result has derivative 0."""
    grad: Dict[GenId, Fraction] = {}
    for m, c in poly.items():
        values = [point.get(g, 0) for g in m]
        for i, g in enumerate(m):
            grad[g] = grad.get(g, 0) + prod(values[:i] + values[i + 1 :], start=c)
    return grad


def _rank(rows: List[List[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((t for t in range(rank, len(rows)) if rows[t][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for t in range(rank + 1, len(rows)):
            if rows[t][col]:
                scale = Fraction(rows[t][col], lead)
                rows[t] = [a - scale * b for a, b in zip(rows[t], rows[rank])]
        rank += 1
        col += 1
    return rank


def jacobian_rank(
    p: Pyramid,
    sym: Dict[Tuple[int, int], Symbol],
    point: Dict[GenId, Fraction],
) -> int:
    """Exact rank of the (selected symbols) x (basis) matrix of partial
    derivatives evaluated at the point."""
    basis = p.basis()
    rows = []
    for k, r in selected_pairs(p):
        grad = _gradient(sym.get((k, r), {}), point)
        rows.append([grad.get(g, 0) for g in basis])
    return _rank(rows)
