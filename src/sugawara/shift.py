"""Shift-of-argument subalgebras and the center of the enveloping algebra.

The evaluation homomorphism sends a loop generator to

    X[r]  |->  X z^r + delta_{r,-1} chi(X),        r < 0,

for a linear functional chi on the centralizer.  Applied to a
Segal-Sugawara vector of degree k it produces a Laurent polynomial in
z^{-1} whose coefficients generate the quantum shift-of-argument
subalgebra; at chi = 0 that subalgebra is the center of the enveloping
algebra, and the center generators are also produced directly from a
column determinant with shifted diagonal.

The commutative shadows of the same determinant (symbols in the
symmetric algebra) give an exact-rank Jacobian surrogate for algebraic
independence; all linear algebra is fraction-exact, no floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .detcalc import Sparse, UXElem, apply_entry, column_determinant, ux_matrix
from .pbw import Element, LoopGen, get_context
from .pyramid import GenId, Pyramid
from .suga import phi_table, selected_pairs

Chi = Dict[GenId, Fraction]
ZSeries = Dict[int, Element]


def check_chi(p: Pyramid, chi: Chi) -> Chi:
    for g in chi:
        p.check(g)
    return chi


def chi_from_obj(p: Pyramid, obj: Dict[str, str]) -> Chi:
    """Parse chi from JSON.  Values must be strings or integers: a JSON
    float has already lost exactness (0.1 is not 1/10), so it is refused."""
    if not isinstance(obj, dict):
        raise ValueError("chi must be a JSON object mapping E[i,j,r] to a value")
    chi = {}
    for k, v in obj.items():
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise ValueError(f"chi value {v!r} for {k} must be a string or an integer")
        chi[GenId.parse(k)] = Fraction(v)
    return check_chi(p, {g: c for g, c in chi.items() if c})


def chi_to_obj(chi: Chi) -> Dict[str, str]:
    return {g.text(): str(Fraction(c)) for g, c in sorted(chi.items())}


def random_chi(p: Pyramid, seed: int, lo: int = -3, hi: int = 3) -> Chi:
    rng = random.Random(seed)
    chi = {g: Fraction(rng.randint(lo, hi)) for g in p.basis()}
    return {g: c for g, c in chi.items() if c}


def random_point(p: Pyramid, seed: int, lo: int = -3, hi: int = 3) -> Dict[GenId, Fraction]:
    rng = random.Random(seed)
    return {g: Fraction(rng.randint(lo, hi)) for g in p.basis()}


def rho_chi(v: Element, chi: Chi) -> ZSeries:
    """Evaluation homomorphism into the enveloping algebra with a formal
    z-grading: returns a map z-exponent -> finite-mode element.

    Each depth -1 factor may either stay (contributing X z^{-1}) or be
    replaced by the constant chi(X); deeper factors only stay.
    """
    p = v.ctx.pyramid
    if v.ctx.mode != "affine":
        raise ValueError("the evaluation homomorphism consumes vacuum-module states")
    check_chi(p, chi)
    fin = get_context(p, "finite")
    out: Dict[int, Element] = {}
    for m, c in v.terms.items():
        slots = [idx for idx, g in enumerate(m) if g.depth == -1 and chi.get(g.gen)]
        for mask in range(1 << len(slots)):
            coeff = c
            dropped = set()
            for t, idx in enumerate(slots):
                if mask >> t & 1:
                    dropped.add(idx)
                    coeff *= chi[m[idx].gen]
            word = [
                LoopGen(0, g.i, g.j, g.r)
                for idx, g in enumerate(m)
                if idx not in dropped
            ]
            zexp = sum(m[idx].depth for idx in range(len(m)) if idx not in dropped)
            piece = fin.word(word, coeff)
            cur = out.get(zexp)
            out[zexp] = piece if cur is None else cur + piece
    return {e: elem for e, elem in out.items() if not elem.is_zero()}


def zseries_mul(a: ZSeries, b: ZSeries) -> ZSeries:
    out: Dict[int, Element] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            piece = ca * cb
            if piece.is_zero():
                continue
            e = ea + eb
            cur = out.get(e)
            out[e] = piece if cur is None else cur + piece
    return {e: c for e, c in out.items() if not c.is_zero()}


def zseries_eval(p: Pyramid, series: ZSeries, z: Fraction) -> Element:
    if not z:
        raise ValueError("z must be nonzero")
    fin = get_context(p, "finite")
    total = fin.zero()
    for e, elem in series.items():
        total = total + Fraction(z) ** e * elem
    return total


@dataclass(frozen=True)
class AChiGen:
    """One shift-of-argument generator: z^{m-k} coefficient of the image
    of the selected vector phi_k^(r)."""

    k: int
    r: int
    m: int
    element: Element


def a_chi_generators(p: Pyramid, chi: Chi) -> List[AChiGen]:
    """Generators of the shift-of-argument subalgebra: the components
    m = 0..k-1 of the image of each selected vector.  The m = k
    component (the constant term of the expansion) is exposed through
    :func:`rho_chi` but is not part of the generating family."""
    table = phi_table(p)
    fin = get_context(p, "finite")
    out: List[AChiGen] = []
    for k, r, elem in table.selected_entries():
        series = rho_chi(elem, chi)
        for m in range(k):
            out.append(AChiGen(k, r, m, series.get(m - k, fin.zero())))
    return out


# -- center generators from the shifted determinant


@lru_cache(maxsize=None)
def center_determinant(p: Pyramid) -> UXElem:
    """Finite-mode determinant with entries
    delta_ij (x + (n-i) lambda_i) + sum_r E[i,j,r] u^r."""
    fin = get_context(p, "finite")
    matrix = ux_matrix(
        p, fin.gen, const=lambda i: fin.scalar((p.n - i) * p.lambdas[i - 1])
    )
    return column_determinant(matrix, UXElem({(0, 0): fin.one()}), apply_entry)


def center_generators(p: Pyramid) -> List[Tuple[int, int, Element]]:
    """The N central elements of the enveloping algebra: x^{n-k} u^r
    coefficients of the shifted determinant at the selected indices."""
    d = center_determinant(p)
    fin = get_context(p, "finite")
    return [
        (k, r, d.coeff(r, p.n - k, fin.zero())) for k, r in selected_pairs(p)
    ]


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
    out: Dict[tuple, Fraction] = {}
    for m, coeff in v.terms.items():
        slots = [
            idx
            for idx, g in enumerate(m)
            if g.i == g.j and g.r == 0
        ]
        for mask in range(1 << len(slots)):
            factor = coeff
            dropped = set()
            for t, idx in enumerate(slots):
                if mask >> t & 1:
                    dropped.add(idx)
                    factor *= c * p.lambdas[m[idx].i - 1]
            word = tuple(g for idx, g in enumerate(m) if idx not in dropped)
            cur = out.get(word, 0) + factor
            if cur:
                out[word] = cur
            elif word in out:
                del out[word]
    return Element(fin, out)


# -- commutative symbols and the exact-rank independence surrogate


class SymPoly(Sparse):
    """Sparse commutative polynomial in the basis symbols, with exact
    rational coefficients; monomials are sorted (GenId, exponent) tuples."""

    __slots__ = ()

    @classmethod
    def const(cls, c) -> "SymPoly":
        return cls({(): c})

    @classmethod
    def var(cls, g: GenId) -> "SymPoly":
        return cls({((g, 1),): 1})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        out: Dict[tuple, Fraction] = {}
        for ma, ca in self.terms.items():
            da = dict(ma)
            for mb, cb in other.terms.items():
                exps = dict(da)
                for g, e in mb:
                    exps[g] = exps.get(g, 0) + e
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, 0) + ca * cb
        return SymPoly(out)

    def diff(self, g: GenId) -> "SymPoly":
        out: Dict[tuple, Fraction] = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(g, 0)
            if not e:
                continue
            if e == 1:
                del exps[g]
            else:
                exps[g] = e - 1
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + e * c
        return SymPoly(out)

    def evaluate(self, point: Dict[GenId, Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for g, e in m:
                val *= Fraction(point.get(g, 0)) ** e
            total += val
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "<SymPoly 0>"
        bits = []
        for m, c in sorted(self.terms.items()):
            word = " ".join(
                g.text() + (f"^{e}" if e > 1 else "") for g, e in m
            )
            bits.append(f"{Fraction(c)} {word}".strip())
        return "<SymPoly " + " + ".join(bits) + ">"


@lru_cache(maxsize=None)
def symbols(p: Pyramid) -> Dict[Tuple[int, int], SymPoly]:
    """All nonzero x^{n-k} u^r coefficients of the commutative
    determinant with entries in the symmetric algebra."""
    matrix = ux_matrix(p, lambda i, j, r: SymPoly.var(GenId(i, j, r)))
    d = column_determinant(matrix, UXElem({(0, 0): SymPoly.const(1)}), apply_entry)
    out: Dict[Tuple[int, int], SymPoly] = {}
    for k in range(1, p.n + 1):
        for r, poly in d.x_coefficient(p.n - k).items():
            if poly:
                out[(k, r)] = poly
    return out


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
                scale = rows[t][col] / lead
                rows[t] = [a - scale * b for a, b in zip(rows[t], rows[rank])]
        rank += 1
        col += 1
    return rank


def jacobian_rank(
    p: Pyramid,
    sym: Dict[Tuple[int, int], SymPoly],
    point: Dict[GenId, Fraction],
) -> int:
    """Exact rank of the (selected symbols) x (basis) matrix of partial
    derivatives evaluated at the point."""
    basis = p.basis()
    rows = []
    for k, r in selected_pairs(p):
        poly = sym.get((k, r), SymPoly.const(0))
        rows.append([poly.diff(g).evaluate(point) for g in basis])
    return _rank(rows)
