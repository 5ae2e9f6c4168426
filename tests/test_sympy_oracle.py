"""sympy as an independent oracle for the symbols and the exact Jacobian
rank (sympy is a test-only dependency).

The package reads the symbols off the selected vectors it has built:
the k-letter words of phi_k^(r), as commutative monomials.  Here the
k-letter words of every coefficient of the full vector table are
compared with sympy's determinant of the commutative matrix, which
shares nothing with the vector table, the package's symbols with the
selected ones among them, and the Jacobian rank with sympy's rank of
its Jacobian, at full-rank and at degenerate points."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from sugawara.pyramid import GenId, Pyramid
from sugawara.shift import jacobian_rank, random_point, symbols
from sugawara.suga import selected_pairs, selected_vectors

from oracles import vector_symbols

PYRAMIDS = [
    (1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3),
    (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 2, 3),
]
x, u = sympy.symbols("x u")


def rational(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


@lru_cache(maxsize=None)
def sympy_det(p: Pyramid):
    """Variables per basis symbol, and det(delta_ij x + sum_r E[i,j,r] u^r)
    as a polynomial in x and u."""
    var = {g: sympy.Symbol(g.text()) for g in p.basis()}

    def entry(i, j):
        off = sum(var[GenId(i + 1, j + 1, r)] * u**r for r in p.window(i + 1, j + 1))
        return off + (x if i == j else 0)

    det = sympy.Matrix(p.n, p.n, entry).det(method="berkowitz")
    return var, sympy.Poly(det, x, u)


@pytest.mark.parametrize("lam", PYRAMIDS, ids=lambda lam: ",".join(map(str, lam)))
def test_symbols_match_sympy_determinant(lam):
    p = Pyramid(lam)
    var, det = sympy_det(p)
    got = {(p.n - ex, eu): c for (ex, eu), c in det.terms()}
    want = {(0, 0): sympy.Integer(1)}
    full = vector_symbols(p)
    chosen = set(selected_pairs(p))
    picked = {key: poly for key, poly in full.items() if key in chosen}
    assert symbols(selected_vectors(p)) == picked
    for key, poly in full.items():
        # multilinear: a monomial holds each symbol at most once
        assert all(len(set(m)) == len(m) for m in poly)
        want[key] = sum(
            rational(c) * sympy.Mul(*(var[g] for g in m)) for m, c in poly.items()
        )
    assert got.keys() == want.keys()
    for key in want:
        assert sympy.expand(got[key] - want[key]) == 0, key


@pytest.mark.parametrize("lam", PYRAMIDS, ids=lambda lam: ",".join(map(str, lam)))
def test_jacobian_rank_matches_sympy(lam):
    p = Pyramid(lam)
    var, det = sympy_det(p)
    basis = p.basis()
    rows = [det.coeff_monomial(x ** (p.n - k) * u**r) for k, r in selected_pairs(p)]
    jac = sympy.Matrix(rows).jacobian([var[g] for g in basis])
    sym = symbols(selected_vectors(p))
    # seeded points, where the rank is full, and degenerate ones, where
    # it drops: zero, all ones, and sparse seeded points
    rng = random.Random(5)
    points = [random_point(p, 1), random_point(p, 2), {}, dict.fromkeys(basis, 1)]
    points += [
        {g: Fraction(rng.randint(-1, 1)) for g in basis if rng.random() < 0.3}
        for _ in range(3)
    ]
    ranks = set()
    for point in points:
        at = jac.xreplace({var[g]: rational(point.get(g, 0)) for g in basis})
        rank = jacobian_rank(p, sym, point)
        assert rank == at.rank()
        ranks.add(rank)
    assert p.big_n in ranks
    assert len(ranks) > 1 or p.n == 1
