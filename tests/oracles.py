"""Test-side oracles: reference implementations, closed forms and the
paper's corollaries.

Nothing in the package calls these.  Each computes its answer another
way than the code it checks: the bracket through the embedding into
gl_N, the column determinant as a straight permutation sum, the skew
tau product one step of tau at a time, the commutator as two full
products, the small shapes from their closed forms, the all-ones tower
from the ladder constants, and the top-letter parts of the generators
from the commutative symbols.  The package returns its u, x, tau and z
polynomials and its commutative symbols as plain dicts, with no
arithmetic of their own; the sums, products and derivatives of them that
tests need go term by term here.

The corollaries are read on top-letter parts.  A degree-k vector of the
vacuum module has no word longer than k letters, and the words with
exactly k letters, each letter read as a commuting variable, form the
symbol of the vector.  The images in the enveloping algebra are read
the same way.  In both cases distinct normal-ordered top words read to
distinct monomials, so two elements have the same top part exactly when
their difference has only shorter words.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from math import factorial

from sugawara.pbw import (
    Element,
    _axpy,
    delta,
    get_context,
    translation_T,
)
from sugawara.pyramid import GenId, Pyramid, bracket
from sugawara.reports import Report
from sugawara.shift import a_chi_generators, center_generators, random_point, symbols
from sugawara.suga import (
    ladder_coefficient,
    phi_table,
    selected_pairs,
    selected_vectors,
    selection_bounds,
)


# -- small helpers shared by several test modules


def gen_or_zero(ctx, i, j, r, depth=0):
    """``ctx.gen(i, j, r, depth)``, with out-of-window shifts read as zero."""
    if not ctx.pyramid.contains(GenId(i, j, r)):
        return ctx.zero()
    return ctx.gen(i, j, r, depth)


def failures(report):
    """The failing cases of a report, for assertion messages."""
    return [c for c in report.cases if c["status"] == "fail"]


def monomial_weight(m):
    """The weight of a word: the sum of its letters' shifts r."""
    return sum(g.r for g in m)


def weight_component(v, w):
    """The part of v made of words of weight w."""
    return Element(v.ctx, {m: c for m, c in v.terms.items() if monomial_weight(m) == w})


def monomial_degree(m):
    return -sum(g.depth for g in m)


def random_chi(p, seed):
    """A seeded functional: the nonzero values of ``random_point``."""
    return {g: c for g, c in random_point(p, seed).items() if c}


# -- polynomials in commuting variables as key -> coefficient dicts


def _add(out, k, c):
    """out[k] += c, for coefficients that have no sum with 0."""
    out[k] = out[k] + c if k in out else c


def nonzero(poly):
    return {k: c for k, c in poly.items() if c}


def poly_sum(*polys):
    """The sum of key -> coefficient dicts, keys whose sum cancels dropped."""
    out = {}
    for poly in polys:
        for k, c in poly.items():
            _add(out, k, c)
    return nonzero(out)


def poly_product(a, b, join=operator.add):
    """The product of key -> coefficient dicts whose keys multiply by
    ``join``: every pair of terms adds ca * cb at join(ka, kb), and keys
    whose sum cancels are dropped at the end.  With the default join, a
    product of Laurent polynomials in z keyed by exponent."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _add(out, join(ka, kb), ca * cb)
    return nonzero(out)


def ux_join(a, b):
    """The product of monomials u^a[0] x^a[1] and u^b[0] x^b[1]."""
    return (a[0] + b[0], a[1] + b[1])


def monomial_join(a, b):
    """The product of commutative monomials in the basis symbols, sorted
    tuples of GenIds, a symbol repeated once per power."""
    return tuple(sorted(a + b))


def poly_diff(poly, g):
    """d/dg of a multilinear polynomial keyed by such monomials: the
    monomials that hold g once, with g taken out, stay distinct."""
    out = {}
    for m, c in poly.items():
        if g in m:
            assert m.count(g) == 1, m
            out[tuple(x for x in m if x != g)] = c
    return out


# -- the embedding into gl_N


def gln_expand(p, g):
    """E[i,j,r] as a combination of elementary matrices e_ab of gl_N,
    with the boxes numbered 1..N row by row: the sum of e_ab over box a
    in row i and box b in row j, column(b) - column(a) = r, returned as
    {(a, b): 1}."""
    p.check(g)
    before = [0, *itertools.accumulate(p.lambdas)]  # boxes above each row
    li, lj = p.lambdas[g.i - 1], p.lambdas[g.j - 1]
    return {
        (before[g.i - 1] + c, before[g.j - 1] + c + g.r): 1
        for c in range(max(1, 1 - g.r), min(li, lj - g.r) + 1)
    }


def gl_commutator(x, y):
    # [e_ab, e_cd] = delta_cb e_ad - delta_ad e_cb, extended bilinearly
    out = {}
    for (a, b), cx in x.items():
        for (c, d), cy in y.items():
            if c == b:
                out[(a, d)] = out.get((a, d), 0) + cx * cy
            if a == d:
                out[(c, b)] = out.get((c, b), 0) - cx * cy
    return {k: v for k, v in out.items() if v}


def expand_combo(p, combo):
    """A combination of basis symbols as a gl_N matrix {(a, b): coeff}."""
    out = {}
    for g, c in combo.items():
        for k, v in gln_expand(p, g).items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def combo_add(x, y, s=1):
    out = dict(x)
    for g, c in y.items():
        out[g] = out.get(g, 0) + s * c
    return {g: c for g, c in out.items() if c}


def bracket_combo(p, combo, b):
    out = {}
    for g, c in combo.items():
        out = combo_add(out, bracket(p, g, b), c)
    return out


# -- the column determinant as a permutation sum


def column_determinant_bruteforce(matrix, unit):
    """Sum over sigma of sgn(sigma) times the composition of entries,
    rightmost column applied first.  A determinant is a map key -> terms
    as in ``column_determinant``; each entry adds its image of the
    composition so far into a fresh map."""
    n = len(matrix)
    out: dict = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        v = unit
        for col in reversed(range(n)):
            image: dict = {}
            matrix[perm[col]][col](image, v, 1)
            v = image
        for k, terms in v.items():
            _axpy(out.setdefault(k, {}), terms, sign)
    return {k: terms for k, terms in out.items() if terms}


# -- the skew tau product, one step of tau at a time


def tau_step(terms):
    """tau * sum_b B_b tau^b, by tau (B tau^b) = B tau^(b+1) + T(B) tau^b."""
    out: dict = {}
    for b, cb in terms.items():
        _add(out, b + 1, cb)
        _add(out, b, translation_T(cb))
    return out


def naive_tau_product(left, inner):
    """(sum_a A_a tau^a) * inner for tau power -> coefficient maps: each
    tau^a moves right through ``inner`` one step at a time, with no
    binomial sum."""
    out: dict = {}
    for a, ca in left.items():
        moved = inner
        for _ in range(a):
            moved = tau_step(moved)
        for b, cb in moved.items():
            _add(out, b, ca * cb)
    return nonzero(out)


def naive_tau_product_right(inner, right):
    """inner * (sum_a A_a tau^a) for tau power -> coefficient maps: each
    tau^b of ``inner`` moves right through A_a tau^a one step at a time,
    with no binomial sum."""
    out: dict = {}
    for b, cb in inner.items():
        for a, ca in right.items():
            moved = {a: ca}
            for _ in range(b):
                moved = tau_step(moved)
            for e, ce in moved.items():
                _add(out, e, cb * ce)
    return nonzero(out)


def naive_tau_matrix(p, right=False):
    """The tau matrix, entries delta_ij tau^{lambda_j} + sum_r E[i,j,r][-1]
    tau^(lambda_j-1-r), each applied through the naive product.  With
    ``right``, as ``build_tau_matrix`` lays it out: the columns reversed
    and each entry multiplying its argument on the right."""
    ctx = get_context(p, "affine")

    def adder(product):
        # the calling convention of column_determinant around a product
        # of tau polynomials: out += sign * product(inner)
        def add(out, inner, sign):
            got = product({e: Element(ctx, t) for e, t in inner.items()})
            for e, c in got.items():
                _axpy(out.setdefault(e, {}), c.terms, sign)

        return add

    def entry(i, j):
        lj = p.lambdas[j - 1]
        terms = {lj - 1 - r: ctx.gen(i, j, r, depth=-1) for r in p.window(i, j)}
        if i == j:
            terms[lj] = ctx.one()
        if right:
            return adder(lambda inner: naive_tau_product_right(inner, terms))
        return adder(lambda inner: naive_tau_product(terms, inner))

    rows = range(1, p.n + 1)
    cols = rows[::-1] if right else rows
    return [[entry(i, j) for j in cols] for i in rows]


# -- the commutator as two full products


def two_product_commutator(ctx, a, b):
    """[a, b] = a*b - b*a, with both products built in full."""
    return ctx.mul(a, b) - ctx.mul(b, a)


# -- the grading derivation and the all-ones tower


def degree_d(v):
    """Grading derivation with [d, X[r]] = r X[r]."""
    return Element(v.ctx, {m: sum(g.depth for g in m) * c for m, c in v.terms.items()})


def gln_delta_tower(n):
    """All-ones pyramid: the chain Delta^k phi_n^(0), k = 0..n, and a
    report comparing each step with phi_{n-k}^(0) times the product of
    the ladder coefficients so far (and Delta^n phi_n^(0) with zero)."""
    p = Pyramid((1,) * n)
    table = phi_table(p)
    report = Report("delta-tower", str(p))
    powers = [table.entries[n, 0]]
    coeff = 1
    for k in range(1, n + 1):
        powers.append(delta(powers[-1]))
        if k < n:
            coeff *= ladder_coefficient(p, n - k + 1)
            diff = powers[-1] - coeff * table.entries[n - k, 0]
        else:
            diff = powers[-1]
        report.add({"k": k, "expect": "zero" if k == n else "multiple"}, diff)
    return powers, report


# -- selection bookkeeping


def pair_for_total(p, total):
    """The unique selected (k, r) with r + k = total; totals 1..N
    partition into the per-k windows."""
    for k in range(1, p.n + 1):
        lo, hi = selection_bounds(p, k)
        if lo + k <= total <= hi + k:
            return k, total - k
    raise ValueError(f"total degree {total} outside 1..{p.big_n}")


def per_level_counts(p):
    return dict(Counter(k for k, _ in selected_pairs(p)))


def homogeneity_ok(vectors):
    """Every selected vector is homogeneous of degree k and weight r."""
    for k, r, elem in vectors:
        for m in elem.terms:
            if monomial_degree(m) != k or monomial_weight(m) != r:
                return False
    return True


# -- closed forms for small shapes


def phi_2_formula_check(p):
    """Two-row pyramids: the table must match the closed forms

    phi_1^(r) = E[1,1,r][-1] + E[2,2,r][-1]
    phi_2^(r) = sum_{a+b=r} (E[1,1,a][-1] E[2,2,b][-1] - E[2,1,a][-1] E[1,2,b][-1])
                + lambda_1 E[2,2,r][-2]

    with out-of-window symbols read as zero.
    """
    if p.n != 2:
        raise ValueError("closed form is for two-row pyramids")
    ctx = get_context(p, "affine")
    table = phi_table(p)
    l1, l2 = p.lambdas

    def e(i, j, r, depth=-1):
        return gen_or_zero(ctx, i, j, r, depth)

    ok = True
    for r in range(0, l2):
        ok = ok and table.entries[1, r] == e(1, 1, r) + e(2, 2, r)
    for r in range(l2 - 1, l1 + l2 - 1):
        expected = l1 * e(2, 2, r, depth=-2)
        for a in range(0, r + 1):
            b = r - a
            expected = expected + (
                e(1, 1, a) * e(2, 2, b) - e(2, 1, a) * e(1, 2, b)
            )
        ok = ok and table.entries[2, r] == expected
    return ok


def minimal_nilpotent_check(n):
    """Rows (1, ..., 1, 2): check phi_1^(0), phi_1^(1) and

    phi_2^(1) = sum_{i<n} (E[i,i,0][-1] E[n,n,1][-1] - E[n,i,0][-1] E[i,n,1][-1])
                + (n-1) E[n,n,1][-2].
    """
    if n < 2:
        raise ValueError("minimal nilpotent shape needs at least two rows")
    p = Pyramid((1,) * (n - 1) + (2,))
    ctx = get_context(p, "affine")
    table = phi_table(p)
    trace = ctx.zero()
    for i in range(1, n + 1):
        trace = trace + ctx.gen(i, i, 0, depth=-1)
    ok = table.entries[1, 0] == trace
    ok = ok and table.entries[1, 1] == ctx.gen(n, n, 1, depth=-1)
    expected = (n - 1) * ctx.gen(n, n, 1, depth=-2)
    for i in range(1, n):
        expected = expected + (
            ctx.gen(i, i, 0, depth=-1) * ctx.gen(n, n, 1, depth=-1)
            - ctx.gen(n, i, 0, depth=-1) * ctx.gen(i, n, 1, depth=-1)
        )
    ok = ok and table.entries[2, 1] == expected
    return ok


# -- the paper's corollaries, read on top-letter parts


def top_part(elem, length):
    """The words of ``elem`` with ``length`` letters, each letter read as
    the commuting symbol of its basis element; None when a longer word
    is present."""
    if any(len(m) > length for m in elem.terms):
        return None
    out: dict = {}
    for m, c in elem.terms.items():
        if len(m) == length:
            key = tuple(sorted(g.gen for g in m))
            _axpy(out, {key: c}, 1)
    return out


def vector_symbols(p):
    """The top part of every phi_k^(r) of the full table, selected or
    not, keyed (k, r): the symbols of the coefficients ``vectors`` shows."""
    out = {}
    for (k, r), elem in phi_table(p).entries.items():
        top = top_part(elem, k)
        assert top is not None, (k, r)
        if top:
            out[(k, r)] = top
    return out


def symbol_cases(p):
    """Oracle (a): the top part of the center generator Phi_k^(r) is the
    symbol of (k, r), the top part of phi_k^(r).  Maps each case to
    (want, got)."""
    sym = symbols(selected_vectors(p))
    gens = center_generators(p)
    return {(k, r): (sym[(k, r)], top_part(elem, k)) for k, r, elem in gens}


def brown_brundan_cases(p):
    """Oracle (b): at chi = 0 the m = 0 image of phi_k^(r) commutes with
    every basis generator, and it differs from Phi_k^(r) only in words of
    fewer than k letters.  Maps each (k, r) to whether both hold."""
    fin = get_context(p, "finite")
    basis = [fin.gen(*g) for g in p.basis()]
    center = {(k, r): elem for k, r, elem in center_generators(p)}
    cases = {}
    for g in a_chi_generators(p, selected_vectors(p), {}):
        if g.m:
            continue
        central = all(v.is_zero() for v in fin.commutators(g.element, basis))
        rest = g.element - center[(g.k, g.r)]
        cases[(g.k, g.r)] = central and all(len(m) < g.k for m in rest.terms)
    return cases


def shift_limit_cases(p, chi):
    """Oracle (c), the Mishchenko-Fomenko limit: the (k-m)-letter part of
    the m-th shift-of-argument generator of (k, r) is
    (1/m!) (sum_g chi(g) d/dg)^m applied to the symbol of (k, r), and no
    longer word appears.  Maps each (k, r, m) to (want, got)."""
    vectors = selected_vectors(p)
    sym = symbols(vectors)
    cases = {}
    for g in a_chi_generators(p, vectors, chi):
        want = sym[(g.k, g.r)]
        for _ in range(g.m):
            want = poly_sum(
                *({m: c * v for m, v in poly_diff(want, x).items()} for x, c in chi.items())
            )
        want = {m: Fraction(c, factorial(g.m)) for m, c in want.items()}
        cases[(g.k, g.r, g.m)] = (want, top_part(g.element, g.k - g.m))
    return cases
