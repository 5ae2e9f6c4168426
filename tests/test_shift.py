import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sugawara.detcalc import coefficient_table, column_determinant, ux_matrix
from sugawara.jsonout import to_json
from sugawara.pbw import Element, LoopGen, _axpy, exact, get_context
from sugawara.pyramid import GenId, Pyramid
from sugawara.shift import (
    _gradient,
    _rank,
    a_chi_generators,
    apply_automorphism,
    center_generators,
    chi_from_obj,
    chi_to_obj,
    jacobian_rank,
    random_point,
    rho_chi,
    symbols,
    zseries_eval,
)
from sugawara.suga import phi_table

from oracles import (
    brown_brundan_cases,
    gen_or_zero,
    poly_diff,
    poly_product,
    random_chi,
    shift_limit_cases,
    symbol_cases,
)
from test_acceptance import ALL_PYRAMIDS

# the acceptance pyramids with N <= 6, and two with four rows
ORACLE_PYRAMIDS = [lam for lam in ALL_PYRAMIDS if sum(lam) <= 6] + [
    (1, 1, 1, 1),
    (1, 1, 1, 2),
]


def test_rho_single_factors():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    fin = get_context(p, "finite")
    chi = {GenId(1, 1, 0): Fraction(5, 2)}
    out = rho_chi(ctx.gen(1, 1, 0, depth=-1), chi)
    assert out == {-1: fin.gen(1, 1, 0), 0: fin.one().scale(Fraction(5, 2))}
    out = rho_chi(ctx.gen(1, 1, 0, depth=-2), chi)
    assert out == {-2: fin.gen(1, 1, 0)}
    # E[1,1,0] and E[2,2,0] commute, so the z^-3 images of these two
    # words cancel, and a cancelled power is dropped
    e = lambda i, d: ctx.gen(i, i, 0, depth=d)
    v = e(1, -2) * e(2, -1) - e(2, -2) * e(1, -1)
    assert len(v.terms) == 2
    assert rho_chi(v, {}) == {}
    assert rho_chi(v, chi) == {-2: fin.gen(2, 2, 0).scale(Fraction(-5, 2))}


def test_rho_rejects_bad_inputs():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    fin = get_context(p, "finite")
    with pytest.raises(ValueError):
        rho_chi(ctx.gen(1, 1, 0, depth=-1), {GenId(1, 1, 3): Fraction(1)})
    with pytest.raises(ValueError):
        rho_chi(fin.gen(1, 1, 0), {})


def _random_state(ctx, rng, max_factors=3):
    basis = ctx.pyramid.basis()
    word = [
        LoopGen(rng.choice([-1, -1, -2]), *rng.choice(basis))
        for _ in range(rng.randint(1, max_factors))
    ]
    return ctx.word(word, rng.choice([1, -1, 2]))


@pytest.mark.parametrize("lam", [(1, 1), (1, 2), (2, 2)])
def test_rho_homomorphism_property(lam):
    rng = random.Random(31)
    p = Pyramid(lam)
    ctx = get_context(p, "affine")
    chi = random_chi(p, seed=7)
    for _ in range(12):
        a = _random_state(ctx, rng)
        b = _random_state(ctx, rng)
        assert rho_chi(a * b, chi) == poly_product(rho_chi(a, chi), rho_chi(b, chi))


def test_zseries_eval():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    fin = get_context(p, "finite")
    chi = {GenId(1, 1, 0): Fraction(3)}
    series = rho_chi(ctx.gen(1, 1, 0, depth=-1), chi)
    val = zseries_eval(p, series, Fraction(2))
    assert val == Fraction(1, 2) * fin.gen(1, 1, 0) + fin.one().scale(Fraction(3))
    with pytest.raises(ValueError):
        zseries_eval(p, series, Fraction(0))


def test_a_chi_trace_components():
    p = Pyramid((2, 3))
    fin = get_context(p, "finite")
    gens = a_chi_generators(p, {})
    got = {(g.k, g.r, g.m): g.element for g in gens}
    for r in range(3):
        expected = gen_or_zero(fin, 1, 1, r) + gen_or_zero(fin, 2, 2, r)
        assert got[(1, r, 0)] == expected


def test_a_chi_top_component_chi_free():
    p = Pyramid((1, 2))
    chi = random_chi(p, seed=3)
    plain = {(g.k, g.r, g.m): g.element for g in a_chi_generators(p, {})}
    twisted = {(g.k, g.r, g.m): g.element for g in a_chi_generators(p, chi)}
    for (k, r, m), elem in twisted.items():
        if m == 0:
            assert elem == plain[(k, r, 0)]


def test_a_chi_generator_fields():
    p = Pyramid((1, 2))
    gens = a_chi_generators(p, {})
    assert [(g.k, g.r, g.m) for g in gens][:3] == [(1, 0, 0), (1, 1, 0), (2, 1, 0)]
    k, r, m, element = gens[0]
    assert (k, r, m) == (gens[0].k, gens[0].r, gens[0].m) and element is gens[0].element
    assert element.ctx is get_context(p, "finite")


def test_a_chi_generator_count():
    for lam in [(1, 1), (1, 2), (2, 3), (1, 1, 2)]:
        p = Pyramid(lam)
        gens = a_chi_generators(p, {})
        expected = sum(k * p.lambdas[p.n - k] for k in range(1, p.n + 1))
        assert len(gens) == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_chi_commutativity_gl2(seed):
    p = Pyramid((1, 1))
    chi = random_chi(p, seed=seed)
    gens = a_chi_generators(p, chi)
    assert len(gens) == 3
    fin = get_context(p, "finite")
    elems = [g.element for g in gens]
    for a in elems:
        assert all(v.is_zero() for v in fin.commutators(a, elems))


def test_center_gl1():
    p = Pyramid((1,))
    fin = get_context(p, "finite")
    gens = center_generators(p)
    assert gens == [(1, 0, fin.gen(1, 1, 0))]


def test_center_gl2_casimir():
    p = Pyramid((1, 1))
    fin = get_context(p, "finite")
    e = lambda i, j: fin.gen(i, j, 0)
    gens = {(k, r): elem for k, r, elem in center_generators(p)}
    assert gens[(2, 0)] == e(1, 1) * e(2, 2) - e(2, 1) * e(1, 2) + e(2, 2)


@pytest.mark.parametrize("lam", [(1,), (1, 1), (1, 2), (2, 2)])
def test_center_generators_central(lam):
    p = Pyramid(lam)
    fin = get_context(p, "finite")
    basis = [fin.gen(*g) for g in p.basis()]
    for _, _, elem in center_generators(p):
        assert all(v.is_zero() for v in fin.commutators(elem, basis))


def test_automorphism_identity_and_brackets():
    p = Pyramid((1, 2))
    fin = get_context(p, "finite")
    rng = random.Random(13)
    v = fin.gen(1, 1, 0) * fin.gen(2, 2, 0) + 3 * fin.gen(2, 2, 1)
    assert apply_automorphism(p, v, Fraction(0)) == v
    basis = p.basis()
    for _ in range(10):
        a = fin.gen(*rng.choice(basis))
        b = fin.gen(*rng.choice(basis))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        sa = apply_automorphism(p, a, c)
        sb = apply_automorphism(p, b, c)
        lhs = apply_automorphism(p, fin.commutators(a, [b])[0], c)
        assert lhs == fin.commutators(sa, [sb])[0]


@pytest.mark.parametrize("lam", [(1, 1), (1, 2), (2, 2), (1, 1, 2)])
def test_automorphism_is_multiplicative(lam):
    p = Pyramid(lam)
    fin = get_context(p, "finite")
    rng = random.Random(17)
    basis = p.basis()

    def random_word():
        letters = [LoopGen(0, *rng.choice(basis)) for _ in range(rng.randint(1, 3))]
        return fin.word(letters, rng.choice([1, -2, Fraction(1, 3)]))

    moved = 0
    for _ in range(15):
        a, b = random_word(), random_word()
        c = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        image = apply_automorphism(p, a * b, c)
        assert image == apply_automorphism(p, a, c) * apply_automorphism(p, b, c)
        moved += image != a * b
    assert moved >= 5


def test_automorphism_gl2_example():
    p = Pyramid((1, 1))
    fin = get_context(p, "finite")
    e = lambda i, j: fin.gen(i, j, 0)
    one = fin.one()
    gens = {(k, r): elem for k, r, elem in center_generators(p)}
    image = apply_automorphism(p, gens[(2, 0)], Fraction(-1))
    expected = (e(1, 1) - one) * (e(2, 2) - one) - e(2, 1) * e(1, 2) + (e(2, 2) - one)
    assert image == expected
    basis = [fin.gen(*g) for g in p.basis()]
    assert all(v.is_zero() for v in fin.commutators(image, basis))


_AUTOMORPHISM_PYRAMIDS = [
    (1,), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3),
    (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 1, 1, 1), (2, 2, 2),
]


@pytest.mark.parametrize(
    "lam", _AUTOMORPHISM_PYRAMIDS, ids=lambda lam: str(Pyramid(lam))
)
def test_automorphism_shifts_the_diagonal_of_the_center_determinant(lam):
    # E[i,i,0] -> E[i,i,0] + c lambda_i turns the diagonal constant
    # (n-i) lambda_i of the center determinant into (n-i+c) lambda_i
    p = Pyramid(lam)
    fin = get_context(p, "finite")
    gens = center_generators(p)
    for c in (-1, Fraction(1, 2), 2):
        shifted = lambda i, out, s, k: _axpy(out, s, k * (p.n - i + c) * p.lambdas[i - 1])
        det = column_determinant(ux_matrix(p, fin, 0, shifted), {(0, 0): {(): 1}})
        table = coefficient_table({key: Element(fin, t) for key, t in det.items()}, p.n)
        for k, r, elem in gens:
            want = table.get((k, r), fin.zero())
            assert apply_automorphism(p, elem, c) == want, (c, k, r)


def test_symbols_gl2():
    p = Pyramid((1, 1))
    sym = symbols(p)
    v = lambda i, j: (GenId(i, j, 0), 1)
    assert sym == {
        (1, 0): {(v(1, 1),): 1, (v(2, 2),): 1},
        (2, 0): {(v(1, 1), v(2, 2)): 1, (v(1, 2), v(2, 1)): -1},
    }


def _evaluate(poly, point):
    total = 0
    for m, c in poly.items():
        for g, e in m:
            c *= point.get(g, 0) ** e
        total += c
    return total


@pytest.mark.parametrize("lam", [(1, 2), (2, 2), (1, 1, 2)])
def test_symbols_evaluate_in_ints_at_int_points(lam):
    # the gradient is each partial derivative evaluated term by term, in
    # ints at an int point; (g + h)^2 has exponents above 1
    p = Pyramid(lam)
    point = random_point(p, 3)
    as_fractions = {g: Fraction(v) for g, v in point.items()}
    g, h = GenId(1, 1, 0), GenId(2, 2, 0)
    square = {((g, 2),): 1, ((g, 1), (h, 1)): 2, ((h, 2),): 1}
    assert _gradient(square, {g: 3, h: -1}) == {g: 4, h: 4}
    for poly in [square, *symbols(p).values()]:
        grad = _gradient(poly, point)
        assert all(type(d) is int for d in grad.values())
        assert grad == _gradient(poly, as_fractions)
        for x in p.basis():
            assert grad.get(x, 0) == _evaluate(poly_diff(poly, x), point)


def test_jacobian_example_gl2():
    p = Pyramid((1, 1))
    point = {GenId(1, 1, 0): Fraction(1)}
    assert jacobian_rank(p, symbols(p), point) == 2


def test_jacobian_degenerate_point_allowed():
    p = Pyramid((1, 1))
    rank = jacobian_rank(p, symbols(p), {})
    assert 0 <= rank <= 2


@pytest.mark.parametrize("lam", [(2,), (1, 1), (1, 2), (2, 3), (1, 1, 2)])
def test_jacobian_full_rank_random_points(lam):
    p = Pyramid(lam)
    sym = symbols(p)
    for seed in (1, 2, 3):
        assert jacobian_rank(p, sym, random_point(p, seed)) == p.big_n


def test_chi_obj_roundtrip():
    p = Pyramid((1, 2))
    chi = {GenId(1, 1, 0): Fraction(-3, 2), GenId(2, 2, 1): Fraction(2)}
    obj = chi_to_obj(chi)
    assert obj == {"E[1,1,0]": "-3/2", "E[2,2,1]": "2"}
    assert chi_from_obj(p, obj) == chi
    with pytest.raises(ValueError):
        chi_from_obj(p, {"E[1,2,0]": "1"})


def test_rank_is_exact_on_integer_rows():
    # row 1 = row 2 + 5 row 3; eliminating with float quotients such as
    # 6/41 leaves a nonzero remainder and reads rank 3
    assert _rank([[41, 23, 39], [6, 8, 4], [7, 3, 7]]) == 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-50, 50), min_size=3, max_size=3),
            min_size=n,
            max_size=n,
        )
    ),
    mix=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
def test_rank_of_int_rows_equals_rank_of_fraction_rows(rows, mix):
    # one dependent row: an integer combination of the others
    rows = rows + [[sum(k * r[c] for k, r in zip(mix, rows)) for c in range(3)]]
    as_fractions = [[Fraction(x) for x in r] for r in rows]
    rank = _rank(rows)
    assert rank == _rank(as_fractions)
    assert rank < len(rows)


@pytest.mark.parametrize("lam", [(1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 2, 3)])
@pytest.mark.parametrize(
    "spell", [int, str, lambda n: f"{2 * n}/2"], ids=["int", "str", "halves"]
)
def test_integral_chi_keeps_int_coefficients(lam, spell):
    p = Pyramid(lam)
    rng = random.Random(str(lam))
    obj = {g.text(): spell(rng.choice((-3, -2, -1, 1, 2, 3))) for g in p.basis()}
    chi = chi_from_obj(p, obj)
    assert all(type(c) is int for c in chi.values())
    coeffs = [c for g in a_chi_generators(p, chi) for c in g.element.terms.values()]
    assert len(coeffs) > 5
    assert all(type(c) is int for c in coeffs)


_RATIONALS = st.tuples(st.integers(-7, 7), st.integers(1, 7))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lam=st.sampled_from([lam for lam in ALL_PYRAMIDS if sum(lam) <= 4]),
    values=st.lists(_RATIONALS, min_size=16, max_size=16),
)
def test_exact_chi_gives_the_fraction_chi_results(lam, values):
    p = Pyramid(lam)
    obj = {g.text(): f"{n}/{q}" for g, (n, q) in zip(p.basis(), values)}
    via_exact = chi_from_obj(p, obj)
    via_fraction = {GenId.parse(k): Fraction(v) for k, v in obj.items()}
    via_fraction = {g: c for g, c in via_fraction.items() if c}
    assert via_exact == via_fraction
    assert chi_to_obj(via_exact) == chi_to_obj(via_fraction)
    gens = [a_chi_generators(p, chi) for chi in (via_exact, via_fraction)]
    assert [(g.k, g.r, g.m, g.element) for g in gens[0]] == [
        (g.k, g.r, g.m, g.element) for g in gens[1]
    ]
    assert to_json([g.element for g in gens[0]]) == to_json(
        [g.element for g in gens[1]]
    )
    for z in ("2", "-1/3"):
        for _, _, elem in phi_table(p).selected_entries():
            got = zseries_eval(p, rho_chi(elem, via_exact), exact(z))
            want = zseries_eval(p, rho_chi(elem, via_fraction), Fraction(z))
            assert got == want and to_json(got) == to_json(want)


# -- the paper's corollaries (tests/oracles.py), on top-letter parts


def _agree(cases):
    assert cases
    bad = [key for key, (want, got) in cases.items() if want != got]
    assert not bad, bad


@pytest.mark.parametrize("lam", ORACLE_PYRAMIDS)
def test_top_letters_of_the_generators_are_the_symbols(lam):
    _agree(symbol_cases(Pyramid(lam)))


@pytest.mark.parametrize("lam", ORACLE_PYRAMIDS)
def test_images_at_chi_zero_are_brown_brundan_generators(lam):
    cases = brown_brundan_cases(Pyramid(lam))
    assert len(cases) == sum(lam)
    assert all(cases.values()), [key for key, ok in cases.items() if not ok]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("lam", ORACLE_PYRAMIDS)
def test_shift_generators_tend_to_mishchenko_fomenko(lam, seed):
    p = Pyramid(lam)
    cases = shift_limit_cases(p, random_chi(p, seed))
    _agree(cases)
    if p.n > 1:
        # a chi-dependent expectation is checked, not only m = 0
        assert any(m and want for (k, r, m), (want, _) in cases.items())
