import copy
import itertools
import json
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sugawara import pbw
from sugawara.cli import main
from sugawara.jsonout import to_json
from sugawara.pyramid import Pyramid, bracket, form
from sugawara.pbw import (
    _EMPTY,
    Element,
    LieContext,
    LoopGen,
    _axpy,
    _coeff_str,
    delta,
    element_from_obj,
    element_text,
    element_to_obj,
    exact,
    get_context,
    signed_sum,
    translation_T,
)
from sugawara.shift import (
    a_chi_generators,
    center_generators,
    zseries_eval,
)
from sugawara.suga import phi_table, selected_vectors
from sugawara.verify import annihilation_check, centrality_check

from oracles import (
    degree_d,
    fresh_context,
    gen_or_zero,
    monomial_degree,
    poly_product,
    random_chi,
    two_product_commutator,
)
from test_acceptance import ALL_PYRAMIDS


def naive_normal_order(ctx, word, coeff=1, step_cap=200_000, quotient=True):
    """Independent rewriter: repeatedly reduce the *last* out-of-order
    adjacent pair (the production engine works from the front).  Returns
    (element-terms, steps).  In affine mode the vacuum kills the words
    that end at depth >= 0, unless quotient is false."""
    out = {}
    stack = [(tuple(word), coeff)]
    steps = 0
    while stack:
        w, c = stack.pop()
        if not c:
            continue
        pos = -1
        for t in range(len(w) - 1):
            if w[t] > w[t + 1]:
                pos = t
        if pos < 0:
            if quotient and ctx.mode == "affine" and w and w[-1].depth >= 0:
                continue
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
            continue
        steps += 1
        if steps > step_cap:
            raise AssertionError("rewriting exceeded the step bound")
        h, g = w[pos], w[pos + 1]
        stack.append((w[:pos] + (g, h) + w[pos + 2 :], c))
        d = h.depth + g.depth
        for z, cz in bracket(ctx.pyramid, h.gen, g.gen).items():
            stack.append((w[:pos] + (LoopGen(d, z.i, z.j, z.r),) + w[pos + 2 :], c * cz))
        if d == 0 and h.depth:
            s = h.depth * form(ctx.pyramid, h.gen, g.gen)
            if s:
                stack.append((w[:pos] + w[pos + 2 :], c * s))
    return out, steps


def naive_sum(ctx, pieces, quotient=True):
    """Naive normal form of a sum of (word, coeff) pieces."""
    out = {}
    for word, coeff in pieces:
        for m, c in naive_normal_order(ctx, word, coeff, quotient=quotient)[0].items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def random_state(ctx, rng, max_factors=3, depths=(-1, -2, -3)):
    basis = ctx.pyramid.basis()
    word = [
        LoopGen(rng.choice(depths), *rng.choice(basis))
        for _ in range(rng.randint(1, max_factors))
    ]
    return ctx.word(word, rng.choice([1, 2, -1, Fraction(1, 2)]))


def random_element(ctx, rng, n_terms=2, **kw):
    v = ctx.zero()
    for _ in range(n_terms):
        v = v + random_state(ctx, rng, **kw)
    return v


def test_mul_finite_identity_example():
    # mul(E12, E21) equals E21*E12 + E11 - E22 as elements of U(gl_2)
    ctx = get_context(Pyramid((1, 1)), "finite")
    e11, e12 = ctx.gen(1, 1, 0), ctx.gen(1, 2, 0)
    e21, e22 = ctx.gen(2, 1, 0), ctx.gen(2, 2, 0)
    lhs = e12 * e21
    rhs = e21 * e12 + e11 - e22
    assert lhs == rhs


def test_mul_one_is_identity():
    rng = random.Random(11)
    for mode in ("finite", "affine"):
        ctx = get_context(Pyramid((1, 2)), mode)
        v = random_element(ctx, rng, depths=(0,) if mode == "finite" else (-1, -2))
        assert ctx.mul(ctx.one(), v) == v
        assert ctx.mul(v, ctx.one()) == v


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_mul_associative_and_distributive(mode):
    rng = random.Random(23)
    ctx = get_context(Pyramid((2, 3)), mode)
    depths = (0,) if mode == "finite" else (-1, -2)
    for _ in range(12):
        a = random_element(ctx, rng, depths=depths)
        b = random_element(ctx, rng, depths=depths)
        c = random_element(ctx, rng, depths=depths)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_commutator_antisymmetry_and_jacobi(mode):
    rng = random.Random(5)
    ctx = get_context(Pyramid((1, 2)), mode)
    depths = (0,) if mode == "finite" else (-1, -2)
    br = lambda x, y: ctx.commutators(x, [y])[0]
    for _ in range(8):
        a = random_element(ctx, rng, depths=depths)
        b = random_element(ctx, rng, depths=depths)
        c = random_element(ctx, rng, depths=depths)
        assert br(a, b) == -br(b, a)
        total = br(br(a, b), c) + br(br(b, c), a) + br(br(c, a), b)
        assert total.is_zero()


@pytest.mark.parametrize("mode", ["finite", "affine"])
@pytest.mark.parametrize("lam", [(1, 2), (2, 2), (1, 1, 2), (2, 3)])
def test_commutator_matches_two_products(lam, mode):
    rng = random.Random(17)
    ctx = get_context(Pyramid(lam), mode)
    depths = (0,) if mode == "finite" else (-1, -2)
    basis = ctx.pyramid.basis()
    g = basis[0]
    h = next(h for h in basis if bracket(ctx.pyramid, g, h))  # [g, h] != 0
    x, y = LoopGen(depths[-1], *g), LoopGen(depths[-1], *h)
    elems = [
        ctx.zero(),
        ctx.one().scale(Fraction(3, 2)),
        ctx.word([x]),
        ctx.word([y], -2),
        ctx.word([x, x, y]) + ctx.word([y, x, y]),  # repeated letters
        random_element(ctx, rng, n_terms=3, depths=depths) + ctx.one().scale(2),
        random_element(ctx, rng, n_terms=3, depths=depths),
    ]
    nonzero = 0
    for a in elems:  # every ordered pair, a == b included
        for b in elems:
            got = ctx.commutators(a, [b])[0]
            assert got == two_product_commutator(ctx, a, b)
            nonzero += bool(got)
    assert nonzero >= 10


@pytest.mark.parametrize("mode", ["finite", "affine"])
@pytest.mark.parametrize("lam", [(1, 2), (2, 2), (1, 1, 2), (2, 3)])
def test_commutators_match_two_products(lam, mode):
    # one left operand against many: the letter brackets [a, y] are shared
    # across the bs, so the bs share letters with each other and with a
    rng = random.Random(29)
    ctx = get_context(Pyramid(lam), mode)
    depths = (0,) if mode == "finite" else (-1, -2)
    basis = ctx.pyramid.basis()
    g = basis[0]
    h = next(h for h in basis if bracket(ctx.pyramid, g, h))  # [g, h] != 0
    x, y = LoopGen(depths[-1], *g), LoopGen(depths[-1], *h)
    lefts = [
        ctx.word([x, y]) + ctx.word([y], 3),
        random_element(ctx, rng, n_terms=3, depths=depths) + ctx.one().scale(-1),
    ]
    nonzero = 0
    for a in lefts:
        shared = random_element(ctx, rng, n_terms=2, depths=depths)
        bs = [
            ctx.word([y]),
            a,
            ctx.zero(),
            ctx.one().scale(Fraction(-5, 3)),
            ctx.word([y, y, x], 2),  # repeated letters
            shared,
            shared * ctx.word([x]) + ctx.word([x, y]),
            random_element(ctx, rng, n_terms=3, depths=depths),
        ]
        got = ctx.commutators(a, bs)
        assert got == [two_product_commutator(ctx, a, b) for b in bs]
        assert got == [ctx.commutators(a, [b])[0] for b in bs]
        assert all(isinstance(v, Element) and v.ctx is ctx for v in got)
        nonzero += sum(map(bool, got))
        assert ctx.commutators(a, []) == []
    assert nonzero >= 6


def test_raw_affine_elements_are_projected_when_built():
    # an element built from raw terms may hold a word that ends at depth
    # >= 0: the vacuum kills it, so the element drops it when built.  The
    # kernels build no killed word, which is exact only on such elements:
    # the commutator walk takes [a, y] as a left factor
    rng = random.Random(53)
    x = LoopGen(1, 1, 1, 0)
    scalars = [1, -2, Fraction(1, 2)]
    killed = 0
    for lam in [(1, 2), (2, 3)]:
        p = Pyramid(lam)
        ctx = get_context(p, "affine")
        letters, _ = _kernel_letters(p, "affine")
        assert Element(ctx, {(x,): 1, (LoopGen(-1, 2, 2, 0), x): 2}).is_zero()
        for _ in range(40):
            raw = [
                {_sorted_word(rng, letters, 0, 3): rng.choice(scalars) for _ in range(3)}
                for _ in range(3)
            ]
            a, *bs = elems = [Element(ctx, terms) for terms in raw]
            for terms, v in zip(raw, elems):
                vacuum = {m: c for m, c in terms.items() if all(g.depth < 0 for g in m)}
                assert v.terms == vacuum
                killed += len(vacuum) < len(terms)
            want = [two_product_commutator(ctx, a, b) for b in bs]
            assert ctx.commutators(a, bs) == want
    assert killed >= 60


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_commutators_split_large_groups(mode, monkeypatch):
    # words that share a prefix are split by their next letter: b's words
    # share prefixes, and a word that is a prefix of others ends inside a
    # group; a, a left operand of many words, is a right operand too
    ctx = get_context(Pyramid((1, 2)), mode)
    depths = (0,) if mode == "finite" else (-1, -2)
    letters = sorted(LoopGen(d, *g) for d in depths for g in ctx.pyramid.basis())[:4]

    def sorted_words(k, n):
        # every sorted word of 1..n of the first k letters, x before x*y
        out = []
        for size in range(1, n + 1):
            out += itertools.combinations_with_replacement(letters[:k], size)
        return out

    b = ctx.combine(
        (w, Fraction((-1) ** k * (k + 1), 3)) for k, w in enumerate(sorted_words(4, 4))
    )
    a = ctx.combine((w, (-1) ** k * (k + 1)) for k, w in enumerate(sorted_words(3, 3)))
    bs = [b, b + ctx.one().scale(Fraction(7, 2)), ctx.zero(), a]
    leibniz, seen = LieContext._leibniz, []

    def spy(self, words, d, lo, hi, ad, out):
        if d and hi - lo > 1:
            seen.append((len(words), len(words[hi - 1][0]) == d))
        leibniz(self, words, d, lo, hi, ad, out)

    monkeypatch.setattr(LieContext, "_leibniz", spy)
    got = ctx.commutators(a, bs)
    assert got == [two_product_commutator(ctx, a, v) for v in bs]
    assert got[0] and got[1] == got[0] and not got[2] and not got[3]
    # the walks over a and b split a group below the root, and a word
    # ended in one
    assert (len(a.terms), True) in seen and (len(b.terms), True) in seen


@pytest.mark.parametrize(
    "op",
    [
        operator.mul,
        operator.add,
        operator.sub,
        pytest.param(lambda a, b: a.ctx.commutators(a, [a, b]), id="commutators"),
        pytest.param(lambda a, b: b.ctx.commutators(a, []), id="commutators_empty"),
    ],
)
def test_mixed_context_rejected(op):
    a = get_context(Pyramid((1, 1)), "finite").gen(1, 1, 0)
    b = get_context(Pyramid((1, 1)), "affine").gen(1, 1, 0, depth=-1)
    with pytest.raises(ValueError):
        op(a, b)


@pytest.mark.parametrize("op", ["mul", "commutators"])
@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_foreign_operands_rejected(op, mode):
    # a and b share a context, but not the one asked: the same pyramid in
    # the other mode, whose letters the asked context could still rewrite
    p = Pyramid((1, 2))
    ctx = get_context(p, mode)
    other = get_context(p, "affine" if mode == "finite" else "finite")
    d = -1 if other.mode == "affine" else 0
    a = other.gen(1, 2, 1, depth=d)
    b = other.gen(2, 1, 0, depth=d) * other.gen(2, 2, 1, depth=d)
    call = {"mul": lambda: ctx.mul(a, b), "commutators": lambda: ctx.commutators(a, [b])}
    with pytest.raises(ValueError, match="do not belong"):
        call[op]()


def test_act_cocycle_example():
    ctx = get_context(Pyramid((1, 1)), "affine")
    v = ctx.gen(1, 1, 0, depth=-1)
    out = ctx.act(LoopGen(1, 1, 1, 0), v)
    assert out == ctx.one().scale(-1)


def test_act_annihilates_vacuum():
    ctx = get_context(Pyramid((2, 3)), "affine")
    for g in ctx.pyramid.basis():
        for s in (0, 1, 2):
            assert ctx.act(LoopGen(s, *g), ctx.one()).is_zero()


def test_act_zero_bracket_no_cocycle():
    ctx = get_context(Pyramid((1, 2)), "affine")
    v = ctx.gen(2, 2, 0, depth=-1)
    out = ctx.act(LoopGen(0, 2, 2, 1), v)
    assert out.is_zero()


def test_act_rejects_negative_depth_and_finite_mode():
    ctx = get_context(Pyramid((1, 1)), "affine")
    with pytest.raises(ValueError):
        ctx.act(LoopGen(-1, 1, 1, 0), ctx.one())
    fin = get_context(Pyramid((1, 1)), "finite")
    with pytest.raises(ValueError):
        fin.act(LoopGen(0, 1, 1, 0), fin.one())


def test_act_refuses_a_state_of_another_context():
    # a state of the pyramid 1,2, and a finite element of 2,2, each acted
    # on by the affine 2,2 context, which would rewrite them with its own
    # bracket table or under the vacuum quotient
    ctx = get_context(Pyramid((2, 2)), "affine")
    small = get_context(Pyramid((1, 2)), "affine")
    v = small.gen(2, 2, 0, depth=-1) * small.gen(2, 2, 1, depth=-1)
    finite = get_context(Pyramid((2, 2)), "finite").gen(2, 2, 0)
    g = LoopGen(1, 2, 2, 0)
    assert small.act(g, v) == small.gen(2, 2, 1, depth=-1).scale(-1)
    for state in (v, finite):
        with pytest.raises(ValueError, match="do not belong"):
            ctx.act(g, state)
        # the call checks the state, before any result is asked for
        with pytest.raises(ValueError, match="do not belong"):
            ctx.acts([g, LoopGen(0, 1, 1, 0)], state)


def test_act_lowers_degree_and_keeps_states_clean():
    rng = random.Random(7)
    ctx = get_context(Pyramid((1, 2)), "affine")
    basis = ctx.pyramid.basis()
    checked = 0
    for _ in range(40):
        v = random_state(ctx, rng)
        degrees = {monomial_degree(m) for m in v.terms}
        if len(degrees) != 1:
            continue
        checked += 1
        deg = degrees.pop()
        s = rng.randint(0, 2)
        out = ctx.act(LoopGen(s, *rng.choice(basis)), v)
        for m in out.terms:
            assert all(g.depth < 0 for g in m)
            assert monomial_degree(m) == deg - s
    assert checked >= 10


def test_translation_examples():
    ctx = get_context(Pyramid((1, 1)), "affine")
    x = ctx.gen(1, 1, 0, depth=-1)
    assert translation_T(x) == ctx.gen(1, 1, 0, depth=-2)
    assert translation_T(ctx.one()).is_zero()
    y = ctx.gen(2, 2, 0, depth=-1)
    xy = x * y
    expected = ctx.gen(1, 1, 0, depth=-2) * y + x * ctx.gen(2, 2, 0, depth=-2)
    assert translation_T(xy) == expected


@pytest.mark.parametrize("lam", [(1, 2, 3), (2, 2)], ids=["1,2,3", "2,2"])
def test_translation_powers_of_one_letter(lam):
    # T^k(X[-1]) = k! X[-1-k], the closed form the tau determinant takes
    # for the powers of T on an entry's letter
    ctx = get_context(Pyramid(lam), "affine")
    for g in ctx.pyramid.basis():
        v = ctx.gen(*g, depth=-1)
        for k in range(1, 7):
            v = translation_T(v)
            assert v == ctx.gen(*g, depth=-1 - k).scale(math.factorial(k)), (g, k)
    assert len(ctx.pyramid.basis()) >= 8


def test_delta_examples():
    ctx = get_context(Pyramid((1, 1)), "affine")
    assert delta(ctx.gen(1, 1, 0, depth=-1)).is_zero()
    assert delta(ctx.gen(1, 1, 0, depth=-2)) == -2 * ctx.gen(1, 1, 0, depth=-1)


def test_degree_d_example():
    ctx = get_context(Pyramid((1, 1)), "affine")
    v = ctx.gen(1, 1, 0, depth=-1)
    assert degree_d(v) == -v


def test_operator_identities_on_random_states():
    rng = random.Random(2024)
    ctx = get_context(Pyramid((1, 2)), "affine")
    for _ in range(30):
        v = random_element(ctx, rng)
        lhs = delta(translation_T(v)) - translation_T(delta(v))
        assert lhs == 2 * degree_d(v)
        lhs = degree_d(translation_T(v)) - translation_T(degree_d(v))
        assert lhs == -translation_T(v)


@pytest.mark.parametrize("step", [-1, 1], ids=["translation", "raising"])
def test_shift_derivations_against_naive_rewriter(step):
    # T and Delta against the naive normal form of the shifted words: each
    # factor X[r] of each term replaced by step * r X[r+step]
    derivation = translation_T if step == -1 else delta
    rng = random.Random(41)
    p = Pyramid((2, 3))
    ctx = LieContext(p, "affine")
    shifted = lambda g: LoopGen(g.depth + step, *g.gen)
    reordered = raised = 0
    for _ in range(60):
        v = random_element(ctx, rng, n_terms=3, max_factors=4)
        pieces = [
            (m[:idx] + (shifted(g),) + m[idx + 1 :], step * g.depth * c)
            for m, c in v.terms.items()
            for idx, g in enumerate(m)
        ]
        assert derivation(v).terms == naive_sum(ctx, pieces)
        for m in v.terms:
            for idx, g in enumerate(m):
                z = shifted(g)
                # the shifted letter leaves its place in the word ...
                reordered += any(y > z for y in m[:idx]) or any(y < z for y in m[idx + 1 :])
                # ... or is raised to depth 0 and acts on a letter after it
                raised += z.depth == 0 and any(
                    ctx.loop_bracket(z, y) is not _EMPTY for y in m[idx + 1 :]
                )
    assert reordered >= 30
    assert (raised >= 10) == (step == 1)


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_confluence_against_naive_rewriter(mode):
    rng = random.Random(99)
    p = Pyramid((2, 3))
    ctx = get_context(p, mode)
    basis = p.basis()
    depths = (0,) if mode == "finite" else (-2, -1, 0, 1)
    for _ in range(40):
        word = [
            LoopGen(rng.choice(depths), *rng.choice(basis))
            for _ in range(rng.randint(2, 5))
        ]
        got = ctx.word(word)
        want, steps = naive_normal_order(ctx, word)
        assert got.terms == want
        assert steps <= 10_000


def test_rewriting_step_bound_is_finite():
    # worst case for 5 factors stayed well under the cap above; pin a
    # representative hard word so regressions surface
    ctx = get_context(Pyramid((2, 3)), "affine")
    word = [
        LoopGen(1, 2, 1, 0),
        LoopGen(0, 1, 2, 2),
        LoopGen(-1, 2, 2, 0),
        LoopGen(-2, 1, 1, 1),
        LoopGen(-1, 1, 1, 0),
    ]
    _, steps = naive_normal_order(ctx, word)
    assert 0 < steps <= 10_000


def test_serialization_roundtrip_bit_exact():
    ctx = get_context(Pyramid((1, 2)), "affine")
    v = (
        Fraction(3, 2) * ctx.gen(1, 1, 0, depth=-1) * ctx.gen(2, 2, 1, depth=-2)
        - ctx.gen(2, 1, 0, depth=-1)
    )
    text = json.dumps(element_to_obj(v))
    w = element_from_obj(ctx, json.loads(text))
    assert w == v
    assert json.dumps(element_to_obj(w)) == text


def _term(coeff, *letters):
    return {
        "coeff": coeff,
        "monomial": [dict(zip(("i", "j", "r", "depth"), f)) for f in letters],
    }


@pytest.mark.parametrize("mode, depth", [("affine", -1), ("finite", 0)])
def test_element_from_obj_refuses_a_symbol_outside_the_pyramid(mode, depth):
    ctx = LieContext(Pyramid((1, 1)), mode)
    with pytest.raises(ValueError, match=re.escape("E[9,9,0]")):
        element_from_obj(ctx, [_term("1", (1, 1, 0, depth), (9, 9, 0, depth))])


def test_element_from_obj_refuses_a_depth_in_finite_mode():
    ctx = LieContext(Pyramid((1, 1)), "finite")
    with pytest.raises(ValueError, match="depth must be 0"):
        element_from_obj(ctx, [_term("1", (1, 1, 0, -1))])


@pytest.mark.parametrize("mode, depth", [("affine", -1), ("finite", 0)])
def test_element_from_obj_puts_a_word_in_normal_order(mode, depth):
    ctx = LieContext(Pyramid((1, 2)), mode)
    # [E[2,1,0], E[1,2,1]] = E[2,2,1]
    word = [LoopGen(depth, 2, 1, 0), LoopGen(depth, 1, 2, 1)]
    obj = [_term("3/2", *[(g.i, g.j, g.r, g.depth) for g in word])]
    got = element_from_obj(ctx, obj)
    assert got == ctx.word(word, Fraction(3, 2))
    assert len(got.terms) > 1


def test_word_refuses_a_depth_in_finite_mode():
    # a depth-1 letter would bring the loop bracket's central term into
    # the finite algebra: -1 + E[1,1,0][-1] E[1,1,0][1] here
    ctx = LieContext(Pyramid((1, 1)), "finite")
    with pytest.raises(ValueError, match=re.escape("E[1,1,0][1]")):
        ctx.word([LoopGen(1, 1, 1, 0), LoopGen(-1, 1, 1, 0)])


def test_word_refuses_a_symbol_outside_the_pyramid():
    # a one-letter word reaches no bracket, so word checks its letters
    ctx = LieContext(Pyramid((1, 1)), "affine")
    with pytest.raises(ValueError, match=re.escape("E[9,9,0]")):
        ctx.word([LoopGen(-1, 9, 9, 0)])


def test_element_text_form():
    ctx = get_context(Pyramid((1, 1)), "affine")
    v = ctx.gen(1, 1, 0, depth=-1) - 2 * ctx.gen(2, 2, 0, depth=-1)
    assert element_text(v) == "E[1,1,0][-1] - 2 E[2,2,0][-1]"
    assert element_text(ctx.zero()) == "0"
    assert element_text(ctx.one()) == "1"


def test_gen_validation():
    ctx = get_context(Pyramid((1, 2)), "finite")
    with pytest.raises(ValueError):
        ctx.gen(1, 2, 0)  # out of window
    with pytest.raises(ValueError):
        ctx.gen(1, 1, 0, depth=-1)  # finite mode pins depth to 0
    actx = get_context(Pyramid((1, 2)), "affine")
    assert actx.gen(1, 1, 0, depth=0).is_zero()  # vacuum annihilation
    assert gen_or_zero(actx, 1, 2, 0, depth=-1).is_zero()


@pytest.mark.parametrize("lam", [(2, 3), (1, 1, 2), (2, 2)])
def test_act_against_naive_rewriter(lam):
    rng = random.Random(31)
    p = Pyramid(lam)
    ctx = get_context(p, "affine")
    basis = p.basis()
    paired = [x for x in basis if any(form(p, x, y) for y in basis)]
    nonzero = central = 0
    for trial in range(60):
        s = trial % 4
        v = random_element(ctx, rng, n_terms=2)
        if s and trial % 3 == 0:
            # put a partner Y[-s] with <X, Y> != 0 into the state, so the
            # central term s <X, Y> is reached
            x = rng.choice(paired)
            y = rng.choice([y for y in basis if form(p, x, y)])
            v = v + ctx.word([LoopGen(-s, *y)])
        else:
            x = rng.choice(basis)
        g = LoopGen(s, *x)
        if s and any(
            y.depth == -s and form(p, x, y.gen) for m in v.terms for y in m
        ):
            central += 1
        got = ctx.act(g, v)
        want = naive_sum(ctx, [((g,) + m, c) for m, c in v.terms.items()])
        assert got.terms == want
        nonzero += bool(want)
    assert nonzero >= 20
    assert central >= 5


@pytest.mark.parametrize("lam", [(2, 3), (1, 1, 2), (2, 2)])
def test_acts_against_naive_rewriter(lam):
    # one acts call takes modes of mixed depth; each result is the naive
    # normal form of its own mode on the state, yielded in the modes' order
    rng = random.Random(37)
    p = Pyramid(lam)
    ctx = get_context(p, "affine")
    basis = p.basis()
    paired = [x for x in basis if any(form(p, x, y) for y in basis)]
    nonzero = central = 0
    for trial in range(10):
        v = random_element(ctx, rng, n_terms=3)
        modes = [LoopGen(s, *rng.choice(basis)) for s in (0, 1, 2, 3, 1, 2)]
        for _ in range(2):
            # a partner Y[-s] with <X, Y> != 0 in the state, so the
            # central term s <X, Y> is reached, alone and after Y[-1]
            s, x = rng.randint(1, 3), rng.choice(paired)
            y = rng.choice([y for y in basis if form(p, x, y)])
            modes.append(LoopGen(s, *x))
            partner = LoopGen(-s, *y)
            v = v + ctx.word([partner]) + ctx.word([LoopGen(-1, *y), partner])
        rng.shuffle(modes)
        results = list(ctx.acts(modes, v))
        assert len(results) == len(modes)
        for g, got in zip(modes, results):
            if any(
                y.depth == -g.depth and form(p, g.gen, y.gen) for m in v.terms for y in m
            ):
                central += 1
            want = naive_sum(ctx, [((g,) + m, c) for m, c in v.terms.items()])
            assert got.terms == want
            nonzero += bool(want)
    assert nonzero >= 20
    assert central >= 5


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_acts_is_the_bracket_with_each_letter(mode):
    # in finite mode, and for letters y below depth 0, acts(ys, v) is
    # [[y, v] for y in ys], the bracket y*v - v*y of two products: the
    # centrality check and the commutator's letter brackets read it so.
    # The identity sum_i E[i,i,0] commutes with every letter, though most
    # of its letters do not: its place brackets cancel in the sum
    rng = random.Random(59)
    depths = (0,) if mode == "finite" else (-1, -2, -3)
    nonzero = cancelled = 0
    for lam in [(2, 2, 2, 2), (1, 1, 1, 1), (1, 2, 3), (2, 3), (1, 2, 2, 3)]:
        p = Pyramid(lam)
        ctx = get_context(p, mode)
        basis = p.basis()
        unit = ctx.combine(
            ((LoopGen(depths[0], i, i, 0),), 1) for i in range(1, p.n + 1)
        )
        states = [
            random_element(ctx, rng, n_terms=3, depths=depths),
            random_element(ctx, rng, n_terms=2, depths=depths),
            unit,
            unit * random_state(ctx, rng, depths=depths) + ctx.one(),
        ]
        ys = [LoopGen(d, *g) for d in depths for g in basis]
        for v in states:
            letters = {x for m in v.terms for x in m}
            for y, got in zip(ys, ctx.acts(ys, v)):
                w = ctx.word([y])
                assert got == ctx.mul(w, v) - ctx.mul(v, w)
                nonzero += bool(got)
                moved = any(ctx.loop_bracket(y, x) is not _EMPTY for x in letters)
                cancelled += moved and not got
    assert nonzero >= 150
    assert cancelled >= 60


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_mul_against_naive_rewriter(mode):
    rng = random.Random(17)
    p = Pyramid((2, 3))
    ctx = get_context(p, mode)
    depths = (0,) if mode == "finite" else (-1, -2, -3)
    # the one-term shapes below draw from a generator apart from a and b
    shapes = random.Random(43)
    shared = 0
    for _ in range(20):
        a = random_element(ctx, rng, n_terms=2, depths=depths)
        # b's monomials extend the normal-ordered prefixes of one word
        stem = sorted(
            LoopGen(rng.choice(depths), *rng.choice(p.basis())) for _ in range(2)
        )
        terms = {tuple(stem): 1, tuple(stem[:1]): Fraction(-1, 2)}
        for _ in range(3):
            x = LoopGen(rng.choice(depths), *rng.choice(p.basis()))
            if x >= stem[-1]:
                terms[tuple(stem) + (x,)] = rng.choice([1, -2, 3])
        b = Element(ctx, terms) + random_state(ctx, rng, depths=depths)
        shared += len(b.terms) > len({m[:1] for m in b.terms})
        # the one-term left operands the determinants multiply by: a single
        # letter, a normal-ordered word with a non-unit coefficient, the unit
        word = sorted(
            LoopGen(shapes.choice(depths), *shapes.choice(p.basis()))
            for _ in range(shapes.randint(2, 3))
        )
        lefts = [
            ctx.word(word[:1]),
            Element(ctx, {tuple(word): shapes.choice([-1, 2, Fraction(-3, 2)])}),
            ctx.one(),
        ]
        for left in [a] + lefts:
            want = naive_sum(
                ctx,
                [
                    (ma + mb, ca * cb)
                    for ma, ca in left.terms.items()
                    for mb, cb in b.terms.items()
                ],
            )
            assert ctx.mul(left, b).terms == want
        assert all(len(left.terms) == 1 for left in lefts)
    assert shared >= 10


def _kernel_letters(p, mode):
    """The letters a kernel's left operand takes, and those of its right
    operand: affine depths -2..1 hold opposite-depth pairs, which carry
    the central term, and letters the vacuum kills, which a right
    operand, a vacuum word, never holds."""
    depths = (0,) if mode == "finite" else (-2, -1, 0, 1)
    letters = [LoopGen(d, *x) for d in depths for x in p.basis()]
    return letters, [g for g in letters if mode == "finite" or g.depth < 0]


def _sorted_word(rng, letters, lo, hi):
    return tuple(sorted(rng.choice(letters) for _ in range(rng.randint(lo, hi))))


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_lead_against_naive_rewriter(mode):
    # one letter g times a normal-ordered word t, a vacuum word in affine
    # mode, placed by _enter with an empty head, against the naive normal
    # form with the vacuum quotient: the words the vacuum kills are never
    # built.  Each case is added once
    # into an empty dict and once, times a random scalar, into a
    # prefilled one, whose entry for the main word sometimes cancels it
    rng = random.Random(29)
    fill = random.Random(37)  # its own draws, so the cases stay the same
    p = Pyramid((2, 3))
    ctx = LieContext(p, mode)
    letters, right = _kernel_letters(p, mode)
    seen = dict.fromkeys(
        ["below", "inside", "above", "equal", "central", "cancel", "killed"], 0
    )
    # 400 cases: a vacuum word t leaves fewer letters below g
    for _ in range(400):
        t = _sorted_word(rng, right, 1, 4)
        # g equal to a letter y of t, y's partner in the form, or any letter
        y = rng.choice(t)
        partner = LoopGen(-y.depth, y.j, y.i, y.r)
        pick = rng.random()
        if pick < 0.2:
            g = y
        elif pick < 0.5 and partner in letters:
            g = partner
        else:
            g = rng.choice(letters)
        want = naive_normal_order(ctx, (g,) + t)[0]
        fresh = {}
        ctx._enter(fresh, (), g, t, 1)
        assert fresh == want
        c = fill.choice([1, -1, 3, Fraction(-2, 3)])
        main = tuple(sorted((g,) + t))
        out = {
            m: fill.choice([1, -c * v]) for m, v in want.items() if fill.random() < 0.5
        }
        out[(fill.choice(letters),)] = 5
        if fill.random() < 0.3:
            out[main] = -c
        before = dict(out)
        ctx._enter(out, (), g, t, c)
        expect = dict(before)
        for m, v in want.items():
            expect[m] = expect.get(m, 0) + c * v
        assert out == {m: v for m, v in expect.items() if v}
        seen["cancel"] += main in before and main not in out
        passed = [y for y in t if y <= g]
        seen["below"] += not passed
        seen["inside"] += 0 < len(passed) < len(t)
        seen["above"] += len(passed) == len(t)
        seen["equal"] += g in t
        seen["central"] += any(ctx.loop_bracket(g, y)[1] for y in passed)
        seen["killed"] += g.depth >= 0 and mode == "affine"
    assert min(n for key, n in seen.items() if key not in ("central", "killed")) >= 30
    # opposite depths reach the central term, and the vacuum kills a
    # main word, in affine mode only
    assert (seen["central"] >= 5) == (seen["killed"] >= 30) == (mode == "affine")


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_lead_with_prefix_against_naive_rewriter(mode):
    # pre g t for a normal-ordered pre t, a vacuum word in affine mode,
    # and a g at or above pre's last letter, placed by _enter with pre as
    # its head, against the naive normal form with the vacuum quotient.  A bracket [g, t_i] goes between pre t[:i]
    # and t[i+1:], so its letters below pre's last letter move left into
    # pre.  Each case is added once into an empty dict and once, times a
    # random scalar, into a prefilled one, whose entry for the main word
    # sometimes cancels it
    rng = random.Random(59)
    fill = random.Random(61)  # its own draws, so the cases stay the same
    p = Pyramid((2, 2))
    ctx = LieContext(p, mode)
    letters, right = _kernel_letters(p, mode)
    # the triples (a, x, g), a <= x <= g, whose bracket [g, x] holds a
    # letter below a: few in finite mode, so a third of the cases plant one
    planted = [
        (a, x, g)
        for a, x, g in itertools.product(right, right, letters)
        if a <= x <= g and any(z < a for z, _ in ctx.loop_bracket(g, x)[0])
    ]
    seen = dict.fromkeys(
        ["no prefix", "passes", "into prefix", "central", "cancel", "killed"], 0
    )
    for case in range(400):
        if case % 3 == 0:
            a, x, g = rng.choice(planted)
            pre = _sorted_word(rng, [y for y in right if y <= a], 0, 2) + (a,)
            t = tuple(sorted((x,) + _sorted_word(rng, [y for y in right if y >= a], 0, 2)))
        else:
            word = _sorted_word(rng, right, 1, 6)
            cut = rng.randint(0, len(word) - 1)
            pre, t = word[:cut], word[cut:]
            above = [g for g in letters if not pre or g >= pre[-1]]
            # g equal to a letter y of t, y's partner in the form, or any
            # letter at or above pre's last
            y = rng.choice(t)
            partner = LoopGen(-y.depth, y.j, y.i, y.r)
            pick = rng.random()
            if pick < 0.2 and y in above:
                g = y
            elif pick < 0.5 and partner in above:
                g = partner
            else:
                g = rng.choice(above)
        want = naive_normal_order(ctx, pre + (g,) + t)[0]
        fresh = {}
        ctx._enter(fresh, pre, g, t, 1)
        assert fresh == want
        c = fill.choice([1, -1, 3, Fraction(-2, 3)])
        main = pre + tuple(sorted((g,) + t))
        out = {
            m: fill.choice([1, -c * v]) for m, v in want.items() if fill.random() < 0.5
        }
        out[(fill.choice(letters),)] = 5
        if fill.random() < 0.3:
            out[main] = -c
        before = dict(out)
        ctx._enter(out, pre, g, t, c)
        expect = dict(before)
        for m, v in want.items():
            expect[m] = expect.get(m, 0) + c * v
        assert out == {m: v for m, v in expect.items() if v}
        seen["cancel"] += main in before and main not in out
        passed = [x for x in t if x <= g]
        brackets = [ctx.loop_bracket(g, x) for x in passed]
        seen["no prefix"] += not pre
        seen["passes"] += bool(pre and passed)
        seen["into prefix"] += bool(pre) and any(
            z < pre[-1] for terms, _ in brackets for z, _ in terms
        )
        seen["central"] += any(central for _, central in brackets)
        seen["killed"] += g.depth >= 0 and mode == "affine"
    assert min(seen[key] for key in ("no prefix", "passes", "into prefix", "cancel")) >= 30
    # opposite depths reach the central term, and the vacuum kills a
    # main word, in affine mode only
    assert (seen["central"] >= 5) == (seen["killed"] >= 30) == (mode == "affine")


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_into_paths_against_naive_rewriter(mode):
    # head*terms for heads of 1-4 letters against the naive normal form
    # with the vacuum quotient.  A term below head's last letter takes it
    # with the rest of head as _enter's head when it starts at or above
    # the letter before (or head has one letter); one that starts lower
    # must pass two or more head letters and waits for the next level.
    # Each case is added into an empty dict and into a prefilled one
    rng = random.Random(67)
    p = Pyramid((2, 3))
    ctx = LieContext(p, mode)
    letters, right = _kernel_letters(p, mode)
    seen = dict.fromkeys(["direct", "late", "one letter", "cancel"], 0)
    for _ in range(300):
        head = _sorted_word(rng, letters, 1, 4)
        terms = {
            _sorted_word(rng, right, 0, 3): rng.choice([1, -1, 3, Fraction(1, 2)])
            for _ in range(4)
        }
        c = rng.choice([1, -2, Fraction(2, 3)])
        want = naive_sum(ctx, [(head + t, c * v) for t, v in terms.items()])
        fresh = {}
        ctx._into(fresh, head, terms, c)
        assert fresh == want
        out = {m: -v for m, v in want.items() if rng.random() < 0.5}
        out[(rng.choice(letters),)] = 5
        before = dict(out)
        ctx._into(out, head, terms, c)
        expect = dict(before)
        for m, v in want.items():
            expect[m] = expect.get(m, 0) + v
        assert out == {m: v for m, v in expect.items() if v}
        seen["cancel"] += any(m not in out for m in before)
        for t in terms:
            if t and t[0] < head[-1]:
                if len(head) == 1:
                    seen["one letter"] += 1
                elif t[0] >= head[-2]:
                    seen["direct"] += 1
                else:
                    seen["late"] += 1
    assert min(seen.values()) >= 30


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_enter_against_naive_rewriter(mode):
    # a letter z between words head and tail whose concatenation is a
    # normal-ordered word, a vacuum word in affine mode, against the naive
    # normal form with the vacuum quotient.  Each case is added once into
    # an empty dict and once, times a random scalar, into a prefilled one,
    # whose entry for a word of the result sometimes cancels it
    rng = random.Random(43)
    fill = random.Random(47)  # its own draws, so the cases stay the same
    p = Pyramid((2, 3))
    ctx = LieContext(p, mode)
    letters, right = _kernel_letters(p, mode)
    seen = dict.fromkeys(["passes", "killed", "left", "in place", "central", "cancel"], 0)
    for _ in range(400):
        word = _sorted_word(rng, right, 0, 5)
        cut = rng.randint(0, len(word))
        head, tail = word[:cut], word[cut:]
        # z equal to a letter y of the word, y's partner in the form, or any letter
        y = rng.choice(word) if word else rng.choice(right)
        partner = LoopGen(-y.depth, y.j, y.i, y.r)
        pick = rng.random()
        if pick < 0.2:
            z = y
        elif pick < 0.5 and partner in letters:
            z = partner
        else:
            z = rng.choice(letters)
        want = naive_normal_order(ctx, head + (z,) + tail)[0]
        fresh = {}
        ctx._enter(fresh, head, z, tail, 1)
        assert fresh == want
        c = fill.choice([1, -1, 3, Fraction(-2, 3)])
        out = {
            m: fill.choice([1, -c * v]) for m, v in want.items() if fill.random() < 0.5
        }
        out[(fill.choice(letters),)] = 5
        before = dict(out)
        ctx._enter(out, head, z, tail, c)
        expect = dict(before)
        for m, v in want.items():
            expect[m] = expect.get(m, 0) + c * v
        assert out == {m: v for m, v in expect.items() if v}
        seen["cancel"] += any(m in before and m not in out for m in want)
        if tail and z > tail[0]:
            seen["passes"] += 1
            met = [x for x in tail if x <= z]
        elif not tail and z.depth >= 0 and mode == "affine":
            seen["killed"] += 1
            met = []
        elif head and z < head[-1]:
            seen["left"] += 1
            met = [x for x in head if x > z]
        else:
            seen["in place"] += 1
            met = []
        seen["central"] += any(ctx.loop_bracket(x, z)[1] for x in met)
    assert min(seen[key] for key in ("passes", "left", "in place", "cancel")) >= 30
    # opposite depths reach the central term, and the vacuum kills a
    # letter with no tail, in affine mode only
    assert (seen["central"] >= 5) == (seen["killed"] >= 20) == (mode == "affine")


def test_enter_moves_a_letter_left_past_a_letter_of_opposite_depth():
    # a head that ends at depth 1, as ``combine`` passes from a word of
    # any depth: z of depth -1 moves left past it and meets the central
    # term.  The kernel may keep a word the vacuum kills, which ``Element``
    # drops, so the sums are compared as elements
    rng = random.Random(53)
    p = Pyramid((2, 3))
    ctx = LieContext(p, "affine")
    letters, right = _kernel_letters(p, "affine")
    central = 0
    for h, z in itertools.product(letters, repeat=2):
        if h.depth != 1 or z.depth != -1:
            continue
        head = tuple(sorted([rng.choice(right), h]))
        want = naive_normal_order(ctx, head + (z,))[0]
        out = {}
        ctx._enter(out, head, z, (), 1)
        assert Element(ctx, out) == Element(ctx, want)
        central += bool(ctx.loop_bracket(h, z)[1])
    assert central >= 4


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_into_merges_late_terms_that_lead_to_one_word(mode):
    # two terms t1, t2 that start below head's last letter g, such that
    # g*t1 and g*t2 share a word: _into sums that word in one dict before
    # the rest of head goes in, and the merged sum must be the product,
    # with the vacuum quotient in affine mode, where the terms are vacuum
    # words and the empty term under a head that ends at depth >= 0 is
    # killed
    rng = random.Random(41)
    p = Pyramid((2, 3))
    ctx = LieContext(p, mode)
    letters, right = _kernel_letters(p, mode)
    merged = killed = 0
    for _ in range(40):
        head = _sorted_word(rng, letters, 2, 3)
        g = head[-1]
        pool = sorted(rng.sample(right, 6))
        words = itertools.chain(
            ((x,) for x in right), itertools.combinations_with_replacement(pool, 2)
        )
        leads = {}
        for t in words:
            if t[0] < g:
                leads[t] = {}
                ctx._enter(leads[t], (), g, t, 1)
        pairs = [
            (t1, t2)
            for t1, t2 in itertools.combinations(leads, 2)
            if leads[t1].keys() & leads[t2].keys()
        ]
        if not pairs:
            continue
        merged += 1
        t1, t2 = rng.choice(pairs)
        terms = {t1: rng.choice([1, -2]), t2: Fraction(1, 3), (): 2}
        terms[_sorted_word(rng, right, 1, 2)] = -1
        c = rng.choice([1, -1, Fraction(3, 2)])
        want = naive_sum(ctx, [(head + t, c * v) for t, v in terms.items()])
        out = {}
        ctx._into(out, head, terms, c)
        assert out == want
        killed += head not in want and mode == "affine"
    assert merged >= 15
    assert (killed >= 10) == (mode == "affine")


@pytest.mark.parametrize("mode", ["finite", "affine"])
def test_into_adds_to_what_out_holds(mode):
    # out += c * head*terms on a prefilled out; the prefill cancels some
    # of the sum, and a cancelled key leaves out (no 0 is kept).  In
    # affine mode the terms are vacuum words and the sum is taken with
    # the vacuum quotient
    rng = random.Random(31)
    p = Pyramid((2, 3))
    ctx = LieContext(p, mode)
    letters, right = _kernel_letters(p, mode)
    cancelled = 0
    for _ in range(60):
        head = _sorted_word(rng, letters, 0, 3)
        terms = {
            _sorted_word(rng, right, 0, 3): rng.choice([1, -1, 3, Fraction(1, 2)])
            for _ in range(3)
        }
        c = rng.choice([1, -2, Fraction(2, 3)])
        want = naive_sum(ctx, [(head + t, c * v) for t, v in terms.items()])
        out = {m: -v for m, v in want.items() if rng.random() < 0.5}
        out[(rng.choice(letters),)] = 5
        before, shared = dict(out), dict(terms)
        ctx._into(out, head, terms, c)
        expect = dict(before)
        for m, v in want.items():
            expect[m] = expect.get(m, 0) + v
        assert out == {m: v for m, v in expect.items() if v}
        assert terms == shared
        cancelled += sum(m not in out for m in before)
    assert cancelled >= 30


def test_into_never_mutates_a_shared_memo_entry(monkeypatch, capsys):
    # _into reads terms that others share, the commutator walk's dicts of
    # the words below a letter, each read once per term of [a, y]: every
    # terms argument must read the same after the call as before it.  The
    # letter brackets [a, y] are made by acts and reach _into as heads,
    # not as terms; verify 2,2,2 makes 888 _into calls, 2,2,2,2 30,080
    into = LieContext._into
    checked = []

    def spy(self, out, head, terms, c):
        before = dict(terms)
        into(self, out, head, terms, c)
        checked.append(terms == before)

    monkeypatch.setattr(LieContext, "_into", spy)
    assert main(["--pyramid", "2,2,2,2", "verify"]) == 0
    capsys.readouterr()
    assert len(checked) > 1000 and all(checked)


_WORDS = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from((-1, -2, -3))), max_size=3
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lam=st.sampled_from([(2, 3), (1, 1, 2), (2, 2)]),
    mode=st.sampled_from(["finite", "affine"]),
    words=st.tuples(_WORDS, _WORDS, _WORDS),
)
def test_mul_associative_property(lam, mode, words):
    p = Pyramid(lam)
    ctx = get_context(p, mode)
    basis = p.basis()
    a, b, c = (
        ctx.word(
            LoopGen(0 if mode == "finite" else d, *basis[k % len(basis)])
            for k, d in w
        )
        for w in words
    )
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lam=st.sampled_from([(2, 3), (1, 1, 2), (2, 2)]),
    mode=st.sampled_from(["finite", "affine"]),
    a_words=st.lists(_WORDS, min_size=1, max_size=3),
    b_words=st.lists(st.lists(_WORDS, min_size=1, max_size=12), min_size=1, max_size=3),
)
def test_commutators_property(lam, mode, a_words, b_words):
    p = Pyramid(lam)
    ctx = get_context(p, mode)
    basis = p.basis()

    def element(words):
        out = ctx.zero()
        for t, w in enumerate(words):
            letters = (
                LoopGen(0 if mode == "finite" else d, *basis[k % len(basis)])
                for k, d in w
            )
            out = out + ctx.word(letters, Fraction(t + 1, 2))
        return out

    a = element(a_words)
    bs = [element(words) for words in b_words]
    assert ctx.commutators(a, bs) == [two_product_commutator(ctx, a, b) for b in bs]


def _dict_axpy(a, b, c):
    """Plain-dict oracle for a + c*b with cancelled monomials dropped."""
    out = dict(a)
    for m, v in b.items():
        out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


_SCALARS = st.sampled_from([0, 1, -1, 3, Fraction(-2, 3)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(["finite", "affine"]),
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    mix=_SCALARS,
    s=_SCALARS,
)
def test_element_arithmetic_against_dict_oracle(mode, seeds, mix, s):
    p = Pyramid((1, 2))
    ctx = get_context(p, mode)
    depths = (0,) if mode == "finite" else (-1, -2)
    a, b = (random_element(ctx, random.Random(k), depths=depths) for k in seeds)
    # b shares a's monomials, so mix = -1 cancels a's part of a + b exactly
    b = b + a.scale(mix)
    results = {
        "+": (a + b, _dict_axpy(a.terms, b.terms, 1)),
        "-": (a - b, _dict_axpy(a.terms, b.terms, -1)),
        "neg": (-a, _dict_axpy({}, a.terms, -1)),
        "scale": (a.scale(s), _dict_axpy({}, a.terms, s)),
        "rmul": (s * a, _dict_axpy({}, a.terms, s)),
        "mul": (a * s, _dict_axpy({}, a.terms, s)),
        "cancel": (a - a, {}),
    }
    for name, (got, want) in results.items():
        assert isinstance(got, Element) and got.ctx is ctx, name
        assert got.terms == want, name
        assert got.is_zero() == (not want) == (not got), name
        assert got == Element(ctx, want), name
    assert (a == b) == (a.terms == b.terms)
    other = get_context(p, "affine" if mode == "finite" else "finite")
    assert a != Element(other, a.terms)


_Z_KEYS = st.lists(st.integers(-3, 1), min_size=1, max_size=3, unique=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=4, max_size=4),
    z_keys=st.tuples(_Z_KEYS, _Z_KEYS),
    z=st.sampled_from([2, Fraction(-1, 3), 1, -1]),
)
def test_carrier_sums_and_products_against_pair_oracle(seeds, z_keys, z):
    p = Pyramid((1, 2))
    fin = get_context(p, "finite")
    coeffs = [random_element(fin, random.Random(k), depths=(0,)) for k in seeds]
    assume(not any(c.is_zero() for c in coeffs))
    e, f, _, h = coeffs

    # zseries_eval is the repeated-+ sum of its z-scaled components, on
    # z-series keyed by exponent and on their products; the z^-1 terms of
    # zc * zd cancel
    za, zb = (
        {k: coeffs[(i + shift) % 4] for i, k in enumerate(keys)}
        for keys, shift in zip(z_keys, (2, 3))
    )
    zc, zd = {0: f, -1: f}, {0: -h, -1: h}
    for series in (za, poly_product(za, zb), zc, zd, poly_product(zc, zd)):
        total = fin.zero()
        for k, elem in series.items():
            total = total + Fraction(z) ** k * elem
        assert zseries_eval(p, series, z) == total
    ones = {0: e, 1: e.scale(-1)}
    assert zseries_eval(p, ones, 1).is_zero()

    # the unit scale hands back the element itself
    one = get_context(p, "affine").one()
    for v in [e, one]:
        assert v.scale(1) is v and 1 * v is v


@pytest.mark.parametrize(
    "value, want",
    [
        ("2", 2),
        (2, 2),
        ("4/2", 2),
        ("-6/3", -2),
        ("2.0", 2),
        (" 7 ", 7),
        ("0", 0),
        ("1/3", Fraction(1, 3)),
        ("-.5", Fraction(-1, 2)),
        (-3, -3),
    ],
)
def test_exact_keeps_integral_values_int(value, want):
    got = exact(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value", [0.1, 2.0, True, None, [1], Fraction(1, 2)])
def test_exact_refuses_inexact_and_non_text_values(value):
    with pytest.raises(ValueError, match="string or an integer"):
        exact(value)


@pytest.mark.parametrize("value", ["x", "1/0", "", "1//2"])
def test_exact_refuses_unparsable_text(value):
    with pytest.raises(ValueError):
        exact(value)


def test_exact_refuses_values_beyond_the_digit_limit():
    # no str could write such a value; a huge exponent is refused before
    # Fraction expands it as 10**exp, a zero mantissa's too
    limit = sys.get_int_max_str_digits()
    assert exact(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert exact(f"-1e-{limit - 1}") == Fraction(-1, 10 ** (limit - 1))
    for value in (f"1e{limit}", f"7e-{limit}", f"0.3e{limit + 1}", -(10**limit)):
        with pytest.raises(ValueError, match=f"more than {limit} digits in its"):
            exact(value)
    width = len(str(limit)) + 1
    assert exact("0e" + "9" * width) == 0
    for value in ("1e" + "1" * (width + 1), "0E-0" + "9" * (width + 1), "5e1_" + "0" * width):
        with pytest.raises(ValueError, match=f"exponent has more than {width} digits"):
            exact(value)


def test_exact_refuses_long_digit_runs_before_parsing(monkeypatch):
    # a run of digits longer than the limit is refused before Fraction
    # computes 10**len(fraction part); the accepted set is the parse's
    limit = sys.get_int_max_str_digits()
    runs = f"a run of more than {limit} digits"
    digits = "7" * limit
    assert exact(digits) == int(digits)
    assert exact("1_" + digits[1:]) == int("1" + digits[1:])
    assert exact("0." + digits[1:]) == Fraction(int(digits[1:]), 10 ** (limit - 1))
    assert exact("1/" + digits) == Fraction(1, int(digits))
    with pytest.raises(ValueError, match=f"more than {limit} digits in its"):
        exact("0." + digits)
    # none of these reaches the parse
    monkeypatch.setattr(pbw, "Fraction", None)
    for value in (
        digits + "7",
        "0" + digits,
        "7_" + digits,
        "0." + digits + "7",
        "1/" + digits + "7",
        "0." + "1" * 2_000_000,
    ):
        with pytest.raises(ValueError, match=runs):
            exact(value)


def test_coefficient_text_of_int_and_fraction():
    assert [_coeff_str(c) for c in (3, -3, 0, Fraction(-3, 2), Fraction(4, 2))] == [
        "3", "-3", "0", "-3/2", "2",
    ]
    terms = [("a", 1), ("b", -2), ("", Fraction(1, 2)), ("c", Fraction(-1)), ("", -1)]
    assert signed_sum(terms) == "a - 2 b + 1/2 - c - 1"
    assert signed_sum([("a", Fraction(-5, 3)), ("", 4)]) == "- 5/3 a + 4"


@pytest.mark.parametrize("c", [0.1, 2.0, True, "1"])
def test_coefficient_text_refuses_other_types(c):
    # str(Fraction(0.1)) would print 3602879701896397/36028797018963968
    ctx = get_context(Pyramid((1, 2)), "finite")
    v = Element(ctx, {(): c})
    for write in (_coeff_str, lambda c: signed_sum([("a", c)])):
        with pytest.raises(TypeError):
            write(c)
    for write in (element_text, element_to_obj, to_json):
        with pytest.raises(TypeError):
            write(v)


def _jacobi_defect(br, a, b, c):
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]] for a bracket br(x, y) that
    returns (((letter, coeff), ...), central scalar): the letter part and
    the central part.  The central part of an inner bracket is a scalar
    and drops out of the outer one."""
    letters, central = {}, 0
    for x, y, w in ((a, b, c), (b, c, a), (c, a, b)):
        inner, _ = br(y, w)
        for z, k in inner:
            outer, scalar = br(x, z)
            central += k * scalar
            for u, l in outer:
                _axpy(letters, {u: l}, k)
    return letters, central


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lam=st.sampled_from(ALL_PYRAMIDS),
    picks=st.tuples(*[st.integers(0, 10**6)] * 3),
    depths=st.tuples(st.integers(-3, 2), st.integers(-3, 2), st.integers(-1, 1)),
)
def test_jacobi_identity_on_basis_letters(lam, picks, depths):
    p = Pyramid(lam)
    basis = p.basis()
    a, b, c = (basis[k % len(basis)] for k in picks)
    # c's depth balances a's and b's up to the offset, so that the
    # affine central term (nonzero only at total depth 0) is exercised
    da, db, offset = depths
    dc = offset - da - db

    def lie(x, y):
        return bracket(p, x, y).items(), 0

    assert _jacobi_defect(lie, a, b, c) == ({}, 0)
    finite = get_context(p, "finite")
    letters = [LoopGen(0, *g) for g in (a, b, c)]
    assert _jacobi_defect(finite.loop_bracket, *letters) == ({}, 0)
    affine = get_context(p, "affine")
    letters = [LoopGen(d, *g) for d, g in zip((da, db, dc), (a, b, c))]
    assert _jacobi_defect(affine.loop_bracket, *letters) == ({}, 0)


def test_jacobi_identity_central_term():
    # the cocycle is nonzero only on shift-0 letters whose depths sum to
    # 0, which random triples rarely meet: take every such triple
    seen = 0
    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        ctx = get_context(p, "affine")
        flat = [g for g in p.basis() if g.r == 0]
        for depths in ((1, -1, 0), (2, -3, 1), (-1, -1, 2)):
            for a, b, c in itertools.product(flat, repeat=3):
                x, y, w = (LoopGen(d, *g) for d, g in zip(depths, (a, b, c)))
                assert _jacobi_defect(ctx.loop_bracket, x, y, w) == ({}, 0)
                inner, _ = ctx.loop_bracket(y, w)
                seen += any(ctx.loop_bracket(x, z)[1] for z, _ in inner)
    # pyramids with repeated row lengths meet it; the others cannot
    assert seen > 100


LETTER_FIELDS = st.tuples(
    st.integers(-80, 80), st.integers(0, 255), st.integers(0, 255), st.integers(0, 65535)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=LETTER_FIELDS, b=LETTER_FIELDS, step=st.integers(-80, 80))
def test_letter_encoding_agrees_with_field_tuples(a, b, step):
    """A LoopGen is one int; its order, equality and hashing are those of
    its (depth, i, j, r) tuple, and a depth shift is a fixed stride."""
    ga, gb = LoopGen(*a), LoopGen(*b)
    assert type(ga) is LoopGen and isinstance(ga, int)
    assert (ga.depth, ga.i, ga.j, ga.r) == a
    assert ga.gen == a[1:] and ga.text() == f"E[{a[1]},{a[2]},{a[3]}][{a[0]}]"
    assert (ga < gb, ga <= gb, ga == gb) == (a < b, a <= b, a == b)
    assert ((ga, gb) < (gb, ga)) == ((a, b) < (b, a))
    assert len({ga, gb, LoopGen(*a)}) == len({a, b})
    assert hash(ga) == hash(LoopGen(*a))
    assert (ga >= 0) == (a[0] >= 0)
    shifted = int.__new__(LoopGen, ga + (step << 32))
    assert shifted == LoopGen(a[0] + step, *a[1:])
    assert (shifted.depth, shifted.i, shifted.j, shifted.r) == (a[0] + step,) + a[1:]
    assert ga >> 32 == a[0]
    for twin in (copy.deepcopy(ga), eval(repr(ga))):
        assert type(twin) is LoopGen and twin == ga


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    fields=LETTER_FIELDS,
    slot=st.integers(1, 3),
    bad=st.one_of(st.integers(max_value=-1), st.integers(min_value=256)),
)
def test_letter_fields_out_of_range_are_refused(fields, slot, bad):
    if slot == 3 and 0 <= bad < 65536:
        bad += 65536
    fields = fields[:slot] + (bad,) + fields[slot + 1 :]
    with pytest.raises(ValueError):
        LoopGen(*fields)


def test_engine_hands_out_only_loopgen_letters():
    """A bare int with a letter's value would hash and sort like one but
    lose its fields: none may reach a monomial the engine returns."""

    def letter_types(elements):
        return {type(g) for v in elements for m in v.terms for g in m}

    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        vectors = list(phi_table(p).entries.values())
        found = (
            letter_types(vectors)
            | letter_types(map(translation_T, vectors))
            | letter_types(map(delta, vectors))
            | letter_types(v for _, _, v in center_generators(p))
            | letter_types(
                a.element
                for a in a_chi_generators(p, selected_vectors(p), random_chi(p, 0))
            )
        )
        assert found == {LoopGen}, (lam, found)


def _letters(p, mode, fields):
    basis = p.basis()
    return tuple(
        LoopGen(0 if mode == "finite" else d, *basis[k % len(basis)]) for k, d in fields
    )


_FIELDS = st.lists(st.tuples(st.integers(0, 6), st.sampled_from((-2, -1, 0, 1))), max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lam=st.sampled_from([(2, 3), (1, 1, 2), (2, 2)]),
    mode=st.sampled_from(["finite", "affine"]),
    pieces=st.lists(st.tuples(_FIELDS, _SCALARS), max_size=4),
    cancel=st.booleans(),
)
def test_times_matches_combine(lam, mode, pieces, cancel):
    # combine normal-orders a sum of unsorted words, the empty word and
    # the empty sum included; with cancel, the first piece comes again
    # with the opposite scalar and the two cancel
    p = Pyramid(lam)
    ctx = get_context(p, mode)
    pieces = [(_letters(p, mode, fields), c) for fields, c in pieces]
    if cancel and pieces:
        pieces.append((pieces[0][0], -pieces[0][1]))
    got = ctx.combine(pieces).terms
    assert got == naive_sum(ctx, pieces)
    assert all(got.values())


def test_times_drops_a_cancelled_one_term_result():
    # (g, v, g) with g < v gives k*(g, x) for x = [v, g]; (x, g) is the
    # one word (g, x), since x lies above g and commutes with it.  With
    # the coefficient -k the term cancels in combine's sum.
    p = Pyramid((1, 2, 2))
    ctx = get_context(p, "finite")
    letters = sorted(LoopGen(0, *g) for g in p.basis())
    found = 0
    for g, v in itertools.product(letters, repeat=2):
        inner, _ = ctx.loop_bracket(v, g)
        if not (g < v and len(inner) == 1):
            continue
        (x, k), = inner
        if x <= g or ctx.loop_bracket(x, g)[0]:
            continue
        pieces = [((g, v, g), 1), ((x, g), -k)]
        got = ctx.combine(pieces).terms
        assert (g, x) not in got
        assert got == naive_sum(ctx, pieces)
        found += 1
    assert found


@pytest.mark.parametrize("lam", [(1, 2), (2, 2), (1, 1, 2)])
def test_loop_bracket_lifts_the_symbol_bracket(lam):
    # each letter pair against pyramid.bracket and form, in both modes:
    # the depth-0 rows, lifted to every other depth, with the central
    # term at opposite depths; the finite context sees depth 0 only
    p = Pyramid(lam)
    for mode, depths in (("affine", range(-2, 3)), ("finite", [0])):
        ctx = LieContext(p, mode)
        letters = [LoopGen(d, *g) for d in depths for g in p.basis()]
        empty = central_pairs = 0
        for h, g in itertools.product(letters, repeat=2):
            d = h.depth + g.depth
            terms = tuple(
                (LoopGen(d, *z), c) for z, c in bracket(p, h.gen, g.gen).items()
            )
            central = h.depth * form(p, h.gen, g.gen) if d == 0 else 0
            got = ctx.loop_bracket(h, g)
            assert got == (terms, central)
            assert all(type(z) is LoopGen for z, _ in got[0])
            central_pairs += central != 0
            if not (terms or central):
                assert got is _EMPTY
                empty += 1
        assert 0 < empty < len(letters) ** 2
        # depth pairs summing to 0 carry the central term in affine mode only
        assert (central_pairs > 0) == (mode == "affine")


# (mode, path): the affine paths keep their bare ids
REFUSING_PATHS = [
    pytest.param("affine", path, id=path)
    for path in ("word", "mul", "commutators", "act")
] + [
    pytest.param("finite", path, id=f"finite-{path}")
    for path in ("word", "mul", "commutators")
]


@pytest.mark.parametrize("mode, path", REFUSING_PATHS)
@pytest.mark.parametrize("bad", [(9, 9, 0), (1, 1, 5)], ids=["row", "shift"])
def test_bracket_path_refuses_a_symbol_outside_the_pyramid(mode, path, bad):
    # the symbol bracket is where a letter is checked: a sorted word never
    # reaches a bracket, so each call here needs a reordering (word
    # checks its letters before it reorders); one mode per case, so a case
    # shows which mode's path did the checking
    name = "E[{},{},{}]".format(*bad)
    high, low = (-1, -2) if mode == "affine" else (0, 0)
    ctx = LieContext(Pyramid((1, 1)), mode)
    # built past word, which checks its letters itself
    bad_word = Element(ctx, {(LoopGen(high, *bad),): 1})
    small = ctx.gen(1, 1, 0, depth=low)
    calls = {
        "word": lambda: ctx.word(
            [LoopGen(high, 2, 2, 0), LoopGen(high, *bad), LoopGen(low, 1, 1, 0)]
        ),
        "mul": lambda: ctx.mul(bad_word, small),
        "commutators": lambda: ctx.commutators(small, [bad_word]),
        "act": lambda: ctx.act(LoopGen(1, 1, 1, 0), bad_word),
    }
    with pytest.raises(ValueError, match=re.escape(name)):
        calls[path]()


def test_each_loop_bracket_is_built_once(monkeypatch, capsys):
    # the letter rows are a context's one bracket table: every entry, a
    # symbol bracket at depth 0 too, is built by one _make_bracket call
    built = []
    make = LieContext._make_bracket

    def counted(self, h, g):
        built.append((self.key, h, g))
        return make(self, h, g)

    monkeypatch.setattr(LieContext, "_make_bracket", counted)
    p = Pyramid((2, 2, 2, 2))
    held = [fresh_context(p, mode) for mode in ("affine", "finite")]
    assert annihilation_check(p, selected_vectors(p)).passed()
    labeled = [(f"Phi[{k},{r}]", elem) for k, r, elem in center_generators(p)]
    assert centrality_check(p, labeled).passed()
    for ctx in held:
        entries = sum(len(row) for row in ctx._loop_bracket_cache.values())
        assert sum(key == ctx.key for key, _, _ in built) == entries > 1000
    # the finite context sees each symbol pair once, in one table
    assert entries == p.dim() ** 2

    # shift fills both contexts, and each holds one table, the bracket table
    held = [fresh_context(Pyramid((1, 2)), mode) for mode in ("affine", "finite")]
    assert main(["--pyramid", "1,2", "--z", "2", "shift"]) == 0
    capsys.readouterr()
    for ctx in held:
        tables = [name for name, v in vars(ctx).items() if isinstance(v, dict)]
        assert tables == ["_loop_bracket_cache"] and ctx._loop_bracket_cache
