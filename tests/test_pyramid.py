import copy
import pickle

import pytest

from sugawara import pbw
from sugawara.pbw import get_context
from sugawara.pyramid import GenId, Pyramid, bracket, form

from oracles import (
    bracket_combo,
    combo_add,
    expand_combo,
    fresh_context,
    gl_commutator,
    gln_expand,
)


PYRAMIDS = [
    (1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (2, 3),
    (1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 4),
]


def test_pyramid_validation():
    with pytest.raises(ValueError):
        Pyramid((3, 2))
    with pytest.raises(ValueError):
        Pyramid((0, 1))
    with pytest.raises(ValueError):
        Pyramid(())
    with pytest.raises(ValueError):
        Pyramid.parse("2,x")
    assert str(Pyramid.parse("2,3,4")) == "2,3,4"
    # the engine packs row labels into 8 bits and shifts into 16
    assert Pyramid((1,) * 255).n == 255
    assert Pyramid((65536,)).lambdas == (65536,)
    with pytest.raises(ValueError, match="at most 255 rows"):
        Pyramid((1,) * 256)
    with pytest.raises(ValueError, match="at most 65536 boxes"):
        Pyramid((1, 65537))
    # a row length that is not an int is refused, not truncated
    for lam in [(1.9, 2.5), (True, 2), ("2", "3")]:
        with pytest.raises(ValueError, match="must be integers"):
            Pyramid(lam)


def test_pyramid_is_an_immutable_value():
    a, b = Pyramid((2, 2)), Pyramid([2, 2])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Pyramid((1, 2)) and a != (2, 2)
    assert len({a, b, Pyramid((1, 2))}) == 2
    # equal pyramids key one live context
    ctx = fresh_context(a, "affine")
    assert get_context(b, "affine") is ctx
    assert list(pbw._CONTEXTS) == [ctx.key]
    with pytest.raises(AttributeError):
        a.lambdas = (1, 2)
    with pytest.raises(AttributeError):
        del a.lambdas
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a.lambdas == (2, 2) and type(a.lambdas) is tuple
    assert repr(a) == "Pyramid(lambdas=(2, 2))"
    assert eval(repr(a)) == a
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_contains_reads_the_window():
    for lam in PYRAMIDS:
        p = Pyramid(lam)
        inside = set(p.basis())
        for i in range(p.n + 2):
            for j in range(p.n + 2):
                for r in range(-1, max(lam) + 1):
                    g = GenId(i, j, r)
                    assert p.contains(g) == (g in inside)


def test_genid_text_roundtrip():
    g = GenId(1, 2, 3)
    assert g.text() == "E[1,2,3]"
    assert GenId.parse("E[1,2,3]") == g
    with pytest.raises(ValueError):
        GenId.parse("E[1,2]")


def test_basis_sizes():
    assert [g.text() for g in Pyramid((1,)).basis()] == ["E[1,1,0]"]
    assert len(Pyramid((1, 1)).basis()) == 4
    assert len(Pyramid((2, 3)).basis()) == 9


@pytest.mark.parametrize("lam", PYRAMIDS)
def test_dimension_formula(lam):
    p = Pyramid(lam)
    assert len(p.basis()) == p.dim()
    assert p.dim() == sum(min(a, b) for a in lam for b in lam)


def test_window_rejects_bad_gen():
    p = Pyramid((1, 2))
    with pytest.raises(ValueError):
        p.check(GenId(1, 2, 0))  # window for (1,2) is {1}
    with pytest.raises(ValueError):
        p.check(GenId(1, 1, 1))
    with pytest.raises(ValueError):
        bracket(p, GenId(1, 1, 0), GenId(1, 2, 0))


def test_bracket_examples():
    p = Pyramid((2, 3))
    c = bracket(p, GenId(1, 2, 1), GenId(2, 1, 0))
    assert c == {GenId(1, 1, 1): 1, GenId(2, 2, 1): -1}
    # the -E[1,1,2] term truncates since 2 >= lambda_1
    c = bracket(p, GenId(2, 1, 1), GenId(1, 2, 1))
    assert c == {GenId(2, 2, 2): 1}
    for g in p.basis():
        assert bracket(p, g, g) == {}


@pytest.mark.parametrize("lam", PYRAMIDS)
def test_bracket_terms_sorted_and_nonzero(lam):
    # the basis command writes each bracket's terms in this order
    p = Pyramid(lam)
    basis = p.basis()
    for a in basis:
        for b in basis:
            terms = bracket(p, a, b)
            assert list(terms) == sorted(terms)
            assert all(terms.values())


@pytest.mark.parametrize("lam", PYRAMIDS)
def test_bracket_against_gln_embedding(lam):
    p = Pyramid(lam)
    basis = p.basis()
    expand = {g: gln_expand(p, g) for g in basis}
    for a in basis:
        for b in basis:
            got = expand_combo(p, bracket(p, a, b))
            assert got == gl_commutator(expand[a], expand[b])


@pytest.mark.parametrize("lam", [l for l in PYRAMIDS if sum(l) <= 7])
def test_antisymmetry_and_jacobi(lam):
    p = Pyramid(lam)
    basis = p.basis()
    for a in basis:
        for b in basis:
            ab = bracket(p, a, b)
            ba = bracket(p, b, a)
            assert combo_add(ab, ba) == {}
    for a in basis:
        for b in basis:
            ab = bracket(p, a, b)
            for c in basis:
                # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0
                total = bracket_combo(p, ab, c)
                total = combo_add(total, bracket_combo(p, bracket(p, b, c), a))
                total = combo_add(total, bracket_combo(p, bracket(p, c, a), b))
                assert total == {}


def test_form_examples():
    p = Pyramid((2, 3))
    assert form(p, GenId(1, 1, 0), GenId(2, 2, 0)) == 2
    q = Pyramid((1, 2))
    assert form(q, GenId(1, 1, 0), GenId(1, 1, 0)) == -1
    assert form(p, GenId(1, 1, 1), GenId(1, 1, 0)) == 0
    # diagonal self-pairing subtracts the boxes in the first lambda_i columns
    assert p.column_boxes(1) == 4
    assert form(p, GenId(1, 1, 0), GenId(1, 1, 0)) == 2 - 4
    # equal-length off-diagonal pair
    t = Pyramid((2, 2))
    assert form(t, GenId(1, 2, 0), GenId(2, 1, 0)) == -t.column_boxes(1) == -4
    assert form(t, GenId(1, 2, 1), GenId(2, 1, 1)) == 0


@pytest.mark.parametrize("lam", [l for l in PYRAMIDS if sum(l) <= 7])
def test_form_symmetric_and_invariant(lam):
    p = Pyramid(lam)
    basis = p.basis()
    for a in basis:
        for b in basis:
            assert form(p, a, b) == form(p, b, a)

    def form_combo(combo, c):
        return sum(v * form(p, g, c) for g, v in combo.items())

    for a in basis:
        for b in basis:
            ab = bracket(p, a, b)
            for c in basis:
                ac = bracket(p, a, c)
                assert form_combo(ab, c) + form_combo(ac, b) == 0


@pytest.mark.parametrize("lam", [(1, 1), (2, 2), (3, 3), (2, 2, 2)])
def test_takiff_structure_constants(lam):
    # rectangular pyramids: E[i,j,r] -> e_ij v^r inside gl_n[v]/(v^p)
    p = Pyramid(lam)
    n, depth = p.n, lam[0]
    for a in p.basis():
        for b in p.basis():
            got = bracket(p, a, b)
            rs = a.r + b.r
            expected = {}
            if rs < depth:
                if b.i == a.j:
                    expected[GenId(a.i, b.j, rs)] = expected.get(GenId(a.i, b.j, rs), 0) + 1
                if a.i == b.j:
                    expected[GenId(b.i, a.j, rs)] = expected.get(GenId(b.i, a.j, rs), 0) - 1
            assert got == {g: c for g, c in expected.items() if c}


def test_gln_expand_examples():
    p = Pyramid((2, 3, 4))
    assert gln_expand(p, GenId(1, 1, 1)) == {(1, 2): 1}
    q = Pyramid((3,))
    for r in range(3):
        assert gln_expand(q, GenId(1, 1, r)) == {(c, c + r): 1 for c in range(1, 3 - r + 1)}
    t = Pyramid((1, 1))
    assert gln_expand(t, GenId(1, 2, 0)) == {(1, 2): 1}
