import json

import pytest

from sugawara.pbw import LoopGen, get_context
from sugawara.pyramid import Pyramid
from sugawara.suga import phi_table
from sugawara.verify import (
    annihilation_check,
    centrality_check,
    commutativity_check,
    generating_family,
    raising_recursion_check,
)


def test_generating_family_gl2():
    p = Pyramid((1, 1))
    fam = set(generating_family(p, s_max=1))
    expected = {
        LoopGen(0, 2, 1, 0),
        LoopGen(0, 1, 2, 0),
        LoopGen(0, 1, 1, 0),
        LoopGen(0, 2, 2, 0),
        LoopGen(1, 1, 1, 0),
        LoopGen(1, 2, 2, 0),
    }
    assert fam == expected


def test_generating_family_unequal_rows():
    p = Pyramid((1, 2))
    fam = generating_family(p, s_max=0)
    assert LoopGen(0, 1, 2, 1) in fam  # lambda_2 - lambda_1 = 1
    assert LoopGen(0, 2, 1, 0) in fam


def test_generating_family_single_row():
    p = Pyramid((2,))
    fam = generating_family(p, s_max=1)
    assert fam == [
        LoopGen(0, 1, 1, 0),
        LoopGen(1, 1, 1, 0),
        LoopGen(0, 1, 1, 1),
        LoopGen(1, 1, 1, 1),
    ]


@pytest.mark.parametrize("lam", [(3,), (1, 1), (1, 2)])
def test_annihilation_small(lam):
    report = annihilation_check(Pyramid(lam))
    assert report.passed(), [c.key for c in report.failures()]
    assert all(c.status == "pass" for c in report.cases)


def test_annihilation_vacuous_cases():
    report = annihilation_check(Pyramid((1, 1)), s_max=4)
    statuses = {c.key["s"]: c.status for c in report.cases if c.key["k"] == 1}
    assert statuses[0] == statuses[1] == "pass"
    assert statuses[2] == statuses[3] == statuses[4] == "vacuous"
    assert report.passed()


def test_family_agrees_with_full_battery():
    # if the family annihilates but some basis mode does not, something
    # is broken; spot-check that family cases reproduce the full result
    p = Pyramid((1, 2))
    ctx = get_context(p, "affine")
    table = phi_table(p)
    full = annihilation_check(p)
    assert full.passed()
    for g in generating_family(p, s_max=2):
        for k, r, elem in table.selected_entries():
            if g.depth <= k:
                assert ctx.act(g, elem).is_zero()


def test_commutativity_singleton_vacuous():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    report = commutativity_check([("phi", ctx.one())], ctx)
    assert report.passed()
    assert report.cases == []


def test_commutativity_pair():
    p = Pyramid((1, 2))
    table = phi_table(p)
    ctx = get_context(p, "affine")
    labeled = [(f"phi[{k},{r}]", e) for k, r, e in table.selected_entries()]
    report = commutativity_check(labeled, ctx)
    assert report.passed(), [c.key for c in report.failures()]
    assert len(report.cases) == 3


def test_centrality_casimir():
    p = Pyramid((1, 1))
    fin = get_context(p, "finite")
    e = lambda i, j: fin.gen(i, j, 0)
    casimir = e(1, 1) * e(2, 2) - e(2, 1) * e(1, 2) + e(2, 2)
    report = centrality_check(p, [("casimir", casimir)])
    assert report.passed()
    bad = centrality_check(p, [("e11", e(1, 1))])
    assert not bad.passed()
    assert bad.failures()[0].diff is not None


def test_raising_recursion_check():
    for lam in [(1, 1), (1, 2)]:
        report = raising_recursion_check(Pyramid(lam))
        assert report.passed(), [c.key for c in report.failures()]


def test_report_json_shape_and_determinism():
    p = Pyramid((1, 1))
    r1 = annihilation_check(p)
    r2 = annihilation_check(p)
    o1, o2 = r1.to_obj(), r2.to_obj()
    assert json.dumps(o1) == json.dumps(o2)
    assert o1["check"] == "annihilation"
    assert o1["pyramid"] == "1,1"
    assert {"generator", "s", "k", "r", "status"} <= set(o1["cases"][0])
    assert "elapsed" not in json.dumps(o1)

