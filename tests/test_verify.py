import json

import pytest

from sugawara import clear_caches, pbw
from sugawara.cli import main
from sugawara.pbw import get_context
from sugawara.pyramid import Pyramid
from sugawara.reports import Report
from sugawara.shift import symbols
from sugawara.suga import phi_table, selected_pairs, selected_table
from sugawara.verify import (
    annihilation_check,
    centrality_check,
    commutativity_check,
    raising_recursion_check,
)

from oracles import failures


@pytest.mark.parametrize("lam", [(3,), (1, 1), (1, 2), (2, 2)])
def test_annihilation_small(lam):
    # every basis mode X[s] with 0 <= s <= k, for every selected (k, r)
    p = Pyramid(lam)
    report = annihilation_check(p)
    assert report.passed(), failures(report)
    assert len(report.cases) == sum((k + 1) * p.dim() for k, _ in selected_pairs(p))
    assert all(c["status"] == "pass" for c in report.cases)


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
    assert report.passed(), failures(report)
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
    assert failures(bad)[0]["diff"] is not None


def test_raising_recursion_check():
    for lam in [(1, 1), (1, 2)]:
        report = raising_recursion_check(Pyramid(lam))
        assert report.passed(), failures(report)


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


def test_reports_never_share_their_cases():
    a, b = Report("annihilation", "1,1"), Report("annihilation", "1,1")
    a.add({"s": 0})
    assert a.cases == [{"s": 0, "status": "pass"}] and b.cases == []
    assert a.passed() and b.passed()
    assert b.to_obj() == {
        "check": "annihilation",
        "pyramid": "1,1",
        "cases": [],
        "seed": None,
        "status": "empty",
    }
    seeded = Report("raising-recursion", "1,2", seed=7)
    assert (seeded.check, seeded.pyramid, seeded.cases, seeded.seed) == (
        "raising-recursion", "1,2", [], 7,
    )
    seeded.seed = 8
    assert seeded.to_obj()["seed"] == 8
    with pytest.raises(AttributeError):
        seeded.elapsed = 0



def test_verify_memo_footprint_on_2_2_2_2(capsys):
    # a deterministic count from a clean start: the bracket table is the
    # one table a context fills, and it holds the brackets of the tau
    # products' deeper right letters T^k(E[-1]) too; the pruned tau and
    # u, x recursions meet fewer letter pairs than the full ones (11,944)
    clear_caches()
    assert main(["--pyramid", "2,2,2,2", "verify"]) == 0
    capsys.readouterr()
    ctx = get_context(Pyramid((2, 2, 2, 2)), "affine")
    assert sum(len(row) for row in ctx._loop_bracket_cache.values()) == 11558


def test_commutativity_lead_count_on_2_2_2_2(monkeypatch):
    # a deterministic count from a clean start: the bottom-up walk sums
    # each prefix group's bracket before its letter enters it, and the
    # walk that bracketed each path of b's words on its own took 85,459
    clear_caches()
    p = Pyramid((2, 2, 2, 2))
    labeled = [(f"phi[{k},{r}]", e) for k, r, e in phi_table(p).selected_entries()]
    lead, calls = pbw.LieContext._lead, []

    def counted(self, *args):
        calls.append(1)
        lead(self, *args)

    monkeypatch.setattr(pbw.LieContext, "_lead", counted)
    assert commutativity_check(labeled, get_context(p, "affine")).passed()
    assert len(calls) == 70601


def test_annihilation_lead_count_on_2_2_2_2(monkeypatch):
    # a deterministic count from a clean start, the selected table's own
    # 1,157 calls included (the full table's are 1,340): each phi takes
    # its modes in one acts call, which looks each distinct letter up
    # once per mode; a bracket letter of depth >= 0 moves right through
    # the rest of its word by _lead, which builds no word the vacuum kills
    clear_caches()
    p = Pyramid((2, 2, 2, 2))
    lead, calls = pbw.LieContext._lead, []

    def counted(self, *args):
        calls.append(1)
        lead(self, *args)

    monkeypatch.setattr(pbw.LieContext, "_lead", counted)
    assert annihilation_check(p).passed()
    assert len(calls) == 28021


def test_vectors_memo_footprint_on_1_2_3_4_5(capsys):
    # the vector table fills the bracket table with the letter pairs its
    # products and translations meet, and nothing else
    clear_caches()
    assert main(["--pyramid", "1,2,3,4,5", "vectors"]) == 0
    capsys.readouterr()
    ctx = get_context(Pyramid((1, 2, 3, 4, 5)), "affine")
    assert sum(len(row) for row in ctx._loop_bracket_cache.values()) == 3612


def test_vectors_builds_few_elements_on_1_2_3_4_5(monkeypatch, capsys):
    # the column recursion sums raw terms and wraps each coefficient of
    # the result once: a recursion that sums Elements, or a product or
    # translation that wraps its result, builds thousands.  Every Element
    # is built by the constructor or by ``wrap``
    clear_caches()
    built = []
    init, wrap = pbw.Element.__init__, pbw.Element.wrap.__func__

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    def counted_wrap(cls, ctx, terms):
        built.append(1)
        return wrap(cls, ctx, terms)

    monkeypatch.setattr(pbw.Element, "__init__", counted_init)
    monkeypatch.setattr(pbw.Element, "wrap", classmethod(counted_wrap))
    assert main(["--pyramid", "1,2,3,4,5", "vectors"]) == 0
    capsys.readouterr()
    assert 0 < len(built) <= 102


def test_clear_caches_empties_the_process_caches(capsys):
    p = Pyramid((1, 2))
    assert main(["--pyramid", "1,2", "verify"]) == 0
    capsys.readouterr()
    first, chosen = phi_table(p), selected_table(p)
    assert pbw._CONTEXTS and phi_table.cache_info().currsize
    assert selected_table.cache_info().currsize
    clear_caches()
    assert pbw._CONTEXTS == {}
    assert phi_table.cache_info().currsize == 0
    assert selected_table.cache_info().currsize == 0
    again = phi_table(p)
    assert again is not first and again == first
    assert selected_table(p) is not chosen and selected_table(p) == chosen


@pytest.mark.parametrize(
    "command, full, selected",
    [("verify", 0, 1), ("vectors", 1, 0), ("shift", 1, 0), ("center", 0, 0)],
)
def test_each_command_builds_at_most_one_table(capsys, command, full, selected):
    # verify reads the selected coefficients only; vectors and shift's
    # symbols read them all; center builds its own determinant
    clear_caches()
    assert main(["--pyramid", "1,2,3", command]) == 0
    capsys.readouterr()
    assert phi_table.cache_info().currsize == full
    assert selected_table.cache_info().currsize == selected


def test_verify_table_holds_the_selected_keys_and_vectors_the_rest(capsys):
    p = Pyramid((1, 2, 3))
    chosen = set(selected_pairs(p))
    full = phi_table(p).entries
    assert selected_table(p).entries == {k: v for k, v in full.items() if k in chosen}
    assert set(selected_table(p).entries) == chosen
    # symbols and vectors see coefficients outside the selection
    assert set(symbols(p)) - chosen
    assert main(["--pyramid", "1,2,3", "vectors"]) == 0
    shown = json.loads(capsys.readouterr().out)["vectors"]
    assert {(v["k"], v["r"]) for v in shown if not v["selected"]} == set(full) - chosen
    assert set(full) - chosen
