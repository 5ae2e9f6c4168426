import gc
import json

import pytest

from sugawara import clear_caches, pbw, suga
from sugawara.cli import main
from sugawara.pbw import Element, get_context
from sugawara.pyramid import Pyramid
from sugawara.reports import Report
from sugawara.shift import symbols
from sugawara.detcalc import cdet_tau
from sugawara.suga import phi_table, selected_pairs, selected_vectors, tau_keep
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
    report = annihilation_check(p, selected_vectors(p))
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
    ctx = get_context(p, "affine")
    labeled = [(f"phi[{k},{r}]", e) for k, r, e in selected_vectors(p)]
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
    r1 = annihilation_check(p, selected_vectors(p))
    r2 = annihilation_check(p, selected_vectors(p))
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


def _count_calls(monkeypatch, names):
    """The calls of each named LieContext method from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(pbw.LieContext, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            method(self, *args)

        monkeypatch.setattr(pbw.LieContext, name, counted)
    return calls


@pytest.mark.parametrize(
    "lam, count",
    [((2, 2, 2, 2), 66169), ((1, 1, 1, 1), 23363)],
    ids=["2,2,2,2", "1,1,1,1"],
)
def test_commutativity_lead_count(monkeypatch, lam, count):
    # a deterministic count from a clean start: the bottom-up walk splits
    # every prefix group by its next letter and sums the group's bracket
    # before the letter enters it; on 2,2,2,2 the walk that bracketed each
    # path of b's words on its own took 85,459, and the one that summed
    # groups of at most 8 words word by word 70,601 (29,428 on 1,1,1,1).
    # A bracket letter below its head moves left by _enter, with no _lead:
    # when head letters entered it one at a time, the walk took 69,465
    # (27,483 on 1,1,1,1)
    clear_caches()
    p = Pyramid(lam)
    labeled = [(f"phi[{k},{r}]", e) for k, r, e in selected_vectors(p)]
    calls = _count_calls(monkeypatch, ["_lead"])
    assert commutativity_check(labeled, get_context(p, "affine")).passed()
    assert calls["_lead"] == count


def test_annihilation_lead_count_on_2_2_2_2(monkeypatch):
    # a deterministic count from a clean start, the selected vectors' own
    # 776 calls included (the full table's are 892): each phi takes
    # its modes in one acts call, which looks each distinct letter up
    # once per mode; a bracket letter of depth >= 0 moves right through
    # the rest of its word by _lead, which builds no word the vacuum kills;
    # a letter below its head, T's on the diagonal included, moves left by
    # _enter with no _lead (28,021 when head letters entered it one by one)
    clear_caches()
    p = Pyramid((2, 2, 2, 2))
    calls = _count_calls(monkeypatch, ["_lead"])
    assert annihilation_check(p, selected_vectors(p)).passed()
    assert calls["_lead"] == 25406


def test_vectors_lead_count_on_1_2_3_4_5(monkeypatch):
    # a deterministic count from a clean start: T on the diagonal lowers
    # a letter's depth and _enter moves it left past its head in one pass;
    # when the head's letters entered it one at a time by _into, the
    # table took 27,830 _lead and 11,185 _into calls
    clear_caches()
    calls = _count_calls(monkeypatch, ["_lead", "_into"])
    phi_table(Pyramid((1, 2, 3, 4, 5)))
    assert calls == {"_lead": 10307, "_into": 1216}


def test_tau_stage_makes_no_left_insertion_on_1_2_3_4_5(monkeypatch):
    # each term of B takes T^k(A), one letter, by _enter, and a letter
    # below a word moves left in it with no _lead and no _into (59,605 and
    # 27,928 calls when each word took the letter by _into)
    p = Pyramid((1, 2, 3, 4, 5))
    clear_caches()
    calls = _count_calls(monkeypatch, ["_lead", "_into", "_enter"])
    assert cdet_tau(p, tau_keep(p))
    assert calls == {"_lead": 0, "_into": 0, "_enter": 37971}


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
    # the vector tables go with their callers: once both are dropped, no
    # Element of the pyramid's context is left alive; the contexts are
    # the one cache that lives as long as the process
    p = Pyramid((1, 2, 3))
    clear_caches()
    phi_table(p)
    selected_vectors(p)
    ctx = get_context(p, "affine")
    gc.collect()
    alive = [v for v in gc.get_objects() if isinstance(v, Element) and v.ctx is ctx]
    assert alive == []
    assert main(["--pyramid", "1,2", "verify"]) == 0
    capsys.readouterr()
    assert pbw._CONTEXTS
    clear_caches()
    assert pbw._CONTEXTS == {}
    assert get_context(p, "affine") is not ctx


@pytest.mark.parametrize(
    "command, full, selected",
    [("verify", 0, 1), ("vectors", 1, 0), ("shift", 0, 1), ("center", 0, 0)],
)
def test_each_command_builds_at_most_one_table(
    monkeypatch, capsys, command, full, selected
):
    # verify and shift read the selected coefficients only; vectors
    # shows them all; center builds its own determinant
    cdet, calls = suga.cdet, []

    def counted(p, keep=None):
        calls.append(keep is None)
        return cdet(p, keep)

    monkeypatch.setattr(suga, "cdet", counted)
    assert main(["--pyramid", "1,2,3", command]) == 0
    capsys.readouterr()
    assert (calls.count(True), calls.count(False)) == (full, selected)


def test_verify_table_holds_the_selected_keys_and_vectors_the_rest(capsys):
    p = Pyramid((1, 2, 3))
    chosen = set(selected_pairs(p))
    full = phi_table(p).entries
    vectors = selected_vectors(p)
    picked = {(k, r): e for k, r, e in vectors}
    assert picked == {k: v for k, v in full.items() if k in chosen}
    assert set(picked) == chosen
    # symbols are those of the selected vectors; vectors shows the rest
    assert set(symbols(vectors)) == chosen
    assert main(["--pyramid", "1,2,3", "vectors"]) == 0
    shown = json.loads(capsys.readouterr().out)["vectors"]
    assert {(v["k"], v["r"]) for v in shown if not v["selected"]} == set(full) - chosen
    assert set(full) - chosen
