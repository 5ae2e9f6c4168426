import gc
import json

import pytest

from sugawara import pbw, suga
from sugawara.cli import main
from sugawara.pbw import Element, get_context
from sugawara.pyramid import Pyramid
from sugawara.reports import Report
from sugawara.shift import a_chi_generators, center_generators, symbols
from sugawara.detcalc import cdet_tau
from sugawara.suga import phi_table, selected_pairs, selected_vectors, tau_keep
from sugawara.verify import (
    annihilation_check,
    centrality_check,
    commutativity_check,
    raising_recursion_check,
)

from oracles import failures, fresh_context


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
    # a deterministic count in a fresh context: the bracket table is the
    # one table a context fills, and it holds the brackets of the tau
    # products' deeper right letters T^k(E[-1]) too; the pruned tau and
    # u, x recursions meet fewer letter pairs than the full ones (11,944);
    # the request fills the context held here, which goes when it returns
    ctx = fresh_context(Pyramid((2, 2, 2, 2)), "affine")
    assert main(["--pyramid", "2,2,2,2", "verify"]) == 0
    capsys.readouterr()
    assert sum(len(row) for row in ctx._loop_bracket_cache.values()) == 11558


def _count_calls(monkeypatch, names):
    """The calls of each named LieContext method from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(pbw.LieContext, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(pbw.LieContext, name, counted)
    return calls


@pytest.mark.parametrize(
    "lam, count",
    [((2, 2, 2, 2), 75375), ((1, 1, 1, 1), 43719)],
    ids=["2,2,2,2", "1,1,1,1"],
)
def test_commutativity_lead_count(monkeypatch, lam, count):
    # a deterministic count, with the bracket table cold or warm: the
    # bottom-up walk splits every prefix group by its next letter and sums
    # the group's bracket before the letter enters it; on 2,2,2,2 the walk
    # that bracketed each path of b's words on its own took 85,459, and the
    # one that summed groups of at most 8 words word by word 70,601 (29,428
    # on 1,1,1,1).
    # A bracket letter below its head moves left in one pass: when head
    # letters entered it one at a time, the walk took 69,465 (27,483 on
    # 1,1,1,1).  A late term that passes one head letter takes it with
    # the rest of head as its head, and a letter that passes its tail
    # carries its head the same way: when the head entered the moved
    # words by _into, the walk took 66,169 (23,363 on 1,1,1,1).  The
    # letter brackets [a, y] are one acts call, a pass over a's places:
    # when each was the right-ad walk over a's words, 64,289 (19,913).
    # Those counts are of _lead, a second routine that moved a letter
    # right; _enter places every letter now, 59,955 _lead calls plus
    # 15,420 _enter calls when _lead was left (18,096 plus 25,623)
    p = Pyramid(lam)
    labeled = [(f"phi[{k},{r}]", e) for k, r, e in selected_vectors(p)]
    calls = _count_calls(monkeypatch, ["_enter"])
    assert commutativity_check(labeled, get_context(p, "affine")).passed()
    assert calls["_enter"] == count


def test_centrality_makes_one_acts_call_per_element_on_2_2_2_2(monkeypatch):
    # each central element takes every basis symbol in one acts call, a
    # pass over its places, with no commutator walk and no _into (32
    # commutators, 21,600 _leibniz and 8,727 _into calls when each symbol
    # took the elements by commutators)
    p = Pyramid((2, 2, 2, 2))
    labeled = [(f"Phi[{k},{r}]", e) for k, r, e in center_generators(p)]
    calls = _count_calls(monkeypatch, ["acts", "commutators", "_leibniz", "_into"])
    assert centrality_check(p, labeled).passed()
    assert calls == {"acts": len(labeled), "commutators": 0, "_leibniz": 0, "_into": 0}
    assert len(labeled) == 8


@pytest.mark.parametrize("mode", ["affine", "finite"])
def test_commutativity_makes_one_acts_call_per_left_operand(monkeypatch, mode):
    # a left operand takes its later partners in one commutators call, whose
    # letter brackets are one acts call; the last operand has no partner
    # and makes neither
    p = Pyramid((2, 2, 2, 2))
    vectors = selected_vectors(p)
    if mode == "affine":
        labeled = [(f"phi[{k},{r}]", e) for k, r, e in vectors]
    else:
        gens = a_chi_generators(p, vectors, {})
        labeled = [(f"{g.k},{g.r},{g.m}", g.element) for g in gens]
    calls = _count_calls(monkeypatch, ["acts", "commutators"])
    assert commutativity_check(labeled, get_context(p, mode)).passed()
    assert calls == {"acts": len(labeled) - 1, "commutators": len(labeled) - 1}
    assert len(labeled) > 2


def test_commutativity_walks_no_word_when_every_letter_bracket_is_empty(monkeypatch):
    # at chi = 0 the A_chi generators are central: every letter bracket
    # [a, y] is empty, so [a, b] = 0 by the Leibniz rule and the walk over
    # b's words is skipped (5,847 _leibniz calls on 2,2,2,2 when it ran)
    p = Pyramid((2, 2, 2, 2))
    gens = a_chi_generators(p, selected_vectors(p), {})
    labeled = [(f"{g.k},{g.r},{g.m}", g.element) for g in gens]
    calls = _count_calls(monkeypatch, ["acts", "_leibniz"])
    assert commutativity_check(labeled, get_context(p, "finite")).passed()
    assert calls == {"acts": 19, "_leibniz": 0}
    assert len(labeled) == 20


def test_annihilation_lead_count_on_2_2_2_2(monkeypatch):
    # a deterministic count, with the bracket table cold or warm, the
    # selected vectors' own 2,076 calls included (the full table's are
    # 2,445): each phi takes its modes in one acts call, which looks each
    # distinct letter up once per mode; a bracket letter of depth >= 0
    # moves right through the rest of its word, and no word the vacuum
    # kills is built; a letter below its head, T's on the diagonal
    # included, moves left in one pass (28,021 _lead calls when head
    # letters entered it one by one); a letter that passes its tail
    # carries its head (25,406 _lead calls when the head entered the moved
    # words by _into).  _enter places every letter: 48,010 _enter and 776
    # _lead calls from _into when a second routine, _lead, moved a letter
    # right
    p = Pyramid((2, 2, 2, 2))
    calls = _count_calls(monkeypatch, ["_enter"])
    assert annihilation_check(p, selected_vectors(p)).passed()
    assert calls["_enter"] == 48786


def test_annihilation_makes_no_into_call_on_2_2_2_2(monkeypatch):
    # every letter the action makes is placed by _enter, and one that
    # passes its tail moves right with its head, so no head enters a dict
    # of moved words (24,490 _into calls when one did)
    p = Pyramid((2, 2, 2, 2))
    vectors = selected_vectors(p)
    calls = _count_calls(monkeypatch, ["_into"])
    assert annihilation_check(p, vectors).passed()
    assert calls["_into"] == 0


def test_vectors_lead_count_on_1_2_3_4_5(monkeypatch):
    # a deterministic count, with the bracket table cold or warm: T on the
    # diagonal lowers a letter's depth and _enter moves it left past its
    # head in one pass; when the head's letters entered it one at a time by
    # _into, the table took 27,830 _lead and 11,185 _into calls; with
    # _lead, the routine that moved a letter right, 10,307 _lead calls
    # from _into beside 23,814 _enter calls
    calls = _count_calls(monkeypatch, ["_enter", "_into"])
    phi_table(Pyramid((1, 2, 3, 4, 5)))
    assert calls == {"_enter": 34121, "_into": 1216}


def test_tau_stage_makes_no_left_insertion_on_1_2_3_4_5(monkeypatch):
    # each term of B takes T^k(A), one letter, by _enter, and a letter
    # below a word moves left in it with no _into (59,605 _lead and 27,928
    # _into calls when each word took the letter by _into).  T^k(A) is
    # k! X[-1-k] in closed form: building it by _derive took 259 more
    # _enter calls (37,971)
    p = Pyramid((1, 2, 3, 4, 5))
    calls = _count_calls(monkeypatch, ["_into", "_enter"])
    assert cdet_tau(p, tau_keep(p))
    assert calls == {"_into": 0, "_enter": 37712}


def test_vectors_memo_footprint_on_1_2_3_4_5(capsys):
    # the vector table fills the bracket table with the letter pairs its
    # products and translations meet, and nothing else
    ctx = fresh_context(Pyramid((1, 2, 3, 4, 5)), "affine")
    assert main(["--pyramid", "1,2,3,4,5", "vectors"]) == 0
    capsys.readouterr()
    assert sum(len(row) for row in ctx._loop_bracket_cache.values()) == 3612


def test_vectors_builds_few_elements_on_1_2_3_4_5(monkeypatch, capsys):
    # the column recursion sums raw terms and wraps each coefficient of
    # the result once: a recursion that sums Elements, or a product or
    # translation that wraps its result, builds thousands.  Every Element
    # is built by the constructor or by ``wrap``
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


def test_no_context_outlives_its_caller(capsys):
    # the registry holds no context: a context lives as long as an element,
    # an operator or a caller holds it, and no reference cycle keeps one
    gc.collect()
    assert len(pbw._CONTEXTS) == 0
    for args in (["verify"], ["vectors"], ["center"], ["--z", "2", "shift"]):
        assert main(["--pyramid", "1,2", *args]) == 0
        capsys.readouterr()
        assert len(pbw._CONTEXTS) == 0, args
    gc.collect()
    alive = [v for v in gc.get_objects() if isinstance(v, (pbw.LieContext, Element))]
    assert alive == []
    # a library caller's table holds its context, and takes it along
    for lam in ((1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (1, 2, 3, 4, 5)):
        table = phi_table(Pyramid(lam))
        assert list(pbw._CONTEXTS) == [(lam, "affine")]
        del table
        assert len(pbw._CONTEXTS) == 0, lam
    # while a context is held, equal pyramids built apart share it
    ctx = get_context(Pyramid((1, 2)), "finite")
    assert get_context(Pyramid.parse("1,2"), "finite") is ctx
    del ctx
    assert len(pbw._CONTEXTS) == 0


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
