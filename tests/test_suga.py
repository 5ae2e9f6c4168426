import os
import subprocess
import sys
from pathlib import Path

import pytest

from sugawara import suga
from sugawara.pbw import delta, get_context
from sugawara.pyramid import Pyramid
from sugawara.suga import (
    SugaTable,
    delta_ladder,
    ladder_coefficient,
    phi_table,
    selected_pairs,
    selected_vectors,
    selection_bounds,
    tau_cross_check,
)

from oracles import (
    failures,
    gln_delta_tower,
    homogeneity_ok,
    minimal_nilpotent_check,
    monomial_degree,
    pair_for_total,
    per_level_counts,
    phi_2_formula_check,
)


ROOT = Path(__file__).resolve().parents[1]

PYRAMIDS = [
    (1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (2, 3),
    (1, 1, 1), (1, 1, 2), (1, 2, 3),
]


def test_principal_case_phi1():
    p = Pyramid((3,))
    ctx = get_context(p, "affine")
    table = phi_table(p)
    assert set(table.selected) == {(1, 0), (1, 1), (1, 2)}
    for r in range(3):
        assert table.entries[1, r] == ctx.gen(1, 1, r, depth=-1)


def test_selected_set_2_3():
    p = Pyramid((2, 3))
    assert set(selected_pairs(p)) == {(1, 0), (1, 1), (1, 2), (2, 2), (2, 3)}
    assert len(selected_pairs(p)) == p.big_n


def test_minimal_nilpotent_phi1_entry():
    p = Pyramid((1, 1, 2))
    ctx = get_context(p, "affine")
    assert phi_table(p).entries[1, 1] == ctx.gen(3, 3, 1, depth=-1)


@pytest.mark.parametrize("lam", PYRAMIDS)
def test_selected_counts(lam):
    p = Pyramid(lam)
    pairs = selected_pairs(p)
    assert len(pairs) == p.big_n
    counts = per_level_counts(p)
    for k in range(1, p.n + 1):
        assert counts[k] == p.lambdas[p.n - k]
    # selected entries all present and nonzero in the table
    table = phi_table(p)
    for k, r in pairs:
        assert (k, r) in table.entries


@pytest.mark.parametrize("lam", PYRAMIDS)
def test_totals_partition(lam):
    p = Pyramid(lam)
    totals = sorted(k + r for k, r in selected_pairs(p))
    assert totals == list(range(1, p.big_n + 1))
    for t in range(1, p.big_n + 1):
        k, r = pair_for_total(p, t)
        assert (k, r) in set(selected_pairs(p))
        assert k + r == t
    with pytest.raises(ValueError):
        pair_for_total(p, p.big_n + 1)


@pytest.mark.parametrize("lam", [(1, 1), (2, 2), (1, 2), (2, 3)])
def test_phi2_closed_form(lam):
    assert phi_2_formula_check(Pyramid(lam))


def test_phi2_closed_form_needs_two_rows():
    with pytest.raises(ValueError):
        phi_2_formula_check(Pyramid((1, 1, 1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minimal_nilpotent_closed_form(n):
    assert minimal_nilpotent_check(n)


def test_minimal_nilpotent_degree():
    p = Pyramid((1, 2))
    elem = phi_table(p).entries[2, 1]
    assert {monomial_degree(m) for m in elem.terms} == {2}


@pytest.mark.parametrize("lam", PYRAMIDS)
def test_selected_vectors_homogeneous(lam):
    assert homogeneity_ok(selected_vectors(Pyramid(lam)))


def test_ladder_k1_all_zero():
    for lam in [(2, 3), (1, 1, 2)]:
        p = Pyramid(lam)
        table = phi_table(p)
        for (k, r), elem in table.entries.items():
            if k == 1:
                assert delta(elem).is_zero()


def test_ladder_gl2_example():
    p = Pyramid((1, 1))
    table = phi_table(p)
    assert selection_bounds(p, 2)[0] == 0
    assert ladder_coefficient(p, 2) == -1
    assert delta(table.entries[2, 0]) == -1 * table.entries[1, 0]


def test_ladder_gl3_example():
    p = Pyramid((1, 1, 1))
    table = phi_table(p)
    assert delta(table.entries[3, 0]) == -2 * table.entries[2, 0]
    assert delta(table.entries[2, 0]) == -2 * table.entries[1, 0]


@pytest.mark.parametrize("lam", PYRAMIDS)
def test_delta_ladder_report(lam):
    p = Pyramid(lam)
    report = delta_ladder(p, selected_vectors(p))
    assert report.passed(), failures(report)


@pytest.mark.parametrize("n", [2, 3])
def test_tower(n):
    powers, report = gln_delta_tower(n)
    assert report.passed()
    assert len(powers) == n + 1
    assert powers[-1].is_zero()
    if n == 2:
        table = phi_table(Pyramid((1, 1)))
        assert powers[1] == -1 * table.entries[1, 0]
    if n == 3:
        table = phi_table(Pyramid((1, 1, 1)))
        assert powers[2] == 4 * table.entries[1, 0]


@pytest.mark.parametrize("lam", [(1, 1), (3,), (1, 2), (2, 3), (1, 1, 2)])
def test_tau_cross_check(lam):
    p = Pyramid(lam)
    report = tau_cross_check(p, selected_vectors(p))
    assert report.passed(), failures(report)


def test_table_fields_read_as_before():
    p = Pyramid((1, 2))
    table = phi_table(p)
    assert SugaTable._fields == ("entries", "selected")
    assert table.selected == selected_pairs(p)
    assert set(table.selected) <= set(table.entries)
    # the selected vectors are the table's selected entries, in its order
    assert selected_vectors(p) == [
        (k, r, table.entries[(k, r)]) for k, r in table.selected
    ]


def test_selection_bounds_match_display():
    p = Pyramid((2, 3))
    assert selection_bounds(p, 1) == (0, 2)
    assert selection_bounds(p, 2) == (2, 3)


def _doubled_leading(cdet):
    """cdet with its x^n coefficient doubled: a determinant not monic in x."""

    def doubled(p, keep):
        d = cdet(p, keep)
        d[0, p.n] = d[0, p.n].scale(2)
        return d

    return doubled


def test_a_determinant_not_monic_is_refused(monkeypatch):
    monkeypatch.setattr(suga, "cdet", _doubled_leading(suga.cdet))
    p = Pyramid((1, 2))
    for read in (phi_table, selected_vectors):
        with pytest.raises(RuntimeError, match="not monic in x"):
            read(p)


# The same refusal under -O, which strips every assert statement.
NOT_MONIC_PROBE = """
from sugawara import suga
from sugawara.pyramid import Pyramid
from test_suga import _doubled_leading
assert False, "-O keeps assert statements"
suga.cdet = _doubled_leading(suga.cdet)
try:
    suga.phi_table(Pyramid((1, 2)))
except RuntimeError as exc:
    print(exc)
"""


def test_a_determinant_not_monic_is_refused_under_dash_o():
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", NOT_MONIC_PROBE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "the determinant of 1,2 is not monic in x\n"
