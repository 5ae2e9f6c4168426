"""Acceptance battery: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them on passing runs).  All tolerances are exact equality; the two
runtime budgets are asserted with a monotonic clock.
"""

import random
import time
from fractions import Fraction

from sugawara.detcalc import (
    build_entry_matrix,
    column_determinant,
)
from sugawara.pbw import (
    LoopGen,
    delta,
    get_context,
    translation_T,
)
from sugawara.pyramid import Pyramid, bracket, form
from sugawara.shift import (
    a_chi_generators,
    apply_automorphism,
    center_generators,
    jacobian_rank,
    random_point,
    rho_chi,
    symbols,
)
from sugawara.suga import (
    delta_ladder,
    phi_table,
    selected_pairs,
    selected_vectors,
    tau_cross_check,
)
from sugawara.verify import annihilation_check, centrality_check, commutativity_check

from oracles import (
    bracket_combo,
    column_determinant_bruteforce,
    combo_add,
    degree_d,
    expand_combo,
    gl_commutator,
    gln_delta_tower,
    gln_expand,
    minimal_nilpotent_check,
    per_level_counts,
    phi_2_formula_check,
    poly_product,
    random_chi,
)

ALL_PYRAMIDS = [
    (1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (2, 3),
    (1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 4),
]


def _finish(num: int, ok: bool, label: str):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_examples_reproduction():
    start = time.monotonic()
    ok = True
    # principal case p = (N): phi_1^(r) = E[1,1,r][-1]
    for n_boxes in range(1, 6):
        p = Pyramid((n_boxes,))
        ctx = get_context(p, "affine")
        table = phi_table(p)
        ok = ok and set(table.selected) == {(1, r) for r in range(n_boxes)}
        for r in range(n_boxes):
            ok = ok and table.entries[1, r] == ctx.gen(1, 1, r, depth=-1)
    # two-row closed forms
    for lam in [(1, 1), (2, 2), (1, 2), (2, 3)]:
        ok = ok and phi_2_formula_check(Pyramid(lam))
    # minimal nilpotent closed forms
    for n in (2, 3, 4):
        ok = ok and minimal_nilpotent_check(n)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _finish(1, ok, f"examples reproduced term-exactly in {elapsed:.2f}s (<10s)")


def test_criterion_2_annihilation():
    start = time.monotonic()
    ok = True
    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        report = annihilation_check(p, selected_vectors(p))
        ok = ok and report.passed()
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _finish(2, ok, f"all nonnegative modes annihilate, 11 pyramids in {elapsed:.2f}s (<5min)")


def test_criterion_3_selected_counts():
    ok = True
    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        pairs = selected_pairs(p)
        ok = ok and len(pairs) == p.big_n
        counts = per_level_counts(p)
        for k in range(1, p.n + 1):
            ok = ok and counts[k] == p.lambdas[p.n - k]
        table = phi_table(p)
        ok = ok and all((k, r) in table.entries for k, r in pairs)
    _finish(3, ok, "selected count N and per-level multiplicities, exact")


def test_criterion_4_ladder():
    ok = True
    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        ok = ok and delta_ladder(p, selected_vectors(p)).passed()
    _finish(4, ok, "raising-operator ladder identities, exact")


def test_criterion_5_tau_presentation():
    ok = True
    for lam in ALL_PYRAMIDS:
        if sum(lam) <= 6:
            p = Pyramid(lam)
            ok = ok and tau_cross_check(p, selected_vectors(p)).passed()
    _finish(5, ok, "weight-r component of the tau coefficients, exact, N <= 6")


def test_criterion_6_tower():
    ok = True
    for n in (2, 3, 4):
        powers, report = gln_delta_tower(n)
        ok = ok and report.passed() and powers[-1].is_zero()
    _finish(6, ok, "all-ones tower with ladder-derived constants, exact")


def test_criterion_7_commutativity():
    ok = True
    for lam in ALL_PYRAMIDS:
        if sum(lam) > 6:
            continue
        p = Pyramid(lam)
        ctx = get_context(p, "affine")
        labeled = [(f"phi[{k},{r}]", e) for k, r, e in selected_vectors(p)]
        ok = ok and commutativity_check(labeled, ctx).passed()
    for lam in ALL_PYRAMIDS:
        if sum(lam) > 5:
            continue
        p = Pyramid(lam)
        fin = get_context(p, "finite")
        vectors = selected_vectors(p)
        for seed in (1, 2, 3):
            gens = a_chi_generators(p, vectors, random_chi(p, seed))
            labeled = [(f"g[{g.k},{g.r},{g.m}]", g.element) for g in gens]
            ok = ok and commutativity_check(labeled, fin).passed()
    _finish(7, ok, "pairwise commutators vanish (vacuum N<=6; shifted N<=5, 3 seeds)")


def test_criterion_8_center_generators():
    ok = True
    for lam in ALL_PYRAMIDS:
        if sum(lam) > 6:
            continue
        p = Pyramid(lam)
        gens = center_generators(p)
        labeled = [(f"Phi[{k},{r}]", e) for k, r, e in gens]
        ok = ok and centrality_check(p, labeled).passed()
        c = Fraction(-p.n + 1)
        twisted = [
            (f"Phi[{k},{r}]@c", apply_automorphism(p, e, c)) for k, r, e in gens
        ]
        ok = ok and centrality_check(p, twisted).passed()
    _finish(8, ok, "center generators central, also after the c = 1-n shift")


def test_criterion_9_jacobian_rank():
    ok = True
    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        sym = symbols(selected_vectors(p))
        for seed in (1, 2, 3):
            ok = ok and jacobian_rank(p, sym, random_point(p, seed)) == p.big_n
    _finish(9, ok, "symbol Jacobian has full rank N at random points, 3 seeds")


def test_criterion_10_engine_properties():
    ok = True
    # bracket oracle against the gl_N embedding, N <= 9
    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        basis = p.basis()
        expand = {g: gln_expand(p, g) for g in basis}
        for a in basis:
            for b in basis:
                got = expand_combo(p, bracket(p, a, b))
                if got != gl_commutator(expand[a], expand[b]):
                    ok = False
    # Jacobi and form invariance, N <= 7
    for lam in ALL_PYRAMIDS:
        p = Pyramid(lam)
        if p.big_n > 7:
            continue
        basis = p.basis()
        for a in basis:
            for b in basis:
                ab = bracket(p, a, b)
                for c in basis:
                    j1 = bracket_combo(p, ab, c)
                    j2 = bracket_combo(p, bracket(p, b, c), a)
                    j3 = bracket_combo(p, bracket(p, c, a), b)
                    if combo_add(combo_add(j1, j2), j3):
                        ok = False
                    inv = sum(v * form(p, g, c) for g, v in ab.items())
                    inv += sum(
                        v * form(p, g, b)
                        for g, v in bracket(p, a, c).items()
                    )
                    if inv != 0:
                        ok = False
    # operator identities on 100 random states
    rng = random.Random(424242)
    ctx = get_context(Pyramid((1, 2)), "affine")
    basis = ctx.pyramid.basis()
    for _ in range(100):
        word = [
            LoopGen(rng.choice([-1, -2, -3]), *rng.choice(basis))
            for _ in range(rng.randint(1, 3))
        ]
        v = ctx.word(word, rng.choice([1, -1, Fraction(1, 3)]))
        if (delta(translation_T(v)) - translation_T(delta(v))) != 2 * degree_d(v):
            ok = False
        lhs = degree_d(translation_T(v)) - translation_T(degree_d(v))
        if lhs != -translation_T(v):
            ok = False
    # memoized column recursion equals the permutation sum, n <= 4
    for lam in [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 1, 2), (1, 2, 3),
                (1, 1, 1, 1), (1, 1, 1, 2)]:
        p = Pyramid(lam)
        matrix = build_entry_matrix(p)
        unit = {(0, 0): {(): 1}}
        fast = column_determinant(matrix, unit)
        slow = column_determinant_bruteforce(matrix, unit)
        if fast != slow:
            ok = False
    # evaluation homomorphism on 50 random products
    rng = random.Random(7)
    p = Pyramid((1, 2))
    ctx = get_context(p, "affine")
    basis = p.basis()
    chi = random_chi(p, seed=5)
    for _ in range(50):
        words = []
        for _ in range(2):
            words.append(
                ctx.word(
                    [
                        LoopGen(rng.choice([-1, -1, -2]), *rng.choice(basis))
                        for _ in range(rng.randint(1, 2))
                    ]
                )
            )
        a, b = words
        if rho_chi(a * b, chi) != poly_product(rho_chi(a, chi), rho_chi(b, chi)):
            ok = False
    _finish(10, ok, "engine properties (oracle, Jacobi, operators, cdet, rho)")
