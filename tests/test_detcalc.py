import gc
import itertools
import os
import random

import pytest

from sugawara.detcalc import (
    build_entry_matrix,
    build_tau_matrix,
    cdet,
    cdet_tau,
    coefficient_table,
    column_determinant,
    ux_matrix,
)
from sugawara.pbw import Element, _axpy, get_context, translation_T
from sugawara.pyramid import GenId, Pyramid
from sugawara.shift import center_determinant, symbols
from sugawara.suga import (
    selected_pairs,
    selected_vectors,
    selection_bounds,
    tau_keep,
    ux_keep,
)

from oracles import (
    column_determinant_bruteforce,
    monomial_degree,
    monomial_join,
    monomial_weight,
    naive_tau_matrix,
    poly_product,
    poly_sum,
    ux_join,
    vector_symbols,
    weight_component,
)


def raw(v):
    """A map key -> coefficient as a determinant map: key -> terms."""
    return {k: c.terms for k, c in v.items()}


def image(entry, inner):
    """entry applied to the map key -> coefficient inner, as such a map."""
    out = {}
    entry(out, raw(inner), 1)
    ctx = next(iter(inner.values())).ctx
    return {k: Element.wrap(ctx, t) for k, t in out.items() if t}


def by_weight(det):
    """A map tau power -> coefficient split into (power, weight) buckets."""
    return {
        (e, w): weight_component(c, w)
        for e, c in det.items()
        for w in {monomial_weight(m) for m in c.terms}
    }


def by_power(det):
    """A map (power, weight) -> terms merged into power -> terms."""
    out = {}
    for (e, _), t in det.items():
        _axpy(out.setdefault(e, {}), t, 1)
    return {e: t for e, t in out.items() if t}


def tau_by_power(p):
    """cdet_tau(p) with the weight buckets of each power merged."""
    ctx = get_context(p, "affine")
    return {e: Element(ctx, t) for e, t in by_power(raw(cdet_tau(p))).items()}


def x_coefficient(det, x):
    """Map u-exponent -> coefficient of x^x u^u in the (u, x) map det."""
    return {u: c for (u, xx), c in det.items() if xx == x}


def test_entry_windows():
    p = Pyramid((1, 2))
    m = build_entry_matrix(p)
    ctx = get_context(p, "affine")
    one = {(0, 0): ctx.one()}
    # (1,2) entry: window lambda_2 - lambda_1 .. lambda_2 - 1 = {1}, no x
    assert image(m[0][1], one) == {(1, 0): ctx.gen(1, 2, 1, depth=-1)}
    q = Pyramid((2, 2))
    mq = build_entry_matrix(q)
    qctx = get_context(q, "affine")
    assert image(mq[1][0], {(0, 0): qctx.one()}) == {
        (0, 0): qctx.gen(2, 1, 0, depth=-1),
        (1, 0): qctx.gen(2, 1, 1, depth=-1),
    }
    # a diagonal entry adds x s and lambda_i T(s) to its product with s
    for lam in [(1, 2), (2, 2), (1, 3)]:
        p = Pyramid(lam)
        ctx = get_context(p, "affine")
        m = build_entry_matrix(p)
        v = ctx.gen(2, 2, 0, depth=-1)
        s = {(0, 0): v}
        for i in range(1, p.n + 1):
            mult = {(r, 0): ctx.gen(i, i, r, depth=-1) for r in p.window(i, i)}
            one = {(0, 0): ctx.one()}
            assert image(m[i - 1][i - 1], one) == poly_sum(mult, {(0, 1): ctx.one()})
            want = poly_sum(
                poly_product(mult, s, ux_join),
                {(0, 1): v},
                {(0, 0): p.lambdas[i - 1] * translation_T(v)},
            )
            assert image(m[i - 1][i - 1], s) == want


def test_apply_entry_diagonal_to_one():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    m = build_entry_matrix(p)
    one = {(0, 0): ctx.one()}
    out = image(m[0][0], one)
    # T kills 1, so x + E_11(u) remains
    assert out == {(0, 1): ctx.one(), (0, 0): ctx.gen(1, 1, 0, depth=-1)}


def test_apply_entry_translation():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    x = ctx.gen(1, 1, 0, depth=-1)
    entry_diag = build_entry_matrix(p)[0][0]
    out = image(entry_diag, {(0, 0): x})
    assert out[(0, 1)] == x
    assert out[(0, 0)] == ctx.gen(1, 1, 0, depth=-2) + ctx.gen(
        1, 1, 0, depth=-1
    ) * x


def test_cdet_1x1():
    p = Pyramid((1,))
    ctx = get_context(p, "affine")
    d = cdet(p)
    assert d == {(0, 1): ctx.one(), (0, 0): ctx.gen(1, 1, 0, depth=-1)}


def test_cdet_gl2_constant_term():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    e = lambda i, j, d: ctx.gen(i, j, 0, depth=d)
    expected = e(1, 1, -1) * e(2, 2, -1) - e(2, 1, -1) * e(1, 2, -1) + e(2, 2, -2)
    assert cdet(p)[(0, 0)] == expected


def test_cdet_x_leading_and_trace():
    for lam in [(1, 1), (1, 2), (2, 3), (1, 1, 2), (1, 2, 3)]:
        p = Pyramid(lam)
        ctx = get_context(p, "affine")
        d = cdet(p)
        assert x_coefficient(d, p.n) == {0: ctx.one()}
        trace = {}
        for i in range(1, p.n + 1):
            for r in p.window(i, i):
                trace[r] = trace.get(r, ctx.zero()) + ctx.gen(i, i, r, depth=-1)
        got = x_coefficient(d, p.n - 1)
        assert got == {r: v for r, v in trace.items() if not v.is_zero()}


def test_cdet_u_degree_bound():
    for lam in [(1, 2), (2, 3), (1, 1, 2), (1, 2, 3), (2, 3, 4)]:
        p = Pyramid(lam)
        d = cdet(p)
        for k in range(1, p.n + 1):
            max_selected_r = sum(p.lambdas[p.n - k :]) - k
            for u in x_coefficient(d, p.n - k):
                assert u <= max_selected_r


def symbol_matrix(p):
    """delta_ij x + sum_r E[i,j,r] u^r with commuting E[i,j,r], as
    determinant entries on (u, x) maps of commutative polynomials: the
    commutative determinant, built apart from the vectors whose top words
    ``symbols`` reads."""

    def entry(i, j):
        def apply(out, inner, sign):
            for (u, x), s in inner.items():
                for r in p.window(i, j):
                    var = {(GenId(i, j, r),): sign}
                    product = poly_product(var, s, monomial_join)
                    _axpy(out.setdefault((u + r, x), {}), product, 1)
                if i == j:
                    _axpy(out.setdefault((u, x + 1), {}), s, sign)

        return apply

    rows = range(1, p.n + 1)
    return [[entry(i, j) for j in rows] for i in rows]


def _determinant_setup(kind, p):
    """(matrix, unit, value the package computes) for one of the three
    determinants built on the shared column recursion, and for the
    commutative one of :func:`symbol_matrix`, unit and value as
    determinant maps key -> terms."""
    fin = get_context(p, "finite")
    unit = {(0, 0): {(): 1}}
    if kind == "cdet":
        return build_entry_matrix(p), unit, raw(cdet(p))
    if kind == "tau":
        # the columns are reversed: the recursion's signs differ by that
        # of the reversal; the buckets are (tau power, weight)
        sign = -1 if p.n * (p.n - 1) // 2 % 2 else 1
        value = {k: c.scale(sign) for k, c in cdet_tau(p).items()}
        return build_tau_matrix(p), unit, raw(value)
    if kind == "center":
        # the diagonal constant, scaled term by term
        const = lambda i: (p.n - i) * p.lambdas[i - 1]
        diag = lambda i, out, s, c: _axpy(out, {m: const(i) * v for m, v in s.items()}, c)
        matrix = ux_matrix(p, fin, 0, diag)
        return matrix, unit, raw(center_determinant(p))
    # the top words of the full table's vectors are the x^(n-k) u^r
    # coefficients; ``symbols`` gives those of the selected ones
    full = vector_symbols(p)
    chosen = set(selected_pairs(p))
    picked = {key: poly for key, poly in full.items() if key in chosen}
    assert symbols(selected_vectors(p)) == picked
    value = {(r, p.n - k): poly for (k, r), poly in full.items()}
    value[(0, p.n)] = {(): 1}
    return symbol_matrix(p), unit, value


_ORACLE_SHAPES = [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 1, 2), (1, 2, 3)]
_ORACLE_CASES = [
    (kind, lam)
    for kind in ("cdet", "tau", "center", "symbols")
    for lam in _ORACLE_SHAPES
]


@pytest.mark.parametrize(
    "kind, lam",
    _ORACLE_CASES,
    # the cdet cases keep their established ids lam0..lam5
    ids=[
        f"lam{_ORACLE_SHAPES.index(lam)}"
        if kind == "cdet"
        else f"{kind}-{Pyramid(lam)}"
        for kind, lam in _ORACLE_CASES
    ],
)
def test_cdet_matches_permutation_oracle(kind, lam):
    p = Pyramid(lam)
    matrix, unit, value = _determinant_setup(kind, p)
    fast = column_determinant(matrix, unit)
    slow = column_determinant_bruteforce(matrix, unit)
    assert fast == slow
    assert slow == value
    if kind == "tau":
        # the same sum with every entry applied through the naive product,
        # keyed by tau power alone: on the right as the package lays the
        # matrix out, and on the left in column order, which needs no sign
        one = {0: {(): 1}}
        right = naive_tau_matrix(p, right=True)
        assert column_determinant_bruteforce(right, one) == by_power(value)
        left = naive_tau_matrix(p)
        assert column_determinant_bruteforce(left, one) == by_power(raw(cdet_tau(p)))


@pytest.mark.parametrize("kind", ["cdet", "tau", "center", "symbols"])
def test_entries_add_their_signed_image_into_prefilled_buckets(kind):
    # an entry adds sign times its image into the caller's buckets: a
    # bucket it does not reach keeps its terms, one it reaches takes the
    # sum, and a bucket whose sum cancels is left empty; inner is only
    # read
    p = Pyramid((1, 2, 2))
    matrix, unit, _ = _determinant_setup(kind, p)
    n = p.n
    inners = [unit]
    for i in range(n):
        one_column = {}
        matrix[i][n - 1](one_column, unit, 1)
        inners.append(one_column)
    cancelled = 0
    for (i, j), inner, sign in itertools.product(
        itertools.product(range(n), repeat=2), inners, (1, -1)
    ):
        fresh = {}
        matrix[i][j](fresh, inner, 1)
        other = inners[(i + j) % len(inners)]
        out = {k: dict(t) for k, t in other.items()}
        # every bucket the entry reaches holds a term, so an entry that
        # replaced a bucket would lose it
        for k in fresh:
            out.setdefault(k, {}).setdefault((), 1)
        out[("elsewhere",)] = dict(next(iter(unit.values())))
        if fresh:
            k = sorted(fresh, key=repr)[0]
            out[k] = {m: -sign * v for m, v in fresh[k].items()}
        before = {k: dict(t) for k, t in out.items()}
        kept = {k: dict(t) for k, t in inner.items()}
        matrix[i][j](out, inner, sign)
        assert inner == kept
        want = {k: dict(t) for k, t in before.items()}
        for k, t in fresh.items():
            for m, v in t.items():
                w = want.setdefault(k, {})
                w[m] = w.get(m, 0) + sign * v
        want = {k: {m: v for m, v in t.items() if v} for k, t in want.items()}
        nonzero = lambda det: {k: t for k, t in det.items() if t}
        assert nonzero(out) == nonzero(want)
        cancelled += any(before[k] and not out.get(k) for k in before)
    assert cancelled >= 10


def test_tau_matrix_shapes():
    p = Pyramid((1, 2))
    ctx = get_context(p, "affine")
    m = build_tau_matrix(p)
    one = {(0, 0): ctx.one()}
    # the columns are reversed: m[i][c] is the entry (i+1, n-c), and one
    # applied to the unit is its own tau polynomial, keyed by (tau power,
    # weight)
    a = ctx.gen(1, 1, 0, depth=-1)
    assert image(m[0][1], one) == {(1, 0): ctx.one(), (0, 0): a}
    # i<j entry tops out at tau^(lambda_i - 1)
    assert image(m[0][0], one) == {(0, 1): ctx.gen(1, 2, 1, depth=-1)}
    assert image(m[1][0], one) == {
        (2, 0): ctx.one(),
        (1, 0): ctx.gen(2, 2, 0, depth=-1),
        (0, 1): ctx.gen(2, 2, 1, depth=-1),
    }
    # an entry multiplies on the right, moving B's tau through its letter:
    # B tau * (tau + A) = B tau^2 + B A tau + B T(A); weights add
    b = ctx.gen(2, 2, 0, depth=-1)
    assert image(m[0][1], {(1, 0): b}) == {
        (2, 0): b,
        (1, 0): b * a,
        (0, 0): b * ctx.gen(1, 1, 0, depth=-2),
    }
    c = ctx.gen(2, 2, 1, depth=-1)
    assert image(m[0][0], {(1, 1): c}) == {
        (1, 2): c * ctx.gen(1, 2, 1, depth=-1),
        (0, 2): c * ctx.gen(1, 2, 1, depth=-2),
    }


def test_cdet_tau_small():
    p = Pyramid((1,))
    ctx = get_context(p, "affine")
    assert cdet_tau(p) == {(1, 0): ctx.one(), (0, 0): ctx.gen(1, 1, 0, depth=-1)}
    assert tau_by_power(p)[p.big_n - 1] == ctx.gen(1, 1, 0, depth=-1)

    q = Pyramid((2,))
    qctx = get_context(q, "affine")
    assert cdet_tau(q) == {
        (2, 0): qctx.one(),
        (1, 0): qctx.gen(1, 1, 0, depth=-1),
        (0, 1): qctx.gen(1, 1, 1, depth=-1),
    }


def test_cdet_tau_gl2():
    p = Pyramid((1, 1))
    ctx = get_context(p, "affine")
    e = lambda i, j, d: ctx.gen(i, j, 0, depth=d)
    got = tau_by_power(p)
    assert got[2] == ctx.one()
    assert got[1] == e(1, 1, -1) + e(2, 2, -1)
    expected0 = e(1, 1, -1) * e(2, 2, -1) + e(2, 2, -2) - e(2, 1, -1) * e(1, 2, -1)
    assert got[0] == expected0


@pytest.mark.parametrize("lam", [(1, 1), (1, 2), (2, 3), (1, 1, 2)])
def test_cdet_tau_monic(lam):
    p = Pyramid(lam)
    ctx = get_context(p, "affine")
    top = tau_by_power(p)[p.big_n]
    assert top == ctx.one()


@pytest.mark.parametrize("lam", [(1, 2), (1, 1, 2), (2, 2)])
def test_tau_entries_match_the_naive_skew_product(lam):
    rng = random.Random(17)
    p = Pyramid(lam)
    ctx = get_context(p, "affine")
    basis = p.basis()

    def letter():
        g = rng.choice(basis)
        return ctx.gen(g.i, g.j, g.r, depth=rng.choice([-1, -2]))

    def random_inner():
        terms = {}
        for _ in range(3):
            e = rng.randint(0, 3)
            elem = letter() * letter() if rng.randint(0, 1) else letter()
            terms[e] = terms.get(e, ctx.zero()) + elem
        return {e: c for e, c in terms.items() if c}

    fast, naive = build_tau_matrix(p), naive_tau_matrix(p, right=True)
    for _ in range(4):
        inner = random_inner()
        split = by_weight(inner)
        for i, j in itertools.product(range(p.n), repeat=2):
            got = image(fast[i][j], split)
            merged = {e: Element(ctx, t) for e, t in by_power(raw(got)).items()}
            # each bucket holds the words of its own weight
            assert got == by_weight(merged)
            assert merged == image(naive[i][j], inner)


def test_term_counts_stay_bounded():
    # the recursion must not blow up on the acceptance shapes; the
    # observed maximum is 39 terms per coefficient on (2,3,4)
    for lam in [(2, 3), (1, 1, 2), (1, 2, 3), (2, 3, 4)]:
        d = cdet(Pyramid(lam))
        assert max(len(c.terms) for c in d.values()) <= 200


def test_max_weight_component():
    p = Pyramid((2, 3))
    ctx = get_context(p, "affine")
    v = ctx.gen(1, 2, 1, depth=-1) * ctx.gen(2, 2, 0, depth=-1) + ctx.gen(
        2, 2, 2, depth=-1
    )
    assert weight_component(v, 1) == ctx.gen(1, 2, 1, depth=-1) * ctx.gen(
        2, 2, 0, depth=-1
    )
    assert weight_component(v, 2) == ctx.gen(2, 2, 2, depth=-1)
    assert weight_component(v, 5).is_zero()


def test_determinants_and_products_leave_no_reference_cycles():
    # a cycle would keep subset determinants or product dicts alive until
    # the cyclic collector happens to run
    p = Pyramid((1, 2, 3))
    ctx = get_context(p, "affine")
    fin = get_context(p, "finite")
    e = lambda i, j, r, d: ctx.gen(i, j, r, depth=d)
    a = e(1, 3, 2, -1) * e(2, 2, 1, -1) + e(3, 3, 0, -2)
    b = e(3, 1, 0, -1) * e(3, 3, 1, -1) + e(3, 1, 0, -1) * e(2, 3, 1, -2)

    def work():
        cdet(p)
        center_determinant(p)
        symbols(selected_vectors(p))
        cdet_tau(p)
        ctx.mul(a, b)
        ctx.commutators(a, [b, a])
        fin.commutators(fin.gen(1, 3, 2), [fin.gen(3, 1, 0) * fin.gen(2, 3, 1)])
        fin.commutators(fin.gen(2, 3, 1), [fin.gen(1, 3, 2) * fin.gen(3, 1, 0), fin.gen(2, 2, 1)])

    work()  # fills the engine's memo and caches
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the pruned recursions: each reader's buckets are exact


def _pyramids(boxes, rows):
    """Every pyramid of at most ``boxes`` boxes and ``rows`` rows."""

    def grow(lam, left):
        if lam:
            yield lam
        if len(lam) < rows:
            for x in range(lam[-1] if lam else 1, left + 1):
                yield from grow(lam + (x,), left - x)

    return list(grow((), boxes))


_SWEEP = _pyramids(8, 6)
# seven and eight rows take about 100 s together: opt-in
_SWEEP_WIDE = [lam for lam in _pyramids(8, 8) if len(lam) > 6]
_WIDE = os.environ.get("SUGAWARA_WIDE_SWEEP") == "1"


def _tau_reads(p):
    """The weights tau_cross_check reads, as tau power -> least weight:
    at the power N - r - k of each selected (k, r), every weight from the
    least such r up (the selected ones and the top one)."""
    need = {}
    for k, r in selected_pairs(p):
        e = p.big_n - r - k
        need[e] = min(r, need.get(e, r))
    return need


def _pruned_buckets_agree(p):
    n = p.n
    chosen = set(selected_pairs(p))
    # the u, x determinants: the selected coefficients and the monic x^n
    for det in (cdet, center_determinant):
        full, pruned = det(p), det(p, ux_keep(p))
        for k, r in chosen | {(0, 0)}:
            assert pruned.get((r, n - k)) == full.get((r, n - k)), (det, k, r)
    # the ladder reads from each level's lower end up, where only
    # selected coefficients lie, and the top selected one of the level
    # below; vectors reads the rest of the full table
    for k, r in coefficient_table(cdet(p), n):
        assert (k, r) in chosen or r < selection_bounds(p, k)[0], (k, r)
    full, pruned = cdet_tau(p), cdet_tau(p, tau_keep(p))
    for e, least in _tau_reads(p).items():
        read = lambda det: {w: c for (f, w), c in det.items() if f == e and w >= least}
        assert read(pruned) == read(full), e


@pytest.mark.parametrize("lam", _SWEEP, ids=[str(Pyramid(lam)) for lam in _SWEEP])
def test_pruned_determinants_agree_where_read(lam):
    _pruned_buckets_agree(Pyramid(lam))


@pytest.mark.skipif(not _WIDE, reason="set SUGAWARA_WIDE_SWEEP=1 to run")
@pytest.mark.parametrize(
    "lam", _SWEEP_WIDE, ids=[str(Pyramid(lam)) for lam in _SWEEP_WIDE]
)
def test_pruned_determinants_agree_where_read_wide(lam):
    _pruned_buckets_agree(Pyramid(lam))


@pytest.mark.parametrize("lam", [(1, 2, 3), (2, 2, 2), (1, 1, 1, 2), (1, 1, 3, 3)])
def test_tau_buckets_hold_their_weight_and_degree(lam):
    # a word's weight adds under brackets and T, the central term lives
    # at weight 0, and each column adds lambda_j to power + weight +
    # degree: bucket (e, w) of the full determinant holds only words of
    # weight w and degree N - e - w
    p = Pyramid(lam)
    det = column_determinant(build_tau_matrix(p), {(0, 0): {(): 1}})
    assert len({w for _, w in det}) > 1
    for (e, w), terms in det.items():
        for m in terms:
            assert monomial_weight(m) == w
            assert monomial_degree(m) == p.big_n - e - w


def test_pruning_keeps_the_designed_buckets():
    # a deterministic count of the bucket keys each keep test accepts,
    # summed over every row subset of every level, on 1,2,3,4: a looser
    # bound (the u, x prune adding the shifts of the taken columns, not
    # of those still to come) stays exact but keeps more
    p = Pyramid((1, 2, 3, 4))

    def counting(keep):
        kept = []

        def test(size, key):
            kept.append(keep(size, key))
            return kept[-1]

        return test, kept

    for det, keep, want, seen, full in (
        (cdet, ux_keep(p), 81, 107, 118),
        (cdet_tau, tau_keep(p), 70, 119, 119),
    ):
        test, kept = counting(keep)
        det(p, test)
        assert (sum(kept), len(kept)) == (want, seen)
        test, kept = counting(lambda size, key: True)
        det(p, test)
        assert len(kept) == full
