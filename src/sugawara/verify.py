"""Verification batteries: annihilation, commutativity, centrality.

The defining property of a Segal-Sugawara vector is that every
nonnegative mode X[s] kills it.  Modes with s above the degree k of the
vector kill it by grading alone, so checking every basis mode at
s = 0..k is the complete check.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .pbw import Element, LieContext, LoopGen, delta, get_context
from .pyramid import Pyramid
from .reports import Report


def annihilation_check(p: Pyramid, vectors: List[Tuple[int, int, Element]]) -> Report:
    """act(X[s], phi_k^(r)) = 0 for every basis X, every selected vector
    and 0 <= s <= k (beyond that it holds by grading).  Each phi takes
    all its modes in one :meth:`~sugawara.pbw.LieContext.acts` call,
    which looks each of its distinct letters up once per mode."""
    ctx = get_context(p, "affine")
    report = Report("annihilation", str(p))
    for k, r, elem in vectors:
        cases = [(g, s) for g in p.basis() for s in range(k + 1)]
        modes = [LoopGen(s, g.i, g.j, g.r) for g, s in cases]
        for (g, s), res in zip(cases, ctx.acts(modes, elem)):
            report.add({"generator": g.text(), "s": s, "k": k, "r": r}, res)
    return report


def commutativity_check(
    labeled: Sequence[Tuple[str, Element]], ctx: LieContext
) -> Report:
    """All pairwise commutators vanish (a singleton gives an empty report).
    Each left element takes its later partners in one
    :meth:`~sugawara.pbw.LieContext.commutators` call, which shares the
    letter brackets [a, y] among them."""
    report = Report("commutativity", str(ctx.pyramid))
    for a, (la, va) in enumerate(labeled):
        rest = labeled[a + 1 :]
        for (lb, _), diff in zip(rest, ctx.commutators(va, [vb for _, vb in rest])):
            report.add({"a": la, "b": lb}, diff)
    return report


def centrality_check(p: Pyramid, labeled: Sequence[Tuple[str, Element]]) -> Report:
    """Every element commutes with every basis symbol in the enveloping
    algebra of the centralizer.  Each generator takes all the elements in
    one :meth:`~sugawara.pbw.LieContext.commutators` call, which builds
    its brackets with their letters once; the cases stay element-major."""
    fin = get_context(p, "finite")
    report = Report("centrality", str(p))
    elems = [elem for _, elem in labeled]
    columns = [
        (g.text(), fin.commutators(fin.gen(g.i, g.j, g.r), elems)) for g in p.basis()
    ]
    for e, (label, _) in enumerate(labeled):
        for text, diffs in columns:
            report.add({"element": label, "generator": text}, diffs[e])
    return report


def sample_states(p: Pyramid, seed: int) -> List[Tuple[str, Element]]:
    """Deterministic test states: the vacuum, a single generator, and
    six seeded random monomials."""
    ctx = get_context(p, "affine")
    rng = random.Random(seed)
    basis = p.basis()
    out: List[Tuple[str, Element]] = [("1", ctx.one())]
    g = basis[0]
    out.append(("E[%d,%d,%d][-2]" % g, ctx.gen(g.i, g.j, g.r, depth=-2)))
    for t in range(6):
        word = [
            LoopGen(rng.choice([-1, -2]), *rng.choice(basis))
            for _ in range(rng.randint(1, 2))
        ]
        out.append((f"sample{t}", ctx.word(word)))
    return out


def raising_recursion_check(p: Pyramid, seed: int = 0) -> Report:
    """Operator identity s E[i,i,shift][s+1] = [Delta, E[i,i,shift][s]]
    on the vacuum module for s = 1, 2, checked against
    :func:`sample_states`.  Each state v takes X[1], X[2], X[3] in one
    :meth:`~sugawara.pbw.LieContext.acts` call and Delta(v) takes X[1],
    X[2] in another, so X[2] acts on v once for both s."""
    ctx = get_context(p, "affine")
    samples = [(label, v, delta(v)) for label, v in sample_states(p, seed)]
    report = Report("raising-recursion", str(p), seed=seed)
    for i in range(1, p.n + 1):
        for shift in p.window(i, i):
            x = [LoopGen(s, i, i, shift) for s in (1, 2, 3)]
            acted = [
                (label, ctx.acts(x, v), ctx.acts(x[:2], dv))
                for label, v, dv in samples
            ]
            for s in (1, 2):
                for label, on_v, on_dv in acted:
                    # s X[s+1] v against Delta(X[s] v) - X[s] Delta(v)
                    diff = s * on_v[s] - (delta(on_v[s - 1]) - on_dv[s - 1])
                    key = {"i": i, "p": shift, "s": s, "state": label}
                    report.add(key, diff)
    return report
