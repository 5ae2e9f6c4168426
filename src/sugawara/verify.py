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
from .suga import phi_table


def annihilation_check(p: Pyramid) -> Report:
    """act(X[s], phi_k^(r)) = 0 for every basis X, every selected (k, r)
    and 0 <= s <= k (beyond that it holds by grading)."""
    ctx = get_context(p, "affine")
    table = phi_table(p)
    report = Report("annihilation", str(p))
    for k, r, elem in table.selected_entries():
        for g in p.basis():
            for s in range(k + 1):
                key = {"generator": g.text(), "s": s, "k": k, "r": r}
                res = ctx.act(LoopGen(s, g.i, g.j, g.r), elem)
                report.add(key, res)
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
    :func:`sample_states`."""
    ctx = get_context(p, "affine")
    samples = sample_states(p, seed)
    report = Report("raising-recursion", str(p), seed=seed)
    for i in range(1, p.n + 1):
        for shift in range(p.lambdas[i - 1]):
            for s in (1, 2):
                lower = LoopGen(s, i, i, shift)
                upper = LoopGen(s + 1, i, i, shift)
                for label, v in samples:
                    lhs = s * ctx.act(upper, v)
                    rhs = delta(ctx.act(lower, v)) - ctx.act(lower, delta(v))
                    diff = lhs - rhs
                    key = {"i": i, "p": shift, "s": s, "state": label}
                    report.add(key, diff)
    return report
