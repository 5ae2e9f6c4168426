"""Extraction and bookkeeping of the Segal-Sugawara vectors.

The column determinant of a pyramid expands as

    x^n + phi_1(u) x^{n-1} + ... + phi_n(u),    phi_k(u) = sum_r phi_k^(r) u^r,

and the coefficients phi_k^(r) whose indices satisfy

    lambda_{n-k+2} + ... + lambda_n  <  r + k  <=  lambda_{n-k+1} + ... + lambda_n

form a complete set of Segal-Sugawara vectors: N of them, with exactly
lambda_{n-k+1} admitted shifts for each k.  This module builds the full
coefficient table (entries outside the selected window are needed by the
ladder identities), the raising-operator ladder and the comparison
against the tau presentation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

from .detcalc import cdet, cdet_tau, coefficient_table
from .pbw import (
    _CONTEXTS,
    Element,
    delta,
    get_context,
    monomial_weight,
    weight_component,
)
from .pyramid import Pyramid
from .reports import Report


class SugaTable(NamedTuple):
    """All nonzero x^{n-k} u^r coefficients of the column determinant,
    with the selected index pairs flagged."""

    pyramid: Pyramid
    entries: Dict[Tuple[int, int], Element]
    selected: Tuple[Tuple[int, int], ...]

    def entry(self, k: int, r: int) -> Element:
        zero = get_context(self.pyramid, "affine").zero()
        return self.entries.get((k, r), zero)

    def selected_entries(self) -> List[Tuple[int, int, Element]]:
        return [(k, r, self.entries[(k, r)]) for (k, r) in self.selected]


def selection_bounds(p: Pyramid, k: int) -> Tuple[int, int]:
    """Selected shifts for level k run over lo <= r <= hi."""
    tail = sum(p.lambdas[p.n - k + 1 :])  # lambda_{n-k+2} + ... + lambda_n
    lo = tail - k + 1
    hi = tail + p.lambdas[p.n - k] - k
    return lo, hi


def selected_pairs(p: Pyramid) -> Tuple[Tuple[int, int], ...]:
    out = []
    for k in range(1, p.n + 1):
        lo, hi = selection_bounds(p, k)
        out.extend((k, r) for r in range(max(lo, 0), hi + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def phi_table(p: Pyramid) -> SugaTable:
    d = cdet(p)
    ctx = get_context(p, "affine")
    assert d.get((0, p.n)) == ctx.one(), "determinant must be monic in x"
    return SugaTable(p, coefficient_table(d, p.n), selected_pairs(p))


def clear_caches() -> None:
    """Empty the two caches that live as long as the process: the vector
    tables of :func:`phi_table` and the shared rewriting contexts with
    their bracket tables.  For a library caller that loops over many
    pyramids; later results are the same, only recomputed."""
    phi_table.cache_clear()
    _CONTEXTS.clear()


# -- the raising-operator ladder


def ladder_coefficient(p: Pyramid, k: int) -> int:
    return -(k - 1) * sum(p.lambdas[: p.n - k + 1])


def delta_ladder(p: Pyramid) -> Report:
    table = phi_table(p)
    report = Report("delta-ladder", str(p))
    for (k, r), elem in sorted(table.entries.items()):
        # below the window's lower end the ladder makes no claim; at it,
        # Delta maps phi_k^(r) onto a known multiple of phi_{k-1}^(r);
        # above it, to zero
        boundary = selection_bounds(p, k)[0]
        if r < boundary:
            continue
        image = delta(elem)
        if r > boundary:
            diff = image
            kind = "zero"
        else:
            diff = image - ladder_coefficient(p, k) * table.entry(k - 1, r)
            kind = "boundary"
        report.add({"k": k, "r": r, "kind": kind}, diff)
    return report


# -- comparison with the tau presentation


def tau_cross_check(p: Pyramid) -> Report:
    """For each selected (k, r): the weight-r component of phi-circle_{r+k},
    the coefficient of tau^(N-r-k) in the tau determinant, equals
    phi_k^(r), and no component of higher weight survives."""
    table = phi_table(p)
    tau = cdet_tau(p)
    zero = get_context(p, "affine").zero()
    report = Report("tau-cross-check", str(p))
    for k, r, elem in table.selected_entries():
        circ = tau.get(p.big_n - r - k, zero)
        diff = weight_component(circ, r) - elem
        top = max(map(monomial_weight, circ.terms), default=0)
        if diff.is_zero() and top > r:
            diff = weight_component(circ, top)
        report.add({"k": k, "r": r}, diff)
    return report
