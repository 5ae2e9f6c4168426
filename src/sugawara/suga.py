"""Extraction and bookkeeping of the Segal-Sugawara vectors.

The column determinant of a pyramid expands as

    x^n + phi_1(u) x^{n-1} + ... + phi_n(u),    phi_k(u) = sum_r phi_k^(r) u^r,

and the coefficients phi_k^(r) whose indices satisfy

    lambda_{n-k+2} + ... + lambda_n  <  r + k  <=  lambda_{n-k+1} + ... + lambda_n

form a complete set of Segal-Sugawara vectors: N of them, with exactly
lambda_{n-k+1} admitted shifts for each k.  This module builds the full
coefficient table, which ``vectors`` shows, and the selected vectors,
which a command builds once and hands to every other reader, each
afresh from its own determinant; the raising-operator ladder; and the
comparison against the tau presentation.  The selected vectors and the
tau determinant are built only where their readers read: :func:`ux_keep`
and :func:`tau_keep` prune their column recursions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .detcalc import UX, cdet, cdet_tau, coefficient_table
from .pbw import _CONTEXTS, Element, delta, get_context
from .pyramid import Pyramid
from .reports import Report


class SugaTable(NamedTuple):
    """All nonzero x^{n-k} u^r coefficients of the column determinant,
    with the selected index pairs flagged."""

    entries: Dict[Tuple[int, int], Element]
    selected: Tuple[Tuple[int, int], ...]


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


def ux_keep(p: Pyramid) -> Callable[[int, UX], bool]:
    """The ``keep`` test of a u, x recursion read at the selected
    coefficients and the monic x^n (invariants in :mod:`.detcalc`).
    After ``size`` levels, with the columns j <= n - size still to come,
    a bucket (u, x) is kept if it is the chain (0, size) of x^n, or if
    some x_f < n it can reach, with k = n - x_f, has u <= hi(k) and
    u + sum_{j <= n-size} (lambda_j - 1) >= lo(k)."""
    n = p.n
    bounds = {k: selection_bounds(p, k) for k in range(1, n + 1)}
    rest = [sum(lam - 1 for lam in p.lambdas[: n - size]) for size in range(n + 1)]

    def keep(size: int, key: UX) -> bool:
        u, x = key
        if key == (0, size):
            return True
        return any(
            u <= bounds[n - xf][1] and u + rest[size] >= bounds[n - xf][0]
            for xf in range(x, min(x + n - size, n - 1) + 1)
        )

    return keep


def _determinant(p: Pyramid, keep: Optional[Callable]) -> Dict[UX, Element]:
    d = cdet(p, keep)
    if d.get((0, p.n)) != get_context(p, "affine").one():
        raise RuntimeError(f"the determinant of {p} is not monic in x")
    return d


def phi_table(p: Pyramid) -> SugaTable:
    """The table of every nonzero coefficient."""
    return SugaTable(coefficient_table(_determinant(p, None), p.n), selected_pairs(p))


def selected_vectors(p: Pyramid) -> List[Tuple[int, int, Element]]:
    """The selected (k, r, phi_k^(r)) in :func:`selected_pairs` order, read
    off a determinant pruned by :func:`ux_keep`: what the batteries and
    the shift layer read."""
    d = _determinant(p, ux_keep(p))
    return [(k, r, d[r, p.n - k]) for k, r in selected_pairs(p)]


def clear_caches() -> None:
    """Empty the one cache that lives as long as the process: the shared
    rewriting contexts with their bracket tables.  For a library caller
    that loops over many pyramids; later results are the same, only
    recomputed."""
    _CONTEXTS.clear()


# -- the raising-operator ladder


def ladder_coefficient(p: Pyramid, k: int) -> int:
    return -(k - 1) * sum(p.lambdas[: p.n - k + 1])


def delta_ladder(p: Pyramid, vectors: List[Tuple[int, int, Element]]) -> Report:
    """The ladder on the selected vectors: no coefficient lies above a
    level's window, and the one below its lower end that the ladder
    reads, phi_{k-1}^(lo(k)), is the top selected one of level k-1."""
    phi = {(k, r): elem for k, r, elem in vectors}
    zero = get_context(p, "affine").zero()
    report = Report("delta-ladder", str(p))
    for k, r, elem in vectors:
        # every selected r lies at or above its window's lower end; at it,
        # Delta maps phi_k^(r) onto a known multiple of phi_{k-1}^(r);
        # above it, to zero
        image = delta(elem)
        if r > selection_bounds(p, k)[0]:
            diff = image
            kind = "zero"
        else:
            diff = image - ladder_coefficient(p, k) * phi.get((k - 1, r), zero)
            kind = "boundary"
        report.add({"k": k, "r": r, "kind": kind}, diff)
    return report


# -- comparison with the tau presentation


def tau_keep(p: Pyramid) -> Callable[[int, Tuple[int, int]], bool]:
    """The ``keep`` test of the tau recursion for :func:`tau_cross_check`,
    which reads, at each power e_f = N - r - k of a selected (k, r), the
    weights from need(e_f), the least such r, up (invariants in
    :mod:`.detcalc`).  After ``size`` levels, with the columns j > size
    still to come, a bucket (e, w) of degree D = lambda_1 + ... +
    lambda_size - e - w is kept if some e_f has
    need(e_f) <= w + sum_{j > size} (lambda_j - 1) and
    D <= N - e_f - need(e_f)."""
    big_n = p.big_n
    need: Dict[int, int] = {}
    for k, r in selected_pairs(p):
        e = big_n - r - k
        need[e] = min(r, need.get(e, r))
    lam = p.lambdas
    taken = [sum(lam[:size]) for size in range(p.n + 1)]
    rest = [sum(lj - 1 for lj in lam[size:]) for size in range(p.n + 1)]

    def keep(size: int, key: Tuple[int, int]) -> bool:
        e, w = key
        degree = taken[size] - e - w
        return any(
            nd <= w + rest[size] and degree <= big_n - ef - nd
            for ef, nd in need.items()
        )

    return keep


def tau_cross_check(p: Pyramid, vectors: List[Tuple[int, int, Element]]) -> Report:
    """For each selected (k, r): the weight-r component of phi-circle_{r+k},
    the coefficient of tau^(N-r-k) in the tau determinant, equals
    phi_k^(r), and no component of higher weight survives.  The tau
    determinant comes in (power, weight) buckets, pruned by
    :func:`tau_keep` to those read here."""
    tau = cdet_tau(p, tau_keep(p))
    zero = get_context(p, "affine").zero()
    report = Report("tau-cross-check", str(p))
    for k, r, elem in vectors:
        e = p.big_n - r - k
        diff = tau.get((e, r), zero) - elem
        top = max((w for f, w in tau if f == e), default=0)
        if diff.is_zero() and top > r:
            diff = tau[e, top]
        report.add({"k": k, "r": r}, diff)
    return report
