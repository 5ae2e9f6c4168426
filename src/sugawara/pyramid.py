"""Pyramid combinatorics and the centralizer Lie algebra it defines.

A pyramid is a left-justified array of N unit boxes with non-decreasing
row lengths lambda_1 <= ... <= lambda_n.  The nilpotent matrix with
Jordan blocks of these sizes has a centralizer inside gl_N spanned by
symbols E[i,j,r], one for every ordered pair of rows (i, j) and every
shift r in the window

    lambda_j - min(lambda_i, lambda_j) <= r < lambda_j.

This module provides that basis, its bracket as a plain {symbol:
coefficient} dict (with out-of-window terms truncated to zero), and the
invariant symmetric bilinear form in the critical-level normalization.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple


class GenId(NamedTuple):
    """Centralizer basis symbol E[i,j,r]; sorts canonically by (i, j, r)."""

    i: int
    j: int
    r: int

    def text(self) -> str:
        return f"E[{self.i},{self.j},{self.r}]"

    @classmethod
    def parse(cls, text: str) -> "GenId":
        m = re.fullmatch(r"\s*E\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(-?\d+)\s*\]\s*", text)
        if m is None:
            raise ValueError(f"cannot parse generator {text!r}; expected E[i,j,r]")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))


class Pyramid:
    """Left-justified pyramid given by its non-decreasing row lengths.

    Any other row order is rejected rather than sorted silently, since
    sorting would remap the (i, j) labels of the basis.  At most 255 rows
    of at most 65536 boxes are accepted: the engine packs a row label
    into 8 bits and a shift r < lambda_j into 16.  A pyramid is an
    immutable value: equal row lengths give equal, equally hashed
    pyramids, so one keys the live context.
    """

    __slots__ = ("lambdas",)

    def __init__(self, lambdas: Tuple[int, ...]):
        lam = tuple(lambdas)
        # a float, bool or str row length is refused, not truncated to int
        if any(isinstance(x, bool) or not isinstance(x, int) for x in lam):
            raise ValueError(f"row lengths must be integers: {lam}")
        if not lam:
            raise ValueError("pyramid needs at least one row")
        if any(x <= 0 for x in lam):
            raise ValueError(f"row lengths must be positive: {lam}")
        if any(a > b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"row lengths must be non-decreasing: {lam}")
        if len(lam) > 255:
            raise ValueError(f"a pyramid has at most 255 rows, not {len(lam)}")
        if lam[-1] > 65536:
            raise ValueError(f"a row has at most 65536 boxes, not {lam[-1]}")
        object.__setattr__(self, "lambdas", lam)

    def __setattr__(self, name, *value):
        raise AttributeError(f"a Pyramid is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild a pyramid through __init__
        return type(self), (self.lambdas,)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.lambdas == other.lambdas

    def __hash__(self) -> int:
        return hash(self.lambdas)

    def __repr__(self) -> str:
        return f"Pyramid(lambdas={self.lambdas!r})"

    @classmethod
    def parse(cls, text: str) -> "Pyramid":
        try:
            lam = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(
                f"cannot parse pyramid {text!r}; expected comma-separated integers like 2,3,4"
            ) from None
        return cls(lam)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.lambdas)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def big_n(self) -> int:
        return sum(self.lambdas)

    # -- the E[i,j,r] basis

    def window(self, i: int, j: int) -> range:
        """Admissible shifts r for E[i,j,r]."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"row indices ({i},{j}) out of range 1..{self.n}")
        li, lj = self.lambdas[i - 1], self.lambdas[j - 1]
        return range(lj - min(li, lj), lj)

    def contains(self, g: GenId) -> bool:
        i, j, r = g
        lam = self.lambdas
        if not (0 < i <= len(lam) and 0 < j <= len(lam)):
            return False
        li, lj = lam[i - 1], lam[j - 1]
        return lj - min(li, lj) <= r < lj

    def check(self, g: GenId) -> GenId:
        if not self.contains(g):
            raise ValueError(f"{g.text()} is not a basis symbol of the pyramid {self}")
        return g

    def basis(self) -> List[GenId]:
        """All basis symbols in canonical (i, j, r) order."""
        return [
            GenId(i, j, r)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            for r in self.window(i, j)
        ]

    def dim(self) -> int:
        return sum(
            min(li, lj) for li in self.lambdas for lj in self.lambdas
        )

    def column_boxes(self, i: int) -> int:
        """Number of boxes in the first lambda_i columns of the pyramid."""
        li = self.lambdas[i - 1]
        return sum(min(lam, li) for lam in self.lambdas)


def bracket(p: Pyramid, a: GenId, b: GenId) -> Dict[GenId, int]:
    """[E[i,j,r], E[k,l,s]] with out-of-window terms truncated to zero,
    as {symbol: coefficient} in canonical order with no zero coefficient.

    The pyramid bracket has no central term; the affine cocycle lives in
    :meth:`sugawara.pbw.LieContext.loop_bracket`.
    """
    p.check(a)
    p.check(b)
    terms: Dict[GenId, int] = {}
    rs = a.r + b.r
    # delta_{kj} E[i,l,r+s]
    if b.i == a.j and rs < p.lambdas[b.j - 1]:
        terms[GenId(a.i, b.j, rs)] = 1
    # - delta_{il} E[k,j,r+s]
    if a.i == b.j and rs < p.lambdas[a.j - 1]:
        g = GenId(b.i, a.j, rs)
        terms[g] = terms.get(g, 0) - 1
    # most symbol pairs commute: an empty dict needs no sorting
    return {g: c for g, c in sorted(terms.items()) if c} if terms else terms


def form(p: Pyramid, a: GenId, b: GenId) -> int:
    """Invariant symmetric bilinear form in the critical-level normalization.

    Nonzero only on shift-0 pairs: diagonal against diagonal, and
    E[i,j,0] against E[j,i,0] when rows i and j have equal length.
    """
    p.check(a)
    p.check(b)
    if a.r != 0 or b.r != 0:
        return 0
    if a.i == a.j and b.i == b.j:
        value = min(p.lambdas[a.i - 1], p.lambdas[b.i - 1])
        if a.i == b.i:
            value -= p.column_boxes(a.i)
        return value
    if a.i == b.j and a.j == b.i and a.i != a.j:
        if p.lambdas[a.i - 1] == p.lambdas[a.j - 1]:
            return -p.column_boxes(a.i)
    return 0
