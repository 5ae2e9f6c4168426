"""Exact PBW engine over the loop extension of a pyramid centralizer.

Two contexts share one rewriting core:

* ``finite``  -- the enveloping algebra of the centralizer itself; the
  depth of every generator is pinned to 0 and no central term can arise.
* ``affine``  -- loop generators X[m] = X t^m with the bracket

      [X[r], Y[s]] = [X, Y][r+s] + r delta_{r,-s} <X, Y> * 1,

  acting on the vacuum module: the central element is identified with
  the scalar 1, and any normal-ordered monomial whose rightmost factor
  has depth >= 0 is annihilated.

Monomials are tuples of :class:`LoopGen` letters, each an ``int`` whose
order is the canonical key (depth, i, j, r), so the core hashes and
compares plain ints.  An :class:`Element` is a map monomial -> exact
rational with the PBW product, with no zero and no word the vacuum
kills.  The rewriting core below works on raw dicts; it and every sum
of elements add through one kernel, :func:`_axpy`.

Letter brackets are kept in rows: ``_loop_bracket_cache[h][g]`` is
[h, g], so the core fetches h's row once and looks a letter up in it
without building a pair key.  Most letter pairs commute, and every
empty bracket is the one value ``_EMPTY``, which the core skips by an
identity test.  The rows are the one bracket table: with no central
term at depths 0, 0, the depth-0 rows are the symbol brackets, built by
the pyramid bracket, the one check of both symbols.  Any other pair
lifts the depth-0 entry of its symbols, the low 32 bits of its letters,
to its depth by int arithmetic.

The rewriting core inserts one letter from the left into a
normal-ordered word.  Every product adds into its caller's dict:
nothing returns a product to be summed again.  A product adds c * m * t,
for each monomial m of its left operand and each term t of its right
operand, with ``_into``: a t that starts at or above the last letter g
of m is concatenated, and any other takes g from the left with
``_lead``.  Those late terms are summed in one dict, which then takes
the rest of m the same way.  ``_lead`` adds g*t into a dict, moving g
right past the letters of t at most g, t[:p] with p = bisect_right(t, g):

    g t = t[:p] g t[p:] + sum_{i<p} t[:i] [g, t_i] t[i+1:].

``_place`` adds one bracket: its central term times t[:i] t[i+1:],
and each of its letters z between t[:i] and t[i+1:] by
``_enter``: the word itself when it is normal-ordered, with no product;
a z above t[i+1] enters t[i+1:] from the left and t[:i] goes in by
``_into``; and a z below t[i-1] moves left in one pass, the mirror of
``_lead``, past the letters of h = t[:i] above it, h[q:] with
q = bisect_right(h, z):

    h z = h[:q] z h[q:] + sum_{i>=q} h[:i] [h_i, z] h[i+1:].

This terminates by the usual filtration argument: bracket terms are
shorter words.  ``mul`` adds each term of its left operand times its
right operand by one ``_into`` call.  ``combine`` normal-orders an
arbitrary word by the same insertion, one letter at a time from its
right end.  The action of X[s], s >= 0, the vacuum derivations T and
Delta (``_derive``) and the tau determinant's right products by one
letter place each letter they make by ``_enter``.
``acts`` returns the list of several modes' actions on one state,
whose letters it indexes by their places once, so a mode looks each
distinct letter up once, not once per occurrence.

The vacuum quotient is one rule of the kernels.  The depth >= 0 letters
of a normal-ordered word are its last ones, so no kernel adds a word
with a letter at or above ``_kill``, depth 0 in affine mode and above
every letter in finite mode: ``_lead`` leaves out t[:p] g t[p:] for
such a g, ``_enter`` such a z with no tail, and ``_into`` the empty
term under a head that ends in one.  ``Element`` drops the words that
end in such a letter, so a kernel's right operand is a vacuum word and
a letter of depth >= 0 moves right until the vacuum kills it.

The commutator walks the words of its right operand in decreasing order
(in increasing order, its transient sums on 1,1,1,1,1 peak over a third
higher) by the Leibniz rule [a, y*W] = y*[a, W] + [a, y]*W, bottom-up:
words that share a prefix are split by their next letter y, and the
bracket [a, W] of the words W below y is summed, its cancellations made,
before y enters it.  The brackets [a, y] with the letters of b are
computed once per left operand, shared by all the right operands it is
paired with, each by the same walk over a's words: right-ad by y is a
derivation too, [x*W, y] = x*[W, y] + [x, y]*W.
Every term either walk builds already has a bracket in it, so the
top-length terms that a*b and b*a share, and that cancel in their
difference, are never built.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, List, Tuple

from .pyramid import GenId, Pyramid, bracket as lie_bracket, form as lie_form


class LoopGen(int):
    """Loop generator X[depth] with X = E[i,j,r], packed into one int.

    The value is ``(depth << 32) | (i << 24) | (j << 16) | r``, so the
    order of the ints is the (depth, i, j, r) order, negative depths
    included, and ``g >= 0`` exactly when ``depth >= 0``.  A depth shift
    by ``step`` is the addition of ``step << 32``.
    """

    __slots__ = ()

    def __new__(cls, depth: int, i: int, j: int, r: int) -> "LoopGen":
        if not (0 <= i < 256 and 0 <= j < 256 and 0 <= r < 65536):
            raise ValueError(
                f"E[{i},{j},{r}] is outside 0 <= i, j < 256, 0 <= r < 65536"
            )
        return int.__new__(cls, (depth << 32) | (i << 24) | (j << 16) | r)

    def __getnewargs__(self):
        # copy and pickle rebuild a letter from its fields, not its value
        return self.depth, self.i, self.j, self.r

    @property
    def depth(self) -> int:
        return self >> 32

    @property
    def i(self) -> int:
        return (self >> 24) & 255

    @property
    def j(self) -> int:
        return (self >> 16) & 255

    @property
    def r(self) -> int:
        return self & 65535

    @property
    def gen(self) -> GenId:
        return GenId((self >> 24) & 255, (self >> 16) & 255, self & 65535)

    def text(self) -> str:
        return f"E[{self.i},{self.j},{self.r}][{self.depth}]"

    def __repr__(self) -> str:
        return f"LoopGen(depth={self.depth}, i={self.i}, j={self.j}, r={self.r})"


Monomial = Tuple[LoopGen, ...]
Terms = Dict[Monomial, Fraction]

# The one value of every empty loop bracket, so the core skips a letter
# pair by an identity test.
_EMPTY = ((), 0)

# The low 32 bits of a letter: its symbol E[i,j,r] without the depth.
_SYMBOL = (1 << 32) - 1


def _axpy(out: Terms, terms: Terms, c) -> None:
    """out += c * terms, dropping monomials whose coefficient cancels."""
    for m, v in terms.items():
        v = out.get(m, 0) + c * v
        if v:
            out[m] = v
        else:
            out.pop(m, None)


class Element:
    """Exact linear combination of normal-ordered monomials, with zero
    coefficients dropped, and the words that end at or above the
    context's ``_kill``, which the vacuum kills in affine mode.

    Immutable by convention: operations return fresh elements and never
    mutate ``terms``.  Arithmetic requires both operands to live in the
    same context; the product is the PBW product of that context.  Every
    sum goes through :func:`_axpy`.  Only the constructor filters:
    ``wrap`` is never handed a zero or a killed word, since every sum
    removes a zero it makes, a nonzero scalar keeps a coefficient
    nonzero, and no element holds a killed word.
    """

    __slots__ = ("terms", "ctx")

    def __init__(self, ctx: "LieContext", terms: Dict[Monomial, Fraction]):
        kill = ctx._kill
        self.terms = {m: c for m, c in terms.items() if c and (not m or m[-1] < kill)}
        self.ctx = ctx

    @classmethod
    def wrap(cls, ctx: "LieContext", terms: Terms) -> "Element":
        """The element of terms taken as they are, with no copy and no zero
        test: for terms that hold no zero and that no one mutates."""
        out = object.__new__(cls)
        out.terms, out.ctx = terms, ctx
        return out

    def _compat(self, other: "Element") -> None:
        if self.ctx.key != other.ctx.key:
            raise ValueError(
                f"mixed contexts: {self.ctx.key} vs {other.ctx.key}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        _axpy(out, other.terms, 1)
        return self.wrap(self.ctx, out)

    def __neg__(self) -> "Element":
        return self.scale(-1)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, s) -> "Element":
        # terms are never mutated, so scaling by 1 can share them
        if s == 1:
            return self
        terms = {m: s * c for m, c in self.terms.items()} if s else {}
        return self.wrap(self.ctx, terms)

    # s * v for a scalar s
    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.ctx.mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.ctx.key == other.ctx.key and self.terms == other.terms

    def __repr__(self) -> str:
        return f"<Element {element_text(self)}>"

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        # the monomials are unique keys: sort them, not (m, c) pairs
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms)]


class LieContext:
    """Rewriting context: a pyramid plus the mode (finite or affine)."""

    def __init__(self, pyramid: Pyramid, mode: str):
        if mode not in ("finite", "affine"):
            raise ValueError(f"unknown mode {mode!r}")
        self.pyramid = pyramid
        self.mode = mode
        self.key = (pyramid.lambdas, mode)
        # the least letter the vacuum kills: depth 0; no finite letter is as high
        self._kill = 0 if mode == "affine" else 1 << 32
        # row h holds [h, g] under key g, so a lookup builds no pair key
        self._loop_bracket_cache: Dict[LoopGen, Dict[LoopGen, tuple]] = defaultdict(dict)

    # -- element constructors

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {(): 1})

    def loop(self, i: int, j: int, r: int, depth: int) -> LoopGen:
        self.pyramid.check(GenId(i, j, r))
        if self.mode == "finite" and depth != 0:
            raise ValueError(
                f"E[{i},{j},{r}][{depth}]: finite mode carries no loop"
                " variable; depth must be 0"
            )
        return LoopGen(depth, i, j, r)

    def gen(self, i: int, j: int, r: int, depth: int = 0) -> Element:
        """Single-generator element: X[depth] applied to the vacuum in
        affine mode, where ``Element`` drops it for a depth >= 0."""
        return Element(self, {(self.loop(i, j, r, depth),): 1})

    # -- the rewriting core

    def loop_bracket(self, h: LoopGen, g: LoopGen) -> Tuple[tuple, int]:
        """[h, g] as ((LoopGen, coeff), ...) plus the central scalar; every
        empty bracket is the one value ``_EMPTY``."""
        row = self._loop_bracket_cache[h]
        hit = row.get(g)
        if hit is None:
            hit = row[g] = self._make_bracket(h, g)
        return hit

    def _make_bracket(self, h: LoopGen, g: LoopGen) -> Tuple[tuple, int]:
        """[h, g] for a pair not yet in the table (see the module docstring)."""
        hd, gd = h >> 32, g >> 32
        if not (hd or gd):
            # a tuple, not the dict: most brackets are empty and share _EMPTY
            sym = lie_bracket(self.pyramid, h.gen, g.gen)
            terms = tuple((LoopGen(0, *z), c) for z, c in sym.items())
            return (terms, 0) if terms else _EMPTY
        # the low 32 bits of a letter are its depth-0 letter
        a, b = h & _SYMBOL, g & _SYMBOL
        row = self._loop_bracket_cache[a]
        sym = row.get(b)
        if sym is None:
            a, b = int.__new__(LoopGen, a), int.__new__(LoopGen, b)
            sym = row[b] = self._make_bracket(a, b)
        d = hd + gd
        if d and sym is not _EMPTY:
            # the symbol terms are depth-0 letters: lift them to depth d
            shift = d << 32
            return tuple((int.__new__(LoopGen, shift | z), c) for z, c in sym[0]), 0
        if d or h & 65535 or g & 65535:
            # an empty lift, or no central term: the form vanishes unless
            # both shifts r, the low 16 bits, are 0
            return sym
        central = hd * lie_form(self.pyramid, h.gen, g.gen)
        return (sym[0], central) if sym[0] or central else _EMPTY

    def _lead(self, out: Terms, g: LoopGen, t: Monomial, c) -> None:
        """out += c * g*t for a normal-ordered t.  g passes the letters
        t[:p] at most g, p = bisect_right(t, g), with a bracket at each:
        g t = t[:p] g t[p:] + sum_{i<p} t[:i] [g, t_i] t[i+1:], where
        t[:p] g t[p:] is left out for a g the vacuum kills."""
        p = bisect_right(t, g)
        if g < self._kill:
            m = t[:p] + (g,) + t[p:]
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        row = self._loop_bracket_cache[g]
        for i in range(p):
            hit = row.get(t[i]) or self.loop_bracket(g, t[i])
            if hit is not _EMPTY:
                self._place(out, t[:i], hit, t[i + 1 :], c)

    def _place(self, out: Terms, pre: Monomial, hit, post: Monomial, c) -> None:
        """out += c * pre [h, g] post for a nonempty bracket hit = [h, g]
        and words pre and post whose concatenation is normal-ordered: each
        letter of the bracket goes between them by ``_enter``, and its
        central scalar multiplies pre post."""
        terms, central = hit
        for z, k in terms:
            self._enter(out, pre, z, post, k * c)
        if central:
            w = pre + post
            v = out.get(w, 0) + c * central
            if v:
                out[w] = v
            else:
                out.pop(w, None)

    def _into(self, out: Terms, head: Monomial, terms: Terms, c) -> None:
        """out += c * head*terms for a normal-ordered head: a term that
        starts at or above head's last letter is concatenated, the empty
        term dropped if the vacuum kills that letter, and any other takes
        that letter from the left by ``_lead``.  Those late terms are
        gathered in one dict, which then takes the rest of head the same
        way, so only one level's gathered terms are alive at a time; with
        no rest they go straight into out.  terms is only read, so it may
        be shared."""
        while head:
            last = head[-1]
            late = None
            for t, v in terms.items():
                if t and t[0] < last:
                    if late is None:
                        late = out if len(head) == 1 else {}
                    self._lead(late, last, t, c * v)
                elif t or last < self._kill:
                    m = head + t
                    v = out.get(m, 0) + c * v
                    if v:
                        out[m] = v
                    else:
                        out.pop(m, None)
            if not late or late is out:
                return
            head, terms, c = head[:-1], late, 1
        _axpy(out, terms, c)

    def combine(self, pieces: Iterable[Tuple[Iterable[LoopGen], Fraction]]) -> Element:
        """Normal-ordered sum of arbitrary words with coefficients: the
        letters before a word's longest normal-ordered suffix enter it
        from the left, one at a time by ``_into``, the nearest first.  A
        killed word stays killed under the letters that enter it, so the
        kernels' rule holds on words of any depth, and ``Element`` drops
        the killed words left.  No letter is checked: the callers pass
        checked letters, ``word`` and ``element_from_obj`` by ``loop``,
        and the shift layer's ``rho_chi`` and ``apply_automorphism`` the
        symbols of an element of this pyramid."""
        out: Dict[Monomial, Fraction] = {}
        for word, coeff in pieces:
            if not coeff:
                continue
            word = tuple(word)
            k = max(len(word) - 1, 0)  # word[k:] is normal-ordered
            while k > 0 and word[k - 1] <= word[k]:
                k -= 1
            terms = {word[k:]: 1}
            for g in reversed(word[:k]):
                nxt: Terms = {}
                self._into(nxt, (g,), terms, 1)
                terms = nxt
            _axpy(out, terms, coeff)
        return Element(self, out)

    def word(self, factors: Iterable[LoopGen], coeff: Fraction = 1) -> Element:
        """coeff * the product of factors, each letter checked by ``loop``."""
        factors = tuple(factors)
        for g in factors:
            self.loop(g.i, g.j, g.r, g.depth)
        return self.combine([(factors, coeff)])

    # -- products and the module action

    def _own(self, a: Element, b: Element) -> None:
        """Raise ValueError unless a and b both live in this context."""
        a._compat(b)
        if a.ctx.key != self.key:
            raise ValueError("operands do not belong to this context")

    def mul(self, a: Element, b: Element) -> Element:
        """a*b, as the sum over a's terms c*m of c * m*b, by ``_into``."""
        self._own(a, b)
        out: Terms = {}
        for m, v in a.terms.items():
            self._into(out, m, b.terms, v)
        return Element(self, out)

    def act(self, g: LoopGen, v: Element) -> Element:
        """Left action of X[s] with s >= 0 on a vacuum-module state."""
        if self.mode != "affine":
            raise ValueError("act is defined on the vacuum module only")
        if g.depth < 0:
            raise ValueError("act needs depth >= 0; use mul for module elements")
        self.pyramid.check(g.gen)
        return self.acts([g], v)[0]

    def acts(self, gs: Iterable[LoopGen], v: Element) -> List[Element]:
        """[act(g, v) for g in gs], v's letters indexed by their places
        once, so each g looks each distinct letter up once.  No mode is
        checked: ``act`` checks one."""
        self._own(v, v)
        places: Dict[LoopGen, list] = defaultdict(list)
        for m, c in v.terms.items():
            for idx, y in enumerate(m):
                places[y].append((m, idx, c))
        results = []
        for g in gs:
            out: Terms = {}
            row = self._loop_bracket_cache[g]
            for y, at in places.items():
                hit = row.get(y) or self.loop_bracket(g, y)
                if hit is _EMPTY:
                    continue
                for m, idx, c in at:
                    self._place(out, m[:idx], hit, m[idx + 1 :], c)
            results.append(Element(self, out))
        return results

    def _enter(
        self, out: Terms, head: Monomial, z: LoopGen, tail: Monomial, c
    ) -> None:
        """out += c * head z tail for a letter z between words head and tail
        whose concatenation is normal-ordered: nothing if the vacuum kills
        z and no tail follows it; for a z above tail[0], z enters tail from
        the left by ``_lead`` and head goes in by ``_into``; for a z below
        head[-1], z moves left past head[q:], q = bisect_right(head, z),
        with a bracket at each, each bracket letter placed the same way:

            head z tail = head[:q] z head[q:] tail
                          + sum_{i>=q} head[:i] [head_i, z] head[i+1:] tail;

        else the word itself, which is normal-ordered.  ``_lead``, the
        action, ``_derive`` and the tau products place each letter they
        make this way."""
        if tail and z > tail[0]:
            moved: Terms = {}
            self._lead(moved, z, tail, 1)
            self._into(out, head, moved, c)
            return
        if not tail and z >= self._kill:
            return
        if head and z < head[-1]:
            q = bisect_right(head, z)
            table = self._loop_bracket_cache
            for i in range(q, len(head)):
                h = head[i]
                hit = table[h].get(z) or self.loop_bracket(h, z)
                if hit is not _EMPTY:
                    self._place(out, head[:i], hit, head[i + 1 :] + tail, c)
            w = head[:q] + (z,) + head[q:] + tail
        else:
            w = head + (z,) + tail
        v = out.get(w, 0) + c
        if v:
            out[w] = v
        else:
            out.pop(w, None)

    def _derive(self, out: Terms, terms: Terms, step: int, c) -> None:
        """out += c * D(terms) for the vacuum derivation D: X[r] -> step * r
        X[r+step], applied factor by factor: the term v m and position idx
        add step * r * c * v m[:idx] z m[idx+1:] for the shifted letter z,
        placed by ``_enter``, so no word the vacuum kills is built."""
        # g + stride is a bare int with the fields of the shifted letter;
        # int.__new__ makes it a LoopGen again without re-checking them,
        # once per distinct g, shared by its placements in this call;
        # a vacuum word's letters lie below depth 0, so k is never 0
        stride = step << 32
        shifted: Dict[LoopGen, LoopGen] = {}
        for m, v in terms.items():
            for idx, g in enumerate(m):
                z = shifted.get(g)
                if z is None:
                    z = shifted[g] = int.__new__(LoopGen, g + stride)
                k = step * (g >> 32)
                self._enter(out, m[:idx], z, m[idx + 1 :], k * c * v)

    def commutators(self, a: Element, bs: Iterable[Element]) -> List[Element]:
        """[a, b] for each b in bs, by the Leibniz walk over b's words (see
        the module docstring).  The letter brackets [a, y] are shared by all
        the bs, each the same walk over a's words with the letter table
        {x: [x, y]}.  ``_into`` only reads these tables."""
        self._own(a, a)  # a against itself: only whether it lives here
        a_words = sorted(a.terms.items(), reverse=True)
        a_letters = dict.fromkeys(chain.from_iterable(a.terms))
        ad: Dict[LoopGen, Terms] = {}
        out = []
        for b in bs:
            self._own(a, b)
            words = sorted(b.terms.items(), reverse=True)
            for y in chain.from_iterable(b.terms):
                if y not in ad:
                    ad[y] = {}
                    # both below depth 0, or finite: [x, y] has no central term
                    brackets = {
                        x: {(z,): c for z, c in self.loop_bracket(x, y)[0]}
                        for x in a_letters
                    }
                    self._leibniz(a_words, 0, 0, len(a_words), brackets, ad[y])
            res: Terms = {}
            self._leibniz(words, 0, 0, len(words), ad, res)
            out.append(Element(self, res))
        return out

    def _leibniz(
        self, words: list, d: int, lo: int, hi: int, ad: Dict[LoopGen, Terms], out: Terms
    ) -> None:
        """out += D(sum c w[d:]) over the (w, c) in words[lo:hi], in decreasing
        order and sharing w[:d], for a derivation D with ad[y] = D(y): [a, .]
        or, with ad[x] = [x, y], the right-ad [., y]: the group splits by its
        next letter y = w[d], D(W) of the words W below y summed before y
        enters it."""
        if lo < hi:  # commutators walks a zero element too
            hi -= len(words[hi - 1][0]) == d  # only w[:d] itself ends here: D(1) = 0
        while lo < hi:
            y, end = words[lo][0][d], lo + 1
            while end < hi and words[end][0][d] == y:
                end += 1
            sub: Terms = {}
            self._leibniz(words, d + 1, lo, end, ad, sub)
            if sub:  # in finite mode most are empty
                self._into(out, (y,), sub, 1)
            if ad[y]:
                # W, the words below y, is built only for a nonzero D(y)
                below = {w[d + 1 :]: c for w, c in words[lo:end]}
                for m, v in ad[y].items():
                    self._into(out, m, below, v)
            lo = end


_CONTEXTS: Dict[Tuple[Tuple[int, ...], str], LieContext] = {}


def get_context(p: Pyramid, mode: str) -> LieContext:
    """Shared per-(pyramid, mode) context, so its bracket table accumulates."""
    key = (p.lambdas, mode)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = LieContext(p, mode)
        _CONTEXTS[key] = ctx
    return ctx


# -- derivations of the vacuum module


def _shift_depth(v: Element, step: int, name: str) -> Element:
    """The derivation X[r] -> step * r X[r+step] of the vacuum module
    (``LieContext._derive``) as an element."""
    ctx = v.ctx
    if ctx.mode != "affine":
        raise ValueError(f"the {name} derivation lives on the vacuum module")
    out: Terms = {}
    ctx._derive(out, v.terms, step, 1)
    return Element(ctx, out)


def translation_T(v: Element) -> Element:
    """Translation derivation X[r] -> -r X[r-1], T(1) = 0."""
    return _shift_depth(v, -1, "translation")


def delta(v: Element) -> Element:
    """Raising derivation with [Delta, X[r]] = r X[r+1], Delta(1) = 0."""
    return _shift_depth(v, 1, "raising")


# -- text and JSON forms


# A run of digits, each of which Fraction reads by one int(): the
# integer part, the fraction part, the denominator or the exponent.
_RUN = re.compile(r"[\d_]+")

# The significant digits of a str value's decimal exponent, which
# Fraction expands as 10**exp before the value's size can be checked.
_EXPONENT = re.compile(r"e[-+]?[0_]*([\d_]*)\s*\Z", re.IGNORECASE)


def exact(v):
    """Exact value of a str or int input: an int when it is integral, else
    a Fraction.  A float or bool is refused: 0.1 is not 1/10.

    So is a value whose numerator or denominator has more digits than
    ``sys.get_int_max_str_digits()`` allows, since no str could write
    it.  Two kinds of str are refused before Fraction parses them, each
    of which int() would refuse only after Fraction computed
    10**len(fraction part) or 10**exp.  One is a str with a run of more
    digits than the limit, underscores not counted, leading zeros
    counted: the runs are the ones Fraction reads by int().  The other
    is a str whose exponent has two digits more than the limit has: such
    an |exp| exceeds ten times the limit, which puts any nonzero
    mantissa of at most limit digits out of range."""
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise ValueError(f"{v!r} must be a string or an integer")
    limit = sys.get_int_max_str_digits()
    if limit and isinstance(v, str):
        if any(len(run) - run.count("_") > limit for run in _RUN.findall(v)):
            raise ValueError(f"the value has a run of more than {limit} digits")
        e = _EXPONENT.search(v)
        width = len(str(limit)) + 1
        if e and len(e.group(1).replace("_", "")) > width:
            raise ValueError(f"the exponent has more than {width} digits")
    try:
        q = Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"{v!r} has a zero denominator") from None
    # 8**limit < 10**limit: a value of at most 3 * limit bits is short enough
    big = max(abs(q.numerator), q.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(
            f"the value has more than {limit} digits in its numerator or denominator"
        )
    return q.numerator if q.denominator == 1 else q


def _coeff_str(c) -> str:
    if type(c) is int or isinstance(c, Fraction):
        return str(c)
    raise TypeError(f"coefficient {c!r} is neither an int nor a Fraction")


def signed_sum(terms: Iterable[Tuple[str, Fraction]]) -> str:
    """Text of a sum of (word, coefficient) terms, such as "a - 2 b + 1/2":
    the first sign is written only when negative, and a magnitude of 1
    only before an empty word."""
    parts = []
    for word, c in terms:
        text = _coeff_str(c)
        mag = text.lstrip("-")
        body = word if mag == "1" and word else f"{mag} {word}".rstrip()
        if text[0] == "-":
            parts.append(f"- {body}")
        else:
            parts.append(f"+ {body}" if parts else body)
    return " ".join(parts)


def _letter_forms(monomials: Iterable[Monomial], form) -> Dict[LoopGen, str]:
    """form(g) for each distinct letter g of the monomials, so a writer
    reads a letter's fields once, not once per factor."""
    return {g: form(g) for g in dict.fromkeys(chain.from_iterable(monomials))}


def element_text(v: Element) -> str:
    """Readable bracketed form, factors as E[i,j,r][depth]."""
    terms = v.sorted_terms()
    text = _letter_forms(v.terms, LoopGen.text)
    return signed_sum((" ".join([text[g] for g in m]), c) for m, c in terms) or "0"


def element_to_obj(v: Element) -> list:
    """JSON-ready term list, sorted by the canonical monomial key."""
    return [
        {
            "coeff": _coeff_str(c),
            "monomial": [
                {"i": g.i, "j": g.j, "r": g.r, "depth": g.depth} for g in m
            ],
        }
        for m, c in v.sorted_terms()
    ]


def element_from_obj(ctx: LieContext, obj: list) -> Element:
    """The element of a term list, each letter checked by ``ctx.loop``."""
    return ctx.combine(
        (
            [ctx.loop(f["i"], f["j"], f["r"], f["depth"]) for f in item["monomial"]],
            exact(item["coeff"]),
        )
        for item in obj
    )
