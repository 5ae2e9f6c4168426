"""The CLI's JSON writer.

:func:`write_json` streams the bytes that ``json.dumps`` writes with an
indent of 2, plus a newline, to a ``write`` callable in pieces of about
64 KB, so the whole document is never held in memory; :func:`to_json`
is its collected form, one ``str``.  Both take
:class:`~sugawara.pbw.Element` values in place of their
:func:`~sugawara.pbw.element_to_obj` lists.  With ``indent`` set,
``json.dumps`` runs its pure-Python encoder, which for wide elements
costs more than computing them; here an element is formatted straight
from its sorted terms, through fixed per-indent templates.

The writer is a module of its own, not a part of ``pbw``: without a
bytecode cache each CLI run compiles what it imports, and compiling a
``pbw`` that held the writer raised the peak RSS of ``verify 2,2,2,2``
by 0.4 MB.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, List

from .pbw import Element, _coeff_str, _letter_forms

PIECE = 1 << 16  # characters buffered before they go to ``write``


def write_json(obj, write: Callable[[str], object]) -> None:
    """Pass ``write`` the text ``json.dumps`` gives ``obj`` with an indent
    of 2, plus a newline, in pieces of about ``PIECE`` characters, where an
    :class:`Element` stands for its ``element_to_obj`` list.

    Other values may be dicts with str keys, lists, str, int, bool and
    None, written inline; any other type, a float included, raises
    ``TypeError``, possibly after some pieces have been written.
    """
    parts: List[str] = []
    size = 0

    def add(text: str) -> None:
        nonlocal size
        parts.append(text)
        size += len(text)
        if size >= PIECE:
            write("".join(parts))
            parts.clear()
            size = 0

    _write_json(obj, 0, add)
    add("\n")
    if parts:
        write("".join(parts))


def to_json(obj) -> str:
    """The pieces :func:`write_json` gives ``obj``, joined."""
    pieces: List[str] = []
    write_json(obj, pieces.append)
    return "".join(pieces)


def _write_json(obj, level: int, add: Callable[[str], None]) -> None:
    if isinstance(obj, str):
        add(_quote(obj))
    elif obj is None:
        add("null")
    elif obj is True or obj is False:
        add("true" if obj else "false")
    elif isinstance(obj, int):
        add(int.__repr__(obj))
    elif isinstance(obj, Element):
        _element_json(obj, level, add)
    elif isinstance(obj, (dict, list)) and not obj:
        add("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        sep = "\n" + "  " * (level + 1)
        for n, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            add(("," if n else "{") + sep + _quote(key) + ": ")
            _write_json(value, level + 1, add)
        add("\n" + "  " * level + "}")
    elif isinstance(obj, list):
        sep = "\n" + "  " * (level + 1)
        for n, value in enumerate(obj):
            add(("," if n else "[") + sep)
            _write_json(value, level + 1, add)
        add("\n" + "  " * level + "]")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _element_json(v: Element, level: int, add: Callable[[str], None]) -> None:
    """Add ``element_to_obj(v)`` as ``json.dumps`` with an indent of 2
    writes it at nesting ``level``, term by term: each distinct letter's
    factor object from one ``%`` template, once per element."""
    terms = v.terms
    if not terms:
        add("[]")
        return
    i0, i1, i2, i3, i4 = ("\n" + "  " * (level + k) for k in range(5))
    head = i1 + "{" + i2 + '"coeff": %s,' + i2 + '"monomial": '
    factor = (
        i3 + "{" + i4 + '"i": %d,' + i4 + '"j": %d,' + i4 + '"r": %d,'
        + i4 + '"depth": %d' + i3 + "}"
    )
    tail = i2 + "]" + i1 + "}"
    letters = _letter_forms(terms, lambda g: factor % (g.i, g.j, g.r, g.depth))
    sep = "["
    # the monomials are unique keys: sort them, not (m, c) pairs
    for m in sorted(terms):
        coeff = head % _quote(_coeff_str(terms[m]))
        if m:
            body = ",".join([letters[g] for g in m])
            add(sep + coeff + "[" + body + tail)
        else:
            add(sep + coeff + "[]" + i1 + "}")
        sep = ","
    add(i0 + "]")
