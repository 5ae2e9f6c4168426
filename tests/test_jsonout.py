import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sugawara.jsonout import PIECE, to_json, write_json
from sugawara.pbw import Element, element_from_obj, element_to_obj, get_context
from sugawara.pyramid import Pyramid
from sugawara.reports import Report

from test_pbw import _SCALARS, random_element


def _plain(obj):
    """``obj`` with every Element replaced by its element_to_obj list."""
    if isinstance(obj, Element):
        return element_to_obj(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def assert_writes_like_json_dumps(obj):
    assert to_json(obj) == json.dumps(_plain(obj), indent=2) + "\n"


def test_to_json_matches_json_dumps_on_hand_built_objects():
    ctx = get_context(Pyramid((1, 2)), "affine")
    fin = get_context(Pyramid((1, 2)), "finite")
    e = lambda i, j, r, d: ctx.gen(i, j, r, depth=d)
    wide = Fraction(-7, 3) * e(1, 1, 0, -1) * e(2, 2, 1, -2) * e(2, 1, 0, -1) + 5 * e(
        2, 2, 0, -3
    )
    constant = fin.one().scale(Fraction(-3, 2)) + fin.gen(2, 1, 0)
    assert () in constant.terms and any(len(m) == 3 for m in wide.terms)
    failing = Report("commutativity", "1,2")
    failing.add({"a": "x", "b": "y"})
    failing.add({"a": "x", "b": "z"}, wide)
    objects = [
        wide,
        ctx.zero(),
        constant,
        [],
        {},
        [wide, ctx.zero(), [constant], {"deep": {"deeper": [wide]}}],
        {
            "strings": ['say "hi"', "back\\slash", "χ = 1/2", "line sep", ""],
            "flags": [True, False, None],
            "ints": [0, -3, 10**30],
            "empty": {"list": [], "dict": {}, "element": fin.zero()},
            "χ \"key\"": constant,
            "report": failing.to_obj(),
        },
        failing.to_obj(),
    ]
    assert "diff" in failing.to_obj()["cases"][1]
    for obj in objects:
        assert_writes_like_json_dumps(obj)


@pytest.mark.parametrize(
    "obj", [1.5, {"x": [2.0]}, Fraction(1, 2), (1, 2), {1: "int key"}, object()]
)
def test_to_json_rejects_other_types(obj):
    with pytest.raises(TypeError):
        to_json(obj)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(["finite", "affine"]),
    seed=st.integers(0, 2**16),
    n_terms=st.integers(0, 4),
    s=_SCALARS,
)
def test_json_forms_round_trip(mode, seed, n_terms, s):
    ctx = get_context(Pyramid((1, 2)), mode)
    depths = (0,) if mode == "finite" else (-1, -2)
    v = random_element(ctx, random.Random(seed), n_terms=n_terms, depths=depths)
    v = v.scale(s) + ctx.one().scale(Fraction(seed % 5, 3))
    assert element_from_obj(ctx, json.loads(to_json(v))) == v
    assert element_from_obj(ctx, element_to_obj(v)) == v


def test_write_json_hands_out_pieces_of_about_piece_size():
    ctx = get_context(Pyramid((1, 2)), "affine")
    v = random_element(ctx, random.Random(3), n_terms=4, depths=(-1, -2))
    obj = {"vectors": [{"k": k, "element": v} for k in range(400)], "tail": "end"}
    pieces = []
    write_json(obj, pieces.append)
    assert "".join(pieces) == to_json(obj)
    assert "".join(pieces) == json.dumps(_plain(obj), indent=2) + "\n"
    # every piece but the last is full, and none overruns by more than a term
    assert len(pieces) > 2
    assert all(PIECE <= len(piece) < PIECE + 4096 for piece in pieces[:-1])
    assert 0 < len(pieces[-1]) < PIECE + 4096


def test_write_json_writes_small_documents_once():
    pieces = []
    write_json({"a": [1, "x", None]}, pieces.append)
    assert pieces == [json.dumps({"a": [1, "x", None]}, indent=2) + "\n"]
