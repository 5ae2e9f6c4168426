"""Lint-style checks made with stdlib ``ast`` scans.

Every import in the sources, tests and demos is used: a name bound by an
import statement must be read somewhere in the same module.  Package
``__init__.py`` files are skipped, since their imports are re-exports.

The sources stay exact: no float literal, and no true division unless
one operand is a ``Fraction(...)`` call, since ``int / int`` is a float.

The rewriting hot path reads letters as ints: it calls none of the
``LoopGen`` field properties, each of which is a Python-level call.
The commutator walk reads no ``mode``: one walk serves both contexts.

Importing the CLI loads neither ``dataclasses`` nor ``inspect``: every
request pays for what its import pulls in.

``Element`` is the one coefficient carrier: no ``Sparse`` base, no
``SymPoly``, no product hook ``_mul_into`` and no ``_join`` key law is
left.  A determinant, a z-series or a symbol is a plain dict, and any
other product is an operator, built where it is applied.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from sugawara.pbw import LieContext

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [
        path
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(files) > 20
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom json import dumps, loads\nprint(loads)\n")
    assert unused_imports(path) == [(1, "os"), (2, "dumps")]


def _is_fraction_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
    )


def inexact_sites(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not (_is_fraction_call(node.left) or _is_fraction_call(node.right)):
                found.append((node.lineno, "true division"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            if not _is_fraction_call(node.value):
                found.append((node.lineno, "true division"))
    return sorted(found)


def test_sources_are_float_free():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 5
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in files
        for line, what in inexact_sites(path)
    ]
    assert not found, "inexact arithmetic:\n" + "\n".join(found)


def test_scan_sees_inexact_sites(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "a = 0.5\n"
        "b = a / 2\n"
        "c = Fraction(a) / 2\n"
        "d = 2 / Fraction(3)\n"
        "e = a // 2\n"
        "a /= 3\n"
        "a /= Fraction(3)\n"
        "f = 1e3 + 2j\n"
    )
    assert inexact_sites(path) == [
        (1, "float literal"),
        (2, "true division"),
        (6, "true division"),
        (8, "float literal"),
        (8, "float literal"),
    ]


HOT_PATH = (
    "_lead", "_into", "_leibniz", "_act_word", "acts", "_enter", "_derive",
    "commutators", "_bracket_terms", "loop_bracket", "_make_bracket",
)
LETTER_FIELDS = {"depth", "i", "j", "r"}


def letter_field_reads(path: Path, names, fields=LETTER_FIELDS):
    """The functions named ``names`` found in ``path``, and every
    (function, line, attribute) read of one of ``fields`` inside them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    seen, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            seen.add(node.name)
            found += [
                (node.name, sub.lineno, sub.attr)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and sub.attr in fields
            ]
    return seen, sorted(found)


def test_hot_path_reads_no_letter_fields():
    seen, found = letter_field_reads(ROOT / "src" / "sugawara" / "pbw.py", HOT_PATH)
    assert seen == set(HOT_PATH)
    assert not found, "letter field reads on the hot path:\n" + "\n".join(
        f"{name}:{line}: .{attr}" for name, line, attr in found
    )


def test_commutator_walk_has_no_mode_branch():
    # one walk for both contexts: no branch on the mode, and no second
    # (trie) walk beside it
    names = ("commutators", "_leibniz")
    seen, found = letter_field_reads(ROOT / "src" / "sugawara" / "pbw.py", names, {"mode"})
    assert seen == set(names)
    assert not found, f"mode reads in the commutator walk: {found}"
    assert not hasattr(LieContext, "_trie")


def test_scan_sees_letter_field_reads(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def _times(g, m):\n"
        "    return g.depth + m.r\n"
        "\n"
        "def other(g):\n"
        "    return g.i\n"
        "\n"
        "def _walk(self):\n"
        "    return self.mode == 'affine'\n"
    )
    assert letter_field_reads(path, ("_times", "_walk")) == (
        {"_times", "_walk"},
        [("_times", 2, "depth"), ("_times", 2, "r")],
    )
    assert letter_field_reads(path, ("_times", "_walk"), {"mode"}) == (
        {"_times", "_walk"},
        [("_walk", 8, "mode")],
    )


def identifier_sites(paths, ident):
    """(file, line) of every def, name, attribute or argument spelled
    ``ident``."""
    sites = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            spelled = (
                getattr(node, "name", None)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias))
                else getattr(node, "id", None)
                or getattr(node, "attr", None)
                or getattr(node, "arg", None)
            )
            if spelled == ident:
                sites.append((path.name, node.lineno))
    return sites


def test_element_is_the_one_carrier():
    paths = sorted((ROOT / "src").rglob("*.py"))
    for ident in ("Sparse", "SymPoly", "_mul_into", "_join"):
        assert identifier_sites(paths, ident) == [], ident


def test_scan_sees_sparse_products(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .pbw import Sparse\n"
        "class SymPoly(pbw.Sparse):\n"
        "    def _mul_into(self, out, terms, c): pass\n"
        "class Other:\n"
        "    def __mul__(self, other): pass\n"
        "def helper(_join):\n"
        "    return x._join(_join)\n"
    )
    assert identifier_sites([path], "Sparse") == [("sample.py", 1), ("sample.py", 2)]
    assert identifier_sites([path], "SymPoly") == [("sample.py", 2)]
    assert identifier_sites([path], "_mul_into") == [("sample.py", 3)]
    assert identifier_sites([path], "_join") == [
        ("sample.py", 6),
        ("sample.py", 7),
        ("sample.py", 7),
    ]
    assert identifier_sites([path], "__mul__") == [("sample.py", 5)]


# Prints the modules that ``import sugawara.cli`` adds to sys.modules.
# Run under -S, so that no site hook preloads a module and hides it.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import sugawara.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_dataclasses_or_inspect():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    added = set(proc.stdout.split())
    assert {"sugawara.cli", "sugawara.pbw", "argparse"} <= added
    found = sorted(added & {"dataclasses", "inspect"})
    assert not found, f"import sugawara.cli loads {found}"
