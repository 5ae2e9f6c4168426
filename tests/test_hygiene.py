"""Lint-style checks made with stdlib ``ast`` scans.

Every import in the sources, tests and demos is used: a name bound by an
import statement must be read somewhere in the same module.  Package
``__init__.py`` files are skipped, since their imports are re-exports.

The sources stay exact: no float literal, and no true division unless
one operand is a ``Fraction(...)`` call, since ``int / int`` is a float.

The rewriting hot path reads letters as ints: it calls none of the
``LoopGen`` field properties, each of which is a Python-level call.
The commutator walk reads no ``mode``: one walk serves both contexts.
The vacuum quotient is one rule of the insertion kernels, the context's
``_kill`` letter: no hot-path function compares a letter with 0, and no
second kernel ``_act_word`` or after-the-fact filter ``_element`` is left.

Importing the CLI loads neither ``dataclasses`` nor ``inspect``: every
request pays for what its import pulls in.

``Element`` is the one coefficient carrier: no ``Sparse`` base, no
``SymPoly``, no product hook ``_mul_into`` and no ``_join`` key law is
left.  A determinant, a z-series or a symbol is a plain dict, and any
other product is an operator, built where it is applied.

No source function memoizes for the life of the process: no
``lru_cache`` or ``functools.cache`` decorator is left, and no function
fills or empties a module-level dict, list or set, so a result lives as
long as its caller holds it.  The context registry holds its contexts
weakly: a context and its bracket table go with the last element,
operator or caller that holds them.

No source check is an ``assert`` statement, which ``python -O`` strips.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from sugawara import pbw
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
    "_into", "_leibniz", "acts", "_enter", "_derive",
    "commutators", "loop_bracket", "_make_bracket",
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


def zero_comparisons(path: Path, names):
    """The functions named ``names`` found in ``path``, and every
    (function, line) of a comparison with the literal 0 inside them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    seen, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            seen.add(node.name)
            found += [
                (node.name, sub.lineno)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Compare)
                and any(
                    isinstance(x, ast.Constant) and type(x.value) is int and x.value == 0
                    for x in [sub.left, *sub.comparators]
                )
            ]
    return seen, sorted(found)


def test_vacuum_quotient_is_one_kernel_rule():
    seen, found = zero_comparisons(ROOT / "src" / "sugawara" / "pbw.py", HOT_PATH)
    assert seen == set(HOT_PATH)
    assert not found, f"letters compared with 0 on the hot path: {found}"
    for name in ("_act_word", "_element", "_lead"):
        assert not hasattr(LieContext, name), name
    # the commutator walk has one path: no size cutoff picks a second one
    assert not hasattr(pbw, "_GROUP")


def readers(path: Path, ident: str):
    """The functions in ``path`` that read a name or attribute spelled
    ``ident``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, (ast.Name, ast.Attribute))
            and ident in (getattr(sub, "id", None), getattr(sub, "attr", None))
            and isinstance(sub.ctx, ast.Load)
            for sub in ast.walk(node)
        )
    }


def test_hot_path_names_every_bracket_table_reader():
    # a loop that looks letters up in the bracket rows is hot: both
    # scans above must read it
    found = readers(ROOT / "src" / "sugawara" / "pbw.py", "_loop_bracket_cache")
    assert "_enter" in found
    assert found <= set(HOT_PATH), sorted(found - set(HOT_PATH))


def test_enter_is_the_one_placement_routine():
    # a letter moves past the letters of a word, left or right, at one
    # site: no second routine finds where it stops
    path = ROOT / "src" / "sugawara" / "pbw.py"
    assert readers(path, "bisect_right") == {"_enter"}
    assert not hasattr(LieContext, "_lead")


def test_scan_sees_readers(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def _enter(self, z):\n"
        "    return bisect_right(self._loop_bracket_cache, z)\n"
        "\n"
        "def other(self):\n"
        "    self._loop_bracket_cache = {}\n"
    )
    assert readers(path, "bisect_right") == {"_enter"}
    assert readers(path, "_loop_bracket_cache") == {"_enter"}


def test_scan_sees_zero_comparisons(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def _lead(g, t):\n"
        "    if g >= 0 and 0 < len(t):\n"
        "        return g < 1 or g == 0.0\n"
        "\n"
        "def other(z):\n"
        "    return z >= 0\n"
    )
    found = zero_comparisons(path, ("_lead",))
    assert found == ({"_lead"}, [("_lead", 2), ("_lead", 2)])


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


def memo_decorators(paths):
    """(file, function, line) of every ``lru_cache`` or ``cache``
    decorator, bare, called or read off ``functools``."""
    sites = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    sites.append((path.name, node.name, dec.lineno))
    return sites


def test_sources_hold_no_process_lifetime_memo():
    paths = sorted((ROOT / "src" / "sugawara").rglob("*.py"))
    assert len(paths) > 5
    assert memo_decorators(paths) == []


def test_scan_sees_memo_decorators(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(p): pass\n"
        "@functools.lru_cache\n"
        "def b(p): pass\n"
        "@cache\n"
        "def c(p): pass\n"
        "class T:\n"
        "    @functools.cache\n"
        "    def d(self): pass\n"
        "    @staticmethod\n"
        "    def e(): pass\n"
    )
    assert memo_decorators([path]) == [
        ("sample.py", "a", 3),
        ("sample.py", "b", 5),
        ("sample.py", "c", 7),
        ("sample.py", "d", 10),
    ]


CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict"}
MUTATORS = {
    "append", "extend", "add", "update", "setdefault", "pop", "clear",
    "insert", "remove", "discard",
}


def _is_container(value) -> bool:
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in CONTAINER_CALLS
    return isinstance(value, CONTAINER_NODES)


def module_container_mutations(paths):
    """(file, function, line) of every subscript store or delete through,
    and every mutating method call on, a module-level name bound to a dict,
    list or set display, a comprehension or a dict, list, set or
    defaultdict call; the function is the innermost one around it."""
    sites = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
        found = {}
        for node in ast.walk(tree):  # outer functions first: inner ones overwrite
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Subscript) and not isinstance(sub.ctx, ast.Load):
                    target = sub.value
                elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    target = sub.func.value if sub.func.attr in MUTATORS else None
                else:
                    continue
                if isinstance(target, ast.Name) and target.id in names:
                    place = sub.lineno, sub.col_offset
                    found[place] = (path.name, node.name, sub.lineno)
        sites += sorted(found.values())
    return sites


def test_sources_mutate_no_module_level_container():
    paths = sorted((ROOT / "src" / "sugawara").rglob("*.py"))
    assert len(paths) > 5
    assert module_container_mutations(paths) == []


def test_scan_sees_module_level_container_mutations(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "A = {}\n"
        "B: list = []\n"
        "C = {k: 0 for k in 'ab'}\n"
        "D = defaultdict(list)\n"
        "E = set()\n"
        "F = WeakValueDictionary()\n"
        "A['x'] = 0\n"
        "def f(key):\n"
        "    A[key] = A.get(key, 0) + 1\n"
        "    del C[key]\n"
        "    F[key] = E.copy()\n"
        "    def g():\n"
        "        B.append(D[key])\n"
        "        D.setdefault(key, []).append(1)\n"
        "    E.discard(key)\n"
        "class T:\n"
        "    def h(self):\n"
        "        self.A = {}\n"
        "        self.A[1] = C.pop(1)\n"
    )
    assert module_container_mutations([path]) == [
        ("sample.py", "f", 9),
        ("sample.py", "f", 10),
        ("sample.py", "f", 15),
        ("sample.py", "g", 13),
        ("sample.py", "g", 14),
        ("sample.py", "h", 19),
    ]


def assert_statements(paths):
    """(file, line) of every ``assert`` statement."""
    return [
        (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_sources_hold_no_assert():
    paths = sorted((ROOT / "src" / "sugawara").rglob("*.py"))
    assert len(paths) > 5
    assert assert_statements(paths) == []


def test_scan_sees_assert_statements(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(d):\n"
        "    assert d, 'empty'\n"
        "    if not d:\n"
        "        raise ValueError('empty')\n"
        "    assert (d, 'a tuple is always true')\n"
    )
    assert assert_statements([path]) == [("sample.py", 2), ("sample.py", 5)]


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
