"""The CLI's byte contract: stdout SHA-256 and exit code per configuration.

``golden_cli.json`` maps each configuration (its argv, with the chi file's
path written as ``<chi>``) to the SHA-256 of its stdout and its exit code.
A change that moves any of them must say so; after such a change, rewrite
the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of ``golden_cli.json`` is the list of moved configurations.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from sugawara.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
CHI = {"E[1,1,0]": "1/2", "E[2,1,0]": -3}
PYRAMIDS = ("1", "1,1", "1,2", "2,2", "1,1,1", "1,1,2", "2,3")
COMMANDS = ("basis", "vectors", "verify", "center", "shift")

CONFIGS = [
    ["--format", fmt, "--pyramid", lam, command]
    for lam in PYRAMIDS
    for command in COMMANDS
    for fmt in ("json", "text")
] + [
    ["--pyramid", "1,2", "--chi", "<chi>", "--z=2", "shift"],
    ["--format", "text", "--pyramid", "1,1", "--chi", "<chi>", "shift"],
    ["--pyramid", "1,2", "--z=-1/3", "shift"],
    ["--pyramid", "1,2", "--automorphism-c=-3/2", "center"],
    ["--format", "text", "--pyramid", "2,2", "--automorphism-c=2", "center"],
    ["--pyramid", "1,2", "--seed", "5", "verify"],
    ["--pyramid", "1,2", "--seed", "5", "shift"],
    # usage errors: nothing on stdout, exit 2
    ["--pyramid", "3,2", "vectors"],
    ["--pyramid", "1,1", "--z", "0", "shift"],
    ["--pyramid", "1,1", "--automorphism-c", "1/0", "center"],
]


def run_config(argv, chi_path):
    """(stdout SHA-256, exit code) of one in-process CLI run."""
    argv = [chi_path if a == "<chi>" else a for a in argv]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    out.flush()
    digest = hashlib.sha256(out.buffer.getvalue()).hexdigest()
    return {"stdout_sha256": digest, "exit": code}


def measure(chi_path):
    return {" ".join(argv): run_config(argv, chi_path) for argv in CONFIGS}


def test_cli_bytes_match_the_golden_file(tmp_path):
    chi = tmp_path / "chi.json"
    chi.write_text(json.dumps(CHI))
    golden = json.loads(GOLDEN.read_text())
    got = measure(str(chi))
    moved = sorted(
        k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k)
    )
    assert not moved, f"CLI bytes or exit codes moved: {moved}"


# shift reads only the selected vectors; on these pyramids the full
# vector table holds more.  Pinned apart from golden_cli.json, which the
# regenerating command above rewrites.
SHIFT_CHI = {"E[1,1,0]": "1/2", "E[2,1,0]": -3, "E[4,4,2]": "2/3"}
SHIFT_PINS = [
    (
        ["--pyramid", "1,2,3", "--z", "-1/3", "--seed", "4", "shift"],
        "b193712c50008c5184c329055d7c8abe1904692f0d7f8174ff0099f039009ee5",
    ),
    (
        ["--pyramid", "1,2,2,3", "--chi", "<chi>", "--z", "2", "shift"],
        "83881bdd8d2ea9d96d7058a6ec5c34e92651fa4f4760a05903451448d6c44750",
    ),
    (
        ["--format", "text", "--pyramid", "3,3,3", "--z", "2", "shift"],
        "ab6353461b4b755d016312ead77581cfa6f0272d50023f6ac3e88ab1c869288e",
    ),
]


def test_shift_bytes_where_the_selected_and_full_tables_differ(tmp_path):
    chi = tmp_path / "chi.json"
    chi.write_text(json.dumps(SHIFT_CHI))
    for argv, digest in SHIFT_PINS:
        got = run_config(argv, str(chi))
        assert got == {"stdout_sha256": digest, "exit": 0}, argv


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        chi = Path(tmp) / "chi.json"
        chi.write_text(json.dumps(CHI))
        GOLDEN.write_text(json.dumps(measure(str(chi)), indent=2) + "\n")
