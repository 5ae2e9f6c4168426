import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sugawara import cli, jsonout
from sugawara.cli import COMMANDS, build_parser, cmd_center, main, parse_config
from sugawara.pbw import Element, element_from_obj, get_context
from sugawara.pyramid import Pyramid

from test_acceptance import ALL_PYRAMIDS
from test_jsonout import _plain, assert_writes_like_json_dumps

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_vectors_minimal_nilpotent(capsys):
    code, out, _ = run(capsys, "--pyramid", "1,2", "vectors")
    assert code == 0
    obj = json.loads(out)
    assert obj["pyramid"] == "1,2"
    chosen = [(v["k"], v["r"]) for v in obj["vectors"] if v["selected"]]
    assert sorted(chosen) == [(1, 0), (1, 1), (2, 1)]
    p = Pyramid((1, 2))
    ctx = get_context(p, "affine")
    by_kr = {(v["k"], v["r"]): v for v in obj["vectors"]}
    elem = element_from_obj(ctx, by_kr[(1, 1)]["element"])
    assert elem == ctx.gen(2, 2, 1, depth=-1)


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "--pyramid", "2,3", "verify")
    assert code == 0
    obj = json.loads(out)
    names = [r["check"] for r in obj["reports"]]
    assert names == [
        "annihilation",
        "delta-ladder",
        "tau-cross-check",
        "commutativity",
        "raising-recursion",
    ]
    for robj in obj["reports"]:
        assert all(c["status"] != "fail" for c in robj["cases"])


def test_center_casimir_output(capsys):
    code, out, _ = run(capsys, "--pyramid", "1,1", "center")
    assert code == 0
    obj = json.loads(out)
    fin = get_context(Pyramid((1, 1)), "finite")
    by_kr = {(g["k"], g["r"]): g for g in obj["generators"]}
    elem = element_from_obj(fin, by_kr[(2, 0)]["element"])
    e = lambda i, j: fin.gen(i, j, 0)
    assert elem == e(1, 1) * e(2, 2) - e(2, 1) * e(1, 2) + e(2, 2)


def test_failing_report_exits_1(capsys, monkeypatch):
    # E[1,1,0] is not central: it fails against E[1,2,0] and E[2,1,0]
    fin = get_context(Pyramid((1, 1)), "finite")
    monkeypatch.setattr(
        "sugawara.cli.center_generators", lambda p: [(1, 0, fin.gen(1, 1, 0))]
    )
    code, out, _ = run(capsys, "--pyramid", "1,1", "center")
    assert code == 1
    cases = json.loads(out)["centrality"]["cases"]
    failed = [c for c in cases if c["status"] == "fail"]
    assert [c["generator"] for c in failed] == ["E[1,2,0]", "E[2,1,0]"]
    for case in failed:
        assert list(case) == ["element", "generator", "status", "diff"]
    code, out, _ = run(capsys, "--pyramid", "1,1", "--format", "text", "center")
    assert code == 1
    lines = out.splitlines()
    assert "[FAIL] centrality: 2 pass, 2 fail" in lines
    assert "    FAIL {'element': 'Phi[1,0]', 'generator': 'E[1,2,0]'}" in lines
    assert "    FAIL {'element': 'Phi[1,0]', 'generator': 'E[2,1,0]'}" in lines


def test_center_with_automorphism(capsys):
    code, out, _ = run(
        capsys, "--pyramid", "1,1", "--automorphism-c", "-1", "center"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["automorphism_c"] == "-1"
    assert all(c["status"] == "pass" for c in obj["centrality"]["cases"])


def test_shift_command(capsys, tmp_path):
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps({"E[1,1,0]": "1/2", "E[2,2,0]": "-1"}))
    code, out, _ = run(
        capsys, "--pyramid", "1,1", "--chi", str(chi_file), "--z", "2", "shift"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["chi"] == {"E[1,1,0]": "1/2", "E[2,2,0]": "-1"}
    assert obj["jacobian_rank"] == 2
    assert len(obj["generators"]) == 3
    assert len(obj["evaluated"]) == 2


def test_shift_rank_is_full_at_a_seed_the_small_range_missed(capsys):
    # values in -3..3 put seed 186 of 2,2,2,2 on a zero of a Jacobian
    # minor and printed rank 7; the wide range gives the full rank
    code, out, _ = run(capsys, "--pyramid", "2,2,2,2", "--seed", "186", "shift")
    assert code == 0
    assert json.loads(out)["jacobian_rank"] == 8


def test_shift_exits_1_on_a_deficient_rank(capsys, monkeypatch):
    # a symbols that drops one selected symbol leaves a zero row: the
    # commutators still vanish, so the printed rank alone fails the run
    symbols = cli.symbols

    def dropping(vectors):
        sym = symbols(vectors)
        del sym[min(sym)]
        return sym

    monkeypatch.setattr(cli, "symbols", dropping)
    code, out, _ = run(capsys, "--pyramid", "1,2", "shift")
    assert code == 1
    obj = json.loads(out)
    assert obj["jacobian_rank"] == 2
    assert all(c["status"] == "pass" for c in obj["commutativity"]["cases"])


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "--pyramid", "3,2", "vectors")
    assert code == 2 and "non-decreasing" in err
    code, _, err = run(capsys, "--pyramid", "1,1", "--z", "0", "shift")
    assert code == 2 and "nonzero" in err
    code, _, err = run(capsys, "--pyramid", "1,1", "--chi", "/no/such/file", "shift")
    assert code == 2
    for rows, message in (
        (",".join(["1"] * 256), "at most 255 rows"),
        ("2,65537", "at most 65536 boxes"),
    ):
        code, out, err = run(capsys, "--pyramid", rows, "vectors")
        assert code == 2 and out == "" and message in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["--pyramid", "1,1", "--s-max", "1", "verify"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag, value, command",
    [
        ("--z", "-1/3", "shift"),
        ("--z", "-.5", "shift"),
        ("--automorphism-c", "-3/2", "center"),
    ],
)
def test_negative_fraction_as_separate_argument(capsys, flag, value, command):
    code, spaced, _ = run(capsys, "--pyramid", "1,2", flag, value, command)
    assert code == 0
    _, joined, _ = run(capsys, "--pyramid", "1,2", f"{flag}={value}", command)
    assert spaced == joined


def test_dash_letter_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--pyramid", "1,2", "--z", "-x", "shift"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0.1, 2.0, True, None, [1]])
def test_chi_rejects_inexact_values(capsys, tmp_path, value):
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps({"E[1,1,0]": value}))
    code, out, err = run(
        capsys, "--pyramid", "1,1", "--chi", str(chi_file), "--z", "2", "shift"
    )
    assert code == 2 and out == ""
    assert "string or an integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--chi", "CHI", "shift"],
        ["--z", "1/0", "shift"],
        ["--automorphism-c", "1/0", "center"],
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, tmp_path, argv):
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps({"E[1,1,0]": "1/0"}))
    argv = [str(chi_file) if a == "CHI" else a for a in argv]
    code, out, err = run(capsys, "--pyramid", "1,1", *argv)
    assert code == 2 and out == ""
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--z", "1e5000", "shift"],
        ["--chi", "CHI", "shift"],
        ["--automorphism-c", "1e5000", "center"],
        ["--z", "1e999999999", "shift"],
    ],
    ids=["z", "chi", "automorphism", "exponent"],
)
def test_values_beyond_the_digit_limit_exit_2(tmp_path, argv):
    # a value no str could write is a usage error, refused before it is
    # computed with: 10**999999999 is never expanded
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps({"E[1,1,0]": "1e5000"}))
    argv = [str(chi_file) if a == "CHI" else a for a in argv]
    done = subprocess.run(
        [sys.executable, "-m", "sugawara.cli", "--pyramid", "1,1", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=10,
    )
    err = done.stderr.decode()
    assert (done.returncode, done.stdout) == (2, b""), err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_results_beyond_the_digit_limit_are_written(capsys):
    # z = 10^2500 is read under the int-to-str digit limit; z^-2 is
    # beyond it and written exactly, and the limit is restored
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "--pyramid", "1,1", "--z", "1e2500", "shift")
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    evaluated = json.loads(out)["evaluated"]
    coeffs = {t["coeff"] for item in evaluated for t in item["element"]}
    assert "1/1" + "0" * 5000 in coeffs


def test_results_beyond_the_digit_limit_read_back_with_the_limit_lifted(capsys):
    # under the limit, exact refuses the 5001-digit denominator of z^-2
    # before Fraction parses it; with the limit lifted, the elements read
    # back and write the same bytes again
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "--pyramid", "1,1", "--z", "1e2500", "shift")
    assert code == 0
    obj = json.loads(out)
    items = obj["generators"] + obj["evaluated"]
    fin = get_context(Pyramid((1, 1)), "finite")
    with pytest.raises(ValueError, match=f"a run of more than {limit} digits"):
        for item in items:
            element_from_obj(fin, item["element"])
    sys.set_int_max_str_digits(0)
    try:
        for item in items:
            item["element"] = element_from_obj(fin, item["element"])
        assert jsonout.to_json(obj) == out
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("lam", ["1,1", "1,2", "2,2", "1,1,2", "1,2,3"])
def test_integral_automorphism_keeps_int_coefficients(lam):
    args = build_parser().parse_args(
        ["--pyramid", lam, "--automorphism-c", "2", "center"]
    )
    cfg = parse_config(args)
    assert type(cfg.automorphism_c) is int
    obj, _ = cmd_center(cfg)
    coeffs = [c for g in obj["generators"] for c in g["element"].terms.values()]
    assert len(coeffs) > 2
    assert all(type(c) is int for c in coeffs)


def test_chi_accepts_strings_and_ints(capsys, tmp_path):
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps({"E[1,1,0]": "0.1", "E[2,2,0]": -1}))
    code, out, _ = run(
        capsys, "--pyramid", "1,1", "--chi", str(chi_file), "--z", "2", "shift"
    )
    assert code == 0
    assert json.loads(out)["chi"] == {"E[1,1,0]": "1/10", "E[2,2,0]": "-1"}


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"E[1,1,0]": "1", "E[1,1,0]": "2"}', "the key 'E[1,1,0]' is given twice"),
        ('{"E[1,1,0]": "1", "E[1,1,00]": "2"}', "value for E[1,1,0] twice"),
    ],
    ids=["same_key", "same_symbol"],
)
def test_chi_rejects_a_symbol_given_twice(capsys, tmp_path, text, message):
    # json keeps the last of two equal keys, and GenId.parse reads
    # E[1,1,00] as E[1,1,0]: either way one value would be dropped
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(text)
    code, out, err = run(capsys, "--pyramid", "1,1", "--chi", str(chi_file), "shift")
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("value", ["0", "1"])
def test_chi_refuses_a_symbol_outside_the_pyramid(capsys, tmp_path, value):
    # a zero value is checked too, before it is dropped
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps({"E[1,1,0]": "1", "E[9,9,0]": value}))
    code, out, err = run(capsys, "--pyramid", "1,1", "--chi", str(chi_file), "shift")
    assert code == 2 and out == ""
    assert "E[9,9,0] is not a basis symbol" in err


def test_deeply_nested_chi_is_a_usage_error(capsys, tmp_path):
    # json gives up on deep nesting with RecursionError, not ValueError
    chi_file = tmp_path / "chi.json"
    chi_file.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "--pyramid", "1,1", "--chi", str(chi_file), "shift")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load chi from ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_config_fields_read_as_before():
    cfg = parse_config(build_parser().parse_args(["--pyramid", "1,2", "verify"]))
    assert cfg == cli.Config(Pyramid((1, 2)), "verify")
    assert (cfg.fmt, cfg.chi_path, cfg.z, cfg.seed, cfg.automorphism_c) == (
        "json", None, None, 0, None,
    )
    args = ["--pyramid", "2,2", "--format", "text", "--chi", "c.json", "--z", "1/2",
            "--seed", "5", "--automorphism-c", "-3", "shift"]
    cfg = parse_config(build_parser().parse_args(args))
    assert cfg.pyramid == Pyramid((2, 2)) and cfg.command == "shift"
    assert (cfg.fmt, cfg.chi_path, cfg.z, cfg.seed, cfg.automorphism_c) == (
        "text", "c.json", Fraction(1, 2), 5, -3,
    )


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["--pyramid", "1,1", "frobnicate"])
    assert exc.value.code == 2


def test_output_byte_identical_and_worker_independent(capsys):
    _, out1, _ = run(capsys, "--pyramid", "1,2", "verify")
    _, out2, _ = run(capsys, "--pyramid", "1,2", "verify")
    assert out1 == out2


def test_json_roundtrip_fixed_point(capsys):
    for command in ("basis", "vectors", "verify", "center", "shift"):
        _, out, _ = run(capsys, "--pyramid", "1,2", command)
        obj = json.loads(out)
        assert json.dumps(obj, indent=2) + "\n" == out


def _elements(obj):
    if isinstance(obj, Element):
        return 1
    if isinstance(obj, dict):
        return sum(map(_elements, obj.values()))
    if isinstance(obj, list):
        return sum(map(_elements, obj))
    return 0


def test_writer_matches_json_dumps_on_every_command(tmp_path):
    chi_file = tmp_path / "chi.json"
    chi_file.write_text(json.dumps({"E[1,1,0]": "1/2", "E[2,1,0]": -3}))
    runs = [(lam, [command]) for lam in ALL_PYRAMIDS for command in COMMANDS] + [
        ((1, 2), ["--z=-1/3", "shift"]),
        ((1, 2), ["--chi", str(chi_file), "--z=2", "shift"]),
        ((1, 2, 3), ["--chi", str(chi_file), "shift"]),
        ((1, 1), ["--automorphism-c=-3/2", "center"]),
        ((2, 3), ["--automorphism-c=2", "center"]),
    ]
    elements = 0
    for lam, argv in runs:
        pyramid = ",".join(map(str, lam))
        cfg = parse_config(build_parser().parse_args(["--pyramid", pyramid] + argv))
        obj, _ = COMMANDS[cfg.command](cfg)
        assert_writes_like_json_dumps(obj)
        elements += _elements(obj)
    assert elements > 150


def test_text_format(capsys):
    code, out, _ = run(capsys, "--pyramid", "1,1", "--format", "text", "vectors")
    assert code == 0
    assert "phi[k=2,r=0] (selected):" in out
    assert "E[1,1,0][-1]" in out
    code, out, _ = run(capsys, "--pyramid", "1,1", "--format", "text", "basis")
    assert code == 0
    assert "dimension 4" in out
    assert "[E[1,2,0], E[2,1,0]] = E[1,1,0] - E[2,2,0]" in out
    code, out, _ = run(capsys, "--pyramid", "1,1", "--format", "text", "verify")
    assert "[PASS] annihilation: 20 pass, 0 fail" in out.splitlines()
    assert "vacuous" not in out


@pytest.mark.parametrize("command", ["verify", "shift"])
def test_report_with_no_case_reads_empty(capsys, command):
    # one generator has nothing to commute with: the report checked
    # nothing, so it must not read PASS, and nothing failed, so exit 0
    code, out, _ = run(capsys, "--pyramid", "1", command)
    assert code == 0
    obj = json.loads(out)
    reports = obj["reports"] if command == "verify" else [obj["commutativity"]]
    assert [r["check"] for r in reports if not r["cases"]] == ["commutativity"]
    for robj in reports:
        assert robj.get("status") == (None if robj["cases"] else "empty")
    code, out, _ = run(capsys, "--pyramid", "1", "--format", "text", command)
    assert code == 0
    lines = out.splitlines()
    assert "[EMPTY] commutativity: 0 pass, 0 fail" in lines
    assert not any(line.startswith("[PASS] commutativity") for line in lines)
    assert "vacuous" not in out


def test_text_goes_to_stdout_as_one_document(monkeypatch):
    pieces = []
    monkeypatch.setattr(cli, "_write_stdout", pieces.append)
    argv = ["--pyramid", "1,2", "--format", "text", "vectors"]
    assert main(argv) == 0
    cfg = parse_config(build_parser().parse_args(argv))
    obj, _ = COMMANDS[cfg.command](cfg)
    assert pieces == [cli.render_text(cfg, obj)]
    assert pieces[0].endswith("\n") and not pieces[0].endswith("\n\n")


def test_json_goes_to_stdout_in_bounded_pieces(monkeypatch):
    pieces = []
    monkeypatch.setattr(cli, "_write_stdout", pieces.append)
    argv = ["--pyramid", "1,1,1,1,1,1", "vectors"]
    assert main(argv) == 0
    assert len(pieces) > 1
    assert max(len(piece.encode()) for piece in pieces) <= 128 * 1024
    cfg = parse_config(build_parser().parse_args(argv))
    obj, _ = COMMANDS[cfg.command](cfg)
    assert "".join(pieces) == json.dumps(_plain(obj), indent=2) + "\n"


def test_cli_never_joins_the_whole_document(capsys, monkeypatch):
    def whole(obj):
        raise AssertionError("the CLI joined its whole JSON output")

    assert "to_json" not in vars(cli)
    monkeypatch.setattr(jsonout, "to_json", whole)
    code, out, _ = run(capsys, "--pyramid", "1,2,3", "vectors")
    assert code == 0
    assert json.loads(out)["pyramid"] == "1,2,3"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_pipe_exits_141_without_traceback(fmt):
    # the output is far larger than a pipe buffer, so the CLI is still
    # writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "sugawara.cli", "--pyramid", "1,1,1,1,1,1"]
        + ["--format", fmt, "vectors"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.strip() in (b"{", b"pyramid 1,1,1,1,1,1")
    assert code == 141
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, called",
    [
        (["verify"], ["verify.annihilation_check", "suga.delta_ladder"]),
        (["vectors"], ["suga.phi_table"]),
        (["center"], ["shift.center_determinant", "verify.centrality_check"]),
        (["--z", "2", "shift"], ["shift.a_chi_generators", "shift.symbols"]),
    ],
    ids=["verify", "vectors", "center", "shift"],
)
def test_benchmark_tracer_runs_the_cli(capsys, tmp_path, command, called):
    # perfbench/child.py rebinds the traced functions by name; a refactor
    # that drops one of them must fail here, not only in the benchmark.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans_file = tmp_path / "spans.json"
    args = ["--pyramid", "1,2", *command]
    child = ROOT / "perfbench" / "child.py"
    traced = subprocess.run(
        [sys.executable, str(child), "trace", str(spans_file), "--"] + args,
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert traced.returncode == 0, traced.stderr.decode()
    _, plain, _ = run(capsys, *args)
    assert traced.stdout == plain.encode()
    trace = json.loads(spans_file.read_text())
    names = trace["names"]
    for name in (
        "detcalc.cdet_tau",
        "detcalc.column_determinant",
        "shift.center_determinant",
        "shift.symbols",
    ):
        assert name in names
    # the command's own layers ran through their wrappers
    spanned = {names[span[0]] for span in trace["spans"]}
    assert set(called) <= spanned, sorted(spanned)


@pytest.mark.parametrize(
    "args",
    [
        ["--pyramid", "2,2", "verify"],
        ["--pyramid", "2,2", "center"],
        ["--pyramid", "3,2", "vectors"],
    ],
    ids=["verify", "center", "usage_error"],
)
def test_entry_point_matches_main(capsys, args):
    # the module entry freezes the collector after main returns; what it
    # writes and the status it exits with are main's
    done = subprocess.run(
        [sys.executable, "-m", "sugawara.cli"] + args,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    code, out, err = run(capsys, *args)
    assert (done.returncode, done.stdout) == (code, out.encode())
    assert done.stderr == err.encode()


def test_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setitem(COMMANDS, "vectors", interrupted)
    monkeypatch.setattr(sys, "argv", ["sugawara", "--pyramid", "1,2", "vectors"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 130
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: interrupted\n"


@pytest.mark.parametrize(
    "raised, code, err",
    [
        ("cli.UsageError('bad input')", 2, "error: bad input\n"),
        ("KeyboardInterrupt", 130, "error: interrupted\n"),
        ("BrokenPipeError", 141, ""),
    ],
    ids=["usage", "interrupt", "closed_pipe"],
)
def test_each_stop_exits_with_its_code_and_at_most_one_line(raised, code, err):
    # every stop goes through one function: a command raises each in a
    # process run by the module entry, whose exit status and stderr are read
    script = (
        "import sys\n"
        "from sugawara import cli\n"
        "def stop(cfg):\n"
        f"    raise {raised}\n"
        "cli.COMMANDS['basis'] = stop\n"
        "sys.argv = ['sugawara', '--pyramid', '1,2', 'basis']\n"
        "cli.entry()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr.decode()) == (code, b"", err)


def test_main_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "--pyramid", "1,2", "verify")[0] == 0
    assert gc.get_freeze_count() == before
