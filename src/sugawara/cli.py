"""Command-line front end.

Subcommands: basis | vectors | verify | center | shift.  Output is JSON
by default (text mode prints elements in the bracketed E[i,j,r][depth]
form for side-by-side reading).  Exit codes: 0 when no check fails (a
report with no case reads EMPTY, not PASS), 1 when one fails, 2 on
usage or parse errors, so CI can gate on the suite, and 141 (128 +
SIGPIPE) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .jsonout import write_json
from .pbw import _coeff_str, element_text, exact, get_context, signed_sum
from .pyramid import Pyramid, bracket, form
from .reports import Report
from .shift import (
    a_chi_generators,
    apply_automorphism,
    center_generators,
    chi_from_obj,
    chi_to_obj,
    jacobian_rank,
    random_point,
    rho_chi,
    symbols,
    zseries_eval,
)
from .suga import delta_ladder, phi_table, selected_vectors, tau_cross_check
from .verify import (
    annihilation_check,
    centrality_check,
    commutativity_check,
    raising_recursion_check,
)


class Config(NamedTuple):
    pyramid: Pyramid
    command: str
    fmt: str = "json"
    chi_path: Optional[str] = None
    z: Optional[Fraction] = None
    seed: int = 0
    automorphism_c: Optional[Fraction] = None


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sugawara",
        description=(
            "Exact Segal-Sugawara vectors and critical-level center for the "
            "centralizer of a nilpotent matrix given by a pyramid."
        ),
    )
    # Read "-1/3" as a value, not an option: before Python 3.13 argparse
    # takes only "-1" and "-1.5" for negative numbers.  This is the 3.13
    # pattern; "-x" is still an option.
    ap._negative_number_matcher = re.compile(r"-\.?\d")
    ap.add_argument(
        "--pyramid",
        required=True,
        help="comma-separated non-decreasing row lengths, e.g. 2,3,4",
    )
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--chi", help='JSON file {"E[i,j,r]": "p/q", ...}')
    ap.add_argument("--z", help="nonzero rational; evaluate the z-grading there")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--automorphism-c",
        dest="automorphism_c",
        help="rational c for the diagonal-shift automorphism of cmd center",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("basis", "list the basis, nonzero brackets and form values"),
        ("vectors", "the Segal-Sugawara vector table"),
        ("verify", "run the full verification battery"),
        ("center", "generators of the center of the enveloping algebra"),
        ("shift", "shift-of-argument generators, commutativity, Jacobian rank"),
    ):
        sub.add_parser(name, help=doc)
    return ap


def parse_config(args: argparse.Namespace) -> Config:
    try:
        pyramid = Pyramid.parse(args.pyramid)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    z = None
    if args.z is not None:
        try:
            z = exact(args.z)
        except ValueError as exc:
            raise UsageError(f"cannot parse --z {args.z!r}: {exc}") from None
        if z == 0:
            raise UsageError("--z must be nonzero")
    c = None
    if args.automorphism_c is not None:
        try:
            c = exact(args.automorphism_c)
        except ValueError as exc:
            raise UsageError(
                f"cannot parse --automorphism-c {args.automorphism_c!r}: {exc}"
            ) from None
    return Config(
        pyramid=pyramid,
        command=args.command,
        fmt=args.format,
        chi_path=args.chi,
        z=z,
        seed=args.seed,
        automorphism_c=c,
    )


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a key given twice, which ``json``
    would silently resolve to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"the key {key!r} is given twice")
        obj[key] = value
    return obj


def load_chi(cfg: Config):
    if cfg.chi_path is None:
        return {}
    try:
        with open(cfg.chi_path) as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        return chi_from_obj(cfg.pyramid, obj)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot load chi from {cfg.chi_path}: {exc}") from None


# -- commands return (json-object, list-of-reports)


def cmd_basis(cfg: Config) -> Tuple[dict, List[Report]]:
    p = cfg.pyramid
    basis = p.basis()
    brackets = []
    for a in basis:
        for b in basis:
            terms = bracket(p, a, b)
            if not terms:
                continue
            brackets.append(
                {
                    "a": a.text(),
                    "b": b.text(),
                    "terms": [
                        {"gen": g.text(), "coeff": _coeff_str(c)}
                        for g, c in terms.items()
                    ],
                }
            )
    form_values = []
    for a in basis:
        for b in basis:
            v = form(p, a, b)
            if v:
                form_values.append({"a": a.text(), "b": b.text(), "value": str(v)})
    obj = {
        "pyramid": str(p),
        "dimension": p.dim(),
        "basis": [g.text() for g in basis],
        "brackets": brackets,
        "form": form_values,
    }
    return obj, []


def cmd_vectors(cfg: Config) -> Tuple[dict, List[Report]]:
    table = phi_table(cfg.pyramid)
    chosen = set(table.selected)
    vectors = [
        {
            "k": k,
            "r": r,
            "selected": (k, r) in chosen,
            "element": elem,
        }
        for (k, r), elem in sorted(table.entries.items())
    ]
    return {"pyramid": str(cfg.pyramid), "vectors": vectors}, []


def cmd_verify(cfg: Config) -> Tuple[dict, List[Report]]:
    p = cfg.pyramid
    ctx = get_context(p, "affine")
    vectors = selected_vectors(p)
    labeled = [(f"phi[{k},{r}]", e) for k, r, e in vectors]
    reports = [
        annihilation_check(p, vectors),
        delta_ladder(p, vectors),
        tau_cross_check(p, vectors),
        commutativity_check(labeled, ctx),
        raising_recursion_check(p, seed=cfg.seed),
    ]
    obj = {"pyramid": str(p), "reports": [r.to_obj() for r in reports]}
    return obj, reports


def cmd_center(cfg: Config) -> Tuple[dict, List[Report]]:
    p = cfg.pyramid
    gens = center_generators(p)
    c = cfg.automorphism_c
    if c is not None:
        gens = [(k, r, apply_automorphism(p, elem, c)) for k, r, elem in gens]
    labeled = [(f"Phi[{k},{r}]", elem) for k, r, elem in gens]
    report = centrality_check(p, labeled)
    obj = {
        "pyramid": str(p),
        "automorphism_c": None if c is None else str(c),
        "generators": [
            {"k": k, "r": r, "element": elem} for k, r, elem in gens
        ],
        "centrality": report.to_obj(),
    }
    return obj, [report]


def cmd_shift(cfg: Config) -> Tuple[dict, List[Report]]:
    p = cfg.pyramid
    fin = get_context(p, "finite")
    chi = load_chi(cfg)
    vectors = selected_vectors(p)
    gens = a_chi_generators(p, vectors, chi)
    labeled = [(f"phi[{g.k},{g.r}]({g.m})", g.element) for g in gens]
    report = commutativity_check(labeled, fin)
    report.seed = cfg.seed
    point = random_point(p, cfg.seed)
    rank = jacobian_rank(p, symbols(vectors), point)
    obj = {
        "pyramid": str(p),
        "seed": cfg.seed,
        "chi": chi_to_obj(chi),
        "generators": [
            {"k": g.k, "r": g.r, "m": g.m, "element": g.element}
            for g in gens
        ],
        "commutativity": report.to_obj(),
        "jacobian_rank": rank,
        "z": None if cfg.z is None else str(cfg.z),
    }
    if cfg.z is not None:
        evaluated = []
        for k, r, elem in vectors:
            value = zseries_eval(p, rho_chi(elem, chi), cfg.z)
            evaluated.append({"k": k, "r": r, "element": value})
        obj["evaluated"] = evaluated
    return obj, [report]


COMMANDS = {
    "basis": cmd_basis,
    "vectors": cmd_vectors,
    "verify": cmd_verify,
    "center": cmd_center,
    "shift": cmd_shift,
}


# -- text rendering


def _render_report_text(out, robj: dict):
    cases = robj["cases"]
    failed = [c for c in cases if c["status"] == "fail"]
    status = "FAIL" if failed else "PASS" if cases else "EMPTY"
    out.append(
        f"[{status}] {robj['check']}: "
        f"{len(cases) - len(failed)} pass, {len(failed)} fail"
    )
    for case in failed:
        key = {k: v for k, v in case.items() if k not in ("status", "diff")}
        out.append(f"    FAIL {key}")


def render_text(cfg: Config, obj: dict) -> str:
    out: List[str] = [f"pyramid {obj['pyramid']}"]
    if cfg.command == "basis":
        out.append(f"dimension {obj['dimension']}")
        out.append("basis: " + " ".join(obj["basis"]))
        out.append("nonzero brackets:")
        for item in obj["brackets"]:
            out.append(
                f"  [{item['a']}, {item['b']}] = "
                + signed_sum((t["gen"], exact(t["coeff"])) for t in item["terms"])
            )
        out.append("nonzero form values:")
        for item in obj["form"]:
            out.append(f"  <{item['a']}, {item['b']}> = {item['value']}")
    elif cfg.command == "vectors":
        for vec in obj["vectors"]:
            tag = "selected" if vec["selected"] else "extra"
            out.append(
                f"phi[k={vec['k']},r={vec['r']}] ({tag}): {element_text(vec['element'])}"
            )
    elif cfg.command == "verify":
        for robj in obj["reports"]:
            _render_report_text(out, robj)
    elif cfg.command == "center":
        if obj["automorphism_c"] is not None:
            out.append(f"automorphism c = {obj['automorphism_c']}")
        for item in obj["generators"]:
            out.append(
                f"Phi[k={item['k']},r={item['r']}]: {element_text(item['element'])}"
            )
        _render_report_text(out, obj["centrality"])
    elif cfg.command == "shift":
        out.append(f"seed {obj['seed']}")
        if obj["chi"]:
            out.append(
                "chi: " + ", ".join(f"{k} -> {v}" for k, v in obj["chi"].items())
            )
        else:
            out.append("chi: 0")
        for item in obj["generators"]:
            out.append(
                f"phi[k={item['k']},r={item['r']}]({item['m']}): "
                + element_text(item["element"])
            )
        _render_report_text(out, obj["commutativity"])
        out.append(f"jacobian rank {obj['jacobian_rank']}")
        if obj.get("evaluated") is not None:
            out.append(f"evaluated at z = {obj['z']}:")
            for item in obj["evaluated"]:
                out.append(
                    f"  phi[k={item['k']},r={item['r']}]: "
                    + element_text(item["element"])
                )
    out.append("")  # the document ends in a newline
    return "\n".join(out)


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout in full or raise.

    Goes through the binary layer, whose ``write`` reports how much went
    out: with an unbuffered stdout (``python -u``) the text layer counts
    a partial write to a pipe as complete, so a reader that quits early
    would go unnoticed."""
    sys.stdout.flush()
    out = sys.stdout.buffer
    step = 1 << 17  # above write_json's piece size: a piece goes out whole
    for start in range(0, len(text), step):
        data = memoryview(text[start : start + step].encode())
        while data:
            data = data[out.write(data) :]
    out.flush()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args)
        obj, reports = COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Every input was parsed under the int-to-str digit limit; a result
    # computed from them, such as z^-2, may exceed it and is written too.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if cfg.fmt == "json":
            write_json(obj, _write_stdout)
        else:
            _write_stdout(render_text(cfg, obj))
    except BrokenPipeError:
        # The reader went away (``| head``): point stdout at devnull so the
        # flush at exit does not raise again, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell's status for a death by SIGPIPE
    finally:
        sys.set_int_max_str_digits(limit)
    return 0 if all(r.passed() for r in reports) else 1


def entry() -> None:
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        sys.exit(130)  # 128 + SIGINT, the shell's status for a death by SIGINT
    # The output is written in full.  Frozen objects are left out of the
    # collections the interpreter runs as it shuts down, which would only
    # walk the bracket table and the vector tables before they are freed.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
