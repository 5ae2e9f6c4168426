"""Code that runs inside one benchmark request process.

    python3 perfbench/child.py setup -- SUGAWARA_ARGS...
        Import ``sugawara.cli`` and parse the config as the CLI would,
        then print one JSON line: the CLOCK_MONOTONIC instant at which
        the config was parsed, and the file ``sugawara.cli`` came from.

    python3 perfbench/child.py trace SPANS_FILE -- SUGAWARA_ARGS...
        Run the CLI with spans recorded around the public functions of
        every layer.  stdout is the CLI's own; the spans, as
        (name, start_ns, end_ns, parent) in start order, and a few
        counters go to SPANS_FILE as JSON when the CLI returns.

The source tree is not changed: the tracer rebinds names from outside.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter


def clock_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes; the spawner reads the
    # same clock when it starts this process.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans kept in memory while the CLI runs, written once at the end.

    A span of a pbw entry point opened while another pbw span is open
    (``act`` calling ``combine``) is folded into its caller: it opens no
    span, so the caller's self time holds the engine work done for it.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []  # [name_id, start_ns, end_ns, parent_index]
        self._stack = [(-1, "")]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, suffix=None):
        """``fn`` with a span per call; ``suffix(*args)`` extends the name."""
        spans, stack = self.spans, self._stack
        fold = name.startswith("pbw.")
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_name = stack[-1]
            if fold and parent_name.startswith("pbw."):
                return fn(*args, **kwargs)
            full = name if suffix is None else f"{name}.{suffix(*args)}"
            span = [fixed if suffix is None else self.name_id(full), 0, 0, parent]
            stack.append((len(spans), full))
            spans.append(span)
            span[1] = clock_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock_ns()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts}, fh
            )


def rebind(old, new) -> None:
    """Point every binding of ``old`` in the sugawara modules at ``new``.

    Modules import functions by name (``from .pbw import delta``), so
    patching the defining module alone would miss the other callers.
    """
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "sugawara":
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    from sugawara import cli, detcalc, pbw, pyramid, reports, shift, suga, verify

    counts = tracer.counts

    # Functions bound by name in several modules.  The lru_cache'd ones
    # (cdet, cdet_tau, phi_table, center_determinant, symbols) are wrapped
    # outside the cache: a hit is a call whose span is the lookup only.
    for mod, attr in (
        (pbw, "translation_T"),
        (pbw, "delta"),
        (detcalc, "cdet"),
        (detcalc, "cdet_tau"),
        (detcalc, "column_determinant"),
        (suga, "delta_ladder"),
        (suga, "tau_cross_check"),
        (verify, "annihilation_check"),
        (verify, "raising_recursion_check"),
        (verify, "commutativity_check"),
        (verify, "centrality_check"),
        (shift, "a_chi_generators"),
        (shift, "rho_chi"),
        (shift, "center_determinant"),
        (shift, "symbols"),
        (shift, "jacobian_rank"),
        (shift, "zseries_eval"),
        (cli, "parse_config"),
    ):
        old = getattr(mod, attr)
        rebind(old, tracer.wrap(f"{mod.__name__.split('.')[-1]}.{attr}", old))

    to_obj = pbw.element_to_obj

    def element_to_obj(v):
        counts["pbw.result_terms"] += len(v.terms)
        return to_obj(v)

    rebind(to_obj, tracer.wrap("pbw.element_to_obj", element_to_obj))

    table_of = suga.phi_table
    seen_tables = set()

    def phi_table(p):
        table = table_of(p)
        if id(table) not in seen_tables:
            seen_tables.add(id(table))
            counts["suga.vector_terms"] += sum(len(e.terms) for e in table.entries.values())
        return table

    rebind(table_of, tracer.wrap("suga.phi_table", phi_table))

    lie_bracket = pyramid.bracket

    def bracket(*args):
        counts["pyramid.bracket.calls"] += 1
        return lie_bracket(*args)

    rebind(lie_bracket, bracket)

    ctx_cls = pbw.LieContext
    ctx_cls.act = tracer.wrap("pbw.act", ctx_cls.act)
    ctx_cls.combine = tracer.wrap("pbw.combine", ctx_cls.combine)
    ctx_cls.mul = tracer.wrap("pbw.mul", ctx_cls.mul, suffix=lambda ctx, *_: ctx.mode)
    for mode in ("affine", "finite"):
        tracer.name_id(f"pbw.mul.{mode}")  # known even where unused
    pyramid.Pyramid.basis = tracer.wrap("pyramid.basis", pyramid.Pyramid.basis)
    reports.Report.to_obj = tracer.wrap("reports.to_obj", reports.Report.to_obj)

    # cli calls json.dumps for its output; trace that call only.
    proxy = types.SimpleNamespace(**vars(cli.json))
    proxy.dumps = tracer.wrap("cli.json_dumps", cli.json.dumps)
    cli.json = proxy


def count_memo(tracer: Tracer) -> None:
    from sugawara import pbw

    for ctx in pbw._CONTEXTS.values():
        # Engine internals: read defensively so a renamed memo reads 0
        # instead of breaking the run.
        memo = getattr(ctx, "_insert_memo", {})
        tracer.counts[f"pbw.memo_entries.{ctx.mode}"] += len(memo)


def main(argv) -> int:
    mode = argv[0]
    sep = argv.index("--")
    args = argv[sep + 1 :]
    if mode == "setup":
        from sugawara import cli

        cli.parse_config(cli.build_parser().parse_args(args))
        print(json.dumps({"ready_ns": clock_ns(), "cli": cli.__file__}), flush=True)
        return 0
    if mode == "trace":
        from sugawara import cli

        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("cli.main", cli.main)
        try:
            return run(args)
        finally:
            sys.stdout.flush()
            count_memo(tracer)
            tracer.dump(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
