"""Benchmark of the ``sugawara`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``.

Load: one closed-loop client.  Each request is one ``sugawara`` call in
a fresh process (``python3 -m sugawara.cli``), because the rewrite memo
and the ``lru_cache``s live for one process and a user pays to fill
them on every call.  A pass runs the workload's request list once, one
request at a time.  A run repeats rounds for S seconds, each round
SETUP_PROBES set-up probes (interpreter start, ``import sugawara.cli``,
``parse_config``) and then a pass, and reports medians over its passes
and probes.

Every time is scaled to a reference CPU speed.  The host's CPUs switch,
for seconds at a time, between a fast state and one about 1.5 times
slower, as other tenants load the same cores; a run sees both in
changing shares.  So requests run pinned to one CPU beside
``speed.py``, which times a fixed loop on that CPU every 25 ms, and a
time measured over an interval is multiplied by the CPU's mean speed
in it, the mean of REF_PROBE_NS / loop time over its samples: it reads
as the seconds the work would take on a CPU where the loop always
takes REF_PROBE_NS.  The probe is the benchmark's own code, so a change to
the program moves the scaled times as much as the raw ones.

``--trace 0`` prints the ``end_to_end`` metrics of BENCHMARK.json.
``--trace 1`` adds a pass under the tracer in ``child.py`` to each round
and prints the ``per_layer`` metrics: the latency of each command summed
over an untraced pass (0 where the workload lacks the command), self
time and calls per span name summed over a traced pass, and counters.
The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when some request failed.

A request fails when it times out, exits non-zero, or its stdout is
wrong: it must be a JSON parse/serialize fixed point, every report in
it must have at least one passing and no failing case, and where
``golden.json`` has the request its SHA-256 must match.  The golden
file covers every request at the default seed; requests that take no
seed read the same at every seed, so they are covered at every seed.

Other modes:
    --write-golden            store the stdout hashes at the default seed
    --explain SUGAWARA_ARGS   trace one request and print, per span name,
                              calls, self time and inclusive time
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_PROBES = 3  # per round
REQUEST_TIMEOUT_S = 120
COMMANDS = ("verify", "vectors", "center", "shift")
REF_PROBE_NS = 300_000  # speed.py's loop time that scaled times refer to
MIN_PROBE_SAMPLES = 5  # per scaled interval


class Request(NamedTuple):
    command: str
    pyramid: str
    seed: Optional[int] = None  # the CLI's --seed; also seeds chi
    chi: bool = False
    z: Optional[str] = None


# Why each workload: the layer it loads and the change that should move
# it while the others stay flat.
WORKLOADS = {
    # Affine engine (act / mul -> _insert) does ~85% of the work and
    # fills ~200k memo entries: moved by pbw hot-path, thread and
    # generating-family changes.
    "verify-affine": lambda seed: [
        Request("verify", "2,2,2,2", seed),
        Request("verify", "1,1,1,1", seed),
    ],
    # Column recursion, short-word combine / translation_T and 5-10 MB
    # JSON outputs, with few memo entries: moved by detcalc and
    # serialization changes, flat under a long-word memo change.
    "vectors-wide": lambda seed: [
        Request("vectors", "1,1,1,1,1,1"),
        Request("vectors", "2,2,2,2,2"),
        Request("vectors", "1,2,3,4,5"),
    ],
    # Finite mode: products of two full words with no vacuum truncation,
    # and the shift layer; flat under a vacuum-quotient change.
    "finite-shift": lambda seed: [
        Request("center", "2,2,2,2"),
        Request("shift", "2,2,2,2", seed, z="2"),
        Request("shift", "1,2,2,3", seed, chi=True, z="2"),
    ],
}


# -- inputs


def basis(pyramid: str) -> List[str]:
    """E[i,j,r] for every row pair and every r in
    lambda_j - min(lambda_i, lambda_j) <= r < lambda_j."""
    lam = [int(x) for x in pyramid.split(",")]
    return [
        f"E[{i},{j},{r}]"
        for i, li in enumerate(lam, 1)
        for j, lj in enumerate(lam, 1)
        for r in range(lj - min(li, lj), lj)
    ]


def chi_text(pyramid: str, seed: int) -> str:
    """A nonzero integer in +-1..3 on every basis symbol, so the cost of
    the evaluation homomorphism does not depend on the seed.  Values are
    strings: the CLI reads them as exact rationals."""
    rng = random.Random(f"chi {pyramid} {seed}")
    return json.dumps(
        {g: str(rng.choice((-3, -2, -1, 1, 2, 3))) for g in basis(pyramid)}
    )


def cli_args(req: Request, chi_path: str) -> List[str]:
    args = ["--pyramid", req.pyramid]
    if req.seed is not None:
        args += ["--seed", str(req.seed)]
    if req.chi:
        args += ["--chi", chi_path]
    if req.z is not None:
        args += ["--z", req.z]
    return args + [req.command]


def golden_key(req: Request) -> str:
    """The request's arguments, with chi named by its content."""
    chi = ""
    if req.chi:
        chi = "chi-" + hashlib.sha256(chi_text(req.pyramid, req.seed).encode()).hexdigest()[:16]
    return " ".join(cli_args(req, chi))


# -- correctness


def reports_of(command: str, obj: dict) -> List[dict]:
    if command == "verify":
        return obj["reports"]
    if command == "center":
        return [obj["centrality"]]
    if command == "shift":
        return [obj["commutativity"]]
    return []


def check(req: Request, text: bytes, golden: Dict[str, str]) -> Tuple[Optional[str], Counter]:
    """(why the output is wrong or None, case statuses over its reports)."""
    cases: Counter = Counter()
    want = golden.get(golden_key(req))
    if want is not None and hashlib.sha256(text).hexdigest() != want:
        return "stdout differs from the golden hash", cases
    try:
        obj = json.loads(text)
    except ValueError:
        return "stdout is not JSON", cases
    # Bytes that match a golden hash were found to be a fixed point when
    # the hash was stored; re-serializing MBs of output costs seconds.
    if want is None and (json.dumps(obj, indent=2) + "\n").encode() != text:
        return "stdout is not a parse/serialize fixed point", cases
    try:
        for report in reports_of(req.command, obj):
            statuses = Counter(case["status"] for case in report["cases"])
            cases.update(statuses)
            if statuses["fail"] or not statuses["pass"]:
                return f"report {report['check']}: {dict(statuses)}", cases
    except (KeyError, TypeError) as exc:
        return f"unexpected output shape: {exc!r}", cases
    return None, cases


# -- running requests


class Spawner:
    """Client of spawner.py, started before this process grows."""

    def __init__(self, cpu: int):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py"), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: List[str], out: Path, err: Path) -> dict:
        req = {"argv": argv, "out": str(out), "err": str(err), "timeout": REQUEST_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("request spawner died")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REQUEST_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class SpeedProbe:
    """Client of speed.py, timing a fixed loop on the requests' CPU."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.starts: List[int] = []
        self.loop_ns: List[int] = []

    def collect(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe died")
        for start, ns in json.loads(line):
            self.starts.append(start)
            self.loop_ns.append(ns)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """The CPU's mean speed between the two instants, relative to the
        speed at which the loop takes REF_PROBE_NS: the mean of
        REF_PROBE_NS / loop time over the samples in the interval,
        widened until it holds MIN_PROBE_SAMPLES, without the highest
        and lowest tenth (samples the scheduler held up, for one)."""
        self.collect()
        while len(self.starts) < MIN_PROBE_SAMPLES:  # the probe has just started
            time.sleep(0.025)
            self.collect()
        lo = bisect.bisect_left(self.starts, start_ns)
        hi = bisect.bisect_right(self.starts, end_ns)
        while hi - lo < MIN_PROBE_SAMPLES:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        speeds = sorted(REF_PROBE_NS / ns for ns in self.loop_ns[lo:hi])
        trim = len(speeds) // 10
        return statistics.mean(speeds[trim : len(speeds) - trim])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Outcome:
    request: Request
    seconds: float  # scaled
    maxrss_mb: float
    out_bytes: int
    error: Optional[str]
    cases: Counter
    trace: Optional[dict]  # child.py's spans file, when traced


class Bench:
    def __init__(self, spawner: Spawner, probe: SpeedProbe, work: Path, golden: Dict[str, str]):
        self.spawner = spawner
        self.probe = probe
        self.work = work
        self.golden = golden

    def chi_path(self, req: Request) -> str:
        path = self.work / f"chi-{req.pyramid}-{req.seed}.json"
        if not path.exists():
            path.write_text(chi_text(req.pyramid, req.seed))
        return str(path)

    def setup_s(self, req: Request) -> float:
        """Scaled seconds from spawn until the CLI has parsed its config."""
        argv = [sys.executable, str(HERE / "child.py"), "setup", "--"]
        out, err = self.work / "setup.out", self.work / "setup.err"
        reply = self.spawner.run(argv + cli_args(req, self.chi_path(req)), out, err)
        if reply["rc"] != 0:
            raise RuntimeError(f"set-up probe failed: {err.read_text()[-2000:]}")
        probe = json.loads(out.read_text())
        if Path(probe["cli"]).resolve().parent != SRC / "sugawara":
            raise RuntimeError(f"sugawara imported from {probe['cli']}, not {SRC}")
        scale = self.probe.scale(reply["spawn_ns"], probe["ready_ns"])
        return (probe["ready_ns"] - reply["spawn_ns"]) / 1e9 * scale

    def run_pass(self, requests: List[Request], traced: bool) -> Tuple[float, float, List[Outcome]]:
        """Scaled wall seconds of one pass, the pass's scale factor, and
        each request's outcome."""
        replies = []
        for i, req in enumerate(requests):
            args = cli_args(req, self.chi_path(req))
            if traced:
                child = [str(HERE / "child.py"), "trace", str(self.work / f"{i}.spans"), "--"]
                argv = [sys.executable] + child + args
            else:
                argv = [sys.executable, "-m", "sugawara.cli"] + args
            replies.append(self.spawner.run(argv, self.work / f"{i}.out", self.work / f"{i}.err"))
        scale = self.probe.scale(replies[0]["spawn_ns"], replies[-1]["exit_ns"])
        wall = (replies[-1]["exit_ns"] - replies[0]["spawn_ns"]) / 1e9 * scale
        outcomes = []
        for i, (req, reply) in enumerate(zip(requests, replies)):
            text = (self.work / f"{i}.out").read_bytes()
            cases: Counter = Counter()
            trace = None
            if reply["timed_out"]:
                error = f"timed out after {REQUEST_TIMEOUT_S} s"
            elif reply["rc"] != 0:
                tail = (self.work / f"{i}.err").read_text(errors="replace")[-2000:]
                error = f"exit code {reply['rc']}: {tail}"
            else:
                error, cases = check(req, text, self.golden)
                if traced:
                    trace = json.loads((self.work / f"{i}.spans").read_text())
            seconds = (reply["exit_ns"] - reply["spawn_ns"]) / 1e9
            seconds *= self.probe.scale(reply["spawn_ns"], reply["exit_ns"])
            outcomes.append(
                Outcome(req, seconds, reply["maxrss_kb"] / 1024, len(text), error, cases, trace)
            )
        return wall, scale, outcomes


# -- metrics


def end_to_end(wall: float, outcomes: List[Outcome]) -> Dict[str, float]:
    metrics = {"wall_s": wall, "peak_rss_mb": max(o.maxrss_mb for o in outcomes)}
    for command in COMMANDS:
        metrics[f"{command}_s"] = sum(o.seconds for o in outcomes if o.request.command == command)
    return metrics


def span_times(trace: dict) -> Tuple[Counter, Counter, Counter]:
    """Self ns, inclusive ns and calls per span name.  Self time is a
    span's duration minus that of its children; inclusive time counts a
    span only when no ancestor has the same name."""
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns, total_ns, calls = Counter(), Counter(), Counter()
    for idx, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        self_ns[name] += end - start - child_ns[idx]
        calls[name] += 1
        up = parent
        while up >= 0 and spans[up][0] != nid:
            up = spans[up][3]
        if up < 0:
            total_ns[name] += end - start
    return self_ns, total_ns, calls


# Counters of a traced pass: from child.py, then from the outputs.
COUNTERS = (
    "pbw.memo_entries.affine",
    "pbw.memo_entries.finite",
    "pbw.result_terms",
    "suga.vector_terms",
    "pyramid.bracket.calls",
    "cli.output_bytes",
    "reports.cases_pass",
    "reports.cases_vacuous",
    "reports.cases_fail",
)


def per_layer(outcomes: List[Outcome], wanted: List[str], scale: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, self times multiplied
    by the pass's scale factor.

    ``X.self_s`` and ``X.calls`` sum over span names equal to X or
    starting with ``X.`` (``pbw.mul`` covers ``pbw.mul.affine`` and
    ``pbw.mul.finite``); other names are counters."""
    self_ns, calls = Counter(), Counter()
    counts = Counter(dict.fromkeys(COUNTERS, 0))
    known = set()
    for o in outcomes:
        counts["cli.output_bytes"] += o.out_bytes
        for status in ("pass", "vacuous", "fail"):
            counts[f"reports.cases_{status}"] += o.cases[status]
        if o.trace is None:
            continue
        known.update(o.trace["names"])
        s, _, c = span_times(o.trace)
        self_ns += s
        calls += c
        counts.update(o.trace["counts"])
    out: Dict[str, float] = {}
    for name in wanted:
        prefix, _, kind = name.rpartition(".")
        if name in COUNTERS:
            out[name] = counts[name]
        elif kind in ("self_s", "calls") and any(n == prefix or n.startswith(prefix + ".") for n in known):
            source = self_ns if kind == "self_s" else calls
            total = sum(v for n, v in source.items() if n == prefix or n.startswith(prefix + "."))
            out[name] = total / 1e9 * scale if kind == "self_s" else total
    return out


# -- modes


def check_tree() -> None:
    if not (SRC / "sugawara" / "cli.py").is_file():
        sys.exit(f"error: no program at {SRC / 'sugawara'}; run from a checkout of the repository")


def failures(outcomes: List[Outcome]) -> List[str]:
    return [f"{' '.join(cli_args(o.request, 'CHI'))}: {o.error}" for o in outcomes if o.error]


def bench(args, spec: dict, b: Bench) -> int:
    requests = WORKLOADS[args.workload](args.seed)
    b.setup_s(requests[0])  # warm-up: the first import in a checkout compiles bytecode
    setups: List[float] = []
    walls: Dict[bool, List[float]] = {False: [], True: []}
    samples: Dict[bool, List[Dict[str, float]]] = {False: [], True: []}
    attempted, failed = 0, []
    modes = (False, True) if args.trace else (False,)
    wanted = [m["name"] for m in spec["per_layer"]]
    start = time.monotonic()
    round_s = 0.0
    # A round is one pass per mode, the modes in alternating order so a
    # drift in machine speed does not bias trace.overhead_s.  No round
    # starts that would, at the length of the last one, end after the
    # measuring time.
    while not setups or time.monotonic() - start + round_s <= args.seconds:
        round_start = time.monotonic()
        setups += [b.setup_s(requests[0]) for _ in range(SETUP_PROBES)]
        for traced in modes if len(walls[False]) % 2 == 0 else modes[::-1]:
            wall, scale, outcomes = b.run_pass(requests, traced)
            print(f"{'traced' if traced else 'untraced'} pass: {wall / scale:.3f} s,"
                  f" {wall:.3f} s scaled by {scale:.3f}", file=sys.stderr)
            walls[traced].append(wall)
            samples[traced].append(per_layer(outcomes, wanted, scale) if traced else end_to_end(wall, outcomes))
            attempted += len(outcomes)
            failed += failures(outcomes)
        round_s = time.monotonic() - round_start

    values: Dict[str, float] = {}
    for traced in modes:
        for name in samples[traced][0]:
            # Times take the median; counts and sizes take median_low, an
            # observed value, so counts stay whole numbers.
            median = statistics.median if name.endswith("_s") else statistics.median_low
            values[name] = median(s[name] for s in samples[traced])
    values["setup_s"] = statistics.median(setups)
    if args.trace:
        values["trace.overhead_s"] = statistics.median(t - u for u, t in zip(walls[False], walls[True]))
        values["failed_ratio"] = len(failed) / attempted
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for line in failed[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0 if not failed else 1


def write_golden(b: Bench) -> int:
    golden: Dict[str, str] = {}
    for workload in WORKLOADS:
        requests = WORKLOADS[workload](DEFAULT_SEED)
        _, _, outcomes = b.run_pass(requests, traced=False)
        bad = failures(outcomes)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        for i, req in enumerate(requests):
            golden[golden_key(req)] = hashlib.sha256((b.work / f"{i}.out").read_bytes()).hexdigest()
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} hashes to {GOLDEN}")
    return 0


def explain(argv: List[str], spawner: Spawner, work: Path) -> int:
    out, err = work / "explain.out", work / "explain.err"
    plain = spawner.run([sys.executable, "-m", "sugawara.cli"] + argv, out, err)
    spans = work / "explain.spans"
    traced = spawner.run([sys.executable, str(HERE / "child.py"), "trace", str(spans), "--"] + argv, out, err)
    if plain["rc"] != 0 or traced["rc"] != 0:
        print(err.read_text(), file=sys.stderr)
        return 1
    trace = json.loads(spans.read_text())
    self_ns, total_ns, calls = span_times(trace)
    print(f"untraced {(plain['exit_ns'] - plain['spawn_ns']) / 1e9:.3f} s, "
          f"traced {(traced['exit_ns'] - traced['spawn_ns']) / 1e9:.3f} s")
    print(f"{'span':34} {'calls':>8} {'self_s':>9} {'total_s':>9}")
    for name in sorted(calls, key=lambda n: -total_ns[n]):
        print(f"{name:34} {calls[name]:8d} {self_ns[name] / 1e9:9.3f} {total_ns[name] / 1e9:9.3f}")
    for name, value in sorted(trace["counts"].items()):
        print(f"{name:34} {value:8d}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", type=Path, default=GOLDEN, help="golden hash file")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--explain", nargs=argparse.REMAINDER, metavar="SUGAWARA_ARGS")
    args = ap.parse_args()
    if not (args.workload or args.write_golden or args.explain):
        ap.error("--workload is required")
    check_tree()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    cpu = max(os.sched_getaffinity(0))
    spawner = Spawner(cpu)
    probe = SpeedProbe(cpu)
    try:
        if args.explain:
            return explain(args.explain, spawner, work)
        golden = {} if args.write_golden else json.loads(args.golden.read_text())
        b = Bench(spawner, probe, work, golden)
        if args.write_golden:
            return write_golden(b)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return bench(args, spec, b)
    finally:
        probe.close()
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
