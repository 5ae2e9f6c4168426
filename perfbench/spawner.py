"""Request spawner for the benchmark: one cold process per request.

    python3 perfbench/spawner.py CPU

It pins itself, and so every request it starts, to CPU.  The harness
starts this script once, while the harness is still small,
and sends it one JSON line per request:

    {"argv": [...], "out": PATH, "err": PATH, "timeout": SECONDS}

It runs the request with stdout and stderr going to the two files,
reaps it with ``os.wait4`` and answers with one JSON line:

    {"rc": int, "timed_out": bool, "maxrss_kb": int,
     "spawn_ns": int, "exit_ns": int}

Why a separate process: at exec, Linux carries the spawning process's
peak RSS into the child's ``ru_maxrss``.  The harness parses request
outputs of several MB, so a request spawned by the harness would report
the harness's peak instead of its own.  This process never reads an
output, so its own small peak is the floor of every reading.

Times come from CLOCK_MONOTONIC, which is one clock for every process
on the machine, so a child may stamp an instant of its own run on it.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time


def clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        spawn_ns = clock_ns()
        proc = subprocess.Popen(
            req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], req["timeout"])
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        exit_ns = clock_ns()
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "timed_out": not ready,
        "maxrss_kb": usage.ru_maxrss,
        "spawn_ns": spawn_ns,
        "exit_ns": exit_ns,
    }


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
