"""CPU speed probe for the benchmark.

    python3 perfbench/speed.py CPU

Pins itself to CPU and, every PERIOD_S, times one run of a fixed
pure-Python loop (tuple keys, dict reads and writes, small-int
arithmetic: the mix of the program's rewriting memo).  Each line read
from stdin is answered with one JSON line, the samples taken since the
last answer as ``[[start_ns, loop_ns], ...]`` on CLOCK_MONOTONIC.  It
exits at the end of stdin.

Why: the CPUs of a shared host switch, for seconds at a time, between a
fast state and one about 1.5 times slower, as other tenants load the
same cores.  The harness runs each request on the same CPU as this
probe.  The probe sleeps between samples, so the scheduler lets it in
as soon as it wakes, and its loop time follows the CPU's speed while
the request runs.  It takes about 2% of the CPU.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

PERIOD_S = 0.025
LOOP_N = 1000


def loop() -> int:
    memo: dict = {}
    for i in range(LOOP_N):
        key = (i % 37, i % 11)
        memo[key] = memo.get(key, 0) + i
    return len(memo)


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            if not sys.stdin.readline():
                return
            sys.stdout.write(json.dumps(samples) + "\n")
            sys.stdout.flush()
            samples = []
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        loop()
        samples.append((start, time.clock_gettime_ns(time.CLOCK_MONOTONIC) - start))


if __name__ == "__main__":
    main()
