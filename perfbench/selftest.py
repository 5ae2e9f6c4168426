"""Self-test of the benchmark's correctness oracle.

    python3 perfbench/selftest.py

Runs one traced pass of a workload at the default seed against a copy of
golden.json with every hash corrupted, and checks that every request
counts as failed: failed_ratio is 1, the result says incorrect and the
exit code is 1.  Exits 0 when the oracle behaves so.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    golden = json.loads((HERE / "golden.json").read_text())
    corrupted = {key: digest[::-1] for key, digest in golden.items()}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=HERE / ".work") as fh:
        json.dump(corrupted, fh)
        fh.flush()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "vectors-wide",
             "--seed", "0", "--seconds", "0", "--trace", "1", "--golden", fh.name],
            cwd=HERE.parent,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ratio = result["metrics"]["failed_ratio"]["value"]
    ok = (
        proc.returncode == 1
        and result["correct"] is False
        and result["failed"] == result["attempted"] > 0
        and ratio == 1
    )
    print(f"exit {proc.returncode}, correct {result['correct']}, "
          f"failed {result['failed']}/{result['attempted']}, failed_ratio {ratio}: "
          + ("ok" if ok else "WRONG"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
