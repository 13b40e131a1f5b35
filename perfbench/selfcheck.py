"""Self-check of the benchmark at tiny input sizes (about half a minute).

    python3 perfbench/selfcheck.py

1. Every workload, in both trace modes, prints a result line with exactly
   the metrics ``BENCHMARK.json`` names, each with its unit.
2. An altered value in a written CSV (one ulp in one cell) is counted as a
   failed operation and makes the result incorrect, on the two workloads
   whose checks cover every written value: ``trajectory_export``
   (re-parsed tables equal recomputed ones) and ``maxima_sweep`` (the
   ergotropy/stored-energy identity).

Exits non-zero and names the problem on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, corrupt: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"] + (["--corrupt"] if corrupt else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {' '.join(cmd[1:])}: exit {proc.returncode}"
                         f"\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result = _run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                raise SystemExit(f"FAIL {workload} trace={trace}: metrics "
                                 f"{sorted(set(got) ^ set(expected))} differ"
                                 f" or units differ")
            if not (result["correct"] and result["attempted"] >= 1):
                raise SystemExit(f"FAIL {workload} trace={trace}: {result}")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    for workload in ("trajectory_export", "maxima_sweep"):
        result = _run(workload, 0, corrupt=True)
        if result["failed"] < 1 or result["correct"]:
            raise SystemExit(f"FAIL {workload}: corrupted CSV not detected")
        print(f"ok  {workload} corrupted CSV: {result['failed']} failed, "
              f"pass_frac {result['metrics']['pass_frac']['value']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
