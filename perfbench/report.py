"""Run every workload once and print all its metrics by name, with units.

    python3 perfbench/report.py --seed 1 --seconds 20            # end to end
    python3 perfbench/report.py --seed 1 --seconds 20 --trace    # per layer

Each workload prints its human-readable block (including ``fail_frac`` and
the provenance record) followed by its JSON result line.  Exits non-zero if
any workload could not be measured.
"""

from __future__ import annotations

import argparse
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    status = 0
    for workload in run.WORKLOADS:
        status |= run.main(["--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(int(args.trace))])
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
