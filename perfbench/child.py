"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

A fresh process per repetition starts the program's caches cold, as every
real command-line run does.  The repetition times set-up (importing
``qbattery`` and generating the inputs) and then the workload body, while
``calibrate.SpeedSampler`` measures the speed of the CPU, then checks the
outputs with the clock stopped and prints one JSON line.

    python3 perfbench/child.py WORKLOAD SEED SIZE TRACED CORRUPT WORKDIR
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import sys
import types
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _numba_flag():
    try:
        from qbattery import _kernels
    except ImportError:
        return "absent"
    return bool(getattr(_kernels, "NUMBA_ENABLED", False))


def main(argv: list[str]) -> int:
    name, seed, size, traced, corrupt, workdir = argv
    workdir = Path(workdir)
    generate, execute, check = workloads.WORKLOADS[name]

    with calibrate.SpeedSampler() as sampler:
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        import qbattery
        from qbattery import (cli, figures, metrics, model, oracle,
                              propagator, sweep)
        inputs = generate(random.Random(int(seed)),
                          workloads.SIZES[size][name])
        setup_s, setup_ref = sampler.region()

        source = Path(qbattery.__file__).resolve()
        if ROOT / "src" not in source.parents:
            raise RuntimeError(f"qbattery imported from {source}, "
                               "not the checkout")
        api = types.SimpleNamespace(cli=cli, figures=figures, metrics=metrics,
                                    model=model, oracle=oracle,
                                    propagator=propagator, sweep=sweep)
        tracer = tracing.Tracer() if traced == "1" else None
        workdir.mkdir(parents=True)
        if tracer:
            tracer.install(api)
        sampler.mark()
        outcome = execute(inputs, api, workdir)
        wall_s, ref = sampler.region()
        ref = ref or setup_ref or calibrate.REFERENCE_S
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bytes_written = sum(p.stat().st_size for p in workdir.rglob("*")
                        if p.is_file())

    if corrupt == "1":
        workloads.corrupt_first_csv(workdir)
    check(inputs, api, outcome)
    unexpected = [op for op, (kind, _) in outcome.failures.items()
                  if (name, op, kind) not in workloads.KNOWN_DEFECTS]
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "ref_s": ref,
        "setup_scale": calibrate.REFERENCE_S / (setup_ref or ref),
        "scale": calibrate.REFERENCE_S / ref,
        "attempted": len(outcome.ops), "failures": outcome.failures,
        "unexpected": unexpected, "bytes_written": bytes_written,
        "max_dev": outcome.max_dev,
        "trace": tracer.summary() if tracer else None,
        "provenance": {"nproc": os.cpu_count(),
                       "affinity": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "numpy": numpy.__version__,
                       "qbattery": qbattery.__version__,
                       "numba_enabled": _numba_flag()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
