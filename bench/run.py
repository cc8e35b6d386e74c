"""Benchmark of the sparseattn package: sparse training, sparse inference
and the dense reference, timed end to end and, with --trace 1, per layer.

    python3 bench/run.py --workload train-sparse --seed 42 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it records the machine, the seed, the end-to-end figures in
unscaled wall and CPU time (see workloads.py on scaling) and any failed
check. A traced run also writes its spans to .bench_out/. The exit code
is 0 only when every check passed.

Load comes from this one process, which runs BLAS on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    The matrices here are small: a second OpenBLAS thread left dense
    training as fast (2.29 s against 2.32 s for two epochs on a 2-CPU
    Xeon) while doubling its CPU time, and a sibling core busy with other
    work delays every call that hands work to it."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import sparseattn from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sparseattn
    if not Path(sparseattn.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sparseattn imported from {sparseattn.__file__}, not {src}")
    return sparseattn


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-sparse", "infer-sparse", "dense-baseline"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sparseattn").is_dir() or not spec_path.is_file():
        print(f"error: no sparseattn package or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    pin_blas_threads()
    sa = import_package()
    from tracer import Tracer
    import workloads

    tracer = Tracer(trace=bool(args.trace))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    run = workloads.Run(sa, tracer, args.seed, args.seconds, work_dir)
    restore = tracer.install()
    try:
        run.time_import(ROOT / "src")
        workloads.WORKLOADS[args.workload](run)
        complete = True
    except (ArithmeticError, ValueError) as err:
        run.problems.append(f"{args.workload} raised {err!r}")
        run.failed += 1
        complete = False
    finally:
        restore()
        tracer.trace = False
        shutil.rmtree(work_dir, ignore_errors=True)

    unscaled = {}
    if complete:
        metrics, unscaled = run.end_to_end()
        if args.trace:
            run.problems += workloads.coverage_problems(args.workload, tracer.calls())
            metrics = workloads.layer_metrics(run)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if set(metrics) != set(units):
            run.problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                                f"match BENCHMARK.json")
            complete = False
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "unscaled": unscaled, "problems": run.problems,
    }))
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if complete:
        print(json.dumps({
            "correct": correct,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }))
    return 0 if correct and complete else 1


if __name__ == "__main__":
    sys.exit(main())
