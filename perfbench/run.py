"""Benchmark runner for stochdet.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package is imported from ./src; no
install step is needed. The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics. The line
before it records the machine, the workload's properties and any check
failures; both are also written under perfbench/out/results/.

--tiny shrinks every size so the self-tests finish in seconds; its
numbers are not comparable with full-size runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("detect-online", "experiment")
HELD_OUT_SEED = 9001  # keep out of tuning; confirm claims on it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--out", default=str(HERE / "out"), help="scratch and result directory")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "stochdet" / "__init__.py").is_file():
        print(f"benchmark: no stochdet sources under {src}", file=sys.stderr)
        return 2
    # OpenBLAS may be built for 64 threads; cap it at the cores we have,
    # before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path[:0] = [str(src), str(HERE)]

    import workloads

    out = Path(args.out)
    work = out / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = workloads.Tally()
    try:
        run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), args.tiny, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from layers import METRICS

        metrics = {name: {"value": run.per_layer[name], "unit": unit} for name, unit, _ in METRICS}
    else:
        metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in workloads.END_TO_END}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "error_rate": tally.failed / max(1, tally.attempted),
        "failures": tally.failures,
        "properties": run.properties,
        "machine": machine_facts(),
    }
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    (results / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
