"""oculogate benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {train,screen,visit} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. The run sets the workload up three times (reporting the
median as setup_s and requiring byte-identical set-ups), then repeats the
workload's operation for S seconds. With --trace 1 it replays the same
operations with spans around oculogate's public functions and reports the
per-layer metrics instead of the end-to-end ones.

Stdout ends with a record line `{"perfbench": {...}}` (environment, sizes,
output digests, failures) and then the result line
`{"correct", "attempted", "failed", "metrics"}`. Both also go to
`.perfbench_out/`, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

N_SETUPS = 3
# One BLAS thread: on 2 vCPUs it was no slower than two and steadier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_WINDOW_S = 60.0    # a window extended to reach min_ops stops here

# workload-specific names for the end-to-end metrics: (metric, scale)
NAMED = {
    "train": {"train_samples_per_s": ("items_per_s", 1.0),
              "train_val_auc": ("screening_auc", 1.0)},
    "screen": {"gate_visits_per_s": ("items_per_s", 1.0),
               "screen_s": ("op_p50_ms", 1e-3)},
    "visit": {"visit_p50_ms": ("op_p50_ms", 1.0),
              "visit_p90_ms": ("op_tail_ms", 1.0)},
}


class Timer:
    seconds = 0.0

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self._t0
        return False


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "screen", "visit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import oculogate from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "oculogate", "__init__.py")):
        raise SystemExit(f"perfbench: no oculogate sources under {SRC}")
    sys.path.insert(0, SRC)
    import oculogate

    found = os.path.dirname(os.path.dirname(os.path.abspath(oculogate.__file__)))
    if found != SRC:
        raise SystemExit(f"perfbench: imported oculogate from {found}, not {SRC}")
    return oculogate


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    # the OpenBLAS a numpy wheel bundles; a system BLAS is reported as {}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*.so*"))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads_set": BLAS_THREADS, "threads_reported": threads}


def environment(oculogate) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "oculogate": oculogate.__version__,
        "blas": blas_info(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload, seconds: float, timer, n_ops: int | None = None) -> list:
    """Repeat the workload's op for `seconds` (and at least min_ops), or
    exactly n_ops times."""
    records = []
    t0 = perf_counter()
    while True:
        if n_ops is not None:
            if len(records) >= n_ops:
                break
        else:
            elapsed = perf_counter() - t0
            if elapsed >= seconds and (len(records) >= workload.min_ops
                                       or elapsed >= MAX_WINDOW_S):
                break
        records.append(workload.op(len(records), timer))
    return records


def percentile_ms(seconds: list[float], p: int) -> float:
    return 1e3 * statistics.quantiles(seconds, n=100, method="inclusive")[p - 1]


def latency_ms(seconds: list[float]) -> dict:
    """Median and the percentiles with at least ten samples beyond them."""
    out = {"n": len(seconds), "p50": 1e3 * statistics.median(seconds),
           "max": 1e3 * max(seconds)}
    for p in (90, 99):
        if len(seconds) * (100 - p) >= 1000:
            out[f"p{p}"] = percentile_ms(seconds, p)
    return out


def end_to_end(workload, records, setup_s, attempted, failed) -> dict:
    secs = [r["seconds"] for r in records]
    items = sum(r.get("items", 1) for r in records)
    items_s = sum(r.get("items_seconds", r["seconds"]) for r in records)
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - failed) / attempted,
        "items_per_s": items / items_s,
        "op_p50_ms": 1e3 * statistics.median(secs),
        "op_tail_ms": latency_ms(secs)[workload.tail],
        "screening_auc": workload.auc(records),
    }


def run(args, oculogate) -> int:
    from tracing import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    from workloads import WORKLOADS

    os.makedirs(WORK_ROOT, exist_ok=True)
    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_s = []
        for k in range(N_SETUPS):
            t0 = perf_counter()
            workload.setup(k)
            setup_s.append(perf_counter() - t0)
        failures = [[f"set-up {k} outputs differ from set-up 0"]
                    for k in range(1, N_SETUPS)
                    if workload.setup_digests[k] != workload.setup_digests[0]]

        records = measure(workload, args.seconds, Timer)
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds, tracer.op,
                                 n_ops=len(records))
            finally:
                tracer.uninstall()
        failures += [f for f in workload.check(records + traced) if f]
        attempted = N_SETUPS + len(records) + len(traced)
        failed = len(failures)

        if args.trace:
            untraced_op_s = statistics.fmean(r["seconds"] for r in records)
            metrics = tracer.layer_metrics(untraced_op_s)
            wanted = spec["per_layer"]
            tracer.write(os.path.join(
                OUT_ROOT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
        else:
            metrics = end_to_end(workload, records, setup_s, attempted, failed)
            wanted = spec["end_to_end"]
        missing = {m["name"] for m in wanted} - set(metrics)
        if missing:
            raise SystemExit(f"perfbench: metrics not produced: {sorted(missing)}")

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(oculogate),
            "sizes": workload.sizes, "setup_s": setup_s, "ops": len(records),
            "traced_ops": len(traced), "digests": workload.digests(records),
            "latency_ms": latency_ms([r["seconds"] for r in records]),
            "failures": [msg for f in failures for msg in f][:20],
        }
        if not args.trace:
            record["named"] = {name: metrics[src] * scale for name, (src, scale)
                               in NAMED[args.workload].items()}
            record["named"]["error_rate"] = failed / attempted
        result = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }
        lines = [json.dumps({"perfbench": record}, sort_keys=True),
                 json.dumps(result)]
        with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}"
                                         f"-trace{args.trace}.json"), "w") as f:
            f.write("\n".join(lines) + "\n")
        print("\n".join(lines), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:           # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    oculogate = import_program()
    return run(args, oculogate)


if __name__ == "__main__":
    sys.exit(main())
