"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload train-single --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of
BENCHMARK.json. The lines above it give every figure by name and unit,
the output-check failures and the provenance. A full record (and, when
traced, the spans) is written under `.perfbench_out/`.
"""
from __future__ import annotations

import os
import sys

# BLAS reads its thread count once, when numpy loads OpenBLAS, so the
# count is fixed here, before anything imports numpy. One thread per
# usable core; HALLUCINET_THREADS is not consulted.
THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count OpenBLAS actually uses, asked from the loaded library."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, run) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": THREADS,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": THREADS,
        "blas_threads_effective": _blas_threads(),
        "threadpoolctl_present": importlib.util.find_spec("threadpoolctl") is not None,
        "hallucinet_threads_env": os.environ.get("HALLUCINET_THREADS"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "geometry": {k: v for k, v in vars(run.geo).items()},
        "plan": run.plan,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-single", "train-multi", "eval-scenes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--geometry", choices=("default", "tiny"), default="default",
                   help="tiny is for the smoke test only")
    p.add_argument("--corrupt", choices=("loss", "checkpoint", "confusion", "prediction"),
                   help="damage one output before the checks (smoke test only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hallucinet" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    out_dir = ROOT / ".perfbench_out"
    work_root = ROOT / ".perfbench_work"
    out_dir.mkdir(exist_ok=True)
    work_root.mkdir(exist_ok=True)
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.geometry, work_dir, args.corrupt)
        run.run()
        if args.workload == "eval-scenes":
            run.check_eval()
        else:
            run.check_train()
        end_to_end = run.end_to_end()
        metrics = run.per_layer() if args.trace else end_to_end
        if args.trace:
            with open(out_dir / f"{tag}-spans.jsonl", "w") as fh:
                for name, start, end, parent in run.tracer.spans:
                    fh.write(json.dumps([name, start, end, parent]) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = run.failed == 0 and not run.failures
    shown = {**end_to_end, **run.figures}
    if args.trace:
        shown.update(metrics)
    for name, (value, unit) in shown.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  failed_share = {run.failed / max(1, run.attempted):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for what in run.failures:
        print(f"{args.workload}  FAILED: {what}")
    prov = provenance(args, run)
    print(f"{args.workload}  provenance: {json.dumps(prov)}")
    result = {"correct": correct, "attempted": max(1, run.attempted), "failed": run.failed,
              "metrics": {name: {"value": value if isinstance(value, int) else float(value),
                                 "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"result": result, "figures": {k: v[0] for k, v in shown.items()},
              "samples": run.samples,
              "failures": run.failures, "provenance": prov}
    if args.trace:
        record["self_times"] = run.tracer.self_times()
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
