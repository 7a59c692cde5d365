"""Run every workload, each in its own fresh process, one at a time.

    python3 perfbench/suite.py --seeds 1                 # one untraced + one traced run each
    python3 perfbench/suite.py --seeds 1 2 3 4 5 --no-trace --workload eval-scenes

Every run lasts BENCHMARK.json's run_seconds. Prints every end-to-end
figure by name and unit, the failed share and, when traced, the tracing
overhead (traced figure minus untraced figure at the same seed). The
`.tail` figures are taken from the step and scene samples of all seeds
pooled, since one run has too few. With several seeds it also prints,
per end-to-end metric of BENCHMARK.json, the median and the quartile
spread as a share of the median, next to the metric's bound. A summary
is written to `.perfbench_out/suite.json`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FIGURES = {
    "train": ["stage1_step_s.p50", "stage4_step_s.p50", "train_patches_per_s"],
    "eval": ["eval_scene_s.p50", "eval_mpx_per_s"],
}
SAMPLES = {"train": ["stage1_step_s", "stage4_step_s"], "eval": ["eval_scene_s"]}
UNITS = {"train_patches_per_s": "patch/s", "eval_mpx_per_s": "Mpx/s",
         **{m["name"]: m["unit"] for m in SPEC["end_to_end"]}}


def run_one(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((ROOT / ".perfbench_out" / f"{tag}.json").read_text())
    return {"result": result, "figures": record["figures"], "samples": record["samples"]}


def percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, n).

    Fewer than 11 samples have no such percentile; that reads (0, 0, n).
    """
    n = len(values)
    if n < 11:
        return 0.0, 0.0, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as the acceptance rule takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = p.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # show progress while runs go on
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    summary: dict = {}
    for workload in workloads:
        kind = "eval" if workload == "eval-scenes" else "train"
        runs = []
        for seed in args.seeds:
            run = run_one(workload, seed, 0)
            runs.append(run)
            res = run["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed_share={res['failed'] / res['attempted']:.4g} "
                  + " ".join(f"{k}={v['value']:.5g}{v['unit']}"
                             for k, v in res["metrics"].items()))
        first = runs[0]["figures"]
        for name in FIGURES[kind]:
            print(f"  {workload}  {name} = {first[name]:.5g} {UNITS.get(name, 's')}")
        entry = {"runs": [r["result"] for r in runs], "tails": {}}
        for name in SAMPLES[kind]:
            tail, pct, n = percentile_tail([v for r in runs for v in r["samples"][name]])
            entry["tails"][name] = {"value": tail, "pct": pct, "samples": n}
            note = "" if pct >= 90 else "  (below p90: too few samples for a tail)"
            print(f"  {workload}  {name}.tail = {tail:.5g} s at p{pct:.1f} of {n} samples "
                  f"pooled over {len(runs)} seeds{note}")
        if not args.no_trace:
            traced = run_one(workload, args.seeds[0], 1)["figures"]
            entry["traced"] = traced
            names = FIGURES[kind] + [m["name"] for m in SPEC["end_to_end"]]
            entry["overhead"] = {name: traced[name] - first[name] for name in names}
            for name, delta in entry["overhead"].items():
                print(f"  {workload}  tracing overhead {name}: {delta:+.4g} "
                      f"{UNITS.get(name, 's')} ({100 * delta / first[name]:+.2f}%)"
                      if first[name] else f"  {workload}  tracing overhead {name}: n/a")
        if len(runs) > 1:
            entry["spread"] = {}
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                sp = spread(values)
                entry["spread"][name] = sp
                print(f"  {workload}  {name}: median {statistics.median(values):.5g} "
                      f"{metric['unit']}, spread {sp:.4f} (bound {metric['bound']})")
        summary[workload] = entry

    out = ROOT / ".perfbench_out" / "suite.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
