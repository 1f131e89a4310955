"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--trace-seed N] [--out perfbench/out/spread.json]

Every workload of BENCHMARK.json is run once per seed, one run after another,
with BENCHMARK.json's run_seconds.  The
spread of a metric is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4); it is printed next to the metric's bound.
With --trace-seed, one traced run per workload on that seed is added, for
the per-layer figures.  The exit code is 1 if a run was not correct or the
deterministic counts differ between runs.  perfbench/baseline.json, the
figures of the untouched package, was written by

    python3 perfbench/spread.py --seeds 11-20 --trace-seed 11 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One benchmark run; returns its result line, stamp and deterministic counts."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines
              if line.startswith(("stamp ", "counts "))}
    return json.loads(lines[-1]), json.loads(tagged["stamp"]), json.loads(tagged["counts"])


def summarize(runs: list[dict], specs: dict) -> dict:
    summary = {}
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": spec["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(values),
                         "bound": spec.get("bound"), "values": values}
    return summary


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="an inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", default=str(HERE / "out" / "spread.json"))
    args = parser.parse_args()
    specs = {m["name"]: m for m in bench["end_to_end"]}
    report: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs, counts = [], []
        for seed in parse_seeds(args.seeds):
            result, stamp, run_counts = run_once(workload, seed, bench["run_seconds"], 0)
            report.setdefault("stamp", stamp)
            runs.append(result)
            counts.append(run_counts)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        # counts do not depend on the seed, so every run must repeat the first one's
        counts_repeat = all(c == counts[0] for c in counts)
        ok = ok and counts_repeat and all(r["correct"] for r in runs)
        entry = {"runs": runs, "counts": counts[0], "counts_repeat": counts_repeat,
                 "summary": summarize(runs, specs)}
        print(f"  deterministic counts repeat across runs: {counts_repeat}")
        if args.trace_seed is not None:
            entry["traced"], _, _ = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
            saved = json.loads((HERE / "out" / "results"
                                / f"{workload}-seed{args.trace_seed}-trace1.json").read_text())
            for key in ("train_step_breakdown", "tracing_overhead"):
                entry["traced"][key] = saved.get(key)
        report["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            bound = f"{s['bound']:.3f}" if s["bound"] is not None else "-"
            print(f"  {name:<26s} median {s['median']:<12.6g} {s['unit']:<8s} "
                  f"spread {s['spread']:.4f}  bound {bound}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
