"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 1] [--out runs.json]

Reads the command, run length, workloads and metrics from BENCHMARK.json.
For every workload x metric it prints the median of the runs, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--out`` keeps every run's result for later comparison,
for example between a parent commit and a change.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result["metrics"]) != {m["name"] for m in declared}:
                raise SystemExit(f"{workload}: metrics differ from BENCHMARK.json")
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
            runs[workload].append({"seed": seed, **json.loads(lines[0]), **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'workload':16} {'metric':16} {'unit':5} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for workload, results in runs.items():
        for metric in declared:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            median, q1, q3, spread = summarize(values)
            bound = metric.get("bound", float("nan"))
            print(f"{workload:16} {name:16} {metric['unit']:5} {median:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} {bound:6.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
