"""Repeat the benchmark over seeds and summarize it into one BENCH file.

    python3 bench/collect.py --out bench/results/BENCH_seed.json

For each workload of BENCHMARK.json: ten untraced runs with seeds 1..10 at
its ``run_seconds``, then one traced run.  For every end-to-end metric it
records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``), and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound.  A spread above the bound or any output that differs from the
references makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    return json.loads(lines[-1]), machine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        entry: dict = {"failed": 0, "attempted": 0}
        for seed in range(1, RUNS + 1):
            last, machine = run(workload, seed, spec["run_seconds"], 0)
            summary.setdefault("machine", machine)
            entry["failed"] += last["failed"]
            entry["attempted"] += last["attempted"]
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        steady &= entry["failed"] == 0
        entry["end_to_end"] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            entry["end_to_end"][name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                         "spread": spread, "bound": bounds[name], "values": vals}
            steady &= spread <= bounds[name]
            print(f"{workload:<14} {name:<14} median {statistics.median(vals):10.4f}  "
                  f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:.4f}  bound {bounds[name]}",
                  flush=True)
        last, _ = run(workload, 1, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in last["metrics"].items()}
        summary["workloads"][workload] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
