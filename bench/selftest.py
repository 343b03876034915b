"""Self-test of the benchmark's gate and of its BENCHMARK.json contract.

    python3 bench/selftest.py        # about a minute

1. The gate accepts the reference stream and counts one tampered report
   line as one differing output.
2. The benchmark command, told to alter one report line (sweep-large) or
   one byte of a spectrum file (spectrum-dump) before the check, reports
   an error rate above 0 and exits non-zero.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero and prints no result.
4. The metrics a run prints are exactly the ones BENCHMARK.json lists,
   with the same units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def check(ok: bool, what: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    return ok


def gate_unit() -> bool:
    lines = (workloads.REFS / "sweep-large.jsonl").read_text(encoding="ascii").splitlines()
    stream = "".join(json.dumps({**json.loads(line), "elapsed_ms": 7}, separators=(",", ":")) + "\n"
                     for line in lines)
    clean, tampered = workloads.Verdict(), workloads.Verdict()
    workloads.check_stream("sweep-large", stream, clean)
    workloads.check_stream("sweep-large", stream.replace('"status":"pass"', '"status":"fail"', 1),
                           tampered)
    return (check(clean.failed == 0 and clean.checked == len(lines), "gate accepts the reference stream")
            & check(tampered.failed == 1, "gate counts one tampered report line"))


def run_bench(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc.returncode, last


def tampered_runs() -> bool:
    ok = True
    for workload, what in (("sweep-large", "report-line"), ("spectrum-dump", "spectrum-file")):
        code, last = run_bench(["--workload", workload, "--seed", "0", "--seconds", "1",
                                "--trace", "0", "--tamper", what])
        rate = last["failed"] / last["attempted"] if last else None
        ok &= check(code != 0 and rate is not None and rate > 0 and not last["correct"],
                    f"{workload} with an altered {what}: exit {code}, error_rate {rate}")
    return ok


def bare_directory() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, last = run_bench(["--workload", "check-all", "--seed", "0", "--seconds", "1",
                                "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    return check(code != 0 and last is None, f"without the rsbf sources: exit {code}, no result")


def metric_names() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, last = run_bench(["--workload", "spectrum-dump", "--seed", "0", "--seconds", "1",
                                "--trace", str(trace)])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in last["metrics"].items()} if last else {}
        ok &= check(code == 0 and got == want, f"--trace {trace} prints exactly the {key} metrics")
    return ok


def main() -> int:
    results = [gate_unit(), tampered_runs(), bare_directory(), metric_names()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
