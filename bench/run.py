"""The rsbf benchmark.

    python3 bench/run.py --workload check-all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Load model: a closed loop with one client.  Each pass of a workload is a
fresh process (``worker.py``) that imports rsbf from ``src/``, loads the
reference tables, and then issues the workload's CLI commands one at a
time, in-process, each waiting for the last.  The only concurrency is
rsbf's own process pool at ``--workers 2``.  Passes repeat while the next
one is expected to end within ``--seconds``; there is always at least one.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
  wall_s        median over passes, from ready until the last output has
                been written and checked (set-up excluded)
  setup_s       median over at least 25 process starts, from spawn until
                rsbf is imported and the reference tables are loaded
  peak_rss_mib  median over passes of the largest resident set of the pass
                process or any of its pool children (ru_maxrss)
The error rate (outputs that differ from the committed references, over
outputs checked) is printed with them and carried by ``attempted`` and
``failed``; a run with any differing output exits 1.

With ``--trace 1`` the passes are: one pool pass timing only
harness.scan_family (pool utilization), one untraced serial pass
(``--workers 1``), one traced serial pass, and, on sweep-large only, one
butterfly probe at n = 16, 20 and 24.  The last line then carries the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 25  # one start reads 0.20-0.50 s; the median of 9 still wandered 10 %
BUDGET_S = 170.0  # every run must end within 180 s
SUITES = ("table1", "table2", "lemma21", "lemma22", "eq23", "eq26", "thm24", "bound",
          "factor", "theorem", "cubic", "conjecture", "counterexample")
CACHES = ("sub_function", "quartic_chain", "aligned_spectrum", "sub_walsh_direct")
KERNEL_NS = (16, 20, 24)
# the butterfly probe ignores the workload, so it runs once, in the traced
# run of the workload the butterfly dominates; elsewhere kernel.* read 0
KERNEL_WORKLOAD = "sweep-large"


class BenchError(RuntimeError):
    """A pass could not run to completion; the run prints no result."""


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns pass processes, each in a fresh output directory."""

    def __init__(self, deadline: float, tamper: str | None) -> None:
        self.deadline = deadline
        self.tamper = tamper
        self.base = OUT / f"run-{os.getpid()}"
        self.count = 0

    def spawn(self, mode: str, workload: str, seed: int, workers: int) -> dict:
        outdir = self.base / str(self.count)
        self.count += 1
        outdir.mkdir(parents=True)
        argv = [sys.executable, str(WORKER), mode, workload, str(seed), str(workers)]
        if self.tamper and mode == "run":
            argv += ["--tamper", self.tamper]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            with open(outdir / "worker.stderr", "w", encoding="utf-8") as err:
                t0 = time.perf_counter()
                # own session, so a kill reaches rsbf's pool children too
                proc = subprocess.Popen(argv, cwd=outdir, env=env, stdout=subprocess.PIPE,
                                        stderr=err, text=True, start_new_session=True)
                watchdog = threading.Timer(remaining, kill_group, (proc,))
                watchdog.start()
                try:
                    ready = proc.stdout.readline()
                    setup_s = time.perf_counter() - t0
                    rest = proc.stdout.read()
                    proc.wait()
                except BaseException:
                    kill_group(proc)
                    proc.wait()
                    raise
                finally:
                    watchdog.cancel()
                    proc.stdout.close()
            if proc.returncode != 0:
                tail = (outdir / "worker.stderr").read_text(encoding="utf-8")[-2000:]
                raise BenchError(f"{mode} pass exited {proc.returncode}:\n{tail}")
            try:
                messages = [json.loads(line) for line in (ready + rest).splitlines() if line]
            except ValueError as exc:
                raise BenchError(f"{mode} pass wrote a malformed message: {exc}") from None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        result = {"setup_s": setup_s, "duration_s": time.perf_counter() - t0}
        for msg in messages:
            result.update(msg)
        return result

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


# -- provenance ----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_times() -> list[int]:
    """Jiffies of the machine's aggregate cpu line: user .. steal."""
    return [int(x) for x in _read("/proc/stat").split("\n", 1)[0].split()[1:9]]


def _version(dist: str) -> str:
    try:
        return version(dist)
    except PackageNotFoundError:
        return "not installed"


def machine_facts(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Machine, toolchain and code version behind one result."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    index = Path("/sys/devices/system/cpu/cpu0/cache")
    for entry in sorted(index.glob("index*")):
        level, kind = _read(f"{entry}/level").strip(), _read(f"{entry}/type").strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{entry}/size").strip()
    mem_kib = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                    if line.startswith("MemTotal:")), 0)
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10, check=False)
        git = describe.stdout.strip() or "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        git = "unavailable (no git)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rsbf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": caches,
        "mem_total_mib": mem_kib // 1024,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "git_describe": git,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pool_workers": workloads.POOL_WORKERS,
        "traced_workers": 1,
    }


# -- runs ----------------------------------------------------------------


def timed_run(runner: Runner, workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    passes = []
    while True:
        passes.append(runner.spawn("run", workload, seed, workloads.POOL_WORKERS))
        if time.monotonic() - start + passes[-1]["duration_s"] > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("setup", workload, seed, 1)["setup_s"])
    metrics = {
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mib": (median(p["peak_rss_mib"] for p in passes), "MiB"),
    }
    return {"passes": passes, "setup_samples": setups, "metrics": metrics}


def traced_run(runner: Runner, workload: str, seed: int) -> dict:
    probe = (runner.spawn("probe", workload, seed, workloads.POOL_WORKERS)
             if workloads.uses_pool(workload) else None)
    serial = runner.spawn("run", workload, seed, 1)
    traced = runner.spawn("traced", workload, seed, 1)
    kernel = (runner.spawn("kernel", workload, seed, 1)["kernel"]
              if workload == KERNEL_WORKLOAD else None)
    passes = [p for p in (probe, serial, traced) if p is not None]
    return {"passes": passes, "kernel": kernel,
            "metrics": layer_metrics(probe, serial, traced, kernel)}


def layer_metrics(probe: dict | None, serial: dict, traced: dict, kernel: dict | None) -> dict:
    trace = traced["trace"]
    layers = trace["layers"]

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    m: dict[str, tuple[float, str]] = {}
    for layer in ("recurrences.identity", "core.walsh_at", "core.table_values",
                  "core.walsh_transform", "families.build", "families.factored_walsh",
                  "report.to_json"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m["recurrences.zero.self_s"] = (self_s("recurrences.zero"), "s")
    xf = trace["transform"]
    m["core.walsh_transform.ns_per_elt_stage"] = (
        self_s("core.walsh_transform") * 1e9 / xf["elt_stages"] if xf["elt_stages"] else 0.0, "ns")
    m["core.walsh_transform.bytes_computed"] = (xf["bytes_computed"], "B")
    m["core.walsh_transform.rss_growth_mib"] = (xf["rss_growth_mib"], "MiB")
    for suite in SUITES:
        m[f"harness.{suite}.wall_s"] = (trace["suites"].get(suite, 0.0), "s")
    pool = probe["trace"]["pool"] if probe is not None else []
    capacity = sum(p["workers"] * p["wall_ns"] / 1e9 for p in pool)
    m["harness.scan_family.pool_utilization"] = (
        sum(p["case_ms"] for p in pool) / 1000 / capacity if capacity else 0.0, "ratio")
    m["harness.self_s"] = (sum(v["self_s"] for k, v in layers.items() if k.startswith("harness.")), "s")
    m["cli.render.self_s"] = (self_s("cli.render"), "s")
    m["cli.self_s"] = (self_s("cli.command"), "s")
    m["goldens.load_s"] = (traced["goldens_load_s"], "s")
    named = sum(v["self_s"] for k, v in layers.items() if k != "cli.command")
    m["trace.coverage"] = (named / traced["wall_s"], "ratio")
    m["trace.overhead_s"] = (traced["wall_s"] - serial["wall_s"], "s")
    m["trace.serial_wall_s"] = (serial["wall_s"], "s")
    for cache in CACHES:
        counters = traced["caches"].get(cache, {})
        for field in ("hits", "misses", "entries"):
            m[f"cache.{cache}.{field}"] = (counters.get(field, 0), "count")
    for n in KERNEL_NS:
        facts = kernel[str(n)] if kernel else {}
        m[f"kernel.n{n}.ns_per_elt_stage"] = (facts.get("ns_per_elt_stage", 0.0), "ns")
        m[f"kernel.n{n}.bytes_computed"] = (facts.get("bytes_computed", 0), "B")
    facts = kernel["24"] if kernel else {}
    m["kernel.n24.peak_rss_mib"] = (facts.get("peak_rss_mib", 0.0), "MiB")
    m["kernel.n24.rss_growth_mib"] = (facts.get("rss_growth_mib", 0.0), "MiB")
    return m


def kernel_lines(kernel: dict | None, facts: dict) -> list[str]:
    if kernel is None:
        return [f"# kernel probe: not run; it runs in the traced {KERNEL_WORKLOAD} run only"]
    l3 = facts["caches_per_cpu0"].get("L3", "?")
    lines = []
    for n in KERNEL_NS:
        k = kernel[str(n)]
        lines.append(f"# kernel n={n}: {k['ns_per_elt_stage']:.2f} ns/element-stage, spectrum array "
                     f"{k['array_mib']:g} MiB (L3 {l3}), {k['bytes_computed']} B per transform "
                     f"(computed: one read + one write per element-stage)")
    k = kernel["24"]
    lines.append(f"# kernel n=24: peak RSS {k['peak_rss_mib']:.1f} MiB, "
                 f"growth {k['rss_growth_mib']:.1f} MiB during the transform")
    return lines


def run_one(workload: str, seed: int, seconds: int, trace: int, tamper: str | None) -> tuple[dict, int]:
    facts = machine_facts(workload, seed, seconds, trace)
    runner = Runner(time.monotonic() + BUDGET_S, tamper)
    jiffies = cpu_times()
    try:
        result = traced_run(runner, workload, seed) if trace else timed_run(runner, workload, seed, seconds)
    finally:
        runner.close()
    delta = [b - a for a, b in zip(jiffies, cpu_times())]
    # time the hypervisor gave to other guests; it explains most run-to-run spread
    facts["cpu_steal_share"] = delta[7] / sum(delta) if len(delta) == 8 and sum(delta) else None
    passes = result["passes"]
    facts["numpy_in_pass"] = passes[0]["numpy"]
    facts["click_in_pass"] = passes[0]["click"]
    facts["rsbf_file"] = os.path.relpath(passes[0]["rsbf_file"], ROOT)
    attempted = sum(p["checked"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"# rsbf benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("# machine " + json.dumps(facts))
    for line in kernel_lines(result["kernel"], facts) if trace else []:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"{'error_rate':<44} {failed / attempted:>16.6g} ratio  "
          f"({failed} of {attempted} outputs differ from the references, {len(passes)} passes)")
    for p in passes:
        for problem in p["problems"]:
            print(f"# mismatch: {problem}")
        if p.get("trace") and p["trace"]["missing"]:
            print("# not traced, name not found: " + ", ".join(p["trace"]["missing"]))
    record = {"machine": facts, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
              "passes": passes, "setup_samples": result.get("setup_samples"),
              "kernel": result.get("kernel")}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", choices=("report-line", "spectrum-file"),
                        help="alter one output before it is checked (gate self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rsbf" / "__init__.py").is_file():
        print(f"error: no rsbf source tree at {ROOT / 'src' / 'rsbf'}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        try:
            record, failed = run_one(workload, args.seed, args.seconds, args.trace, args.tamper)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        summary["attempted"] += record["attempted"]
        summary["failed"] += failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in record["metrics"].items():
            summary["metrics"][prefix + name] = value
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
