"""One fresh benchmark process: set up rsbf, run one pass of a workload
through the CLI in-process, check the outputs, and report.

    python3 bench/worker.py MODE WORKLOAD SEED WORKERS [--tamper WHAT]

MODE is one of
  setup   import rsbf and load the reference tables, then exit
  run     one pass of the workload, untraced
  probe   one pass with only harness.scan_family timed (pool utilization)
  traced  one pass with every layer timed; use WORKERS = 1
  kernel  butterfly facts at n = 16, 20 and 24 (WORKLOAD is ignored)

The process starts in an empty output directory; rsbf comes from the
source tree named by PYTHONPATH.  Each message is one JSON line on stdout:
first {"event": "ready", ...} once set-up is done, last {"event": "done", ...}.
The benchmark's own helpers (workloads, tracer, importlib.metadata) are
imported after ready, so set-up holds only what an rsbf user pays too.
The clock for wall_s starts at ready and stops once the last output has
been written and checked.  The butterfly-free spot checks run after that,
because they call rsbf themselves.
"""

from __future__ import annotations

import contextlib
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path


def emit(**msg) -> None:
    sys.__stdout__.write(json.dumps(msg) + "\n")
    sys.__stdout__.flush()


def run_cli(main, cmd: workloads.Command, tracer: Tracer | None) -> tuple[int, str]:
    """Run one rsbf command in-process; returns (exit code, stdout text)."""
    out_path, err_path = Path(f"{cmd.name}.stdout"), Path(f"{cmd.name}.stderr")
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            invoke = lambda: main.main(args=list(cmd.argv), prog_name="rsbf", standalone_mode=False)
            try:
                if tracer is None:
                    code = invoke()
                else:
                    code = tracer.span("cli.command", f"cli.{cmd.argv[0]}",
                                       {"command": cmd.name}, invoke)[0]
            except Exception as exc:  # the CLI boundary: record and count as a failed output
                show = getattr(exc, "show", None)
                show() if show else traceback.print_exc()
                code = getattr(exc, "exit_code", -1)
    return (0 if code is None else int(code)), out_path.read_text(encoding="utf-8")


def tamper(what: str, cmds, stdouts: list[str]) -> None:
    """Alter one output before the gate sees it (gate self-test only)."""
    if what == "report-line":
        k = next(i for i, c in enumerate(cmds) if c.stream)
        stdouts[k] = stdouts[k].replace('"status":"pass"', '"status":"fail"', 1)
    elif what == "spectrum-file":
        path = Path(next(c.out_file for c in cmds if c.out_file))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
    else:
        raise ValueError(f"unknown tamper target {what!r}")


def spot_checks(cmds, verdict: workloads.Verdict) -> None:
    """Zero-mask values of the e = 1 dumps against weights and recurrences,
    neither of which uses the butterfly."""
    from rsbf import (MonomialRsbfSpec, SpectralBaseTable, family_zero_value, monomial_rsbf,
                      sub_function, subfn_zero_recurrence, weight)

    for cmd in cmds:
        if cmd.out_file is None or "--e" in cmd.argv:
            continue
        with open(cmd.out_file, encoding="ascii") as fh:
            head = fh.read(256)
        if cmd.argv[0] == "spectrum":
            n = int(cmd.argv[cmd.argv.index("--n") + 1])
            m = re.search(r'"values":\[(-?\d+)', head)
            expected = {"family_zero_value": family_zero_value(n),
                        "weight": (1 << n) - 2 * weight(monomial_rsbf(MonomialRsbfSpec(n, 4, 1)))}
        else:
            i, j, n = (int(cmd.argv[cmd.argv.index(f) + 1]) for f in ("--i", "--j", "--n"))
            m = re.search(r"^0,(-?\d+)\r?$", head, re.M)
            base = SpectralBaseTable.from_reference()
            expected = {"subfn_zero_recurrence": subfn_zero_recurrence(i, j, n, base),
                        "weight": (1 << n) - 2 * weight(sub_function(i, j, n))}
        got = int(m.group(1)) if m else None
        for route, value in expected.items():
            verdict.record(got == value, f"{cmd.name}: W(0) = {got}, {route} gives {value}")


def kernel_facts() -> dict:
    """Butterfly time per element-stage at n = 24, 20, 16 (n = 24 first, so
    this fresh process's peak RSS is that transform's)."""
    from rsbf import MonomialRsbfSpec, monomial_rsbf, walsh_transform
    from tracer import maxrss_mib, rss_mib

    facts = {}
    for n, reps in ((24, 1), (20, 5), (16, 30)):
        table = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        before = rss_mib()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            spectrum = walsh_transform(table)
            times.append(time.perf_counter_ns() - t0)
        itemsize = spectrum.values.itemsize
        del spectrum
        times.sort()
        facts[n] = {
            "ns_per_elt_stage": times[len(times) // 2] / (n << n),
            "array_mib": itemsize * (1 << n) / 2**20,
            "bytes_computed": 2 * itemsize * (n << n),
            "repeats": reps,
        }
        if n == 24:
            facts[n]["peak_rss_mib"] = maxrss_mib()
            facts[n]["rss_growth_mib"] = maxrss_mib() - before
    return facts


def cache_counters() -> dict:
    from rsbf import families, recurrences

    out = {}
    for name, fn in (("sub_function", families.sub_function),
                     ("quartic_chain", families.quartic_chain),
                     ("aligned_spectrum", getattr(families, "_aligned_spectrum", None)),
                     ("sub_walsh_direct", getattr(recurrences, "_sub_walsh_direct", None))):
        info = getattr(fn, "cache_info", None)
        if info is not None:
            i = info()
            out[name] = {"hits": i.hits, "misses": i.misses, "entries": i.currsize}
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed, workers = argv[0], argv[1], int(argv[2]), int(argv[3])
    tamper_what = argv[argv.index("--tamper") + 1] if "--tamper" in argv else None

    import rsbf.cli
    from rsbf import goldens

    t0 = time.perf_counter()
    goldens.load_reference_table(1)
    goldens.load_reference_table(2)
    emit(event="ready", goldens_load_s=time.perf_counter() - t0)
    if mode == "setup":
        return 0
    from importlib.metadata import version

    import workloads
    from tracer import Tracer

    if mode == "kernel":
        emit(event="done", kernel=kernel_facts())
        return 0

    t_ready = time.perf_counter()
    tracer = Tracer() if mode in ("traced", "probe") else None
    if tracer is not None:
        tracer.install(pool_only=(mode == "probe"))
    cmds = workloads.commands(workload, seed, workers)
    codes, stdouts, command_s = [], [], {}
    for cmd in cmds:
        t0 = time.perf_counter()
        code, text = run_cli(rsbf.cli.main, cmd, tracer)
        command_s[cmd.name] = time.perf_counter() - t0
        codes.append(code)
        stdouts.append(text)
    if tamper_what:
        tamper(tamper_what, cmds, stdouts)
    verdict = workloads.Verdict()
    for cmd, code, text in zip(cmds, codes, stdouts):
        workloads.check_command(cmd, code, text, Path.cwd(), verdict)
    wall_s = time.perf_counter() - t_ready
    if tracer is not None:
        tracer.uninstall()
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    caches = cache_counters()
    spot_checks(cmds, verdict)

    emit(event="done", wall_s=wall_s, rsbf_file=rsbf.__file__, numpy=version("numpy"),
         click=version("click"), peak_rss_mib=peak_kib / 1024,
         command_s=command_s, checked=verdict.checked, failed=verdict.failed, problems=verdict.problems,
         exit_codes=codes, caches=caches,
         trace=tracer.summary() if tracer is not None else None)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
