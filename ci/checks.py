"""Every tier-1 gate beyond pytest, one row of CHECKS each: ``python ci/checks.py``.

A row is a name, a check and its arguments.  Each row prints its name and
what it measured, and the script exits 1 if any row failed.
"""

import filecmp
import os
import re
import subprocess
import sys
import tempfile
import traceback
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
PY = sys.executable


def rsbf(*args: str) -> tuple:
    return (PY, "-m", "rsbf", *args)


@cache
def run(argv: tuple) -> tuple[int, str, str, float]:
    """The exit code, stdout, stderr and ru_maxrss (MiB) of one command;
    os.wait4 gives the peak of the command and its forked children alone."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0), err.seek(0)
        texts = [f.read().decode(errors="surrogateescape") for f in (out, err)]
    return proc.returncode, *texts, usage.ru_maxrss / 1024  # KiB on Linux


def transfer(n: int) -> int:
    """W(0) of the n-variable quartic from the transfer matrices: no table,
    no butterfly.  It runs in a child, because a command's ru_maxrss starts
    from this process's resident set when it is spawned."""
    code = f"from rsbf import family_walsh_transfer as w; print(w({n}, 4, 0))"
    return int(run((PY, "-c", code))[1])


def passes(argv: tuple, code: int = 0, lines: int | None = None, mib: float | None = None):
    """Exit ``code``; with ``lines``, that many stdout lines, each a pass
    line; with ``mib``, a peak below it."""
    got, out, err, peak = run(argv)
    out = out.splitlines()
    count = sum('"status":"pass"' in line for line in out)
    ok = (got == code and (lines is None or count == len(out) == lines)
          and (mib is None or peak < mib))
    figures = f"exit {got}, {count} of {len(out)} lines pass, ru_maxrss {peak:.1f} MiB"
    return ok, figures if ok or not err else f"{figures}\n{err[-3000:]}"


def agree(lines: int, *runs: tuple):
    """Runs ``(argv, code[, check])`` that exit ``code`` and print the same
    ``lines`` reports byte for byte once elapsed_ms is dropped, cut to
    ``check``'s where a run names one, and the runs not cut the same stdout
    and stderr bytes: a pool child's stray write (a warning, a traceback)
    fails the row."""
    codes, outs, streams = [], [], set()
    for argv, _, *only in runs:
        got, out, err, _ = run(argv)
        out, err = (re.sub(r',"elapsed_ms":\d+', "", text) for text in (out, err))
        tag = f'{{"check":"{only[0]}",' if only else ""
        outs.append([line for line in out.splitlines() if line.startswith(tag)])
        codes.append(got)
        if not only:
            streams.add((out, err))
    diff = [k for k, group in enumerate(zip(*outs)) if len(set(group)) > 1]
    ok = codes == [r[1] for r in runs] and {len(o) for o in outs} == {lines} and len(streams) == 1
    return ok and not diff, (f"exit {codes}, lines {[len(o) for o in outs]}, "
                             f"differing lines {diff[:10]}, distinct streams {len(streams)}")


def at_line(mib: float):
    argv = rsbf("spectrum", "--n", "28", "--at", "0", "--max-n", "28")
    ok, figures = passes(argv, mib=mib)
    printed, want = run(argv)[1].strip(), f"walsh at 0: {transfer(28)}"
    return ok and printed == want, f"{figures}, printed {printed!r}, transfer route {want!r}"


def json_dump(mib: float):
    with tempfile.TemporaryDirectory() as tmp:  # the checkout stays as it was
        path = os.path.join(tmp, "dump.json")
        ok, figures = passes(rsbf("spectrum", "--n", "24", "--format", "json", "--out", path),
                             mib=mib)
        with open(path, "rb") as fh:
            head = tail = fh.read(1 << 16)
            commas = head.count(b",")
            while chunk := fh.read(1 << 20):
                commas += chunk.count(b",")
                tail = chunk
    prefix = b'{"n":24,"l":4,"e":1,"degenerate":false,"values":['
    first = int(head[len(prefix):].split(b",", 1)[0]) if head.startswith(prefix) else None
    want = transfer(24)
    # four commas in the record, 2**24 - 1 between the values
    ok &= first == want and tail.endswith(b"]}\n") and commas == 4 + (1 << 24) - 1
    return ok, f"{figures}, first value {first}, transfer route {want}, commas {commas}"


def dump_peaks():
    # the dump's pieces are shared out over one forked child per usable
    # CPU past the first; a child holds its own render buffers and block,
    # and its text waits in its pipe, so no child may set the peak
    with tempfile.TemporaryDirectory() as tmp:  # the checkout stays as it was
        dump, one_cpu = (os.path.join(tmp, name) for name in ("dump.json", "dump-one-cpu.json"))
        code = f"""if True:
            import resource
            from rsbf.cli import main
            main(["spectrum", "--n", "22", "--format", "json", "--out", {dump!r}],
                 standalone_mode=False)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """
        got, out, _, _ = run((PY, "-c", code))
        argv = rsbf("spectrum", "--n", "22", "--format", "json", "--out", one_cpu)
        pinned = run(("taskset", "-c", "0", *argv))[0]
        same = filecmp.cmp(dump, one_cpu, shallow=False)
    own, children = (int(kib) / 1024 for kib in out.split())  # KiB on Linux
    cpus = len(os.sched_getaffinity(0))
    # on one usable CPU nothing forks, and the children's figure is 0
    ok = got == pinned == 0 and same and own >= children and (cpus == 1 or children > 0)
    return ok, (f"usable CPUs {cpus}, ru_maxrss {own:.2f} MiB, children's {children:.2f} MiB, "
                f"same bytes as on one CPU: {same}")


def below(top: tuple, *argvs: tuple):
    peaks, limit = [run(argv)[3] for argv in argvs], run(top)[3]
    return max(peaks) <= limit, f"peaks {[round(p, 1) for p in peaks]} MiB against {limit:.1f} MiB"


def summary(argv: tuple, part: str):
    line = (run(argv)[2].splitlines() or ["no stderr"])[-1]
    return part in line, line


def traced(workload: str, stale: set):
    code, out, _, _ = run((PY, "bench/run.py", "--workload", workload, "--trace", "1"))
    # a name the tracer cannot find is a layer the benchmark no longer times
    tag = "# not traced, name not found: "
    missing = {name for line in out.splitlines() if line.startswith(tag)
               for name in line[len(tag):].replace(",", " ").split()}
    correct = '"correct": true' in out
    ok = code == 0 and correct and missing <= stale
    return ok, f"exit {code}, correct {correct}, not traced {sorted(missing)}"


MAX, ONE = ("--max-n", "28"), ("--workers", "1")
ALL = rsbf("check", "all", "--workers", "2")
SWEEP = ("check", "theorem", "--n-range", "21..24", "--e-range", "1..3")
L5 = ("check", "conjecture", "--l", "5", "--n-range", "21..23", "--e-range", "1..2")
GRID21, GRID22, CONJECTURE = (rsbf("check", s, *ONE) for s in ("lemma21", "lemma22", "conjecture"))
# both grids as the one task check all --workers 2 hands its pool, in a
# child that imports the CLI as a pool child's parent does
PAIRED = (PY, "-c", "import rsbf.cli; from rsbf.harness import _GRIDS, HarnessConfig, _run_suite; "
          "[print(r.to_json()) for r in _run_suite(_GRIDS, HarnessConfig(workers=1), {})[0]]")
WORKLOADS = ("check-all", "sweep-large", "spectrum-dump")

CHECKS = [
    # variant tables over this window would take about 1 GiB; the transfer route takes none
    *((f"{s} at n = 8..28 reads no table", passes,
       rsbf("check", s, "--n-range", "8..28", *MAX), 0, 21, 128) for s in ("eq26", "thm24")),
    # the bound reads open transfer chains: two stacks of 8 x 8 x 2^13 int64
    # at most (4 MiB each), where 16 butterflies at n = 28 would take 16
    # tables of 32 MiB and a 1 GiB spectrum each
    ("the bound at n = 4..28 reads no table", passes,
     rsbf("check", "bound", "--n-range", "4..28", *MAX), 0, 25, 100),
    # the factor's int32 spectrum alone is 64 MiB (about 101 MiB ru_maxrss);
    # the blocked route holds a 16 MiB int8 store and two 1 MiB buffers (about
    # 54 MiB); l = 6 stays on that route, where l = 4 now takes the peak certificate
    ("a t = 24 butterfly factor (l = 6) holds no full int32 spectrum", passes,
     rsbf("check", "conjecture", "--l", "6", "--n-range", "24..24", "--e-range", "1..1", *ONE),
     0, 1, 80),
    # the blocked butterfly took this factor to 355 MiB and 8 s; the certificate's
    # stacks are 8 MiB each, and the 2^28-bit table, built once as 32 MiB of
    # words for its route checks, sets the peak (about 69 MiB; a Python-int
    # copy of the table beside its words took it to 135 MiB); at e = 1 the
    # case is its factor, so no spot check builds that table a second time
    ("a t = 28 factor by the peak certificate", passes,
     rsbf("check", "theorem", "--n-range", "28..28", "--e-range", "1..1", *MAX, *ONE), 0, 1, 100),
    # the direct oracle reads the 32 MiB of table words in place (about 66 MiB);
    # a Python-int copy of the table and its bytes took it to 131 MiB
    ("an n = 28 --at line holds one copy of the table", at_line, 100),
    # the int32 spectrum alone is 64 MiB (about 102 MiB ru_maxrss); the blocked
    # route holds a 16 MiB int8 store and two 1 MiB buffers (about 53 MiB)
    ("an n = 24 JSON dump holds no full int32 spectrum", json_dump, 80),
    ("no child sets an n = 22 dump's peak, and one CPU dumps the same bytes", dump_peaks),
    # these grids hand the direct oracle whole mask ranges, its dense
    # rectangle, at arities the default windows leave to the butterfly
    *((f"{s} at n = {window} on the direct route", passes,
       rsbf("check", s, "--n-range", window, *ONE), 0, count)
      for s, window, count in (("lemma21", "8..14", 7), ("lemma22", "8..14", 7),
                               ("eq23", "7..16", 10))),
    ("check lemma21", passes, GRID21, 0, 9),
    ("check lemma22", passes, GRID22, 0, 9),
    ("both grids as check all's one pool task", passes, PAIRED, 0, 18),
    ("check conjecture", passes, CONJECTURE, 0, 93),
    # a grid column's four variants and its lower-arity terms are stacked,
    # and the stacks are capped by their entries so that they stay below
    # the largest sweep's peak: conjecture's t = 20 butterflies (theorem's
    # t = 17..20 factors take the peak certificate, so its peak is lower)
    ("no identity grid peaks above the conjecture sweep", below,
     CONJECTURE, GRID21, GRID22, PAIRED),
    # with more than one worker both grids are one pool task of check all
    *((f"check {s} alone is its slice of check all --workers 2", agree, 9,
       (rsbf("check", s), 0), (ALL, 1, s)) for s in ("lemma21", "lemma22")),
    ("--workers 0 pinned to one CPU sizes the pool to 1", passes,
     ("taskset", "-c", "0", PY, "-c", "from rsbf.harness import HarnessConfig, usable_cpus; "
      "assert usable_cpus() == 1 and HarnessConfig().resolved_workers() == 1")),
    # no default verdict depends on the seed: it picks only the sweep spot
    # checks and the certificate checksums, which pass at every seed
    ("check all at --workers 1, 2 and 2 --seed 1 is one stream", agree, 455,
     (rsbf("check", "all", *ONE), 1), (ALL, 1), (ALL + ("--seed", "1"), 1)),
    # the parity boundary and the quadratic findings fail on every run, so
    # only this count can show a new failure
    ("every check all fail is a parity boundary or a finding", summary, ALL, ", 0 other)"),
    # their certified factors are scan_family's own pool tasks at --workers 2,
    # so their records cross a process boundary there; l = 5 takes the
    # certificate from t = 21
    *((f"{window[1]} {' '.join(window[2:])} at --workers 1 and 2 is one stream", agree, lines,
       (rsbf(*window, *ONE), 0), (rsbf(*window, "--workers", "2"), 0))
      for window, lines in ((SWEEP, 12), (L5, 6))),
    # spectrum-dump's n = 24 --at line is the direct oracle's
    *((f"bench {w} report stream", passes,
       (PY, "bench/run.py", "--workload", w, "--seconds", "1", "--trace", "0")) for w in WORKLOADS),
    # the tracer rebinds package names; each run must be correct, and it may
    # miss only the two stale rows core.table_values and families.tail_products
    *((f"traced bench {w}", traced, w, {"rsbf.core.table_values", "rsbf.families.tail_products"})
      for w in WORKLOADS),
    # a tampered report line or dump file must fail the gate
    ("benchmark gate self-test", passes, (PY, "bench/selftest.py")),
]


def main() -> int:
    failed = []
    for name, check, *args in CHECKS:
        try:
            ok, figures = check(*args)
        except Exception:  # a crash fails its row only
            ok, figures = False, traceback.format_exc()
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {figures}", flush=True)
        failed += [] if ok else [name]
    print(f"{len(CHECKS) - len(failed)} of {len(CHECKS)} checks pass", *failed, sep="\nFAILED: ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
