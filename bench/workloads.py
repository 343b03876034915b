"""Workload definitions and the output gate of the rsbf benchmark.

Nothing in this module imports rsbf.  The gate compares what the CLI wrote
with references committed under ``bench/refs`` (made by ``make_refs.py``
from the seed commit), so it cannot share a defect with the code it checks.

One output is one report line with ``elapsed_ms`` dropped, one exit code,
one output file (by SHA-256), or one single-coefficient line.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
WORKLOADS = ("check-all", "sweep-large", "spectrum-dump")
# rsbf's own pool size in the timed runs; equals nproc on the reference box
POOL_WORKERS = 2
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs must match."""

    name: str
    argv: tuple[str, ...]
    stream: bool = False          # stdout is a report stream, see refs/<name>.jsonl
    out_file: str | None = None   # file written through --out, checked by digest
    text: str | None = None       # exact expected stdout line


def uses_pool(workload: str) -> bool:
    return workload != "spectrum-dump"


@lru_cache(maxsize=1)
def load_refs() -> dict:
    return json.loads((REFS / "references.json").read_text(encoding="ascii"))


def at_entry(seed: int) -> tuple[int, int]:
    """The seeded (mask, value) pair of the n = 24 spectrum sample."""
    entries = list(load_refs()["n24_entries"].items())
    mask, value = random.Random(seed).choice(entries)
    return int(mask), int(value)


def commands(workload: str, seed: int, workers: int) -> list[Command]:
    """The commands one pass of ``workload`` issues, one at a time."""
    w = str(workers)
    if workload == "check-all":
        return [Command("check-all", ("check", "all", "--workers", w, "--seed", str(seed)),
                        stream=True)]
    if workload == "sweep-large":
        return [Command("sweep-large", ("check", "theorem", "--n-range", "21..24",
                                        "--e-range", "1..3", "--workers", w), stream=True)]
    if workload == "spectrum-dump":
        mask, value = at_entry(seed)
        return [
            Command("spectrum-n22-json",
                    ("spectrum", "--n", "22", "--format", "json", "--out", "spectrum-n22.json"),
                    out_file="spectrum-n22.json"),
            Command("subfn-1-2-n20-csv",
                    ("subfn", "--i", "1", "--j", "2", "--n", "20", "--format", "csv",
                     "--out", "subfn-1-2-n20.csv"),
                    out_file="subfn-1-2-n20.csv"),
            Command("spectrum-n18-e3-bits",
                    ("spectrum", "--n", "18", "--e", "3", "--bits", "--out", "spectrum-n18-e3.txt"),
                    out_file="spectrum-n18-e3.txt"),
            Command("spectrum-n24-at", ("spectrum", "--n", "24", "--at", str(mask)),
                    text=f"walsh at {mask}: {value}"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Verdict:
    """Outputs checked, outputs that differ, and the first few differences."""

    checked: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(what)


def canonical_report(line: str) -> str | None:
    """A report line with elapsed_ms dropped, or None if it is malformed."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or not isinstance(obj.pop("elapsed_ms", None), int):
        return None
    return json.dumps(obj, separators=(",", ":"))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_stream(name: str, text: str, verdict: Verdict) -> None:
    expected = (REFS / f"{name}.jsonl").read_text(encoding="ascii").splitlines()
    got = text.splitlines()
    for k in range(max(len(expected), len(got))):
        line = canonical_report(got[k]) if k < len(got) else None
        want = expected[k] if k < len(expected) else None
        shown = got[k][:160] if k < len(got) else "<missing>"
        verdict.record(line is not None and line == want, f"{name} line {k + 1}: {shown}")


def check_command(cmd: Command, exit_code: int, stdout: str, outdir: Path, verdict: Verdict) -> None:
    """Compare one command's exit code and outputs with the references."""
    refs = load_refs()
    want_exit = refs["exit_codes"][cmd.name]
    verdict.record(exit_code == want_exit, f"{cmd.name}: exit {exit_code}, expected {want_exit}")
    if cmd.stream:
        check_stream(cmd.name, stdout, verdict)
    if cmd.out_file is not None:
        path = outdir / cmd.out_file
        got = sha256_file(path) if path.is_file() else "<missing>"
        verdict.record(got == refs["digests"][cmd.out_file], f"{cmd.out_file}: sha256 {got}")
    if cmd.text is not None:
        verdict.record(stdout == cmd.text + "\n", f"{cmd.name}: {stdout.strip()!r}")
