"""Write the gate's references from the rsbf source tree of this checkout.

    python3 bench/make_refs.py

Run it only on a commit whose outputs are known to be right (the refs in
the repository come from the seed commit); the benchmark then holds every
later commit to them.  Each command runs as a standalone ``python -m rsbf``
process, not through the benchmark's in-process path.  The check-all
stream is recorded at two seeds and must agree, because the sampled grids'
masks depend on the seed but the verdicts must not.  The n = 24 sample is
computed by both spectral routes and must agree entry by entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
N24_SAMPLES = 256
N24_SAMPLE_SEED = 12121611


def run(argv, cwd: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "rsbf", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.returncode, proc.stdout


def n24_entries() -> dict[str, int]:
    sys.path.insert(0, str(ROOT / "src"))
    from rsbf import MonomialRsbfSpec, monomial_rsbf, walsh_at, walsh_transform

    table = monomial_rsbf(MonomialRsbfSpec(24, 4, 1))
    values = walsh_transform(table).values
    masks = [0] + random.Random(N24_SAMPLE_SEED).sample(range(1, 1 << 24), N24_SAMPLES - 1)
    entries = {}
    for c in sorted(masks):
        direct = walsh_at(table, c)
        if direct != int(values[c]):
            raise SystemExit(f"spectral routes disagree at n=24 mask {c}: {direct} vs {values[c]}")
        entries[str(c)] = direct
    return entries


def main() -> int:
    refs = workloads.REFS
    scratch = ROOT / ".bench_out" / "make_refs"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    manifest = {"exit_codes": {}, "digests": {}, "n24_entries": n24_entries()}
    (refs / "references.json").write_text(json.dumps(manifest), encoding="ascii")

    streams: dict[str, list[str]] = {}
    for workload in workloads.WORKLOADS:
        for seed in ((0, 1) if workload == "check-all" else (0,)):
            for cmd in workloads.commands(workload, seed, workloads.POOL_WORKERS):
                code, out = run(cmd.argv, scratch)
                manifest["exit_codes"][cmd.name] = code
                if cmd.stream:
                    lines = [workloads.canonical_report(line) for line in out.splitlines()]
                    if None in lines:
                        raise SystemExit(f"{cmd.name}: malformed report line")
                    if streams.setdefault(cmd.name, lines) != lines:
                        raise SystemExit(f"{cmd.name}: stream depends on the seed")
                if cmd.out_file is not None:
                    data = (scratch / cmd.out_file).read_bytes()
                    manifest["digests"][cmd.out_file] = hashlib.sha256(data).hexdigest()
                print(f"{cmd.name}: exit {code}", flush=True)
    for name, lines in streams.items():
        (refs / f"{name}.jsonl").write_text("".join(line + "\n" for line in lines), encoding="ascii")
    (refs / "references.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="ascii")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
