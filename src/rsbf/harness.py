"""Verification suites and their registry: reference tables recomputed
two ways, identity grids, zero-mask recurrences against the
transfer-matrix route, the spectral bound and the cycle factorization,
and SUITES, HarnessConfig, RunResult and run_all.  The family sweeps are
the engine in rsbf.sweep, run here as the sweep suites.

Every suite returns VerificationReport records.  Runs with the same
configuration produce identical report streams apart from the elapsed
fields.  A suite's work is fixed by its windows: the identity grids check
every mask, and the seed picks only the sweeps' spot checks and the
checksums of the transfer stacks, the peak certificates' and the
bound's.
"""

from __future__ import annotations

import inspect
import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import goldens
from .core import DEFAULT_MAX_N, HARD_MAX_N, TableStack, walsh_at_many, walsh_transform
from .families import (MonomialRsbfSpec, _aligned_spectrum, cycle_decompose, factored_walsh,
                       monomial_rsbf, sub_function)
from .forks import pooled as _pooled, usable_cpus
from .recurrences import (SpectralBaseTable, _grid_witnesses, family_walsh_via_subfns,
                          family_zero_recurrence, spectral_bound_check, subfn_zero_recurrence)
from .report import TableArtifact, VerificationReport, _skip
from .sweep import (DEFAULT_SEED, _is_finding, _runs, _sweep_window, counterexample_search,
                    scan_family, sweep_cases)
# bench/tracer.py rebinds rsbf.harness._family_case, and CI's traced bench
# rows need it found here, until the tracer wraps sweep._family_cases
from .sweep import _family_case  # noqa: F401
from .transfer import family_walsh_transfer, subfn_zero_transfer

__all__ = [
    "HarnessConfig",
    "RunResult",
    "SUITES",
    "Suite",
    "validate_windows",
    "check_reference_table",
    "check_identity_grid",
    "check_family_identity",
    "check_subfn_zero",
    "check_family_zero",
    "check_bound",
    "check_factorization",
    "run_all",
]

log = logging.getLogger(__name__)

SUB_PAIRS = tuple((i, j) for i in range(4) for j in range(4))
MAX_WITNESSES = 32

# default scan windows
TABLE_ARITIES = range(4, 12)
GRID_DIRECT_NS = range(8, 13)
GRID_TRANSFORM_NS = range(13, 17)
DECOMPOSITION_NS = range(7, 15)
ZERO_RECURRENCE_NS = range(8, 23)
BOUND_NS = range(4, 17)
FACTOR_CASES = ((10, 2), (12, 3), (12, 4), (14, 2))


def _elapsed_ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _differences(masks: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> list:
    """(mask, lhs, rhs) as ints wherever the two sides differ, in mask order."""
    bad = np.nonzero(lhs != rhs)[0]
    return list(zip(masks[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist()))


def _cap_witnesses(witnesses: list) -> list:
    if len(witnesses) > MAX_WITNESSES:
        extra = len(witnesses) - MAX_WITNESSES
        return witnesses[:MAX_WITNESSES] + [("more-witnesses", extra, "truncated")]
    return witnesses


def _table1_artifact(route_bad: list) -> TableArtifact:
    arities = list(TABLE_ARITIES)
    # the ten variants with i <= j, then the stride-1 family
    builds = [(f"f{i}{j}", partial(sub_function, i, j)) for i in range(4) for j in range(i, 4)]
    builds.append(("F4", lambda n: monomial_rsbf(MonomialRsbfSpec(n, 4, 1))))
    # fast[k][r], direct[k][r]: W(0) of builds[r]'s table at arities[k], by
    # the butterfly and by the oracle, each one call an arity
    fast, direct = [], []
    for n in arities:
        stack = TableStack.of(build(n) for _, build in builds)
        fast.append([int(w) for run in _runs(stack) for w in walsh_transform(run).values[:, 0]])
        direct.append(walsh_at_many(stack, [0])[:, 0].tolist())
    rows = []
    for r, (label, _) in enumerate(builds):
        for k, n in enumerate(arities):
            if fast[k][r] != direct[k][r]:
                route_bad.append((f"route:{label}:n={n}", direct[k][r], fast[k][r]))
        rows.append((label, [column[r] for column in fast]))
    return TableArtifact("table1", "n", [str(n) for n in arities], rows)


def _table2_artifact(route_bad: list) -> TableArtifact:
    masks = np.nonzero(np.arange(32) & 2)[0]
    stack = TableStack.of(sub_function(i, j, 5) for i, j in SUB_PAIRS)
    spectra = [row for run in _runs(stack) for row in walsh_transform(run).values[:, masks]]
    columns = []
    for (i, j), fast, direct in zip(SUB_PAIRS, spectra, walsh_at_many(stack, masks)):
        route_bad += [(f"route:f{i}{j}:c={c}", d, f) for c, f, d in _differences(masks, fast, direct)]
        columns.append(fast.tolist())
    rows = [(str(c), [col[k] for col in columns]) for k, c in enumerate(masks.tolist())]
    return TableArtifact("table2", "c", [f"f{i}{j}" for i, j in SUB_PAIRS], rows)


def check_reference_table(which: int) -> tuple[TableArtifact, VerificationReport]:
    """Recompute a reference table by both spectral routes and compare it
    cell by cell with the stored copy."""
    t0 = time.perf_counter()
    golden = goldens.load_reference_table(which)
    route_bad: list = []
    computed = _table1_artifact(route_bad) if which == 1 else _table2_artifact(route_bad)
    witnesses = route_bad + golden.diff(computed)
    status = "fail" if witnesses else "pass"
    report = VerificationReport(
        f"table{which}", {}, status, _cap_witnesses(witnesses), _elapsed_ms(t0)
    )
    return computed, report


def _transform_provider():
    """A provider (recurrences.SubWalsh) by the butterfly: a call's pairs
    are one stack, each spectrum read at the masks as its run is made."""

    def get(pairs, m: int, c):
        stack = TableStack.of(sub_function(i, j, m) for i, j in pairs)
        return np.stack([row[c] for run in _runs(stack) for row in walsh_transform(run).values])

    return get


def _reports(check: str, params_list, max_n: int, witnesses_of) -> list[VerificationReport]:
    """One report per params dict, in order: skipped with a ``max-n``
    witness when its n is above ``max_n``, else timed around
    ``witnesses_of(params)``, passing when that finds no witness, with the
    witnesses capped at MAX_WITNESSES."""
    reports = []
    for params in params_list:
        if params["n"] > max_n:
            reports.append(_skip(check, params, max_n, params["n"]))
            continue
        t0 = time.perf_counter()
        witnesses = witnesses_of(params)
        status = "fail" if witnesses else "pass"
        reports.append(
            VerificationReport(check, params, status, _cap_witnesses(witnesses), _elapsed_ms(t0))
        )
    return reports


# the identity grids by their masks' top bit
_GRIDS = ("lemma21", "lemma22")


def check_identity_grid(
    which: str,
    n_values=GRID_DIRECT_NS,
    transform: bool = False,
    max_n: int = DEFAULT_MAX_N,
) -> list[VerificationReport]:
    """Compare one arity-lowering identity against independently computed
    coefficients, over all 16 variants and every mask whose top bit the
    identity fixes: _identity_grids of that grid alone."""
    if which not in _GRIDS:
        raise ValueError(f"unknown identity grid {which!r}")
    return _identity_grids((which,), n_values, transform, max_n)


def _identity_grids(names, n_values=GRID_DIRECT_NS, transform: bool = False,
                    max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """The reports of the grids ``names`` (one or both of _GRIDS), grid by
    grid, from one _grid_witnesses pass an arity, on the direct oracle or
    with ``transform`` the butterfly.  Each grid takes half a pair's time."""
    tops = sorted(map(_GRIDS.index, names))
    if transform:
        left = lambda stack, masks: (row[masks[0]:] for run in _runs(stack)  # noqa: E731
                                     for row in walsh_transform(run).values)
    else:
        left = walsh_at_many
    # the label outlives the 10,000-mask draw it named: n = 13 and 14 already
    # took every mask under it, and bench/refs/check-all.jsonl pins it
    route = "transform:sampled" if transform else "direct"
    reports = []
    for n in n_values:
        params = {"n": n, "id": route}
        if n > max_n:
            reports += [_skip(_GRIDS[top], dict(params), max_n, n) for top in tops]
            continue
        t0 = time.perf_counter()
        found = _grid_witnesses(n, tops, left, _transform_provider() if transform else None)
        ms = _elapsed_ms(t0) // len(tops)
        for top, witnesses in zip(tops, found):
            status = "fail" if witnesses else "pass"
            reports.append(VerificationReport(_GRIDS[top], dict(params), status,
                                              _cap_witnesses(witnesses), ms))
    return sorted(reports, key=attrgetter("check"))  # stable


def check_family_identity(n_values=DECOMPOSITION_NS,
                          max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """Seven-term decomposition of the stride-1 family versus direct
    summation, every mask."""

    def witnesses_of(params: dict) -> list:
        n = params["n"]
        tbl = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        masks = np.arange(1 << n)
        return _differences(masks, walsh_at_many(tbl, masks), family_walsh_via_subfns(n, masks))

    return _reports("eq23", [{"n": n} for n in n_values], max_n, witnesses_of)


def check_subfn_zero(n_values=ZERO_RECURRENCE_NS,
                     max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """Order-4 zero-mask recurrence for every variant, seeded from the
    stored reference table, versus the transfer-matrix value, which reads
    no truth table."""
    n_values = list(n_values)
    table = SpectralBaseTable.from_reference()
    # one chain pass yields every variant at every arity up to the largest
    transfer = subfn_zero_transfer(max([4] + [n for n in n_values if n <= max_n]))

    def witnesses_of(params: dict) -> list:
        n = params["n"]
        witnesses = []
        for i, j in SUB_PAIRS:
            recurred = subfn_zero_recurrence(i, j, n, table)
            reference = transfer[n][(i, j)]
            if recurred != reference:
                witnesses.append((f"f{i}{j}", reference, recurred))
        return witnesses

    return _reports("eq26", [{"n": n} for n in n_values], max_n, witnesses_of)


def check_family_zero(n_values=ZERO_RECURRENCE_NS,
                      max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """Zero-mask recurrence for the stride-1 family, seeded from the stored
    reference table, versus the transfer-matrix value, which reads no truth
    table."""
    table = SpectralBaseTable.from_reference()

    def witnesses_of(params: dict) -> list:
        recurred = family_zero_recurrence(params["n"], table)
        reference = family_walsh_transfer(params["n"], 4, 0)
        return [] if recurred == reference else [("F4", reference, recurred)]

    return _reports("thm24", [{"n": n} for n in n_values], max_n, witnesses_of)


def check_bound(n_values=BOUND_NS, max_n: int = DEFAULT_MAX_N,
                seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Spectral bound over all variants for each arity in the window, from
    the open-chain row bounds, with its stack checksums drawn from
    ``seed``."""
    return _reports("bound", [{"n": n} for n in n_values], max_n,
                    lambda params: spectral_bound_check(params["n"], seed))


def check_factorization(max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """Cycle-product coefficients versus the full transform, every mask,
    at each (n, e) of FACTOR_CASES.

    Also surveys each aligned factor's peaks and logs whether the signed
    and the absolute forms of the peak-at-zero comparison hold for it.
    """

    def witnesses_of(params: dict) -> list:
        n, e = params["n"], params["e"]
        spec = MonomialRsbfSpec(n, 4, e)
        masks = np.arange(1 << n)
        values = walsh_transform(monomial_rsbf(spec)).values
        # (c, expected, got) in mask order
        witnesses = _differences(masks, values, factored_walsh(spec, masks))
        dec = cycle_decompose(n, e)
        # the factor factored_walsh just used, read by max and min with no |S| copy
        aligned = _aligned_spectrum(dec.t, 4).values
        zero_value = int(aligned[0])
        top, bottom = int(aligned[1:].max()), int(aligned[1:].min())
        signed_strict = dec.t > 1 and top < zero_value
        abs_within = dec.t > 1 and max(top, -bottom) <= zero_value
        log.info(
            "factor (n=%d,e=%d): t=%d signed-strict=%s abs-within=%s",
            n, e, dec.t, signed_strict, abs_within,
        )
        return witnesses

    return _reports("factor", [{"n": n, "e": e} for n, e in FACTOR_CASES], max_n, witnesses_of)


def _fail_class(report: VerificationReport) -> str:
    """A failing report's class in ``check all``'s summary: "parity", a
    sweep case at e % n == 0 (factor t = 1), or "finding", a quadratic
    counterexample, each failing on the claim alone; else "other"."""
    p = report.params
    if _is_finding(report) and "l" in p and "e" in p and p["e"] % p["n"] == 0:
        return "parity"
    return "other" if _gating(report) else "finding"


def _gating(report: VerificationReport) -> bool:
    # confirmed quadratic counterexamples are findings, not errors
    finding = report.check == "counterexample" and "n" in report.params and _is_finding(report)
    return report.status == "fail" and not finding


@dataclass
class RunResult:
    """All reports of one run plus the aggregate verdict, and the tables
    the reference-table suites recomputed."""

    reports: list[VerificationReport]
    tables: list[TableArtifact] = field(default_factory=list)

    @property
    def failures(self) -> list[VerificationReport]:
        return [r for r in self.reports if _gating(r)]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.reports:
            out[r.status] += 1
        return out

    def fail_classes(self) -> Counter:
        return Counter(_fail_class(r) for r in self.reports if r.status == "fail")


@dataclass
class HarnessConfig:
    """Resource caps, parallelism and seeding for run_all."""

    max_n: int = DEFAULT_MAX_N
    workers: int = 0  # 0 means one per usable CPU
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not 1 <= self.max_n <= HARD_MAX_N:
            raise ValueError(f"max_n must be in 1..{HARD_MAX_N}, got {self.max_n}")
        if self.workers < 0:
            raise ValueError("workers cannot be negative")

    def resolved_workers(self) -> int:
        return self.workers or usable_cpus()


# Suite runners take (config, **windows) and name the check functions when
# called, through this module's globals, so rebinding one of those names
# (as a tracer does) reaches every suite.


def _arity(cfg: HarnessConfig, n_range) -> dict:
    """The max_n keyword of a check, and its n_values over the arity window
    ``n_range`` when one is given (None keeps the check's default)."""
    if n_range is None:
        return {"max_n": cfg.max_n}
    return {"n_values": range(n_range[0], n_range[1] + 1), "max_n": cfg.max_n}


def _identity_suite(names: tuple, cfg: HarnessConfig, n_range=None) -> list[VerificationReport]:
    # one grid a check_identity_grid call (a tracer times it), or both in
    # one pass; an explicit arity window is checked on the direct route only
    if len(names) > 1:
        grids = partial(_identity_grids, names)
    else:
        grids = partial(check_identity_grid, *names)
    if n_range is not None:
        return grids(**_arity(cfg, n_range))
    reports = grids(max_n=cfg.max_n) + grids(n_values=GRID_TRANSFORM_NS, transform=True,
                                              max_n=cfg.max_n)
    return sorted(reports, key=attrgetter("check"))


def _sweep(name: str, degrees, cfg: HarnessConfig, n_range=None, e_range=None):
    reports = []
    for l in degrees:
        cases = sweep_cases(*_sweep_window(l, n_range, e_range), l=l)
        reports += scan_family(
            cases, workers=cfg.resolved_workers(), max_n=cfg.max_n, check_name=name, seed=cfg.seed
        )
    return reports


def _counterexample(cfg: HarnessConfig, n_range=None, e_range=None) -> list[VerificationReport]:
    reports, summary = counterexample_search(
        n_range, e_range, workers=cfg.resolved_workers(), max_n=cfg.max_n, seed=cfg.seed
    )
    return reports + [summary]


class Suite(NamedTuple):
    """One suite of SUITES.

    ``run(config, **windows)`` returns the suite's records.  Its keyword
    parameters after the config are the windows it reads (``l``,
    ``n_range``, ``e_range``), and one left out keeps its default.
    ``rank`` is the suite's place in the order run_all hands whole suites
    to its pool.  ``n_floor`` is the lowest arity its n window may start
    at.  A ``table`` suite returns (recomputed table, report), the others
    a list of reports.
    """

    run: Callable
    rank: int
    n_floor: int = 1
    table: bool = False

    @property
    def windows(self) -> tuple[str, ...]:
        return tuple(inspect.signature(self.run).parameters)[1:]

    def floor(self, key: str) -> int:
        """Lowest value the suite takes for window ``key``; a range must
        start there or above.  A degree is at least 2, a stride at least 1."""
        return {"l": 2, "e_range": 1}.get(key, self.n_floor)


# The suites in run order.  Ranks put the longest first, so the short
# suites fill in behind the long ones (Graham's list scheduling).  Each
# default suite alone in a fresh process, median of 7 on a 2-CPU Xeon:
# conjecture 0.10 s, lemma21 and lemma22 0.09 s, theorem 0.08 s, then
# cubic, counterexample and eq23 at about 0.02 s each, bound 0.015 s,
# table1 0.009 s, and the rest under 0.007 s.  The
# identity grids and the zero-mask recurrences need n >= 8, the seven-term
# decomposition n >= 7 and the bound's family values n >= 4; the sweeps
# take any n >= 1.
SUITES = {
    "table1": Suite(lambda cfg: check_reference_table(1), rank=8, table=True),
    "table2": Suite(lambda cfg: check_reference_table(2), rank=10, table=True),
    "lemma21": Suite(partial(_identity_suite, ("lemma21",)), rank=1, n_floor=8),
    "lemma22": Suite(partial(_identity_suite, ("lemma22",)), rank=2, n_floor=8),
    "eq23": Suite(lambda cfg, n_range=None: check_family_identity(**_arity(cfg, n_range)),
                  rank=6, n_floor=7),
    "eq26": Suite(lambda cfg, n_range=None: check_subfn_zero(**_arity(cfg, n_range)),
                  rank=12, n_floor=8),
    "thm24": Suite(lambda cfg, n_range=None: check_family_zero(**_arity(cfg, n_range)),
                   rank=9, n_floor=8),
    "bound": Suite(lambda cfg, n_range=None: check_bound(**_arity(cfg, n_range), seed=cfg.seed),
                   rank=7, n_floor=4),
    "factor": Suite(lambda cfg: check_factorization(max_n=cfg.max_n), rank=11),
    "theorem": Suite(lambda cfg, l=4, n_range=None, e_range=None:
                     _sweep("theorem", (l,), cfg, n_range, e_range), rank=3),
    # the theorem's claim at degree 3, so its reports carry that label
    "cubic": Suite(partial(_sweep, "theorem", (3,)), rank=4),
    "conjecture": Suite(lambda cfg, l=None, n_range=None, e_range=None:
                        _sweep("conjecture", (5, 6) if l is None else (l,), cfg, n_range, e_range),
                        rank=0),
    "counterexample": Suite(_counterexample, rank=5),
}


def validate_windows(names, window: dict) -> None:
    """Raise ValueError, before any suite runs, unless every suite in
    ``names`` reads each window given in ``window`` (keywords of
    ``Suite.windows``) and none of them starts below ``Suite.floor`` of any
    of those suites.  run_all and ``rsbf check`` both call it, so a refused
    window reads the same in the library and on the command line."""
    for key, value in window.items():
        unread = sorted(name for name in names if key not in SUITES[name].windows)
        if unread:
            raise ValueError(f"suites {unread} read no {key} window")
        low, text = (value, value) if key == "l" else (value[0], f"{value[0]}..{value[1]}")
        for name in sorted(names):
            floor = SUITES[name].floor(key)
            if low < floor:
                raise ValueError(f"{name} takes {key} from {floor} up, got {text}")


def _run_suite(names: tuple, cfg: HarnessConfig, window: dict) -> tuple[list, int]:
    """The records of the suites ``names`` (one, or _GRIDS as one pass)
    and the ms they ran for where they ran; a picklable pool task."""
    t0 = time.perf_counter()
    run = partial(_identity_suite, names) if names == _GRIDS else SUITES[names[0]].run
    records = list(run(cfg, **window))
    return records, _elapsed_ms(t0)


def run_all(config: HarnessConfig | None = None, only=None, **window) -> RunResult:
    """The chosen suites (all by default) in SUITES order, with the
    configured caps.

    ``window`` overrides default windows, by the keywords of each
    ``Suite.windows``, as validate_windows allows.

    Each suite is one task, but with more than one worker both identity
    grids are one task and one pass.  More than one task and worker run on
    a single process pool, submitted by ``Suite.rank``, each task running
    its sweeps in its process.  Else the tasks run here, and a sweep suite
    spreads its factor jobs over its own pool.  The records come back in
    SUITES order either way.
    """
    cfg = config or HarnessConfig()
    chosen = set(SUITES) if only is None else set(only)
    unknown = chosen - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    validate_windows(chosen, window)
    names = [name for name in SUITES if name in chosen]
    workers = cfg.resolved_workers()
    paired = workers > 1 and set(_GRIDS) <= chosen
    tasks = list(dict.fromkeys(_GRIDS if paired and name in _GRIDS else (name,) for name in names))
    if len(tasks) > 1 and workers > 1:
        serial = replace(cfg, workers=1)  # one pool per run: no pool inside a task
        order = sorted(tasks, key=lambda task: SUITES[task[0]].rank)
        runs = dict(zip(order, _pooled([(_run_suite, task, serial, window) for task in order],
                                       workers)))
    else:
        runs = {task: _run_suite(task, cfg, window) for task in tasks}
    result = RunResult([])
    for task in tasks:
        records, ms = runs[task]
        if SUITES[task[0]].table:
            table, *records = records
            result.tables.append(table)
        result.reports += records
        log.info("suite %s finished in %d ms", "+".join(task), ms)
    return result
