"""Verification suites: reference tables recomputed two ways, identity
grids, zero-mask recurrences against brute force, the spectral bound, the
cycle factorization, and family sweeps comparing nonlinearity to weight.

Every suite returns VerificationReport records.  Runs with the same
configuration produce identical report streams apart from the elapsed
fields; sampled grids draw their masks from a seeded generator.
"""

from __future__ import annotations

import inspect
import logging
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import goldens
from .core import (
    DEFAULT_MAX_N,
    HARD_MAX_N,
    spectrum_argmax,
    walsh_at,
    walsh_at_many,
    walsh_transform,
    weight,
)
from .families import (
    MonomialRsbfSpec,
    cycle_decompose,
    factored_walsh,
    monomial_rsbf,
    sub_function,
)
from .recurrences import (
    SpectralBaseTable,
    family_walsh_via_subfns,
    family_zero_recurrence,
    spectral_bound_check,
    subfn_walsh_top0,
    subfn_walsh_top1,
    subfn_zero_recurrence,
)
from .report import TableArtifact, VerificationReport

__all__ = [
    "HarnessConfig",
    "RunResult",
    "SUITES",
    "TABLE_SUITES",
    "suite_windows",
    "window_floor",
    "check_reference_table",
    "check_identity_grid",
    "check_family_identity",
    "check_subfn_zero",
    "check_family_zero",
    "check_bound",
    "check_factorization",
    "sweep_cases",
    "scan_family",
    "counterexample_search",
    "run_all",
]

log = logging.getLogger(__name__)

DEFAULT_SEED = 0
SUB_PAIRS = tuple((i, j) for i in range(4) for j in range(4))
MAX_WITNESSES = 32

# default scan windows
TABLE_ARITIES = range(4, 12)
GRID_EXHAUSTIVE_NS = range(8, 13)
GRID_SAMPLED_NS = range(13, 17)
GRID_SAMPLES = 10_000
DECOMPOSITION_NS = range(7, 15)
ZERO_RECURRENCE_NS = range(8, 23)
BOUND_NS = range(4, 17)
FACTOR_CASES = ((10, 2), (12, 3), (12, 4), (14, 2))
# (n window, e window) of a family sweep per degree l; an e window of None
# means e = 1..n, and a degree not listed sweeps n = l..20, e = 1..3
SWEEP_WINDOWS = {
    2: ((2, 16), (1, 2)),
    3: ((4, 16), (1, 4)),
    4: ((4, 20), None),
    5: ((5, 20), (1, 3)),
    6: ((6, 20), (1, 3)),
}


def _elapsed_ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _skip(check: str, params: dict, cap: int, n: int) -> VerificationReport:
    return VerificationReport(check, params, "skipped", [("max-n", cap, n)], 0)


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
    rows = []
    for i in range(4):
        for j in range(i, 4):
            values = []
            for n in arities:
                tbl = sub_function(i, j, n)
                fast = walsh_transform(tbl)[0]
                direct = walsh_at(tbl, 0)
                if fast != direct:
                    route_bad.append((f"route:f{i}{j}:n={n}", direct, fast))
                values.append(fast)
            rows.append((f"f{i}{j}", values))
    family_values = []
    for n in arities:
        tbl = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        fast = walsh_transform(tbl)[0]
        direct = walsh_at(tbl, 0)
        if fast != direct:
            route_bad.append((f"route:F4:n={n}", direct, fast))
        family_values.append(fast)
    rows.append(("F4", family_values))
    return TableArtifact("table1", "n", [str(n) for n in arities], rows)


def _table2_artifact(route_bad: list) -> TableArtifact:
    masks = np.nonzero(np.arange(32) & 2)[0]
    columns = []
    for i, j in SUB_PAIRS:
        tbl = sub_function(i, j, 5)
        fast = walsh_transform(tbl).values[masks]
        direct = walsh_at_many(tbl, masks)
        route_bad += [(f"route:f{i}{j}:c={c}", d, f) for c, f, d in _differences(masks, fast, direct)]
        columns.append(fast.tolist())
    rows = [(str(c), [col[k] for col in columns]) for k, c in enumerate(masks.tolist())]
    return TableArtifact("table2", "c", [f"f{i}{j}" for i, j in SUB_PAIRS], rows)


def check_reference_table(
    which: int, golden_path: str | None = None
) -> tuple[TableArtifact, VerificationReport]:
    """Recompute a reference table by both spectral routes and compare it
    cell by cell with the stored copy (or an override file)."""
    t0 = time.perf_counter()
    if golden_path is None:
        golden = goldens.load_reference_table(which)
    else:
        golden = TableArtifact.from_csv_text(f"table{which}", Path(golden_path).read_text())
    route_bad: list = []
    computed = _table1_artifact(route_bad) if which == 1 else _table2_artifact(route_bad)
    witnesses = route_bad + golden.diff(computed)
    status = "fail" if witnesses else "pass"
    report = VerificationReport(
        f"table{which}", {}, status, _cap_witnesses(witnesses), _elapsed_ms(t0)
    )
    return computed, report


def _transform_provider():
    cache: dict = {}

    def get(i: int, j: int, m: int, c: int) -> int:
        key = (i, j, m)
        spectrum = cache.get(key)
        if spectrum is None:
            spectrum = walsh_transform(sub_function(i, j, m)).values
            cache[key] = spectrum
        return spectrum[c]

    return get


def check_identity_grid(
    which: str,
    n_values=None,
    samples: int | None = None,
    seed: int = DEFAULT_SEED,
    oracle: str | None = None,
    max_n: int = DEFAULT_MAX_N,
) -> list[VerificationReport]:
    """Compare one arity-lowering identity against independently computed
    coefficients, over all 16 variants.

    With samples=None every admissible mask is checked and both sides use
    the direct summation oracle.  Sampled runs default to transform-backed
    values so large arities stay cheap; either side can be forced with
    ``oracle`` ("direct" or "transform").  Each side is evaluated over a
    variant's whole mask array at once.
    """
    if which not in ("lemma21", "lemma22"):
        raise ValueError(f"unknown identity grid {which!r}")
    top_bit = 0 if which == "lemma21" else 1
    identity = subfn_walsh_top0 if which == "lemma21" else subfn_walsh_top1
    if n_values is None:
        n_values = GRID_EXHAUSTIVE_NS
    mode = oracle or ("direct" if samples is None else "transform")
    if mode not in ("direct", "transform"):
        raise ValueError(f"unknown oracle {mode!r}")
    reports = []
    for n in n_values:
        params = {"n": n, "id": mode if samples is None else f"{mode}:sampled"}
        if n > max_n:
            reports.append(_skip(which, params, max_n, n))
            continue
        t0 = time.perf_counter()
        half = 1 << (n - 1)
        if samples is None or samples >= half:
            masks = np.arange(half)
        else:
            rng = random.Random(seed * 1_000_003 + n * 101 + top_bit)
            masks = np.array(sorted(rng.sample(range(half), samples)), dtype=np.int64)
        if top_bit:
            masks |= half
        witnesses = []
        provider = _transform_provider() if mode == "transform" else None
        for i, j in SUB_PAIRS:
            tbl = sub_function(i, j, n)
            if mode == "transform":
                lhs = walsh_transform(tbl).values[masks]
            else:
                lhs = walsh_at_many(tbl, masks)
            rhs = identity(i, j, n, masks, provider)
            witnesses += [(f"f{i}{j}:c={c}", a, b) for c, a, b in _differences(masks, lhs, rhs)]
        status = "fail" if witnesses else "pass"
        reports.append(
            VerificationReport(which, params, status, _cap_witnesses(witnesses), _elapsed_ms(t0))
        )
    return reports


def check_family_identity(n_values=None, max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """Seven-term decomposition of the stride-1 family versus direct
    summation, every mask."""
    if n_values is None:
        n_values = DECOMPOSITION_NS
    reports = []
    for n in n_values:
        if n > max_n:
            reports.append(_skip("eq23", {"n": n}, max_n, n))
            continue
        t0 = time.perf_counter()
        tbl = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        masks = np.arange(1 << n)
        witnesses = _differences(masks, walsh_at_many(tbl, masks), family_walsh_via_subfns(n, masks))
        status = "fail" if witnesses else "pass"
        reports.append(
            VerificationReport("eq23", {"n": n}, status, _cap_witnesses(witnesses), _elapsed_ms(t0))
        )
    return reports


def check_subfn_zero(
    n_values=None, base: SpectralBaseTable | None = None, max_n: int = DEFAULT_MAX_N
) -> list[VerificationReport]:
    """Order-4 zero-mask recurrence for every variant versus the exact
    population count."""
    if n_values is None:
        n_values = ZERO_RECURRENCE_NS
    table = base if base is not None else SpectralBaseTable.from_reference()
    reports = []
    for n in n_values:
        if n > max_n:
            reports.append(_skip("eq26", {"n": n}, max_n, n))
            continue
        t0 = time.perf_counter()
        witnesses = []
        for i, j in SUB_PAIRS:
            recurred = subfn_zero_recurrence(i, j, n, table)
            direct = (1 << n) - 2 * weight(sub_function(i, j, n))
            if recurred != direct:
                witnesses.append((f"f{i}{j}", direct, recurred))
        status = "fail" if witnesses else "pass"
        reports.append(
            VerificationReport("eq26", {"n": n}, status, _cap_witnesses(witnesses), _elapsed_ms(t0))
        )
    return reports


def check_family_zero(
    n_values=None, base: SpectralBaseTable | None = None, max_n: int = DEFAULT_MAX_N
) -> list[VerificationReport]:
    """Zero-mask recurrence for the stride-1 family versus the exact
    population count."""
    if n_values is None:
        n_values = ZERO_RECURRENCE_NS
    table = base if base is not None else SpectralBaseTable.from_reference()
    reports = []
    for n in n_values:
        if n > max_n:
            reports.append(_skip("thm24", {"n": n}, max_n, n))
            continue
        t0 = time.perf_counter()
        recurred = family_zero_recurrence(n, table)
        direct = (1 << n) - 2 * weight(monomial_rsbf(MonomialRsbfSpec(n, 4, 1)))
        witnesses = [] if recurred == direct else [("F4", direct, recurred)]
        status = "fail" if witnesses else "pass"
        reports.append(VerificationReport("thm24", {"n": n}, status, witnesses, _elapsed_ms(t0)))
    return reports


def check_bound(n_values=None, max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """Spectral bound over all variants for each arity in the window."""
    if n_values is None:
        n_values = BOUND_NS
    reports = []
    for n in n_values:
        if n > max_n:
            reports.append(_skip("bound", {"n": n}, max_n, n))
            continue
        reports.append(spectral_bound_check(n))
    return reports


def check_factorization(cases=FACTOR_CASES, max_n: int = DEFAULT_MAX_N) -> list[VerificationReport]:
    """Cycle-product coefficients versus the full transform, every mask.

    Also surveys each aligned factor's peaks and logs whether the signed
    and the absolute forms of the peak-at-zero comparison hold for it.
    """
    reports = []
    for n, e in cases:
        if n > max_n:
            reports.append(_skip("factor", {"n": n, "e": e}, max_n, n))
            continue
        t0 = time.perf_counter()
        spec = MonomialRsbfSpec(n, 4, e)
        masks = np.arange(1 << n)
        values = walsh_transform(monomial_rsbf(spec)).values
        # (c, expected, got) in mask order
        witnesses = _differences(masks, values, factored_walsh(spec, masks))
        dec = cycle_decompose(n, e)
        aligned = walsh_transform(monomial_rsbf(MonomialRsbfSpec(dec.t, 4, 1))).values
        zero_value = int(aligned[0])
        signed_strict = bool(np.all(aligned[1:] < zero_value)) if dec.t > 1 else False
        abs_within = bool(np.all(np.abs(aligned[1:]) <= zero_value)) if dec.t > 1 else False
        log.info(
            "factor (n=%d,e=%d): t=%d signed-strict=%s abs-within=%s",
            n, e, dec.t, signed_strict, abs_within,
        )
        status = "fail" if witnesses else "pass"
        reports.append(
            VerificationReport(
                "factor", {"n": n, "e": e}, status, _cap_witnesses(witnesses), _elapsed_ms(t0)
            )
        )
    return reports


def sweep_cases(n_range=SWEEP_WINDOWS[4][0], e_range=None, l: int = 4) -> list[tuple[int, int, int]]:
    """The (n, l, e) grid for a family sweep; e_range=None means 1..n."""
    lo, hi = n_range
    cases = []
    for n in range(lo, hi + 1):
        strides = range(1, n + 1) if e_range is None else range(e_range[0], e_range[1] + 1)
        cases.extend((n, l, e) for e in strides)
    return cases


def _sweep_window(l: int, n_range=None, e_range=None):
    """A degree-l sweep's (n window, e window): the given ones, else the
    defaults from SWEEP_WINDOWS."""
    default_n, default_e = SWEEP_WINDOWS.get(l, ((l, 20), (1, 3)))
    return n_range or default_n, default_e if e_range is None else e_range


def _family_case(args: tuple[int, int, int]):
    n, l, e = args
    t0 = time.perf_counter()
    tbl = monomial_rsbf(MonomialRsbfSpec(n, l, e))
    spectrum = walsh_transform(tbl)
    wt = weight(tbl)
    _, signed_max, k_abs, abs_max = spectrum_argmax(spectrum)
    nl = (tbl.size - signed_max) // 2
    zero_value = spectrum[0]
    peak = abs_max <= zero_value
    return (n, l, e, wt, nl, peak, int(k_abs), abs_max, zero_value, _elapsed_ms(t0))


def scan_family(
    cases,
    workers: int = 1,
    max_n: int = DEFAULT_MAX_N,
    check_name: str = "theorem",
) -> list[VerificationReport]:
    """Measure weight, nonlinearity, and peak location for each (n, l, e).

    A case passes when nonlinearity equals weight and no coefficient
    magnitude beats the zero-mask value.  Results come back sorted by
    (l, n, e) regardless of worker count.
    """
    reports = []
    todo = []
    for n, l, e in cases:
        if n > max_n:
            reports.append(_skip(check_name, {"n": n, "l": l, "e": e}, max_n, n))
        else:
            todo.append((n, l, e))
    if workers > 1 and len(todo) > 1:
        # largest arity first, one case per task, so the big cases spread
        # over the workers and the small ones fill in behind them
        todo.sort(key=lambda case: case[0], reverse=True)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_family_case, todo, chunksize=1))
    else:
        results = [_family_case(args) for args in todo]
    for n, l, e, wt, nl, peak, k_abs, abs_max, zero_value, ms in results:
        witnesses = []
        if nl != wt:
            witnesses.append(("weight-vs-nonlinearity", wt, nl))
        if not peak:
            witnesses.append((f"peak:c={k_abs}", zero_value, abs_max))
        status = "fail" if witnesses else "pass"
        reports.append(VerificationReport(check_name, {"n": n, "l": l, "e": e}, status, witnesses, ms))
    reports.sort(key=lambda r: (r.params["l"], r.params["n"], r.params["e"]))
    return reports


def counterexample_search(
    n_range=None,
    e_range=None,
    workers: int = 1,
    max_n: int = DEFAULT_MAX_N,
) -> tuple[list[VerificationReport], VerificationReport]:
    """Quadratic sweep where a failing case is the expected finding.

    Windows left as None take the l = 2 defaults from SWEEP_WINDOWS.
    Returns the per-case reports plus a summary that passes exactly when
    at least one case shows nonlinearity below weight; each finding keeps
    its witnesses in its own report line.
    """
    (lo, hi), e_window = _sweep_window(2, n_range, e_range)
    cases = sweep_cases((max(lo, 2), hi), e_window, l=2)
    reports = scan_family(cases, workers=workers, max_n=max_n, check_name="counterexample")
    found = [r for r in reports if r.status == "fail"]
    elapsed = sum(r.elapsed_ms for r in reports)
    if found:
        summary = VerificationReport("counterexample", {"l": 2, "id": "summary"}, "pass", [], elapsed)
    else:
        summary = VerificationReport(
            "counterexample",
            {"l": 2, "id": "summary"},
            "fail",
            [("search", "some case with nonlinearity != weight", "none found")],
            elapsed,
        )
    return reports, summary


def _gating(report: VerificationReport) -> bool:
    # confirmed quadratic counterexamples are findings, not errors
    if report.check == "counterexample" and "n" in report.params:
        return False
    return report.status == "fail"


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


@dataclass
class HarnessConfig:
    """Resource caps, parallelism, seeding, and reference-table overrides
    for run_all."""

    max_n: int = DEFAULT_MAX_N
    workers: int = 0  # 0 means one per CPU
    seed: int = DEFAULT_SEED
    table1_path: str | None = None
    table2_path: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.max_n <= HARD_MAX_N:
            raise ValueError(f"max_n must be in 1..{HARD_MAX_N}, got {self.max_n}")
        if self.workers < 0:
            raise ValueError("workers cannot be negative")

    def resolved_workers(self) -> int:
        return self.workers or (os.cpu_count() or 1)


# Suite runners, name -> runner(config, **windows), in run order.  A
# runner's keyword parameters are the windows it reads (l, n_range,
# e_range); one left out keeps its default.  Runners name the check
# functions when called, through this module's globals, so rebinding one of
# those names (as a tracer does) reaches every suite.


def _arities(n_range):
    return None if n_range is None else range(n_range[0], n_range[1] + 1)


def _identity_suite(which: str, cfg: HarnessConfig, n_range=None) -> list[VerificationReport]:
    # an explicit arity window is checked exhaustively only
    if n_range is not None:
        return check_identity_grid(which, n_values=_arities(n_range), max_n=cfg.max_n)
    return check_identity_grid(which, max_n=cfg.max_n) + check_identity_grid(
        which, n_values=GRID_SAMPLED_NS, samples=GRID_SAMPLES, seed=cfg.seed, max_n=cfg.max_n
    )


def _sweep(name: str, degrees, cfg: HarnessConfig, n_range=None, e_range=None):
    reports = []
    for l in degrees:
        cases = sweep_cases(*_sweep_window(l, n_range, e_range), l=l)
        reports += scan_family(cases, workers=cfg.resolved_workers(), max_n=cfg.max_n, check_name=name)
    return reports


def _counterexample(cfg: HarnessConfig, n_range=None, e_range=None) -> list[VerificationReport]:
    workers = cfg.resolved_workers()
    reports, summary = counterexample_search(n_range, e_range, workers=workers, max_n=cfg.max_n)
    return reports + [summary]


SUITES = {
    "table1": lambda cfg: check_reference_table(1, cfg.table1_path),
    "table2": lambda cfg: check_reference_table(2, cfg.table2_path),
    "lemma21": partial(_identity_suite, "lemma21"),
    "lemma22": partial(_identity_suite, "lemma22"),
    "eq23": lambda cfg, n_range=None: check_family_identity(_arities(n_range), max_n=cfg.max_n),
    "eq26": lambda cfg, n_range=None: check_subfn_zero(_arities(n_range), max_n=cfg.max_n),
    "thm24": lambda cfg, n_range=None: check_family_zero(_arities(n_range), max_n=cfg.max_n),
    "bound": lambda cfg, n_range=None: check_bound(_arities(n_range), max_n=cfg.max_n),
    "factor": lambda cfg: check_factorization(max_n=cfg.max_n),
    "theorem": lambda cfg, l=4, n_range=None, e_range=None: _sweep(
        "theorem", (l,), cfg, n_range, e_range
    ),
    # the theorem's claim at degree 3, so its reports carry that label
    "cubic": partial(_sweep, "theorem", (3,)),
    "conjecture": lambda cfg, l=None, n_range=None, e_range=None: _sweep(
        "conjecture", (5, 6) if l is None else (l,), cfg, n_range, e_range
    ),
    "counterexample": _counterexample,
}
# the suites whose run also yields the recomputed table
TABLE_SUITES = ("table1", "table2")


def suite_windows(name: str) -> tuple[str, ...]:
    """The window keywords suite ``name`` reads (``l``, ``n_range``,
    ``e_range``): its runner's parameters after the config."""
    return tuple(inspect.signature(SUITES[name]).parameters)[1:]


# Lowest arity each suite's n window may start at: the identity grids and
# the zero-mask recurrences need n >= 8, the seven-term decomposition n >= 7
# and the bound's family values n >= 4.  The sweeps take any n >= 1.
_N_FLOORS = {"lemma21": 8, "lemma22": 8, "eq23": 7, "eq26": 8, "thm24": 8, "bound": 4}


def window_floor(name: str, key: str) -> int:
    """Lowest value suite ``name`` takes for window ``key``; a range must
    start there or above.  A degree is at least 2, a stride at least 1."""
    if key == "l":
        return 2
    if key == "e_range":
        return 1
    return _N_FLOORS.get(name, 1)


def run_all(config: HarnessConfig | None = None, only=None, **window) -> RunResult:
    """The chosen suites (all by default) in SUITES order, with the
    configured caps.

    ``window`` overrides default windows, by the keywords of
    ``suite_windows``; every chosen suite must read each one given, and
    each must start at or above ``window_floor`` for every chosen suite.
    """
    cfg = config or HarnessConfig()
    chosen = set(SUITES) if only is None else set(only)
    unknown = chosen - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    for key in window:
        unread = sorted(name for name in chosen if key not in suite_windows(name))
        if unread:
            raise ValueError(f"suites {unread} read no {key} window")
        low = window[key] if key == "l" else window[key][0]
        for name in sorted(chosen):
            floor = window_floor(name, key)
            if low < floor:
                raise ValueError(f"{name} takes {key} from {floor} up, got {low}")
    result = RunResult([])
    for name, runner in SUITES.items():
        if name not in chosen:
            continue
        t0 = time.perf_counter()
        # the table suites return (table, report), the others report lists
        for record in runner(cfg, **window):
            if isinstance(record, TableArtifact):
                result.tables.append(record)
            else:
                result.reports.append(record)
        log.info("suite %s finished in %d ms", name, _elapsed_ms(t0))
    return result
