"""Verification suites: reference tables recomputed two ways, identity
grids, zero-mask recurrences against the transfer-matrix route, the
spectral bound, the cycle factorization, and family sweeps comparing
nonlinearity to weight.

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
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import goldens
from .core import (
    _BLOCKED_ABOVE,
    DEFAULT_MAX_N,
    HARD_MAX_N,
    SpectrumPeaks,
    TableStack,
    walsh_at,
    walsh_at_many,
    walsh_blocks,
    walsh_transform,
    weight,
)
from .families import (
    CycleDecomposition,
    MonomialRsbfSpec,
    _aligned_spectrum,
    anf_key,
    cycle_decompose,
    factored_walsh,
    monomial_rsbf,
    sub_function,
)
from .forks import pooled as _pooled, usable_cpus
from .recurrences import (
    SpectralBaseTable,
    _grid_witnesses,
    family_walsh_via_subfns,
    family_zero_recurrence,
    spectral_bound_check,
    subfn_zero_recurrence,
)
from .report import TableArtifact, VerificationReport
from .transfer import family_walsh_transfer, peak_certificate, subfn_zero_transfer

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
GRID_DIRECT_NS = range(8, 13)
GRID_TRANSFORM_NS = range(13, 17)
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
# sweep cases up to this arity are also run through the full transform and
# compared field by field with the factored route
CROSS_CHECK_MAX_N = 16
# a sweep factor's tied peak masks and squares are taken this many
# coefficients at a time
_TIE_BLOCK = 1 << 16
# A stack handed to walsh_transform holds at most this many spectrum
# entries, 256 KiB of int32, and one table at least: one table at n = 16,
# four at n = 14, sixteen at n = 12.  Per table, on a 2-CPU Xeon with
# NumPy 2.4, a stack of four took 18 against 42 us alone at n = 8, 40
# against 120 us at n = 12 and 130 against 276 us at n = 14, and a stack
# of two 467 against 566 us at n = 16, where stacks buy little and the
# spectra of a grid column's four variants would set its working memory.
STACK_ENTRIES = 1 << 16


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


def _runs(stack: TableStack):
    """``stack`` as runs of consecutive tables, each a TableStack of at
    most STACK_ENTRIES spectrum entries (one table at least), to be
    transformed one run at a time."""
    rows = max(1, STACK_ENTRIES >> stack.n)
    for r0 in range(0, len(stack), rows):
        yield TableStack(stack.n, stack.words[r0 : r0 + rows])


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


def _family_cases(cases, stack: TableStack) -> list:
    """(n, l, e, weight, nl, peak ok, k_abs, abs_max, W(0), ms) of each
    sweep case of one arity from the full 2**n transform of its table, row
    r of ``stack`` that of cases[r]: the cross-check route, one job for an
    arity's tables (n <= CROSS_CHECK_MAX_N in the sweeps), transformed one
    _runs run at a time into full int32 spectra.  ms is the job's time
    shared evenly among its cases."""
    t0 = time.perf_counter()
    n = stack.n
    weights = np.bitwise_count(stack.words).sum(axis=1, dtype=np.int64).tolist()
    found = []
    spectra = (row for run in _runs(stack) for row in walsh_transform(run).values)
    for (_, l, e), wt, values in zip(cases, weights, spectra):
        peaks = SpectrumPeaks.of(n, [(0, values)])
        _, signed_max, k_abs, abs_max = peaks.argmax()
        nl = ((1 << n) - signed_max) // 2
        found.append((n, l, e, wt, nl, abs_max <= peaks.zero, k_abs, abs_max, peaks.zero))
    ms = (time.perf_counter() - t0) * 1000 / len(found)
    return [(*fields, ms) for fields in found]


def _family_case(args: tuple[int, int, int]):
    """_family_cases of the one case (n, l, e), its table built here."""
    return _family_cases([args], TableStack.of([monomial_rsbf(MonomialRsbfSpec(*args))]))[0]


class _Factor(NamedTuple):
    """What a sweep keeps of one stride-1 factor spectrum S on t variables,
    from one of two routes.  The butterfly route reduces the whole
    spectrum; the certificate route (``peak_certificate``) shows that S(0)
    is the peak, |S(c)| <= S(0) at every c, and reads nothing else."""

    zero: int  # S(0), from the transform or the trace
    top: int  # max S; S(0) whenever S(0) is the peak
    # min S on the butterfly; -S(0) on a certified factor, which never reads
    # it.  That is sound: every |S(c)| <= S(0) and S(0) is attained, so a
    # product of s factor values is at most S(0)**s in magnitude and
    # _factored_case's running max/min product gives exactly
    # max W = max |W| = W(0) = S(0)**s
    bottom: int
    # placement -> the mask with |S| = peak that places lowest under it; None
    # when the peak is S(0), since then no case on this factor fails its
    # peak check and none reads a tie
    lowest_ties: dict | None
    witnesses: tuple  # the route's failed checks, from _route_witnesses
    route: str  # "certificate" or "butterfly"
    rows: int | None  # the certificate's kept rows; None where it did not run
    seconds: float

    @property
    def peak(self) -> int:
        return max(self.top, -self.bottom)


def _place(m, cycle: tuple[int, ...]):
    """Factor mask(s) m with bit j moved to variable cycle[j] of the case;
    a placed mask is below 2**n <= 2**28, so int64 arrays hold it."""
    return sum(((m >> j) & 1) << v for j, v in enumerate(cycle))


def _certificate_route(t: int, l: int) -> bool:
    """Whether a factor tries ``peak_certificate`` before the butterfly.

    The certificate's work is its expected 2**(l-1) kept rows times
    4**(l-1) * 2**(t - t // 2) multiply-adds.  It is taken for l = 3, 4
    above CROSS_CHECK_MAX_N and l = 2, 5 above 20 (l = 2 then declines).
    Best of 3 on a 2-CPU Xeon with NumPy 2.4, butterfly against
    certificate (same S(0), max and peak), in ms: l = 4 1.7/1.7, 3.0/1.9,
    6.1/2.3, 13.4/2.5 at t = 17..20; l = 3 2.7/1.0 at t = 17 to 13.8/1.3
    at 20; l = 5 34/18, 57/25, 115/32 at t = 21..23.  A t = 20 certificate
    raised the l = 5 sweep's peak RSS from 38.2 to 40.5 MiB.  l = 6 stays
    on the butterfly to the cap: 70/125 at t = 22; it wins from t = 26,
    but its two int64 stacks grow to 128 MiB each at t = 28."""
    return l <= 5 and t > (CROSS_CHECK_MAX_N if 3 <= l <= 4 else _BLOCKED_ABOVE)


def _route_witnesses(t: int, checks) -> tuple:
    """``route:<name>:t=<t>`` witnesses (label, want, got) of the checks
    (name, want, got) whose two sides differ, in order."""
    return tuple((f"route:{name}:t={t}", want, got) for name, want, got in checks if want != got)


def _factor_summary(t: int, l: int, placements, seed: int = DEFAULT_SEED) -> _Factor:
    """The stride-1 degree-l factor on t variables, reduced to what the
    sweep cases built on it read: by ``peak_certificate`` where
    _certificate_route allows and the certificate holds, else by the
    butterfly (_butterfly_factor).

    The certificate declines, and the butterfly runs, when more than
    2**(l-1) rows survive its bound or a kept row beats S(0).  Each route
    forms its own independent checks, and every case on a factor that
    fails one fails with its ``route:`` witness:

    - factor-zero: S(0) against 2**t - 2 * weight of the factor's own table
      (its direct sum at mask 0), on both routes;
    - parseval: on the butterfly, the sum of S(c)**2 against 4**t;
    - direct: on the butterfly, direct sums of the factor's own table at
      the signed argmax and argmin against the max and min; on a
      certificate, a direct sum at the kept-row peak's mask against the
      trace;
    - stack: on a certificate, the checksums of its two stacks (drawn
      from ``seed``).
    """
    if not _certificate_route(t, l):
        return _butterfly_factor(t, l, placements)
    t0 = time.perf_counter()
    cert = peak_certificate(t, l, seed=seed)
    if not cert.certified:
        factor = _butterfly_factor(t, l, placements)
        return factor._replace(rows=cert.rows, seconds=time.perf_counter() - t0)
    tbl = monomial_rsbf(MonomialRsbfSpec(t, l, 1))
    checks = [("factor-zero", tbl.size - 2 * weight(tbl), cert.zero),
              ("direct", walsh_at(tbl, cert.mask), cert.value)]
    checks += [("stack", want, got) for want, got in cert.checksums]
    return _Factor(cert.zero, cert.zero, -cert.zero, None, _route_witnesses(t, checks),
                   "certificate", cert.rows, time.perf_counter() - t0)


def _butterfly_factor(t: int, l: int, placements) -> _Factor:
    """One transform of the factor, reduced block by block.

    ``placements`` are the first cycles of the cases built on it.  The
    spectrum is read as walsh_blocks yields it, so above its blocking
    threshold no full int32 spectrum is made; tied masks and squares are
    taken _TIE_BLOCK coefficients at a time, so no full-size temporary sits
    beside a block.  For each placement the lowest placed tie of the
    running peak is kept, and dropped when a later block holds a larger
    peak.  The direct oracle then sums the factor's own table at the signed
    argmax and argmin.
    """
    t0 = time.perf_counter()
    tbl = monomial_rsbf(MonomialRsbfSpec(t, l, 1))
    peaks = SpectrumPeaks(t)
    # A right spectrum's squares sum to 4**t <= 2**56, so no partial sum
    # wraps int64.  One wrong coefficient (|S| < 2**31) moves the sum by a
    # nonzero amount under 2**62 in magnitude, never a multiple of 2**64,
    # so it cannot wrap back onto 4**t either.
    power = 0
    peak = -1
    best: dict = {}  # placement -> (placed, mask) of the running peak's lowest tie
    for offset, block in walsh_blocks(tbl):
        block_peak = peaks.add(offset, block)
        if block_peak > peak:
            peak, best = block_peak, {}
        # ties are searched only off S(0): when S(0) is the peak no case on
        # this factor fails its peak check, and none reads a tie
        search = block_peak == peak and peak != peaks.zero
        for x0 in range(0, block.size, _TIE_BLOCK):
            sub = block[x0 : x0 + _TIE_BLOCK]
            wide = sub.astype(np.int64)
            power += int(np.dot(wide, wide))
            if not search:
                continue
            ties = np.flatnonzero((sub == peak) | (sub == -peak)) + (offset + x0)
            if ties.size:
                for cycle in placements:
                    placed = _place(ties, cycle)
                    k = int(np.argmin(placed))
                    found = (int(placed[k]), int(ties[k]))
                    best[cycle] = min(best.get(cycle, found), found)
    lowest_ties = None if peak == peaks.zero else {cycle: best[cycle][1] for cycle in placements}
    at_top, at_bottom = walsh_at_many(tbl, [peaks.k_top, peaks.k_bottom]).tolist()
    checks = [("factor-zero", tbl.size - 2 * weight(tbl), peaks.zero), ("parseval", 4**t, power),
              ("direct", at_top, peaks.top), ("direct", at_bottom, peaks.bottom)]
    return _Factor(peaks.zero, peaks.top, peaks.bottom, lowest_ties, _route_witnesses(t, checks),
                   "butterfly", None, time.perf_counter() - t0)


def _factored_case(dec: CycleDecomposition, factor: _Factor) -> tuple:
    """(weight, nl, peak ok, k_abs, abs_max, W(0)) of the case whose cycles
    are ``dec`` (its cycle_decompose), from its factor; k_abs is None
    where the case passes its peak check.

    The spectrum is the s-fold product of the factor's, one factor per
    rotation cycle, so W(0) = S(0)**s and the peak magnitude is peak**s.
    """
    zero_value = factor.zero**dec.s
    size = 1 << dec.n
    # the largest product of s independent factors comes from the running
    # largest and smallest partial products
    hi = lo = 1
    for _ in range(dec.s):
        products = (hi * factor.top, hi * factor.bottom, lo * factor.top, lo * factor.bottom)
        hi, lo = max(products), min(products)
    abs_max = factor.peak**dec.s
    peak = abs_max <= zero_value
    k_abs = None
    if not peak:
        # the cycles own disjoint mask bits and cycle k is cycle 0 moved up k
        # bits, so the lowest tied mask takes cycle 0's lowest placed tie on
        # every cycle
        tie = factor.lowest_ties[dec.cycles[0]]
        k_abs = sum(_place(tie, cycle) for cycle in dec.cycles)
    return ((size - zero_value) // 2, (size - hi) // 2, peak, k_abs, abs_max, zero_value)


def _table_zero(case: tuple[int, int, int]) -> tuple[int, float]:
    """(2**n - 2 * weight, seconds) of the case's own stride-e table: W(0)
    with no transform."""
    n, l, e = case
    t0 = time.perf_counter()
    tbl = monomial_rsbf(MonomialRsbfSpec(n, l, e))
    return tbl.size - 2 * weight(tbl), time.perf_counter() - t0


def _factor_tasks(decs: dict) -> dict:
    """(t, l) -> the first cycles of the cases built on that factor, the
    placements its summary ranks tied masks under; ``decs`` maps each case
    (n, l, e) to its cycle_decompose(n, e)."""
    placements: dict = {}
    for (_, l, _), dec in decs.items():
        placements.setdefault((dec.t, l), set()).add(dec.cycles[0])
    return {key: tuple(sorted(cycles)) for key, cycles in placements.items()}


_ROUTE_FIELDS = ("weight", "nl", "peak", "k_abs", "abs_max", "zero")


def scan_family(
    cases,
    workers: int = 1,
    max_n: int = DEFAULT_MAX_N,
    check_name: str = "theorem",
    seed: int = DEFAULT_SEED,
) -> list[VerificationReport]:
    """Measure weight, nonlinearity, and peak location for each (n, l, e).

    A case passes when nonlinearity equals weight and no coefficient
    magnitude beats the zero-mask value.  Every case is built from its
    stride-1 cycle factor, summarized once per distinct (t, l) by
    _factor_summary: a peak certificate where _certificate_route allows
    and it holds, else the butterfly.  A case carries its factor's
    ``route:`` witnesses, and these checks of its own back the factored
    route: every case with n <= CROSS_CHECK_MAX_N against the full
    transform of its table, field by field, one transform per distinct
    table and one job (_family_cases) per arity's distinct tables; and,
    for each arity above that, one case with e % n != 1
    drawn from ``seed`` whose W(0) is checked against the popcount of its
    own stride-e table (a case with e % n == 1 is its factor, whose table
    route:factor-zero has already counted, so an arity with no other case
    gets no spot check).  One log line per factor gives its route, kept
    rows and seconds.  Results come back sorted by (l, n, e) regardless
    of worker count.
    """
    reports = []
    todo = []
    for n, l, e in cases:
        if n > max_n:
            reports.append(_skip(check_name, {"n": n, "l": l, "e": e}, max_n, n))
        else:
            todo.append((n, l, e))
    decs = {case: cycle_decompose(case[0], case[2]) for case in todo}
    above: dict = {}  # n -> its cases, for each n above the cross-check cap
    for n, l, e in todo:
        if n > CROSS_CHECK_MAX_N and e % n != 1:
            above.setdefault(n, []).append((n, l, e))
    spots = sorted(random.Random(seed * 1_000_003 + n).choice(group) for n, group in above.items())
    # a full transform's fields are its table's alone, so the cases up to
    # CROSS_CHECK_MAX_N with one anf_key (e and n - e give one monomial
    # set) share the transform of the first, the only one built
    first_of: dict = {}  # cross-checked case -> the case transformed for it
    firsts: dict = {}  # anf_key -> that case
    checked: dict = {}  # n -> its first cases
    for case in todo:
        if case[0] <= CROSS_CHECK_MAX_N:
            first_of[case] = first = firsts.setdefault(anf_key(MonomialRsbfSpec(*case)), case)
            if first is case:
                checked.setdefault(case[0], []).append(case)
    factors: dict = {}  # (t, l) -> _Factor
    arity_jobs: dict = {}  # n -> _family_cases list, in the order of its first cases
    spot: dict = {}  # case -> _table_zero result, for the drawn cases
    # (size, function, arguments, result dict, key), factors before checks
    # of the same size so a transform never runs behind a big table build
    jobs = [(t, _factor_summary, (t, l, cycles, seed), factors, (t, l))
            for (t, l), cycles in _factor_tasks(decs).items()]
    jobs += [(n, _family_cases, (group, TableStack.of(monomial_rsbf(MonomialRsbfSpec(*case))
                                                      for case in group)), arity_jobs, n)
             for n, group in checked.items()]
    jobs += [(case[0], _table_zero, (case,), spot, case) for case in spots]
    if workers > 1 and len(jobs) > 1:
        # largest arity first, one task at a time, so the big transforms
        # spread over the workers and the small tasks fill in behind them
        jobs.sort(key=lambda job: job[0], reverse=True)
        results = _pooled([(fn, *args) for _, fn, args, _, _ in jobs], workers)
    else:
        results = [fn(*args) for _, fn, args, _, _ in jobs]
    for (_, _, _, sink, key), value in zip(jobs, results):
        sink[key] = value
    full = {fields[:3]: fields for group in arity_jobs.values() for fields in group}
    for (t, l), factor in sorted(factors.items()):
        log.info("factor t=%d l=%d: %s route, kept rows %s, %.3f s",
                 t, l, factor.route, "-" if factor.rows is None else factor.rows, factor.seconds)
    factor_of = {case: (dec.t, case[1]) for case, dec in decs.items()}
    uses = Counter(factor_of[case] for case in todo)
    sharing = Counter(first_of.values())
    for case in todo:
        n, l, e = case
        key = factor_of[case]
        factor = factors[key]
        factored = _factored_case(decs[case], factor)
        wt, nl, peak, k_abs, abs_max, zero_value = factored
        witnesses = []
        if nl != wt:
            witnesses.append(("weight-vs-nonlinearity", wt, nl))
        if not peak:
            witnesses.append((f"peak:c={k_abs}", zero_value, abs_max))
        # each factor's time is shared among the cases built on it
        seconds = factor.seconds / uses[key]
        witnesses += factor.witnesses
        if case in first_of:
            first = first_of[case]
            *fields, ms = full[first][3:]
            seconds += ms / 1000 / sharing[first]
            for name, want, got in zip(_ROUTE_FIELDS, fields, factored):
                if got is not None and want != got:
                    witnesses.append((f"route:{name}", want, got))
        if case in spot:
            table_zero, spot_s = spot[case]
            seconds += spot_s
            if table_zero != zero_value:
                witnesses.append(("route:popcount-zero", table_zero, zero_value))
        status = "fail" if witnesses else "pass"
        reports.append(VerificationReport(check_name, {"n": n, "l": l, "e": e}, status,
                                          witnesses, int(seconds * 1000)))
    reports.sort(key=lambda r: (r.params["l"], r.params["n"], r.params["e"]))
    return reports


def counterexample_search(
    n_range=None,
    e_range=None,
    workers: int = 1,
    max_n: int = DEFAULT_MAX_N,
    seed: int = DEFAULT_SEED,
) -> tuple[list[VerificationReport], VerificationReport]:
    """Quadratic sweep where a failing case is the expected finding.

    Windows left as None take the l = 2 defaults from SWEEP_WINDOWS.
    Returns the per-case reports plus a summary that passes exactly when
    at least one case is a finding (_is_finding); each finding keeps its
    witnesses in its own report line.
    """
    cases = sweep_cases(*_sweep_window(2, n_range, e_range), l=2)
    reports = scan_family(
        cases, workers=workers, max_n=max_n, check_name="counterexample", seed=seed
    )
    found = any(_is_finding(r) for r in reports)
    witnesses = [] if found else [("search", "some case with nonlinearity != weight", "none found")]
    summary = VerificationReport("counterexample", {"l": 2, "id": "summary"},
                                 "pass" if found else "fail", witnesses,
                                 sum(r.elapsed_ms for r in reports))
    return reports, summary


def _is_finding(report: VerificationReport) -> bool:
    """Whether a case fails on the theorem's claim alone (nonlinearity below
    weight, a peak off mask 0); a case with any other witness is a fault."""
    return report.status == "fail" and all(
        w[0] == "weight-vs-nonlinearity" or w[0].startswith("peak:c=") for w in report.witnesses
    )


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
