"""The family sweeps' engine: nonlinearity against weight of the stride-e
degree-l family over windows of (n, e), for the paper's theorem (l = 4),
its conjecture (l = 5, 6) and the quadratic counterexample search.

rsbf.harness owns the suite registry, run_all and every other check; it
runs these sweeps as suites and takes STACK_ENTRIES, _runs and
DEFAULT_SEED from here.  This module imports nothing from harness or cli.
"""

from __future__ import annotations

import logging
import random
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

from .core import (_BLOCKED_ABOVE, DEFAULT_MAX_N, SpectrumPeaks, TableStack, walsh_at,
                   walsh_at_many, walsh_blocks, walsh_transform, weight)
from .families import CycleDecomposition, MonomialRsbfSpec, anf_key, cycle_decompose, monomial_rsbf
from .forks import pooled as _pooled
from .report import VerificationReport, _skip
from .transfer import peak_certificate

__all__ = ["sweep_cases", "scan_family", "counterexample_search"]

log = logging.getLogger(__name__)

DEFAULT_SEED = 0
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


def _runs(stack: TableStack):
    """``stack`` as runs of consecutive tables, each a TableStack of at
    most STACK_ENTRIES spectrum entries (one table at least), to be
    transformed one run at a time."""
    rows = max(1, STACK_ENTRIES >> stack.n)
    for r0 in range(0, len(stack), rows):
        yield TableStack(stack.n, stack.words[r0 : r0 + rows])


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


def _full_fields(peaks: SpectrumPeaks, wt: int) -> tuple:
    """(weight, nl, peak ok, k_abs, abs_max, W(0)) of a table of weight
    ``wt`` from the peaks of its whole spectrum: the full route's fields."""
    _, signed_max, k_abs, abs_max = peaks.argmax()
    nl = ((1 << peaks.n) - signed_max) // 2
    return wt, nl, abs_max <= peaks.zero, k_abs, abs_max, peaks.zero


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
    spectra = (row for run in _runs(stack) for row in walsh_transform(run).values)
    found = [(n, l, e, *_full_fields(SpectrumPeaks.of(n, [(0, values)]), wt))
             for (_, l, e), wt, values in zip(cases, weights, spectra)]
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
    # _full_fields of the factor's own table, for the cases with that table
    # (n = t, e = +-1 mod t) to be cross-checked against; None on a certificate
    full: tuple | None
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
                   "certificate", cert.rows, None, time.perf_counter() - t0)


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
    wt = weight(tbl)
    checks = [("factor-zero", tbl.size - 2 * wt, peaks.zero), ("parseval", 4**t, power),
              ("direct", at_top, peaks.top), ("direct", at_bottom, peaks.bottom)]
    return _Factor(peaks.zero, peaks.top, peaks.bottom, lowest_ties, _route_witnesses(t, checks),
                   "butterfly", None, _full_fields(peaks, wt), time.perf_counter() - t0)


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


def _factor_key(dec: CycleDecomposition, l: int) -> tuple[int, int]:
    """(t, l) of the factor a degree-l case with cycles ``dec`` is built
    on, l cut to t (to 2 at t = 1, the least degree): every degree l >= t
    wraps its monomial onto all t variables, so those factors are one
    table, summarized once."""
    return dec.t, min(l, max(dec.t, 2))


def _factor_tasks(decs: dict) -> dict:
    """(t, l) -> the first cycles of the cases built on that factor, the
    placements its summary ranks tied masks under; ``decs`` maps each case
    (n, l, e) to its cycle_decompose(n, e)."""
    placements: dict = {}
    for (_, l, _), dec in decs.items():
        placements.setdefault(_factor_key(dec, l), set()).add(dec.cycles[0])
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
    stride-1 cycle factor, summarized once per distinct (t, l), l cut to
    t (_factor_key), by _factor_summary: a peak certificate where
    _certificate_route allows and it holds, else the butterfly.  A case
    carries its factor's ``route:`` witnesses, and these checks of its
    own back the factored route: every case with n <= CROSS_CHECK_MAX_N
    against the full transform of its table, field by field, one
    transform per distinct table: a butterfly factor's own (e = +-1 mod
    n) is reduced by that factor, the rest in one job (_family_cases) per
    arity; and, for each arity and degree above that, one case with
    e % n != 1 drawn from ``seed`` (by the arity alone, so the draws do
    not depend on the other degrees in ``cases``) whose W(0) is checked
    against the popcount of its own stride-e table (a case with e % n ==
    1 is its factor, whose table route:factor-zero has already counted,
    so an arity with no other case gets no spot check).  One log line per
    factor gives its route, kept rows and seconds.  Results come back
    sorted by (l, n, e) regardless of worker count.
    """
    reports = []
    todo = []
    for n, l, e in cases:
        if n > max_n:
            reports.append(_skip(check_name, {"n": n, "l": l, "e": e}, max_n, n))
        else:
            todo.append((n, l, e))
    decs = {case: cycle_decompose(case[0], case[2]) for case in todo}
    above: dict = {}  # (n, l) -> its cases, for each n above the cross-check cap
    for n, l, e in todo:
        if n > CROSS_CHECK_MAX_N and e % n != 1:
            above.setdefault((n, l), []).append((n, l, e))
    spots = sorted(random.Random(seed * 1_000_003 + n).choice(group)
                   for (n, _), group in above.items())
    tasks = _factor_tasks(decs)
    # a full transform's fields are its table's alone, so the cases up to
    # CROSS_CHECK_MAX_N with one anf_key (e and n - e give one monomial
    # set) share one transform: a butterfly factor's where the table is
    # its own, else the first case's, the only one built
    firsts: dict = {anf_key(MonomialRsbfSpec(t, l, 1)): (t, l) for t, l in tasks
                    if not _certificate_route(t, l)}
    first_of: dict = {}  # cross-checked case -> the case or factor transformed for it
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
            for (t, l), cycles in tasks.items()]
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
    full = {fields[:3]: fields[3:] for group in arity_jobs.values() for fields in group}
    # a factor's own table, at 0 ms: the factor's time is its cases' already
    full.update({key: (*factor.full, 0) for key, factor in factors.items() if factor.full})
    for (t, l), factor in sorted(factors.items()):
        log.info("factor t=%d l=%d: %s route, kept rows %s, %.3f s",
                 t, l, factor.route, "-" if factor.rows is None else factor.rows, factor.seconds)
    factor_of = {case: _factor_key(dec, case[1]) for case, dec in decs.items()}
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
            *fields, ms = full[first]
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
