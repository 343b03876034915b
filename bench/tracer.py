"""Per-layer timing of rsbf from outside the package.

The tracer rebinds public names of ``rsbf.core``, ``rsbf.families``,
``rsbf.recurrences``, ``rsbf.harness``, ``rsbf.report`` and ``rsbf.cli`` to
timing wrappers, in every rsbf module that imported them, and puts the
originals back on ``uninstall``.  A stack of open calls charges each wrapped
call its own time minus the time of the wrapped calls nested inside it
(self time), so the self times of all layers partition the traced interval.

Hot per-coefficient calls only add to a layer's count and time totals.
Coarse calls (suites, sweep cases, CLI commands) are also kept as spans
with parent ids, written out when the run ends.

It must run in one process: pool children forked from a traced process keep
their timings to themselves, so traced runs use ``--workers 1``.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

clock = time.perf_counter_ns

# (module, name, layer) for the hot per-call wrappers
HOT = (
    ("rsbf.core", "walsh_at", "core.walsh_at"),
    ("rsbf.core", "table_values", "core.table_values"),
    ("rsbf.families", "monomial_rsbf", "families.build"),
    ("rsbf.families", "sub_function", "families.build"),
    ("rsbf.families", "quartic_chain", "families.build"),
    ("rsbf.families", "tail_products", "families.build"),
    ("rsbf.families", "factored_walsh", "families.factored_walsh"),
    ("rsbf.recurrences", "subfn_walsh_top0", "recurrences.identity"),
    ("rsbf.recurrences", "subfn_walsh_top1", "recurrences.identity"),
    ("rsbf.recurrences", "family_walsh_via_subfns", "recurrences.identity"),
    ("rsbf.recurrences", "subfn_zero_recurrence", "recurrences.zero"),
    ("rsbf.recurrences", "family_zero_recurrence", "recurrences.zero"),
    ("rsbf.recurrences", "family_zero_value", "recurrences.zero"),
    ("rsbf.recurrences", "spectral_bound_check", "recurrences.zero"),
    ("rsbf.cli", "_render_spectrum", "cli.render"),
    ("rsbf.cli", "_emit", "cli.render"),
    ("rsbf.cli", "_stream_reports", "cli.render"),
    ("rsbf.cli", "_record_json", "cli.render"),
    ("rsbf.cli", "_record_csv", "cli.render"),
)

# harness entry points that run one suite, and how to name the suite
SUITE_FUNCTIONS = (
    "check_reference_table",
    "check_identity_grid",
    "check_family_identity",
    "check_subfn_zero",
    "check_family_zero",
    "check_bound",
    "check_factorization",
    "scan_family",
    "counterexample_search",
)


def suite_of(func: str, bound: inspect.BoundArguments) -> str:
    a = bound.arguments
    if func == "check_reference_table":
        return f"table{a['which']}"
    if func == "check_identity_grid":
        return a["which"]
    if func == "scan_family":
        name = a.get("check_name", "theorem")
        # run_all's cubic suite sweeps l = 3 under the theorem label
        if name == "theorem" and any(case[1] == 3 for case in a["cases"]):
            return "cubic"
        return name
    return {
        "check_family_identity": "eq23",
        "check_subfn_zero": "eq26",
        "check_family_zero": "thm24",
        "check_bound": "bound",
        "check_factorization": "factor",
        "counterexample_search": "counterexample",
    }[func]


def rss_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Self-time accounting plus coarse spans for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[int] = []      # child time (ns) of each open wrapped call
        self.stats: dict[str, list[int]] = {}   # layer -> [calls, self_ns]
        self.spans: list[dict] = []
        self.open_spans: list[int] = []
        self.pool: list[dict] = []      # one entry per scan_family call
        self.transform = {"elt_stages": 0, "bytes_computed": 0, "rss_growth_mib": 0.0}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def hot(self, layer: str, fn):
        stat = self.stats.setdefault(layer, [0, 0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return wrapper

    def span(self, layer: str, name: str, attrs: dict, fn, *args, **kwargs):
        """Call fn as a coarse span; returns (result, span record)."""
        stat = self.stats.setdefault(layer, [0, 0])
        record = {"id": len(self.spans), "parent": self.open_spans[-1] if self.open_spans else None,
                  "name": name, "layer": layer, **attrs}
        self.spans.append(record)
        self.open_spans.append(record["id"])
        self.stack.append(0)
        t0 = clock()
        try:
            return fn(*args, **kwargs), record
        finally:
            t1 = clock()
            dt = t1 - t0
            stat[0] += 1
            stat[1] += dt - self.stack.pop()
            if self.stack:
                self.stack[-1] += dt
            self.open_spans.pop()
            record["start_ns"], record["end_ns"] = t0, t1

    def _suite_wrapper(self, func: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = {"suite": suite_of(func, bound)}
            result, record = self.span("harness.suite", f"harness.{func}", attrs, fn, *args, **kwargs)
            if func == "scan_family":
                self._note_pool(bound, result, record)
            return result
        return wrapper

    def _note_pool(self, bound, reports, record) -> None:
        self.pool.append({
            "suite": record["suite"],
            "workers": bound.arguments["workers"],
            "cases": len(reports),
            "case_ms": sum(r.elapsed_ms for r in reports),
            "wall_ns": record["end_ns"] - record["start_ns"],
        })

    def _transform_wrapper(self, fn):
        timed = self.hot("core.walsh_transform", fn)
        acc = self.transform

        @functools.wraps(fn)
        def wrapper(table):
            before_rss, before_max = rss_mib(), maxrss_mib()
            spectrum = timed(table)
            n, itemsize = table.n, spectrum.values.itemsize
            acc["elt_stages"] += n << n
            # one read and one write of the spectrum array per stage
            acc["bytes_computed"] += 2 * itemsize * (n << n)
            after_max = maxrss_mib()
            if after_max > before_max:
                acc["rss_growth_mib"] = max(acc["rss_growth_mib"], after_max - before_rss)
            return spectrum
        return wrapper

    def _case_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(args):
            n, l, e = args
            return self.span("harness.case", "harness.case", {"n": n, "l": l, "e": e}, fn, args)[0]
        return wrapper

    def _provider_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.hot("harness.provider", fn(*args, **kwargs))
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, module_name: str, name: str, make) -> None:
        owner = sys.modules.get(module_name)
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{module_name}.{name}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rsbf" and not mod_name.startswith("rsbf."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self, pool_only: bool = False) -> None:
        """Rebind every traced name; with pool_only just scan_family."""
        self._rebind("rsbf.harness", "scan_family",
                     lambda fn: self._suite_wrapper("scan_family", fn))
        if pool_only:
            return
        for func in SUITE_FUNCTIONS:
            if func != "scan_family":
                self._rebind("rsbf.harness", func,
                             lambda fn, func=func: self._suite_wrapper(func, fn))
        self._rebind("rsbf.harness", "run_all", lambda fn: self.hot("harness.run_all", fn))
        self._rebind("rsbf.harness", "_family_case", self._case_wrapper)
        self._rebind("rsbf.harness", "_transform_provider", self._provider_wrapper)
        self._rebind("rsbf.core", "walsh_transform", self._transform_wrapper)
        for module_name, name, layer in HOT:
            self._rebind(module_name, name, lambda fn, layer=layer: self.hot(layer, fn))
        report = sys.modules["rsbf.report"].VerificationReport
        original = report.to_json
        self._undo.append((report, "to_json", original))
        report.to_json = self.hot("report.to_json", original)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        layers = {k: {"calls": c, "self_s": ns / 1e9} for k, (c, ns) in sorted(self.stats.items())}
        suites: dict[str, float] = {}
        by_id = {s["id"]: s for s in self.spans}
        for s in self.spans:
            if "suite" not in s:
                continue
            parent = by_id.get(s["parent"])
            while parent is not None and "suite" not in parent:
                parent = by_id.get(parent["parent"])
            if parent is None:  # outermost span of its suite
                suites[s["suite"]] = suites.get(s["suite"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e9
        return {
            "layers": layers,
            "suites": suites,
            "pool": self.pool,
            "transform": dict(self.transform),
            "spans": self.spans,
            "missing": self.missing,
        }
