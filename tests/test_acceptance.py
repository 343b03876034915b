"""End-to-end acceptance checks, one test per criterion, in a fixed order.

Each test prints a single verdict line so the captured run output doubles
as the acceptance record.  The quartic sweep test is implemented exactly
as required over its full stride grid and is expected to fail: every
full-stride case (e = n) collapses to the parity function, so equality of
weight and nonlinearity cannot hold there.  The boundary is pinned
separately in test_harness.py::test_full_stride_cases_fail_and_nothing_else_does.
"""

import random
import time

import numpy as np

from rsbf import (
    MonomialRsbfSpec,
    TruthTable,
    check_bound,
    check_factorization,
    check_family_identity,
    check_family_zero,
    check_identity_grid,
    check_reference_table,
    check_subfn_zero,
    counterexample_search,
    family_zero_value,
    monomial_rsbf,
    scan_family,
    sub_function,
    sweep_cases,
    walsh_at,
    walsh_transform,
    weight,
)

PAIRS = [(i, j) for i in range(4) for j in range(4)]


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def test_reference_table_one_dual_route():
    t0 = time.perf_counter()
    artifact, report = check_reference_table(1)
    dt = time.perf_counter() - t0
    ok = report.status == "pass" and dt < 1.0
    _verdict("reference-table-one", ok, f"{len(list(artifact.cells()))} cells, {dt:.2f}s")
    assert report.status == "pass", report.witnesses
    assert dt < 1.0


def test_reference_table_two_exact():
    t0 = time.perf_counter()
    artifact, report = check_reference_table(2)
    dt = time.perf_counter() - t0
    ok = report.status == "pass" and dt < 1.0
    _verdict("reference-table-two", ok, f"{len(list(artifact.cells()))} cells, {dt:.2f}s")
    assert report.status == "pass", report.witnesses
    assert dt < 1.0


def test_arity_drop_grids_exhaustive():
    t0 = time.perf_counter()
    reports = []
    for which in ("lemma21", "lemma22"):
        reports += check_identity_grid(which, n_values=range(8, 13))
    dt = time.perf_counter() - t0
    mismatches = [w for r in reports for w in r.witnesses]
    cells = sum(16 * (1 << (r.params["n"] - 1)) for r in reports)
    ok = not mismatches and dt < 30.0
    _verdict("arity-drop-grids", ok, f"{cells} coefficients, {dt:.1f}s")
    assert mismatches == []
    assert dt < 30.0


def test_family_decomposition_all_masks():
    reports = check_family_identity(n_values=range(7, 15))
    bad = [r for r in reports if r.status != "pass"]
    _verdict("family-decomposition", not bad, f"n=7..14, {len(reports)} arities")
    assert bad == []


def test_zero_mask_recurrences_to_22():
    sub_reports = check_subfn_zero(n_values=range(8, 23))
    fam_reports = check_family_zero(n_values=range(8, 23))
    bad = [r for r in sub_reports + fam_reports if r.status != "pass"]
    _verdict("zero-mask-recurrences", not bad, "seeds 4..7 plus recurrence n=8..22")
    assert bad == []


def test_spectral_bound_window():
    reports = check_bound(n_values=range(4, 17))
    bad = [r for r in reports if r.status != "pass"]
    # the bound is claimed on the masks with the second coordinate set
    restricted = (np.arange(32) & 2) != 0
    observed = max(
        int(np.abs(walsh_transform(sub_function(i, j, 5)).values[restricted]).max())
        for i, j in PAIRS
    )
    anchor_ok = observed == 12 and family_zero_value(8) == 8 * 22
    ok = not bad and anchor_ok
    _verdict("spectral-bound", ok, f"n=4..16; n=5 peak {observed} < {family_zero_value(8) // 8}")
    assert bad == []
    assert observed == 12
    assert family_zero_value(8) == 8 * 22


def test_quartic_sweep_full_grid():
    t0 = time.perf_counter()
    reports = scan_family(sweep_cases((4, 20), None, 4), workers=1, check_name="theorem")
    dt = time.perf_counter() - t0
    bad = [r for r in reports if r.status != "pass"]
    _verdict(
        "quartic-sweep",
        not bad and dt < 300.0,
        f"{len(reports)} cases, {len(bad)} failing, {dt:.1f}s",
    )
    assert dt < 300.0
    off_boundary = [r.params for r in bad if r.params["e"] != r.params["n"]]
    assert off_boundary == [], "failures beyond the full-stride boundary"
    assert bad == [], (
        f"{len(bad)} grid cases fail, all with stride e equal to n. At full stride every "
        "monomial collapses onto a single variable, the family degenerates to the parity "
        "function, and a parity function has nonlinearity 0 with its spectral peak at the "
        "all-ones mask. The sweep requirement cannot hold on that boundary; every other "
        "grid case passes."
    )


def test_cycle_factorization_cases():
    reports = check_factorization()
    assert [(r.params["n"], r.params["e"]) for r in reports] == [(10, 2), (12, 3), (12, 4), (14, 2)]
    bad = [r for r in reports if r.status != "pass"]
    _verdict("cycle-factorization", not bad, "all masks at (10,2),(12,3),(12,4),(14,2)")
    assert bad == []


def test_higher_degree_survey_reports_findings():
    reports = []
    for l in (5, 6):
        reports += scan_family(
            sweep_cases((l, 20), (1, 3), l), workers=1, check_name="conjecture"
        )
    expected_cases = sum(3 for l in (5, 6) for _ in range(l, 21))
    findings = [r.params for r in reports if r.status == "fail"]
    complete = len(reports) == expected_cases and all(
        r.status in ("pass", "fail") for r in reports
    )
    _verdict(
        "higher-degree-survey",
        complete,
        f"{len(reports)} cases, {len(findings)} findings (findings do not fail this test)",
    )
    for params in findings:
        print(f"  finding: weight/nonlinearity split at {params}")
    assert complete


def test_quadratic_counterexample_found():
    case_reports, summary = counterexample_search(n_range=(2, 16), e_range=(1, 2), workers=1)
    found = [r.params for r in case_reports if r.status == "fail"]
    _verdict("quadratic-counterexample", summary.status == "pass", f"{len(found)} cases found")
    assert summary.status == "pass"
    assert found


def test_spectrum_properties_corpus(small_tables):
    rng = random.Random(99)
    checked = 0
    for tbl in small_tables:
        values = walsh_transform(tbl).values
        assert int(np.dot(values, values)) == 4**tbl.n
        assert int(values[0]) == tbl.size - 2 * weight(tbl)
        c = rng.randrange(tbl.size)
        assert int(values[c]) == walsh_at(tbl, c)
        checked += 1
    for n in range(11, 15):
        for _ in range(3):
            tbl = TruthTable(n, rng.getrandbits(1 << n))
            values = walsh_transform(tbl).values
            assert int(np.dot(values, values)) == 4**n
            assert int(values[0]) == tbl.size - 2 * weight(tbl)
            c = rng.randrange(tbl.size)
            assert int(values[c]) == walsh_at(tbl, c)
            checked += 1
    members = [
        monomial_rsbf(MonomialRsbfSpec(n, 4, e)) for n in (11, 12, 13, 14) for e in (1, 2)
    ]
    for tbl in members:
        values = walsh_transform(tbl).values
        assert int(np.dot(values, values)) == 4**tbl.n
        assert int(values[0]) == tbl.size - 2 * weight(tbl)
        checked += 1
    _verdict("spectrum-properties", True, f"{checked} tables checked")
