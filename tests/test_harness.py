import hashlib
import json
import logging
import multiprocessing
from collections import Counter
import pickle
import random
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from rsbf import (
    HarnessConfig,
    TableArtifact,
    MonomialRsbfSpec,
    check_bound,
    check_factorization,
    check_family_identity,
    check_family_zero,
    check_identity_grid,
    check_reference_table,
    check_subfn_zero,
    counterexample_search,
    cycle_decompose,
    monomial_rsbf,
    run_all,
    scan_family,
    sub_function,
    subfn_walsh_top0,
    subfn_walsh_top1,
    sweep_cases,
    walsh_transform,
)
from rsbf import core, families, goldens, harness, recurrences, transfer
from rsbf.goldens import load_reference_table
from rsbf.harness import usable_cpus

from conftest import bit, constant, from_int


def test_reference_tables_pass():
    for which in (1, 2):
        artifact, report = check_reference_table(which)
        assert report.status == "pass"
        assert report.witnesses == []
        assert artifact.diff(load_reference_table(which)) == []


def test_corrupted_golden_is_caught(monkeypatch):
    text = load_reference_table(1).to_csv_text().replace("1144", "1145", 1)
    bad = TableArtifact.from_csv_text("table1", text)
    monkeypatch.setattr(goldens, "load_reference_table", lambda which: bad)
    _, report = check_reference_table(1)
    assert report.status == "fail"
    assert len(report.witnesses) == 1
    where, expected, got = report.witnesses[0]
    assert where == "F4@11" and (expected, got) == (1145, 1144)

    result = run_all(HarnessConfig(), only=["table1"])
    assert result.exit_code == 1


def test_lemma_grid_validation():
    with pytest.raises(ValueError):
        check_identity_grid("lemma99")


def test_lemma_grid_oracles_agree():
    direct = check_identity_grid("lemma21", n_values=[8])
    fast = check_identity_grid("lemma21", n_values=[8], transform=True)
    assert [direct[0].params["id"], fast[0].params["id"]] == ["direct", "transform:sampled"]
    assert direct[0].status == fast[0].status == "pass"


def test_direct_routes_never_call_the_butterfly(monkeypatch):
    def refuse(table):
        raise AssertionError("the direct route called walsh_transform")

    # recurrences no longer imports the butterfly at all
    assert not hasattr(recurrences, "walsh_transform")
    for module in (core, harness):
        monkeypatch.setattr(module, "walsh_transform", refuse)
    # the stacked oracle serves these routes: a grid column's four left
    # sides and eq23's seven terms are one stack each
    oracle, rows = core.walsh_at_many, []

    def counted(tables, masks):
        rows.append(len(tables) if isinstance(tables, core.TableStack) else 0)
        return oracle(tables, masks)

    for module in (harness, recurrences):
        monkeypatch.setattr(module, "walsh_at_many", counted)
    grid = check_identity_grid("lemma21", n_values=[8])
    assert [r.status for r in grid] == ["pass"]
    family = check_family_identity(n_values=range(7, 10))
    assert [r.status for r in family] == ["pass"] * 3
    assert rows.count(4) == 4 and rows.count(7) == 3


def _loop_grid_witnesses(which, n, provider):
    # the per-coefficient loop the array form replaced, kept as the reference
    identity = subfn_walsh_top0 if which == "lemma21" else subfn_walsh_top1
    half = 1 << (n - 1)
    offset = half if which == "lemma22" else 0
    witnesses = []
    for i in range(4):
        for j in range(4):
            lhs_values = walsh_transform(sub_function(i, j, n)).values
            for base in range(half):
                c = base | offset
                lhs = int(lhs_values[c])
                rhs = identity(i, j, n, c, provider)
                if lhs != rhs:
                    witnesses.append((f"f{i}{j}:c={c}", lhs, rhs))
    extra = len(witnesses) - 32
    return witnesses[:32] + [("more-witnesses", extra, "truncated")]


def test_grid_witnesses_keep_order_and_cap(monkeypatch):
    transform_provider = harness._transform_provider

    def wrong_provider():
        right = transform_provider()

        def wrong(pairs, m, c):
            # one row a pair: variant i = 3's rows take the second fault
            i = np.array([i for i, _ in pairs]).reshape((-1,) + (1,) * np.ndim(c))
            return right(pairs, m, c) + (c % 3 == 1) - (i == 3) * (c % 5 == 0)

        return wrong

    monkeypatch.setattr(harness, "_transform_provider", wrong_provider)
    for which in ("lemma21", "lemma22"):
        (report,) = check_identity_grid(which, n_values=[8], transform=True)
        assert report.status == "fail"
        assert report.witnesses == _loop_grid_witnesses(which, 8, wrong_provider())


def test_sampled_grid_is_reproducible():
    a = check_identity_grid("lemma22", n_values=[15], transform=True)
    b = check_identity_grid("lemma22", n_values=[15], transform=True)
    assert [(r.params, r.status, r.witnesses) for r in a] == [
        (r.params, r.status, r.witnesses) for r in b
    ]
    assert a[0].params["id"] == "transform:sampled"


def test_upper_grid_checks_every_mask(monkeypatch):
    transform_provider = harness._transform_provider
    # f2j on 13 variables is read only by lemma22's f0j at n = 15, so f20
    # wrong at mask 20 moves f00 at masks 2**14 + 20 and 2**14 + 2**13 + 20
    # alone; the 10,000 masks that grid used to draw at seed 0 left out both
    old_draw = {c | 1 << 14 for c in random.Random(15 * 101 + 1).sample(range(1 << 14), 10_000)}
    bad = [(1 << 14) + 20, (1 << 14) + (1 << 13) + 20]
    assert not old_draw & set(bad)

    def wrong_provider():
        right = transform_provider()

        def wrong(pairs, m, c):
            rows = right(pairs, m, c)
            for row, (i, j) in zip(rows, pairs):
                row += ((i, j, m) == (2, 0, 13)) * (c == 20)
            return rows

        return wrong

    monkeypatch.setattr(harness, "_transform_provider", wrong_provider)
    result = run_all(HarnessConfig(workers=1), only=["lemma22"])
    failing = [(r.params, r.witnesses) for r in result.reports if r.status == "fail"]
    # the identity adds f20's coefficient with sign -1 at the first mask
    # (bit 13 clear) and +1 at the second
    values = walsh_transform(sub_function(0, 0, 15)).values
    want = [(f"f00:c={c}", int(values[c]), int(values[c]) + sign) for c, sign in zip(bad, (-1, 1))]
    assert failing == [({"n": 15, "id": "transform:sampled"}, want)]


def _half_axes(n):
    # a half-space's masks as the bit axes the grids hand the evaluator
    return np.ix_([0, 1], [0, 1], [0, 1], range(1 << (n - 4)))


@pytest.mark.parametrize("which", ["lemma21", "lemma22"])
def test_column_sums_match_each_variant(which):
    # a grid evaluates a column's right-hand sides together over the bit
    # axes of a half-space, of one identity or of both, sharing their
    # lower-arity terms; each must equal its variant's own identity at the
    # explicit masks, in the half's mask order once raveled
    top_bit = 0 if which == "lemma21" else 1
    identity = subfn_walsh_top0 if which == "lemma21" else subfn_walsh_top1
    for n in range(8, 17):
        half = 1 << (n - 1)
        masks = np.arange(top_bit * half, (top_bit + 1) * half)
        for provider in (None, harness._transform_provider()):
            for tops in ((top_bit,), (0, 1)):
                rows = [(i, top) for i in range(4) for top in tops]
                sums = recurrences._lowered_sums(n, _half_axes(n), provider, rows)
                for j in range(4):
                    column = list(sums(j))
                    assert [row for row, _ in column] == rows
                    for (i, top), rhs in column:
                        assert rhs.dtype == np.int64 and rhs.shape == (2, 2, 2, 1 << (n - 4))
                        if top == top_bit:
                            want = identity(i, j, n, masks, provider)
                            assert np.array_equal(rhs.reshape(-1), want), (n, i, j, tops)


def test_split_axis_evaluator_matches_explicit_masks_and_the_oracle():
    # on n = 8..12, both identities over the half-space axes, as the paired
    # grid asks for them, equal the explicit-mask calls and the direct
    # oracle on the variant's own table at every mask
    for n in range(8, 13):
        half = 1 << (n - 1)
        rows = [(i, top) for i in range(4) for top in (0, 1)]
        sums = recurrences._lowered_sums(n, _half_axes(n), None, rows)
        for j in range(4):
            own = core.walsh_at_many(core.TableStack.of(sub_function(i, j, n) for i in range(4)),
                                     np.arange(1 << n))
            for (i, top), rhs in sums(j):
                masks = np.arange(top * half, (top + 1) * half)
                identity = subfn_walsh_top1 if top else subfn_walsh_top0
                assert np.array_equal(rhs.reshape(-1), identity(i, j, n, masks)), (n, i, j, top)
                assert np.array_equal(rhs.reshape(-1), own[i, masks]), (n, i, j, top)


def test_paired_grids_give_the_per_grid_witnesses_under_faults(monkeypatch):
    # one wrong bit in three variant tables, each read as a left side and
    # as a lower-arity term of both routes: the paired pass, the pool task
    # of check all, gives the reports of the grids run one at a time, and
    # those are the reports the per-grid passes gave before the grids were
    # paired (10 failing, 330 witnesses with the truncation markers, the
    # digest of their JSON pinned from that code)
    right = harness.sub_function

    def corrupt(i, j, n):
        table = right(i, j, n)
        if (i, j, n) in {(2, 1, 11), (3, 2, 14), (0, 3, 9)}:
            words = table.words.copy()
            words[0] ^= np.uint64(1 << 5)
            table = core.TruthTable(n, words)
        return table

    for module in (harness, recurrences):
        monkeypatch.setattr(module, "sub_function", corrupt)
    cfg = HarnessConfig(workers=1)
    alone = [r for name in harness._GRIDS for r in run_all(cfg, only=[name]).reports]
    paired, _ = harness._run_suite(harness._GRIDS, cfg, {})
    assert _without_elapsed(paired) == _without_elapsed(alone)
    failing = [r for r in paired if r.status == "fail"]
    assert (len(failing), sum(len(r.witnesses) for r in failing)) == (10, 330)
    text = json.dumps([[r.check, r.params, r.status, r.witnesses] for r in paired])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "2963500a72a54204"


@pytest.mark.parametrize("which, column", [("lemma21", [(6, 1), (5, 1), (4, 2)]),
                                           ("lemma22", [(6, 4), (4, 1)])])
@pytest.mark.parametrize("transform", [False, True])
def test_grid_columns_take_one_call_an_arity(monkeypatch, which, column, transform):
    # a column's lower-arity terms come in one provider call an arity, on
    # both providers, and its four left sides as one stack (the n = 8
    # transform stack is one run)
    calls, stacks = [], []
    direct, transform_provider = recurrences._direct_provider, harness._transform_provider

    def counted(provider):
        def call(pairs, m, c):
            calls.append((m, len(pairs)))
            assert [j for _, j in pairs] == [pairs[0][1]] * len(pairs)
            return provider(pairs, m, c)
        return call

    def counted_stack(kernel):
        def call(tables, *masks):
            stacks.append((tables.n, len(tables) if isinstance(tables, core.TableStack) else 0))
            return kernel(tables, *masks)
        return call

    monkeypatch.setattr(recurrences, "_direct_provider", counted(direct))
    monkeypatch.setattr(harness, "_transform_provider", lambda: counted(transform_provider()))
    kernel = "walsh_transform" if transform else "walsh_at_many"
    monkeypatch.setattr(harness, kernel, counted_stack(getattr(harness, kernel)))
    (report,) = check_identity_grid(which, n_values=[8], transform=transform)
    assert report.status == "pass"
    # per column: one call (arity, pairs) for each arity 8 - drop it reads
    assert sorted(calls) == sorted(column * 4)
    assert [rows for m, rows in stacks if m == 8] == [4] * 4


@pytest.mark.parametrize("which", ["lemma21", "lemma22", "lemma21+lemma22"])
def test_transform_grid_arity_working_memory(which):
    # NumPy reports its buffers to tracemalloc.  One n = 16 arity holds its
    # 2**15 int64 masks (2**16 for both grids), one column's lower-arity
    # terms (at most seven: four of 2**14 masks, one of 2**13, two of
    # 2**12), one right-hand side and its sum, a variant's transform with
    # its 1 MiB tile, and the provider's stack and spectra of one call.
    # Measured 2.4 MiB (lemma21), 2.6 MiB (lemma22) and 3.0 MiB (both, one
    # pass), where a provider that kept every spectrum of the arity took
    # 3.9 and 4.3 MiB for one grid; every column's terms, or all 16
    # right-hand sides, alive at once would add 3 MiB or more.
    names = tuple(which.split("+"))
    tracemalloc.start()
    try:
        reports = harness._identity_grids(names, n_values=[16], transform=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.check, r.status) for r in reports] == [(name, "pass") for name in names]
    assert peak < 5 << 20


def test_max_n_produces_skip_reports():
    reports = check_identity_grid("lemma21", n_values=[8, 12], max_n=10)
    assert [r.status for r in reports] == ["pass", "skipped"]
    assert reports[1].witnesses == [("max-n", 10, 12)]
    scan = scan_family([(12, 4, 1)], max_n=10)
    assert scan[0].status == "skipped"


def test_every_arity_check_skips_above_max_n():
    reports = [
        *check_identity_grid("lemma21", n_values=[9], max_n=8),
        *check_family_identity(n_values=[9], max_n=8),
        *check_subfn_zero(n_values=[9], max_n=8),
        *check_family_zero(n_values=[9], max_n=8),
        *check_bound(n_values=[9], max_n=8),
    ]
    assert [(r.check, r.params) for r in reports] == [
        ("lemma21", {"n": 9, "id": "direct"}), ("eq23", {"n": 9}), ("eq26", {"n": 9}),
        ("thm24", {"n": 9}), ("bound", {"n": 9}),
    ]
    for report in reports:
        assert (report.status, report.witnesses, report.elapsed_ms) == (
            "skipped", [("max-n", 8, 9)], 0)
    # the factor cases are n = 10..14, all above the cap
    factor = check_factorization(max_n=8)
    assert [(r.check, r.params, r.status, r.witnesses, r.elapsed_ms) for r in factor] == [
        ("factor", {"n": n, "e": e}, "skipped", [("max-n", 8, n)], 0) for n, e in harness.FACTOR_CASES]


def test_family_identity_witnesses_are_capped(monkeypatch):
    right = harness.family_walsh_via_subfns
    monkeypatch.setattr(harness, "family_walsh_via_subfns", lambda n, masks: right(n, masks) + 1)
    (report,) = check_family_identity(n_values=[7])
    values = walsh_transform(monomial_rsbf(MonomialRsbfSpec(7, 4, 1))).values
    # all 128 masks differ: the first 32 in mask order, then the marker
    assert report.status == "fail"
    assert report.witnesses == [(c, int(values[c]), int(values[c]) + 1) for c in range(32)] + [
        ("more-witnesses", 128 - 32, "truncated")]


def test_factorization_logs_peak_survey(caplog):
    with caplog.at_level(logging.INFO, logger="rsbf.harness"):
        reports = check_factorization()
    assert [r.status for r in reports] == ["pass"] * len(harness.FACTOR_CASES)
    assert any("signed-strict=True" in record.getMessage() for record in caplog.records)


def test_factorization_witnesses_keep_order_and_cap(monkeypatch):
    right = harness.factored_walsh

    def wrong(spec, masks):
        return right(spec, masks) + (masks % 3 == 1)

    monkeypatch.setattr(harness, "factored_walsh", wrong)
    reports = check_factorization()
    assert len(reports) == len(harness.FACTOR_CASES)
    for (n, e), report in zip(harness.FACTOR_CASES, reports):
        values = walsh_transform(harness.monomial_rsbf(harness.MonomialRsbfSpec(n, 4, e))).values
        witnesses = [(c, int(values[c]), int(values[c]) + 1) for c in range(1 << n) if c % 3 == 1]
        assert report.status == "fail"
        assert report.witnesses == witnesses[:32] + [
            ("more-witnesses", len(witnesses) - 32, "truncated")]


def test_bound_witnesses_are_capped(monkeypatch):
    # with the bound forced to 0 every (variant, mask) with c_1 set fails:
    # 16 variants times 512 masks at n = 10
    monkeypatch.setattr(recurrences, "family_zero_value", lambda n: 0)
    uncapped = recurrences.spectral_bound_check(10)
    assert len(uncapped) == 16 * 512
    (report,) = check_bound(n_values=[10])
    assert (report.check, report.params, report.status) == ("bound", {"n": 10}, "fail")
    assert report.witnesses == uncapped[:32] + [("more-witnesses", 16 * 512 - 32, "truncated")]


def test_corrupted_bound_stack_fails_route_stack(monkeypatch):
    # n = 10 splits its 7 steps 3 + 4; the high stack's last matrix with
    # its largest entry zeroed moves that stack's checksum, and no row
    # bound comes near the family value at n = 10
    right = recurrences._stack

    def wrong(l, m):
        stack = right(l, m)
        if m == 4:
            last = stack[..., -1]
            last[np.unravel_index(np.argmax(np.abs(last)), last.shape)] = 0
        return stack

    assert [r.status for r in check_bound(n_values=[10], seed=1)] == ["pass"]
    monkeypatch.setattr(recurrences, "_stack", wrong)
    (report,) = check_bound(n_values=[10])
    assert report.status == "fail"
    assert [w[0] for w in report.witnesses] == ["route:stack:n=10"]
    want, got = report.witnesses[0][1:]
    assert want != got and 0 <= min(want, got) and max(want, got) < transfer._PRIME


def test_scan_family_workers_match_serial():
    strip = lambda rs: [(r.check, r.params, r.status, r.witnesses) for r in rs]
    # the second window crosses the full-route cross-check cap of n = 16
    for cases in (sweep_cases((4, 9), None, 4), sweep_cases((15, 18), (1, 4), 4)):
        serial = scan_family(cases, workers=1)
        pooled = scan_family(cases, workers=2)
        assert strip(serial) == strip(pooled)


def _decompositions(cases):
    """The case -> cycle_decompose map that scan_family forms once a case."""
    return {case: cycle_decompose(case[0], case[2]) for case in cases}


def test_factored_cases_match_the_full_route():
    # every default-window case up to the cross-check cap, l = 2..6, plus
    # n = 17, 18 at every stride; (6, 4, 3) has three 2-variable cycles, on
    # each of which the monomials x0 x1 and x1 x0 cancel to 0
    cases = [
        case
        for l in range(2, 7)
        for case in sweep_cases(*harness._sweep_window(l), l=l)
        if case[0] <= harness.CROSS_CHECK_MAX_N
    ]
    cases += sweep_cases((17, 18), None, 4)
    assert (6, 4, 3) in cases
    decs = _decompositions(cases)
    factors = {
        key: harness._factor_summary(*key, cycles)
        for key, cycles in harness._factor_tasks(decs).items()
    }
    failing = 0
    for case in cases:
        n, l, e = case
        factor = factors[(decs[case].t, l)]
        wt, nl, peak, k_abs, abs_max, zero = harness._factored_case(decs[case], factor)
        _, _, _, *full, _ = harness._family_case(case)
        assert [wt, nl, peak, abs_max, zero] == full[:3] + full[4:], case
        if not peak:
            failing += 1
            assert k_abs == full[3], case
    assert failing > 17  # the e = n parity cases and the quadratic findings


def test_factored_route_holds_for_any_factor(monkeypatch):
    # The factored route reads only the cycle structure, so it must match the
    # full route for any function on t variables repeated over the cycles.
    # Random factors put the peak off S(0), give negative extremes, and tie
    # masks that rank differently under different strides.
    rng = random.Random(11)
    factors = {t: from_int(t, rng.getrandbits(1 << t)) for t in range(1, 13)}
    outputs = {t: np.array([bit(g, y) for y in range(1 << t)], dtype=np.uint8)
               for t, g in factors.items()}

    def member(spec):
        dec = cycle_decompose(spec.n, spec.e)
        x = np.arange(1 << spec.n)
        h = np.zeros(1 << spec.n, dtype=np.uint8)
        for cycle in dec.cycles:
            h ^= outputs[dec.t][sum(((x >> v) & 1) << j for j, v in enumerate(cycle))]
        packed = np.packbits(h, bitorder="little").tobytes()
        return from_int(spec.n, int.from_bytes(packed, "little"))

    monkeypatch.setattr(harness, "monomial_rsbf", member)
    # these tables have no monomial set to key them by: key each by its
    # words, so that equal keys still mean equal tables
    monkeypatch.setattr(harness, "anf_key", lambda spec: (spec.n, member(spec).words.tobytes()))
    reports = scan_family([(n, 4, e) for n in range(2, 13) for e in range(1, n + 1)])
    witnesses = [w for r in reports for w in r.witnesses]
    assert [w for w in witnesses if w[0].startswith("route:")] == []
    assert sum(w[0].startswith("peak:") for w in witnesses) > 40


def test_wrong_factor_fails_cross_checked_case(monkeypatch):
    # S(0) of the t = 9 factor moved by 2 in its own spectrum, where the
    # route checks it; (9, 4, 2) sits on that factor but transforms a
    # stride-2 table, so its full route stays right
    right, right_blocks = harness._factor_summary, harness.walsh_blocks
    factor_table = harness.monomial_rsbf(harness.MonomialRsbfSpec(9, 4, 1))

    def wrong(t, l, placements, seed):
        factor = right(t, l, placements, seed)
        return factor._replace(top=factor.top - 2) if t == 10 else factor

    def wrong_blocks(table):
        for offset, block in right_blocks(table):
            if table == factor_table and offset == 0:
                block = block.copy()
                block[0] += 2
            yield offset, block

    cases = [(8, 4, 1), (9, 4, 2), (10, 4, 1)]
    # _family_case gives (n, l, e, weight, nl, peak, k_abs, abs_max, W(0), ms)
    zero, nl = harness._family_case(cases[1])[8], harness._family_case(cases[2])[4]
    monkeypatch.setattr(harness, "_factor_summary", wrong)
    monkeypatch.setattr(harness, "walsh_blocks", wrong_blocks)
    eight, nine, ten = scan_family(cases)
    assert eight.status == "pass"
    assert ("route:factor-zero:t=9", zero, zero + 2) in nine.witnesses
    assert ("route:zero", zero, zero + 2) in nine.witnesses
    assert ("route:nl", nl, nl + 1) in ten.witnesses


def test_cases_with_one_table_share_its_full_transform(monkeypatch):
    # (5, 4, 1) and (5, 4, 2) build the same words (every 4-subset of 5
    # variables), (7, 4, 3) and (7, 4, 4) too (strides e and n - e), and
    # (7, 4, 1) its own; one full transform serves each table, one job
    # each arity transforms its distinct tables, and every case sharing a
    # table is compared with its result, field by field
    right = harness._family_cases
    calls = []

    def wrong_zero(cases, stack):
        calls.append(list(cases))
        assert [monomial_rsbf(MonomialRsbfSpec(*case)) for case in cases] == [
            core.TruthTable(stack.n, words) for words in stack.words]
        return [(*fields[:8], fields[8] + 2, fields[9]) for fields in right(cases, stack)]

    cases = [(5, 4, 1), (5, 4, 2), (7, 4, 1), (7, 4, 3), (7, 4, 4)]
    # the one-case form is the job on that case's table alone
    for case in cases:
        assert harness._family_case(case)[:9] == right(
            [case], core.TableStack.of([monomial_rsbf(MonomialRsbfSpec(*case))]))[0][:9]
    monkeypatch.setattr(harness, "_family_cases", wrong_zero)
    reports = scan_family(cases)
    assert calls == [[(5, 4, 1)], [(7, 4, 1), (7, 4, 3)]]
    for report in reports:
        zero = dict((w[0], w[1]) for w in report.witnesses)["route:zero"]
        assert ("route:zero", zero, zero - 2) in report.witnesses


def test_scan_family_builds_and_decomposes_each_case_once(monkeypatch):
    # a cross-checked table is built once for each anf_key, for the first
    # case with that key, and is the one its arity's job transforms; each
    # case's cycles are found once; the butterfly factors build their own
    # stride-1 tables
    built, decomposed = [], []
    build, decompose = harness.monomial_rsbf, harness.cycle_decompose
    monkeypatch.setattr(harness, "monomial_rsbf",
                        lambda spec: built.append((spec.n, spec.l, spec.e)) or build(spec))
    monkeypatch.setattr(harness, "cycle_decompose",
                        lambda n, e: decomposed.append((n, e)) or decompose(n, e))
    cases = sweep_cases((4, 9), None, 4)
    reports = scan_family(cases)
    assert len(reports) == len(cases)
    assert sorted(decomposed) == sorted((n, e) for n, _, e in cases)
    by_key, by_table = {}, {}
    for case in cases:
        spec = MonomialRsbfSpec(*case)
        by_key.setdefault(families.anf_key(spec), []).append(case)
        by_table.setdefault((case[0], monomial_rsbf(spec).words.tobytes()), []).append(case)
    # equal keys are equal tables: the 39 cases have 21 of them
    assert sorted(by_key.values()) == sorted(by_table.values()) and len(by_key) == 21
    firsts = Counter(group[0] for group in by_key.values())
    factors = harness._factor_tasks(_decompositions(cases))
    assert Counter(built) == firsts + Counter((t, l, 1) for t, l in factors)


def test_seeded_spot_check_catches_wrong_zero_above_cap(monkeypatch):
    right = harness._factor_summary

    def wrong(t, l, placements, seed):
        # wrong in a way the factor cannot see: its route checks all held
        factor = right(t, l, placements, seed)
        return factor._replace(zero=factor.zero + 2)

    monkeypatch.setattr(harness, "_factor_summary", wrong)
    cases = sweep_cases((17, 18), (1, 4), 4)

    def spotted(seed):
        reports = scan_family(cases, seed=seed)
        assert all(r.status == "fail" for r in reports)
        return [
            (r.params["n"], r.params["e"], w)
            for r in reports
            for w in r.witnesses
            if w[0] == "route:popcount-zero"
        ]

    first = spotted(3)
    assert [n for n, _, _ in first] == [17, 18]  # one case per arity
    # e = 1 is the factor itself, whose table route:factor-zero counts
    assert all(e != 1 for _, e, _ in first)
    for n, e, (_, want, got) in first:
        spec = harness.MonomialRsbfSpec(n, 4, e)
        assert want == (1 << n) - 2 * harness.weight(harness.monomial_rsbf(spec)) != got
    assert spotted(3) == first


def test_no_spot_check_rebuilds_a_factor_table(monkeypatch):
    # at e = 1 each case's table is its factor's own, so these arities
    # have no case to spot-check
    calls = []
    right = harness._table_zero
    monkeypatch.setattr(harness, "_table_zero", lambda case: calls.append(case) or right(case))
    reports = scan_family(sweep_cases((17, 18), (1, 1), 4))
    assert [r.status for r in reports] == ["pass", "pass"]
    assert calls == []


def _full_reduction(t, l, placements):
    """What the butterfly route must report, from the whole int32 spectrum:
    the _Factor fields zero, top, bottom and lowest_ties."""
    tbl = harness.monomial_rsbf(harness.MonomialRsbfSpec(t, l, 1))
    values = walsh_transform(tbl).values
    wide = values.astype(np.int64)
    top, bottom = int(values.max()), int(values.min())
    peak = max(top, -bottom)
    lowest_ties = None
    if peak != values[0]:
        ties = np.flatnonzero(np.abs(wide) == peak)
        lowest_ties = {cycle: int(ties[np.argmin(harness._place(ties, cycle))])
                       for cycle in placements}
    return (int(values[0]), top, bottom, lowest_ties)


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("l", range(2, 7))
def test_factor_summary_matches_full_spectrum_reduction(monkeypatch, l, small_blocks):
    # t = 17..21: one block up to the blocking threshold and 8 blocks at
    # t = 21; with small blocks (2**14 masks from t = 17), every t runs
    # blocked, 8 to 64 blocks.  l = 2 has S(0) = 0 and its peak (1024 at
    # t = 19) tied at a quarter of the masks, in every block.  l = 3, 4 at
    # t = 21 take the certificate in _factor_summary, so the butterfly
    # route is called by itself.
    if small_blocks:
        monkeypatch.setattr(core, "_BLOCK_BITS", 14)
        monkeypatch.setattr(core, "_BLOCKED_ABOVE", 16)
    for t in range(17, 22):
        # first cycles as strides place them: spread s apart, and reversed
        placements = tuple(tuple(s * (u * j % t) for j in range(t))
                           for s, u in ((1, 1), (3, 1), (1, t - 1)))
        got = harness._butterfly_factor(t, l, placements)
        assert tuple(got[:4]) == _full_reduction(t, l, placements), (t, l)
        assert (got.witnesses, got.route, got.rows) == ((), "butterfly", None)
        if not harness._certificate_route(t, l):
            assert harness._factor_summary(t, l, placements)[:-1] == got[:-1]
    if l == 2:
        assert harness._factor_summary(19, 2, (tuple(range(19)),))[:3] == (0, 1024, -1024)


def test_factor_summary_ties_follow_the_running_peak(monkeypatch):
    # Synthetic spectra of t = 5 in 4 blocks with values in -3..3, half of
    # them with a first block in -2..2: the peak then often first shows in
    # a later block, where the ties kept so far must be dropped, and ties
    # fall in several blocks.
    t = 5
    placements = (tuple(range(t)), (0, 3, 1, 4, 2), (4, 3, 2, 1, 0))
    rng = np.random.default_rng(5)
    monkeypatch.setattr(harness, "monomial_rsbf", lambda spec: constant(t, 0))
    grew = 0
    for i in range(200):
        values = rng.integers(-3, 4, 1 << t).astype(np.int32)
        if i % 2:
            values[:8] = np.clip(values[:8], -2, 2)
        monkeypatch.setattr(harness, "walsh_blocks",
                            lambda table: ((x, values[x : x + 8]) for x in range(0, 1 << t, 8)))
        factor = harness._factor_summary(t, 4, placements)
        peak = int(np.abs(values).max())
        grew += peak > np.abs(values[:8]).max()
        assert (factor.zero, factor.top, factor.bottom) == (values[0], values.max(), values.min())
        if peak == values[0]:
            assert factor.lowest_ties is None
            continue
        ties = np.flatnonzero(np.abs(values) == peak)
        assert factor.lowest_ties == {
            cycle: int(ties[np.argmin(harness._place(ties, cycle))]) for cycle in placements
        }
    assert grew > 50


def test_factor_summary_working_memory():
    # NumPy reports its buffers to tracemalloc.  At t = 22 the blocked
    # route may hold the int8 store (1 byte a mask), the packed table, its
    # bytes while they unpack and the words of its build (1/8 byte a mask
    # each, not all at once), one int32 block and one tile (1 MiB each) and
    # the int64 squares of one tie block (512 KiB), plus 256 KiB of slack.
    # Measured at l = 6, which stays on the butterfly: 7,906,968 B against
    # 8,126,464 B allowed, under the 16 MiB of a full int32 spectrum, which
    # does not fit.
    t = 22
    placements = (tuple(range(t)),)
    tracemalloc.start()
    try:
        factor = harness._factor_summary(t, 6, placements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (factor.route, factor.witnesses) == ("butterfly", ())
    size = 1 << t
    assert peak < size + 2 * size // 8 + (2 << 20) + (512 << 10) + (256 << 10) < 4 * size


def _blocks_then(mutate):
    """walsh_blocks with mutate(list of block copies) run on its output."""
    right = core.walsh_blocks

    def wrong(table):
        blocks = [(offset, block.copy()) for offset, block in right(table)]
        mutate(blocks)
        return iter(blocks)

    return wrong


def test_parseval_fails_a_factor_with_one_wrong_coefficient(monkeypatch):
    # one coefficient moved by 2 in the last block of the t = 21 factor:
    # Parseval's sum moves by 4 v + 4, and every case on it fails; l = 6
    # stays on the butterfly, the only route that sums squares
    case = (21, 6, 1)
    mask = (1 << 21) - 5

    def flip(blocks):
        offset, block = blocks[-1]
        block[mask - offset] += 2

    value = int(walsh_transform(harness.monomial_rsbf(harness.MonomialRsbfSpec(*case[:1], 6, 1)))
                .values[mask])
    assert scan_family([case])[0].status == "pass"
    monkeypatch.setattr(harness, "walsh_blocks", _blocks_then(flip))
    (report,) = scan_family([case])
    assert report.status == "fail"
    assert ("route:parseval:t=21", 4**21, 4**21 + 4 * value + 4) in report.witnesses


def test_direct_sums_fail_a_factor_with_blocks_out_of_place(monkeypatch):
    # A random t = 21 factor, whose signed max lies outside block 0, with
    # that block swapped with its neighbour: every value, so S(0) and
    # Parseval's sum, stays, but the max is reported at a mask where the
    # direct oracle disagrees.  l = 6 keeps the factor on the butterfly;
    # the certificate never reads the patched table.
    t = 21
    factor = from_int(t, random.Random(t).getrandbits(1 << t))
    monkeypatch.setattr(harness, "monomial_rsbf", lambda spec: factor)
    route = lambda report: [w for w in report.witnesses if w[0].startswith("route:")]
    assert route(scan_family([(t, 6, 1)])[0]) == []
    values = walsh_transform(factor).values
    b = int(np.argmax(values)) >> 18
    other = b + 1 if b + 1 < 8 else b - 1
    assert 0 not in (b, other)

    def swap(blocks):
        (x, u), (y, v) = blocks[b], blocks[other]
        blocks[b], blocks[other] = (x, v), (y, u)

    monkeypatch.setattr(harness, "walsh_blocks", _blocks_then(swap))
    (report,) = scan_family([(t, 6, 1)])
    assert [w[0] for w in route(report)] == ["route:direct:t=21"]
    assert route(report)[0][2] == int(values.max())


def test_certified_factors_give_the_butterfly_stream(monkeypatch, caplog):
    # With the certificate's threshold lowered to 16, l = 3..5 factors take
    # it from t = 17 and l = 6 stays on the butterfly; the cases read the
    # same fields as on the butterfly, stride 2 included (two cycles at
    # even n), and every factor logs its route.
    strip = lambda rs: [(r.check, r.params, r.status, r.witnesses) for r in rs]
    monkeypatch.setattr(harness, "_BLOCKED_ABOVE", 16)
    cases = [(n, l, e) for l in (3, 4, 5, 6) for n in range(17, 23) for e in (1, 2)]
    with caplog.at_level(logging.INFO, logger="rsbf.harness"):
        certified = scan_family(cases)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("factor t=")]
    assert "factor t=17 l=3: certificate route, kept rows 4" in "\n".join(lines)
    assert "factor t=17 l=6: butterfly route, kept rows -" in "\n".join(lines)
    for l, rows in ((3, 4), (4, 8), (5, 16)):
        # t = 17..22, one factor each
        assert sum(f"l={l}: certificate route, kept rows {rows}," in line for line in lines) == 6
    assert len(lines) == len(harness._factor_tasks(_decompositions(cases)))
    monkeypatch.setattr(harness, "_certificate_route", lambda t, l: False)
    butterfly = scan_family(cases)
    assert strip(certified) == strip(butterfly)
    assert all(r.status == "pass" for r in certified)


def test_l5_factor_at_t21_gives_the_butterfly_values_by_the_certificate():
    # l = 5 takes the certificate from t = 21, l = 6 never does up to the cap
    assert [harness._certificate_route(t, 5) for t in (20, 21, 28)] == [False, True, True]
    assert not any(harness._certificate_route(t, 6) for t in range(1, 29))
    placements = (tuple(range(21)),)
    cert = harness._factor_summary(21, 5, placements)
    butterfly = harness._butterfly_factor(21, 5, placements)
    assert (cert.route, cert.rows, cert.witnesses) == ("certificate", 16, ())
    assert (butterfly.route, butterfly.witnesses) == ("butterfly", ())
    peak = lambda f: max(f.top, -f.bottom)
    assert (cert.zero, cert.top, peak(cert)) == (butterfly.zero, butterfly.top, peak(butterfly))
    assert butterfly.lowest_ties is None  # the peak is S(0), as the certificate says


def test_l3_l4_factors_above_the_cross_check_cap_are_certified():
    # l = 3 and 4 take the certificate from t = 17, above the arities whose
    # cases the full transform cross-checks, with the butterfly's S(0),
    # max and peak; l = 5 at t = 20 and l = 2 below t = 21 stay on the
    # butterfly
    assert [harness._certificate_route(t, 4) for t in (16, 17, 20)] == [False, True, True]
    for t in range(17, 21):
        placements = (tuple(range(t)),)
        for l in (3, 4):
            cert = harness._factor_summary(t, l, placements)
            butterfly = harness._butterfly_factor(t, l, placements)
            assert (cert.route, cert.witnesses, butterfly.witnesses) == ("certificate", (), ())
            assert (cert.zero, cert.top, cert.peak) == (butterfly.zero, butterfly.top, butterfly.peak)
    assert harness._factor_summary(20, 5, (tuple(range(20)),)).route == "butterfly"
    assert harness._factor_summary(20, 2, (tuple(range(20)),)).route == "butterfly"


def test_certificate_falls_back_to_the_butterfly(monkeypatch):
    # l = 2 at t = 21 keeps 1024 rows, more than 2, so the butterfly runs
    # and reports what it reports alone
    placements = (tuple(range(21)),)
    factor = harness._factor_summary(21, 2, placements)
    assert (factor.route, factor.rows, factor.witnesses) == ("butterfly", 1024, ())
    assert tuple(factor[:4]) == _full_reduction(21, 2, placements)
    # the t = 1 parity keeps its one row, where |S(1)| = 2 beats S(0) = 0
    monkeypatch.setattr(harness, "_certificate_route", lambda t, l: True)
    factor = harness._factor_summary(1, 4, ((0,),))
    assert (factor.route, factor.rows, factor.witnesses) == ("butterfly", 1, ())
    assert tuple(factor[:4]) == _full_reduction(1, 4, ((0,),)) == (0, 2, 0, {(0,): 1})


def test_corrupted_stack_entry_fails_route_stack(monkeypatch):
    # the last low matrix of the t = 21 factor (h = 10) with its largest
    # entry zeroed: its row bound can only fall, so the certificate still
    # holds, but the low stack's checksum moves
    right = transfer._stack

    def wrong(l, m):
        stack = right(l, m)
        if m == 10:
            last = stack[..., -1]
            last[np.unravel_index(np.argmax(np.abs(last)), last.shape)] = 0
        return stack

    case = (21, 4, 1)
    assert scan_family([case])[0].status == "pass"
    monkeypatch.setattr(transfer, "_stack", wrong)
    (report,) = scan_family([case])
    assert report.status == "fail"
    assert [w[0] for w in report.witnesses] == ["route:stack:t=21"]
    want, got = report.witnesses[0][1:]
    assert want != got and 0 <= min(want, got) and max(want, got) < transfer._PRIME


def test_wrong_kept_row_value_fails_route_direct(monkeypatch):
    right = harness.peak_certificate

    def wrong(*args, **kwargs):
        cert = right(*args, **kwargs)
        return cert._replace(value=cert.value + 2)

    case = (21, 4, 1)
    cert = right(21, 4)
    want = int(harness.walsh_at_many(harness.monomial_rsbf(harness.MonomialRsbfSpec(21, 4, 1)),
                                     [cert.mask])[0])
    monkeypatch.setattr(harness, "peak_certificate", wrong)
    (report,) = scan_family([case])
    assert report.witnesses == [("route:direct:t=21", want, want + 2)]


def test_full_stride_cases_fail_and_nothing_else_does():
    reports = scan_family(sweep_cases((4, 12), None, 4), check_name="theorem")
    for report in reports:
        n, e = report.params["n"], report.params["e"]
        if e == n:
            assert report.status == "fail"
            assert {w[0] for w in report.witnesses} >= {"weight-vs-nonlinearity"}
        else:
            assert report.status == "pass", report.params


def test_cubic_boundary_case():
    # e = n only happens at n = 4 inside the cubic window, and it is parity there
    reports = scan_family(sweep_cases((4, 12), (1, 4), 3), check_name="theorem")
    failing = [r.params for r in reports if r.status == "fail"]
    assert failing == [{"n": 4, "l": 3, "e": 4}]


def test_counterexample_search_finds_quadratic_cases():
    case_reports, summary = counterexample_search(n_range=(2, 8))
    assert summary.status == "pass"
    found = [r for r in case_reports if r.status == "fail"]
    assert found
    for report in found:
        assert report.params["l"] == 2
        labels = [w[0] for w in report.witnesses]
        assert "weight-vs-nonlinearity" in labels or labels[0].startswith("peak:")


def test_counterexample_summary_fails_when_nothing_ran():
    case_reports, summary = counterexample_search(n_range=(2, 8), max_n=1)
    assert all(r.status == "skipped" for r in case_reports)
    assert summary.status == "fail"


def test_run_all_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_all(HarnessConfig(), only=["tablez"])
    # a window every chosen suite must read, checked before anything runs
    with pytest.raises(ValueError, match=r"^suites \['table1'\] read no n_range window$"):
        run_all(HarnessConfig(), only=["bound", "table1"], n_range=(4, 5))
    # and a window below a chosen suite's domain, also before anything runs
    with pytest.raises(ValueError, match=r"^bound takes n_range from 4 up, got 0\.\.2$"):
        run_all(HarnessConfig(), only=["bound"], n_range=(0, 2))
    with pytest.raises(ValueError, match=r"^counterexample takes e_range from 1 up, got 0\.\.1$"):
        run_all(HarnessConfig(), only=["counterexample"], n_range=(2, 3), e_range=(0, 1))
    with pytest.raises(ValueError, match=r"^conjecture takes l from 2 up, got 1$"):
        run_all(HarnessConfig(), only=["conjecture"], l=1)


def test_config_validation():
    with pytest.raises(ValueError):
        HarnessConfig(max_n=0)
    with pytest.raises(ValueError):
        HarnessConfig(max_n=99)
    with pytest.raises(ValueError):
        HarnessConfig(workers=-1)
    assert HarnessConfig(workers=0).resolved_workers() >= 1


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    assert usable_cpus() == 1
    assert HarnessConfig(workers=0).resolved_workers() == 1
    assert HarnessConfig(workers=3).resolved_workers() == 3
    # platforms without the affinity call fall back to the CPU count
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 8
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_run_all_subset_is_deterministic():
    first = run_all(HarnessConfig(), only=["table1", "table2", "bound", "factor"])
    second = run_all(HarnessConfig(), only=["table1", "table2", "bound", "factor"])
    strip = lambda rs: [(r.check, r.params, r.status, r.witnesses) for r in rs]
    assert strip(first.reports) == strip(second.reports)
    assert first.exit_code == 0
    assert [table.name for table in first.tables] == ["table1", "table2"]


def _without_elapsed(reports):
    return [(r.check, r.params, r.status, r.witnesses) for r in reports]


def test_check_all_pooled_equals_in_process():
    serial = run_all(HarnessConfig(max_n=10, workers=1))
    pooled = run_all(HarnessConfig(max_n=10, workers=2))
    assert _without_elapsed(pooled.reports) == _without_elapsed(serial.reports)
    assert pooled.tables == serial.tables
    assert pooled.exit_code == serial.exit_code == 1


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the size asked for and
    runs each task at submit, in this process; ``lag`` delays every
    result, as a parent waiting on a busy pool would see it."""

    def __init__(self, sizes: list, lag: float = 0.0):
        self.sizes, self.lag = sizes, lag

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        lag, plain = self.lag, future.result
        future.result = lambda: time.sleep(lag) or plain()
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pools_are_capped_at_their_task_count(monkeypatch):
    sizes: list = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool(sizes))
    cases = sweep_cases((4, 6), (1, 2), 4)
    reports = scan_family(cases, workers=10**6)
    # one job per distinct factor plus one full-route job per arity (n <=
    # 16) for its distinct tables: (4, 4, 1) and (4, 4, 2) are both 0, and
    # (5, 4, 1) and (5, 4, 2) both take every 4-subset of the 5 variables
    tables = {(case[0], monomial_rsbf(MonomialRsbfSpec(*case)).words.tobytes()) for case in cases}
    assert len(tables) == len(cases) - 2
    arities = {n for n, _ in tables}
    assert sizes == [len(harness._factor_tasks(_decompositions(cases))) + len(arities)]
    assert _without_elapsed(reports) == _without_elapsed(scan_family(cases, workers=1))
    sizes.clear()
    chosen = ["table2", "bound", "theorem"]
    result = run_all(HarnessConfig(max_n=8, workers=10**6), only=chosen)
    # one pool of one process per suite; the theorem sweep inside its task
    # runs in process, so no second pool opens
    assert sizes == [3]
    serial = run_all(HarnessConfig(max_n=8, workers=1), only=chosen)
    assert _without_elapsed(result.reports) == _without_elapsed(serial.reports)


def test_suite_log_time_is_the_suites_own(monkeypatch, caplog):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool([], lag=0.25))
    with caplog.at_level(logging.INFO, logger="rsbf.harness"):
        run_all(HarnessConfig(workers=2), only=["table2", "eq26"])
    times = {}
    for record in caplog.records:
        if record.getMessage().startswith("suite "):
            name, ms = record.args
            times[name] = ms
    # each suite runs in a few ms; the parent's 250 ms waits are not counted
    assert set(times) == {"table2", "eq26"}
    assert all(ms < 200 for ms in times.values())


def test_pooled_suite_failure_reaches_the_caller(monkeypatch):
    def missing(which):
        raise FileNotFoundError(f"no stored table{which}")

    # the pool's children are forked, so they inherit the patched loader
    monkeypatch.setattr(goldens, "load_reference_table", missing)
    errors = []
    for workers in (1, 2):
        with pytest.raises(OSError) as caught:
            run_all(HarnessConfig(workers=workers), only=["table1", "table2"])
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is FileNotFoundError
    assert multiprocessing.active_children() == []


def test_suite_records():
    suites = harness.SUITES
    assert {name: suite.n_floor for name, suite in suites.items()} == {
        "table1": 1, "table2": 1, "lemma21": 8, "lemma22": 8, "eq23": 7, "eq26": 8, "thm24": 8,
        "bound": 4, "factor": 1, "theorem": 1, "cubic": 1, "conjecture": 1, "counterexample": 1,
    }
    assert all(suite.floor("l") == 2 and suite.floor("e_range") == 1 for suite in suites.values())
    assert [name for name, suite in suites.items() if suite.table] == ["table1", "table2"]
    # the windows README lists: --n-range for every suite but table1, table2
    # and factor, --e-range for the sweeps, --l for theorem and conjecture
    sweep = ("l", "n_range", "e_range")
    assert {name: suite.windows for name, suite in suites.items()} == {
        "table1": (), "table2": (), "lemma21": ("n_range",), "lemma22": ("n_range",),
        "eq23": ("n_range",), "eq26": ("n_range",), "thm24": ("n_range",), "bound": ("n_range",),
        "factor": (), "theorem": sweep, "cubic": sweep[1:], "conjecture": sweep,
        "counterexample": sweep[1:],
    }


def test_run_all_pools_suites_longest_first(monkeypatch):
    submitted = []

    def inline(calls, workers):
        submitted.extend(call[1] for call in calls)
        return [fn(*args) for fn, *args in calls]

    monkeypatch.setattr(harness, "_pooled", inline)
    # at max_n = 1 every case but the two tables is skipped
    result = run_all(HarnessConfig(max_n=1, workers=2))
    # the two identity grids are one task, at lemma21's rank
    assert submitted == [
        ("conjecture",), ("lemma21", "lemma22"), ("theorem",), ("cubic",), ("counterexample",),
        ("eq23",), ("bound",), ("table1",), ("thm24",), ("table2",), ("factor",), ("eq26",),
    ]
    # the records still come back in SUITES order, the tables beside the reports
    assert [t.name for t in result.tables] == ["table1", "table2"]
    assert [r.check for r in result.reports[:2]] == ["table1", "table2"]


def test_suite_tasks_are_picklable():
    cfg = HarnessConfig(max_n=10, workers=1)
    for name in harness.SUITES:
        task = (harness._run_suite, (name,), cfg, {})
        assert pickle.loads(pickle.dumps(task)) == task


def test_quadratic_findings_do_not_gate_run_all():
    result = run_all(HarnessConfig(max_n=10), only=["counterexample"])
    per_case_fails = [
        r for r in result.reports if r.status == "fail" and "n" in r.params
    ]
    assert per_case_fails  # the findings are there
    assert result.exit_code == 0  # but the run is still considered clean


def test_route_fault_in_a_quadratic_case_gates(monkeypatch):
    summary_of = harness._factor_summary

    def faulty(t, *args):
        factor = summary_of(t, *args)
        return factor._replace(witnesses=factor.witnesses + ((f"route:parseval:t={t}", 4**t, 0),))

    monkeypatch.setattr(harness, "_factor_summary", faulty)
    window = {"n_range": (3, 5), "e_range": (1, 1)}
    result = run_all(HarnessConfig(workers=1), only=["counterexample"], **window)
    *cases, summary = result.reports
    # n = 4 fails on the route witness alone; n = 3 and 5 are findings
    # unpatched, and now carry the route witness beside them
    assert [r.params["n"] for r in cases] == [3, 4, 5]
    assert cases[1].witnesses == [("route:parseval:t=4", 256, 0)]
    # a case with a route witness is a fault: it gates, and is no finding
    assert result.failures == result.reports
    assert summary.status == "fail"
    assert result.exit_code == 1
