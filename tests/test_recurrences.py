import numpy as np
import pytest

from rsbf import (
    MissingBaseEntry,
    MonomialRsbfSpec,
    SpectralBaseTable,
    SpectrumPeaks,
    WalshSpectrum,
    check_bound,
    family_walsh_via_subfns,
    family_zero_recurrence,
    family_zero_value,
    monomial_rsbf,
    spectral_bound_check,
    sub_function,
    subfn_walsh_top0,
    subfn_walsh_top1,
    subfn_zero_recurrence,
    walsh_at,
    walsh_transform,
    weight,
)

from rsbf import core, families, harness, recurrences, transfer

PAIRS = [(i, j) for i in range(4) for j in range(4)]


def test_pinned_identity_values():
    assert subfn_walsh_top0(3, 3, 8, 0) == 12
    assert subfn_walsh_top1(0, 0, 8, 128) == 12
    assert subfn_walsh_top1(3, 0, 8, 128) == 132
    assert family_walsh_via_subfns(10, 0) == 624


def test_identity_argument_validation():
    with pytest.raises(ValueError):
        subfn_walsh_top0(0, 0, 8, 128)  # top bit must be clear
    with pytest.raises(ValueError):
        subfn_walsh_top1(0, 0, 8, 0)  # top bit must be set
    with pytest.raises(ValueError):
        subfn_walsh_top0(4, 0, 8, 0)
    with pytest.raises(ValueError):
        subfn_walsh_top0(0, 0, 7, 0)  # needs room to drop four variables
    with pytest.raises(IndexError):
        subfn_walsh_top0(0, 0, 8, 1 << 9)
    with pytest.raises(ValueError):
        family_walsh_via_subfns(6, 0)


def test_top0_identity_exhaustive_small():
    for n in (8, 9):
        for i, j in PAIRS:
            tbl = sub_function(i, j, n)
            for c in range(1 << (n - 1)):
                assert subfn_walsh_top0(i, j, n, c) == walsh_at(tbl, c)


def test_top1_identity_exhaustive_small():
    for n in (8, 9):
        half = 1 << (n - 1)
        for i, j in PAIRS:
            tbl = sub_function(i, j, n)
            for c in range(half, 1 << n):
                assert subfn_walsh_top1(i, j, n, c) == walsh_at(tbl, c)


def test_family_identity_exhaustive_small():
    for n in (7, 8, 9):
        tbl = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        for c in range(1 << n):
            assert family_walsh_via_subfns(n, c) == walsh_at(tbl, c)


def test_identity_array_form_matches_scalar_form():
    spectra = {}

    def transform_provider(pairs, m, c):  # int32 values, as the sampled grids use
        for i, j in pairs:
            if (i, j, m) not in spectra:
                spectra[(i, j, m)] = walsh_transform(sub_function(i, j, m)).values
        return np.stack([spectra[(i, j, m)][c] for i, j in pairs])

    for n in (8, 9):
        half = 1 << (n - 1)
        low, high = np.arange(half), np.arange(half, 2 * half)
        for i, j in PAIRS:
            for provider in (None, transform_provider):
                got = subfn_walsh_top0(i, j, n, low, provider)
                assert got.dtype == np.int64
                assert got.tolist() == [subfn_walsh_top0(i, j, n, int(c), provider) for c in low]
                got = subfn_walsh_top1(i, j, n, high, provider)
                assert got.tolist() == [subfn_walsh_top1(i, j, n, int(c), provider) for c in high]
        masks = np.arange(1 << n)
        got = family_walsh_via_subfns(n, masks)
        assert got.tolist() == [family_walsh_via_subfns(n, int(c)) for c in masks]
    # at n = 16 the default provider sums only the masks asked for
    tbl = sub_function(1, 2, 16)
    masks = np.array([5, 4097, 30000])
    assert subfn_walsh_top0(1, 2, 16, masks).tolist() == [walsh_at(tbl, int(c)) for c in masks]
    assert subfn_walsh_top1(1, 2, 16, 40000) == walsh_at(tbl, 40000)
    assert subfn_walsh_top0(0, 0, 8, np.array([], dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError):
        subfn_walsh_top0(0, 0, 8, np.array([0, 128]))  # one mask has its top bit set
    with pytest.raises(IndexError):
        family_walsh_via_subfns(7, np.array([0, 128]))


def _chain_value(i, j, n, c):
    """W_ij(c) on Python ints: variant j's head with the mask's low three
    bits, n - 3 sparse steps T_{c_k}, then variant i's tail."""
    steps = transfer._entries(4)
    head = transfer._product_signs(transfer._HEAD_MASKS, j)
    vec = [sign * (-1) ** bin(s & c).count("1") for s, sign in enumerate(head)]
    for k in range(3, n):
        vec = transfer._advance(vec, steps[(c >> k) & 1])
    return sum(a * b for a, b in zip(vec, transfer._product_signs(transfer._TAIL_MASKS, i)))


def test_bound_product_is_int64_at_the_hard_cap(monkeypatch):
    # at the cap the width argument allows 8|w| up to 2**31, which int32
    # cannot hold; with the family value forced to 2**27 the kept rows are
    # multiplied out, and every witness must match the chain on Python
    # ints, which has no width at all
    assert spectral_bound_check(28) == []
    monkeypatch.setattr(recurrences, "family_zero_value", lambda n: 1 << 27)
    witnesses = spectral_bound_check(28)
    assert len(witnesses) == 18
    for label, bound, eight in witnesses:
        i, j, c = int(label[1]), int(label[2]), int(label.split("=")[1])
        assert (bound, eight) == (1 << 27, 8 * abs(_chain_value(i, j, 28, c))), label
        assert eight >= 1 << 27 and c & 2


def _butterfly_bound(n, bound):
    """The bound by 16 transforms, as it was computed before the open
    chains: the reference for spectral_bound_check."""
    masks = np.flatnonzero(np.arange(1 << n) & 2)
    witnesses = []
    for i, j in PAIRS:
        scaled = 8 * np.abs(walsh_transform(sub_function(i, j, n)).values[masks].astype(np.int64))
        witnesses += [(f"f{i}{j}:c={int(masks[k])}", bound, int(scaled[k]))
                      for k in np.flatnonzero(scaled >= bound)]
    return witnesses


def test_bound_matches_the_butterfly_version(monkeypatch):
    # at the family value and with it cut to a third, a fifth and a ninth,
    # so the kept rows are multiplied out at every arity
    right = family_zero_value
    counts = {}
    for div in (1, 3, 5, 9):
        monkeypatch.setattr(recurrences, "family_zero_value", lambda n, div=div: right(n) // div)
        for n in range(4, 17):
            got = spectral_bound_check(n)
            assert got == _butterfly_bound(n, right(n + 3) // div), (n, div)
            counts[n, div] = len(got)
    assert [counts[14, div] for div in (1, 3, 5, 9)] == [0, 12, 40, 182]


def test_check_bound_reads_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the bound built a table or ran the butterfly")

    for module in (core, families, recurrences, harness):
        for name in ("walsh_transform", "sub_function"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    reports = check_bound()
    assert [(r.params, r.status) for r in reports] == [({"n": n}, "pass") for n in range(4, 17)]


def test_identities_accept_value_provider():
    calls = []

    def provider(pairs, m, c):
        calls.append((pairs, m, c))
        return [walsh_at(sub_function(i, j, m), c) for i, j in pairs]

    assert subfn_walsh_top0(3, 3, 8, 0, provider) == 12
    assert calls and all(m < 8 for _, m, _ in calls)


def test_scalar_identity_calls_the_provider_once_an_arity():
    # one int mask goes through the same evaluator as an array: one
    # provider call for each arity the variant's terms read, on the mask
    # lowered to it, and an int back
    calls = []

    def provider(pairs, m, c):
        calls.append((tuple(pairs), m, c))
        return [walsh_at(sub_function(i, j, m), c) for i, j in pairs]

    for top_bit, identity, c in ((0, subfn_walsh_top0, 37), (1, subfn_walsh_top1, 128 + 37)):
        for i in range(4):
            calls.clear()
            got = identity(i, 2, 8, c, provider)
            assert type(got) is int and got == walsh_at(sub_function(i, 2, 8), c)
            lows = {}
            for _, low, drop, _ in sorted(recurrences._LOWERED[top_bit][i], key=lambda t: (t[2], t[1])):
                lows.setdefault(drop, []).append((low, 2))
            assert calls == [(tuple(pairs), 8 - drop, c & ((1 << (8 - drop)) - 1))
                             for drop, pairs in lows.items()]


def test_one_mask_at_the_cap_reads_no_half_space():
    # an explicit mask is split into the same bit axes as a grid's
    # half-space, so one mask at n = 28 asks each arity for that mask
    # alone, as an int, and never for a half-space of 2**27
    calls = []

    def provider(pairs, m, c):
        calls.append((m, c))
        return [7 * (i + 1) for i, _ in pairs]

    # c_26 = 1, c_25 = 0, c_24 = 1: Lemma 2.1's f1j terms 2 * 7, -2 * 7 and 2 * 28
    c = (1 << 26) + (1 << 24) + 12345
    assert subfn_walsh_top0(1, 2, 28, c, provider) == 56
    assert calls == [(26, c & ((1 << 26) - 1)), (25, c & ((1 << 25) - 1)), (24, 12345)]
    assert all(type(mask) is int for _, mask in calls)
    calls.clear()
    got = subfn_walsh_top1(3, 0, 28, np.array([1 << 27, (1 << 27) + c]), provider)
    assert got.shape == (2,) and [np.shape(mask) for _, mask in calls] == [(2,), (2,)]


def test_base_table_from_reference_is_consistent():
    # every stored zero-mask value, the mirrored i > j variants included,
    # against the direct oracle; the recurrences read n = 4..7
    base = SpectralBaseTable.from_reference()
    for n in range(4, 8):
        assert all((i, j, n) in base.sub_zero for i, j in PAIRS) and n in base.family_zero
    for (i, j, n), value in base.sub_zero.items():
        assert walsh_at(sub_function(i, j, n), 0) == value, (i, j, n)
    for n, value in base.family_zero.items():
        assert walsh_at(monomial_rsbf(MonomialRsbfSpec(n, 4, 1)), 0) == value, n


def test_missing_base_entries_raise():
    empty = SpectralBaseTable({}, {})
    with pytest.raises(MissingBaseEntry):
        subfn_zero_recurrence(0, 0, 8, empty)
    with pytest.raises(MissingBaseEntry):
        family_zero_recurrence(8, empty)


def test_zero_recurrences_match_brute_force():
    base = SpectralBaseTable.from_reference()
    for n in range(8, 15):
        for i, j in PAIRS:
            direct = (1 << n) - 2 * weight(sub_function(i, j, n))
            assert subfn_zero_recurrence(i, j, n, base) == direct
        family_direct = (1 << n) - 2 * weight(monomial_rsbf(MonomialRsbfSpec(n, 4, 1)))
        assert family_zero_recurrence(n, base) == family_direct


def test_pinned_zero_values():
    base = SpectralBaseTable.from_reference()
    assert subfn_zero_recurrence(1, 2, 11, base) == 816
    assert family_zero_recurrence(12, base) == 2224
    assert family_zero_recurrence(22, base) == 1346624
    assert [family_zero_value(n) for n in range(4, 9)] == [16, 20, 52, 84, 176]


def test_spectral_bound_report():
    # the check returns its witnesses; check_bound wraps them in the report
    assert spectral_bound_check(5) == []
    (report,) = check_bound(n_values=[5])
    assert (report.check, report.params, report.status, report.witnesses) == (
        "bound", {"n": 5}, "pass", [])


def _peak_at_zero(spectrum):
    # no coefficient magnitude, max or -min, beats the signed value at mask zero
    peaks = SpectrumPeaks.of(spectrum.n, [(0, spectrum.values)])
    return max(peaks.top, -peaks.bottom) <= peaks.zero


def test_peak_at_zero():
    assert _peak_at_zero(walsh_transform(monomial_rsbf(MonomialRsbfSpec(8, 4, 1))))
    # full stride collapses to parity, whose spike sits at the all-ones mask
    assert not _peak_at_zero(walsh_transform(monomial_rsbf(MonomialRsbfSpec(8, 4, 8))))


@pytest.mark.parametrize(
    "values",
    [
        [5, -5, 0, 5, 0, 0, 0, 0],  # ties with the zero mask stay at zero
        [4, -5, 0, 0, 0, 0, 0, 0],
        [4, 0, 0, 0, 0, 0, 0, 5],
        [-3, 0, 0, 0, 0, 0, 0, 0],  # negative zero mask, all-zero tail
        [0, 0, 0, 0, 0, 0, 0, 0],
    ],
)
def test_peak_at_zero_matches_abs_form(values):
    v = np.array(values, dtype=np.int32)
    assert _peak_at_zero(WalshSpectrum(3, v)) == bool(np.all(np.abs(v) <= v[0]))
