import numpy as np
import pytest

from rsbf import (
    MissingBaseEntry,
    MonomialRsbfSpec,
    SpectralBaseTable,
    WalshSpectrum,
    family_walsh_via_subfns,
    family_zero_recurrence,
    family_zero_value,
    monomial_rsbf,
    peak_at_zero,
    spectral_bound_check,
    sub_function,
    subfn_walsh_top0,
    subfn_walsh_top1,
    subfn_zero_recurrence,
    walsh_at,
    walsh_transform,
    weight,
)

from rsbf.recurrences import _eight_magnitudes

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

    def transform_provider(i, j, m, c):  # int32 values, as the sampled grids use
        if (i, j, m) not in spectra:
            spectra[(i, j, m)] = walsh_transform(sub_function(i, j, m)).values
        return spectra[(i, j, m)][c]

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


def test_bound_product_is_int64_at_the_hard_cap():
    # 8 * 2**28 = 2**31 would wrap in int32; a synthetic spectrum slice
    # stands in for the 2**28-entry transform
    scaled = _eight_magnitudes(np.array([1 << 28, -(1 << 28), 3], dtype=np.int32))
    assert scaled.dtype == np.int64
    assert scaled.tolist() == [1 << 31, 1 << 31, 24]


def test_identities_accept_value_provider():
    calls = []

    def provider(i, j, m, c):
        calls.append((i, j, m, c))
        return walsh_at(sub_function(i, j, m), c)

    assert subfn_walsh_top0(3, 3, 8, 0, provider) == 12
    assert calls and all(m < 8 for _, _, m, _ in calls)


def test_base_table_from_reference_is_consistent():
    base = SpectralBaseTable.from_reference()
    assert base.validate() == []
    brute = SpectralBaseTable.from_brute_force(9)
    for (i, j, n), value in brute.sub_zero.items():
        if (i, j, n) in base.sub_zero:
            assert base.sub_zero[(i, j, n)] == value
    for n, value in brute.family_zero.items():
        if n in base.family_zero:
            assert base.family_zero[n] == value


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
    report = spectral_bound_check(5)
    assert report.check == "bound"
    assert report.params == {"n": 5}
    assert report.status == "pass"
    assert report.witnesses == []


def test_peak_at_zero():
    assert peak_at_zero(walsh_transform(monomial_rsbf(MonomialRsbfSpec(8, 4, 1))))
    # full stride collapses to parity, whose spike sits at the all-ones mask
    assert not peak_at_zero(walsh_transform(monomial_rsbf(MonomialRsbfSpec(8, 4, 8))))


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
    assert peak_at_zero(WalshSpectrum(3, v)) == bool(np.all(np.abs(v) <= v[0]))
