import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rsbf import (
    MonomialRsbfSpec,
    check_family_zero,
    check_subfn_zero,
    family_walsh_transfer,
    monomial_rsbf,
    peak_certificate,
    sub_function,
    subfn_zero_transfer,
    transfer_matrix,
    walsh_at_many,
    walsh_blocks,
    walsh_transform,
    weight,
)
from rsbf import core, families, harness, recurrences, transfer

PAIRS = [(i, j) for i in range(4) for j in range(4)]


def _charpoly(matrix):
    """det(xI - A) by Faddeev-LeVerrier over Fractions, leading term first."""
    size = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, size + 1):
        # M_k = A M_{k-1} + c_{k-1} I, then c_k = -tr(A M_k) / k
        m = [
            [sum(a[r][s] * m[s][col] for s in range(size)) + (coeffs[-1] if r == col else 0)
             for col in range(size)]
            for r in range(size)
        ]
        trace = sum(sum(a[r][s] * m[s][r] for s in range(size)) for r in range(size))
        coeffs.append(-trace / k)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _obeys_order4_recurrence(values):
    return all(
        values[n] == 2 * (values[n - 2] + values[n - 3] + values[n - 4])
        for n in range(8, max(values) + 1)
    )


def test_quartic_step_polynomial_is_the_order4_recurrence():
    # x^4 (x^4 - 2x^2 - 2x - 2): the x^4 factor adds nothing to Tr(T_0^n)
    # for n >= 4, so W(n) = 2(W(n-2) + W(n-3) + W(n-4)) at every n
    assert _charpoly(transfer_matrix(4, 0)) == [1, 0, -2, -2, -2, 0, 0, 0, 0]
    family = {n: family_walsh_transfer(n, 4, 0) for n in range(4, 201)}
    assert _obeys_order4_recurrence(family)
    variants = subfn_zero_transfer(200)
    for i, j in PAIRS:
        assert _obeys_order4_recurrence({n: variants[n][(i, j)] for n in variants})


def test_transfer_matrix_shape_and_validation():
    for l in (2, 3, 5):
        for b in (0, 1):
            matrix = transfer_matrix(l, b)
            assert len(matrix) == 1 << (l - 1)
            # every state has two successors, one per placed bit
            assert all(sum(v != 0 for v in row) == 2 for row in matrix)
            assert all(v in (-1, 0, 1) for row in matrix for v in row)
    with pytest.raises(ValueError):
        transfer_matrix(1, 0)
    with pytest.raises(ValueError):
        transfer_matrix(4, 2)
    with pytest.raises(ValueError):
        family_walsh_transfer(0)
    with pytest.raises(IndexError):
        family_walsh_transfer(5, 4, 32)
    with pytest.raises(ValueError):
        subfn_zero_transfer(3)


def test_transfer_matches_popcount_of_own_tables():
    # the eq26/thm24 default window n = 8..22 and its seeds n = 4..7; the
    # uncached builder leaves no 2^22-bit tables in the test process
    variants = subfn_zero_transfer(22)
    assert sorted(variants) == list(range(4, 23))
    for n in range(4, 23):
        for i, j in PAIRS:
            table = sub_function.__wrapped__(i, j, n)
            assert variants[n][(i, j)] == (1 << n) - 2 * weight(table), (i, j, n)
        family = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        assert family_walsh_transfer(n, 4, 0) == (1 << n) - 2 * weight(family), n


def test_transfer_matches_direct_oracle_at_masks():
    rng = random.Random(4)
    for l in (3, 4, 5):
        for n in range(l + 1, 15):
            masks = [0] + [rng.randrange(1 << n) for _ in range(8)]
            expected = walsh_at_many(monomial_rsbf(MonomialRsbfSpec(n, l, 1)), np.array(masks))
            assert [family_walsh_transfer(n, l, c) for c in masks] == expected.tolist(), (n, l)


def test_zero_recurrence_suites_build_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the transfer route read a truth table or a spectrum")

    names = ("anf_table", "walsh_transform", "walsh_at_many", "monomial_rsbf", "sub_function",
             "weight")
    for module in (core, families, recurrences, harness):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    reports = check_subfn_zero(range(8, 29), max_n=28) + check_family_zero(range(8, 29), max_n=28)
    assert [r.status for r in reports] == ["pass"] * 42


def test_zero_recurrence_suites_working_memory():
    # A default-window eq26 + thm24 run traced 68,884 B on a fresh process
    # (the reference seeds load then) and 30 KB once loaded; the bound is
    # 256 KiB.  The table route it replaced traced 19.6 MB; one build at
    # n = 20 already holds 128 KiB of words.
    tracemalloc.start()
    try:
        reports = check_subfn_zero() + check_family_zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in reports] == ["pass"] * 30
    assert peak < 256 << 10


def test_stacks_hold_the_ordered_step_products():
    for l in (2, 3, 4, 5):
        steps = [np.array(transfer_matrix(l, b)) for b in (0, 1)]
        for m in range(6):
            stack = transfer._stack(l, m)
            assert stack.shape == (1 << (l - 1), 1 << (l - 1), 1 << m)
            for x in range(1 << m):
                product = np.eye(1 << (l - 1), dtype=np.int64)
                for i in range(m):
                    product = product @ steps[(x >> i) & 1]
                assert (stack[..., x] == product).all(), (l, m, x)


def _certificate_against(values, t, l, cert):
    """Check a certificate's fields against the whole spectrum ``values``
    (int64, mask order) and the row bounds; returns the kept rows."""
    h = t // 2
    bound = transfer._row_bounds(transfer._stack(l, h), transfer._stack(l, t - h))
    # column a of the grid is low row a: masks a + (b << h)
    grid = np.abs(values).reshape(1 << (t - h), 1 << h)
    assert (grid.max(axis=0) <= bound).all(), (t, l)
    kept = np.flatnonzero(bound >= values[0])
    assert cert.zero == values[0] and cert.rows == kept.size, (t, l)
    assert cert.checksums[0][0] == cert.checksums[0][1] and cert.checksums[1][0] == cert.checksums[1][1]
    if kept.size > 1 << (l - 1):
        assert (cert.certified, cert.mask, cert.value) == (False, None, None), (t, l)
        return kept
    # the largest |S(c)| off 0 in the kept rows, at its lowest mask there
    masks = (kept[None, :] + (np.arange(1 << (t - h))[:, None] << h)).reshape(-1)
    size = np.where(masks == 0, -1, np.abs(values[masks]))
    assert (abs(cert.value), cert.mask) == (size.max(), masks[size == size.max()].min()), (t, l)
    assert cert.value == values[cert.mask]
    assert cert.certified == (np.abs(values[1:]).max() <= values[0]), (t, l)
    return kept


def test_certificate_row_bounds_dominate_the_spectrum():
    # every |S(c)| is within its low row's bound, and every field of the
    # certificate matches the butterfly's spectrum, for l = 2..6, t <= 16;
    # t = 1 is the parity x_0 (S(0) = 0 < |S(1)| = 2), l = 2 keeps more
    # than 2 rows from t = 4 on, and l >= 3 never more than 2^(l-1)
    declined = 0
    for l in range(2, 7):
        for t in range(1, 17):
            values = walsh_transform(monomial_rsbf(MonomialRsbfSpec(t, l, 1))).values.astype(np.int64)
            declined += _certificate_against(values, t, l, peak_certificate(t, l)).size > 1 << (l - 1)
    assert declined == 13
    assert not peak_certificate(1, 4).certified


@pytest.mark.parametrize("l", (3, 4, 5))
def test_certificate_agrees_with_the_full_reduction(l):
    # t = 17..22, one transform up to t = 20 and blocks above; the bound
    # keeps 2^(l-1) rows at every t, and the kept rows hold the largest
    # |S(c)| off 0 of the whole spectrum
    for t in range(17, 23):
        table = monomial_rsbf(MonomialRsbfSpec(t, l, 1))
        values = np.concatenate([block.astype(np.int64) for _, block in walsh_blocks(table)])
        cert = peak_certificate(t, l)
        assert cert.certified and cert.rows == 1 << (l - 1), t
        _certificate_against(values, t, l, cert)
        assert abs(cert.value) == np.abs(values[1:]).max(), t


def test_certificate_declines_past_its_row_cap():
    # l = 2 keeps far more than 2 rows, and then none is multiplied out
    cert = peak_certificate(18, 2)
    assert (cert.certified, cert.mask, cert.value) == (False, None, None)
    assert cert.rows == 512 and cert.zero == 1024


def test_certificate_validation():
    with pytest.raises(ValueError):
        peak_certificate(0, 4)
    with pytest.raises(ValueError):
        peak_certificate(8, 1)
    with pytest.raises(ValueError):
        peak_certificate(57, 4)  # 57 + 2 * 3 > 62: the bound could pass 2^63


def test_certificate_working_memory():
    # NumPy reports its buffers to tracemalloc.  At t = 24, l = 4 the two
    # stacks are 64 * 2^12 int64 each (2 MiB); the row bounds take |A| in
    # one chunk of the same size, and the kept rows' products are 8 * 2^12
    # int64 twice (512 KiB), after it.  Measured 6,334,656 B against
    # 6,422,528 B allowed; the butterfly route's int8 store alone is 16 MiB.
    stack_bytes = 64 * (1 << 12) * 8
    tracemalloc.start()
    try:
        cert = peak_certificate(24, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.certified and cert.zero == family_walsh_transfer(24, 4, 0)
    assert peak < 3 * stack_bytes + (128 << 10)
