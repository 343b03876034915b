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
    sub_function,
    subfn_zero_transfer,
    transfer_matrix,
    walsh_at_many,
    weight,
)
from rsbf import core, families, harness, recurrences

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
    # n = 20 already holds 384 KiB (words, bytes and packed int).
    tracemalloc.start()
    try:
        reports = check_subfn_zero() + check_family_zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in reports] == ["pass"] * 30
    assert peak < 256 << 10
