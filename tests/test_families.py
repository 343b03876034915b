import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsbf import (
    MonomialRsbfSpec,
    cycle_decompose,
    factored_walsh,
    monomial_rsbf,
    quartic_chain,
    sub_function,
    walsh_at,
    walsh_at_many,
)
from rsbf import families

from conftest import bit, constant, linear, rotate


def _bits(x, n):
    return [(x >> k) & 1 for k in range(n)]


def _eval_chain(n, x):
    b = _bits(x, n)
    acc = 0
    for i in range(n - 3):
        acc ^= b[i] & b[i + 1] & b[i + 2] & b[i + 3]
    return acc


def _eval_tail(first, last, count, n, x):
    b = _bits(x, n)
    acc = 0
    for r in range(count):
        term = 1
        for s in range(first + r, last + 1):
            term &= b[s]
        acc ^= term
    return acc


def _eval_subfn(i, j, n, x):
    b = _bits(x, n)
    acc = _eval_chain(n, x) ^ _eval_tail(n - 3, n - 1, i, n, x)
    if j >= 1:
        acc ^= b[0] & b[1] & b[2]
    if j >= 2:
        acc ^= b[0] & b[1]
    if j >= 3:
        acc ^= b[0]
    return acc


def _eval_family(n, l, e, x):
    b = _bits(x, n)
    acc = 0
    for i in range(n):
        term = 1
        for k in range(l):
            term &= b[(i + k * e) % n]
        acc ^= term
    return acc


def test_quartic_chain_matches_reference_evaluator():
    for n in range(4, 9):
        tbl = quartic_chain(n)
        for x in range(1 << n):
            assert bit(tbl, x) == _eval_chain(n, x)
    with pytest.raises(ValueError):
        quartic_chain(3)


def test_chain_peels_one_variable():
    for n in range(5, 10):
        longer, shorter = quartic_chain(n), quartic_chain(n - 1)
        window = 0b1111 << (n - 4)
        for x in range(1 << n):
            top_term = 1 if (x & window) == window else 0
            assert bit(longer, x) == bit(shorter, x & ((1 << (n - 1)) - 1)) ^ top_term


def test_tail_products_matches_reference_evaluator():
    # variant (i, 0) is the chain plus the i longest products ending at x_{n-1}
    for n in range(4, 8):
        for count in range(4):
            tail = sub_function(count, 0, n) ^ quartic_chain(n)
            for x in range(1 << n):
                assert bit(tail, x) == _eval_tail(n - 3, n - 1, count, n, x)
    assert sub_function(0, 0, 4) == quartic_chain(4)


def test_sub_function_matches_reference_evaluator():
    for n in (4, 5, 6, 7):
        for i in range(4):
            for j in range(4):
                tbl = sub_function(i, j, n)
                for x in range(1 << n):
                    assert bit(tbl, x) == _eval_subfn(i, j, n, x)


def test_sub_function_validation():
    with pytest.raises(ValueError, match=r"variant indices must be in 0\.\.3, got \(4,0\)"):
        sub_function(4, 0, 8)
    with pytest.raises(ValueError, match="variant indices"):
        sub_function(0, -1, 3)  # the indices are checked first
    with pytest.raises(ValueError, match="arity must be in"):
        sub_function(0, 0, 0)
    with pytest.raises(ValueError, match="variants need arity at least 4, got 3"):
        sub_function(0, 0, 3)


def test_sub_function_reversal_pairs():
    # swapping the two variants mirrors the variable order
    for n in (5, 6, 8):
        size = 1 << n
        for i in range(4):
            for j in range(4):
                fwd, rev = sub_function(i, j, n), sub_function(j, i, n)
                for x in range(size):
                    reversed_x = int(f"{x:0{n}b}"[::-1], 2)
                    assert bit(fwd, x) == bit(rev, reversed_x)


def test_family_matches_reference_evaluator():
    for l in (2, 3, 4, 5):
        for n in range(2, 8):
            for e in range(1, n + 1):
                tbl = monomial_rsbf(MonomialRsbfSpec(n, l, e))
                for x in range(1 << n):
                    assert bit(tbl, x) == _eval_family(n, l, e, x)


def test_large_builders_match_reference_evaluator():
    # n = 13..20 put variables far above the six that vary inside one
    # uint64 word; 256 seeded inputs per table
    rng = random.Random(1320)
    for n in range(13, 21):
        xs = [rng.getrandbits(n) for _ in range(256)]
        chain = quartic_chain(n)
        assert [bit(chain, x) for x in xs] == [_eval_chain(n, x) for x in xs]
        for i in range(4):
            for j in range(4):
                tbl = sub_function(i, j, n)
                assert [bit(tbl, x) for x in xs] == [_eval_subfn(i, j, n, x) for x in xs]
        for l, e in ((4, 1), (4, 2), (4, 3), (3, 5), (5, n - 1)):
            tbl = monomial_rsbf(MonomialRsbfSpec(n, l, e))
            assert [bit(tbl, x) for x in xs] == [_eval_family(n, l, e, x) for x in xs]


def test_family_spec_validation():
    with pytest.raises(ValueError):
        MonomialRsbfSpec(8, 1, 1)
    with pytest.raises(ValueError):
        MonomialRsbfSpec(8, 4, 0)
    with pytest.raises(ValueError):
        MonomialRsbfSpec(0, 4, 1)
    assert MonomialRsbfSpec(3, 4, 1).degenerate
    assert not MonomialRsbfSpec(4, 4, 1).degenerate


def test_quadratic_stride_one_cancels_at_n2():
    # both monomials are x0*x1, so they cancel mod 2
    assert monomial_rsbf(MonomialRsbfSpec(2, 2, 1)) == constant(2, 0)


def test_full_stride_family_is_parity():
    # e = n wraps every monomial onto a single repeated variable
    for n, l in [(4, 4), (5, 4), (6, 3), (4, 2)]:
        tbl = monomial_rsbf(MonomialRsbfSpec(n, l, n))
        assert tbl == linear(n, (1 << n) - 1)


def test_family_is_rotation_invariant():
    for l in (2, 3, 4):
        for n in range(max(l, 3), 9):
            for e in (1, 2, 3):
                tbl = monomial_rsbf(MonomialRsbfSpec(n, l, e))
                for x in range(1 << n):
                    assert bit(tbl, x) == bit(tbl, rotate(x, n, 1))


def test_cycle_decompose_partitions_indices():
    for n in range(2, 13):
        for e in range(1, n + 1):
            dec = cycle_decompose(n, e)
            assert dec.s == math.gcd(n, e)
            assert dec.t == n // dec.s
            seen = sorted(v for cycle in dec.cycles for v in cycle)
            assert seen == list(range(n))
            assert all(len(cycle) == dec.t for cycle in dec.cycles)


def test_factored_walsh_matches_direct():
    for n, e in [(6, 2), (8, 2), (8, 4), (9, 3), (10, 5)]:
        spec = MonomialRsbfSpec(n, 4, e)
        tbl = monomial_rsbf(spec)
        for c in range(1 << n):
            assert factored_walsh(spec, c) == walsh_at(tbl, c)


def test_factored_walsh_array_form_matches_scalar_and_direct():
    for n, l, e in [(6, 4, 2), (9, 4, 3), (10, 4, 5), (12, 4, 3), (8, 3, 2), (7, 4, 7)]:
        spec = MonomialRsbfSpec(n, l, e)
        masks = np.arange(1 << n)
        got = factored_walsh(spec, masks)
        assert got.dtype == np.int64 and got.shape == masks.shape
        assert got.tolist() == [factored_walsh(spec, c) for c in range(1 << n)]
        assert got.tolist() == walsh_at_many(monomial_rsbf(spec), masks).tolist()
    spec = MonomialRsbfSpec(8, 4, 2)
    assert type(factored_walsh(spec, np.int64(5))) is int
    assert factored_walsh(spec, np.array([], dtype=np.int64)).shape == (0,)
    with pytest.raises(IndexError):
        factored_walsh(spec, 256)
    with pytest.raises(IndexError):
        factored_walsh(spec, np.array([0, -1]))
    with pytest.raises(TypeError):
        factored_walsh(spec, np.array([0.5]))


def test_aligned_spectrum_cache_keeps_one_factor():
    families._aligned_spectrum.cache_clear()
    for n, l, e in [(10, 4, 2), (12, 3, 3), (10, 4, 2)]:
        spec = MonomialRsbfSpec(n, l, e)
        masks = np.arange(1 << n)
        got = factored_walsh(spec, masks)
        assert families._aligned_spectrum.cache_info().currsize <= 1
        assert got.tolist() == walsh_at_many(monomial_rsbf(spec), masks).tolist()


def test_sub_function_cache_is_bounded():
    # check-all fills 208 entries (n <= 16), which must all stay
    maxsize = families.sub_function.cache_info().maxsize
    assert maxsize is not None and maxsize >= 208


def test_factored_walsh_other_degrees():
    for n, l, e in [(6, 3, 2), (8, 3, 2), (6, 2, 2)]:
        spec = MonomialRsbfSpec(n, l, e)
        tbl = monomial_rsbf(spec)
        for c in range(1 << n):
            assert factored_walsh(spec, c) == walsh_at(tbl, c)


@given(data=st.data())
def test_family_rotation_invariance_random(data):
    n = data.draw(st.integers(2, 10))
    l = data.draw(st.integers(2, 6))
    e = data.draw(st.integers(1, n))
    shift = data.draw(st.integers(0, n))
    x = data.draw(st.integers(0, (1 << n) - 1))
    tbl = monomial_rsbf(MonomialRsbfSpec(n, l, e))
    assert bit(tbl, x) == bit(tbl, rotate(x, n, shift))
