import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsbf import (
    HARD_MAX_N,
    MonomialRsbfSpec,
    SpectrumPeaks,
    TruthTable,
    WalshSpectrum,
    anf_table,
    monomial_rsbf,
    nonlinearity,
    walsh_at,
    walsh_at_many,
    walsh_blocks,
    walsh_transform,
    weight,
)
from rsbf import core

from conftest import bit, constant, linear


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(0, 0)
    with pytest.raises(ValueError):
        TruthTable(HARD_MAX_N + 1, 0)
    with pytest.raises(ValueError):
        TruthTable(2, 1 << 16)
    with pytest.raises(ValueError):
        TruthTable(2, -1)
    assert TruthTable(3, 0b10010110).size == 8


def test_variable_table_projects_each_bit():
    for n in range(1, 7):
        for v in range(n):
            tbl = anf_table(n, [(v,)])
            for x in range(1 << n):
                assert bit(tbl, x) == (x >> v) & 1
    with pytest.raises(ValueError):
        anf_table(3, [(3,)])


def test_monomial_table_is_product():
    tbl = anf_table(4, [[0, 2]])
    for x in range(16):
        assert bit(tbl, x) == ((x >> 0) & (x >> 2) & 1)
    # repeats collapse, empty product is the constant one
    assert anf_table(4, [[1, 1, 1]]) == anf_table(4, [[1]])
    assert anf_table(3, [[]]) == constant(3, 1)


def _anf_bits(n, monomials):
    # the XOR of monomial products at every input, packed bit x = input x
    bits = 0
    for x in range(1 << n):
        value = 0
        for monomial in monomials:
            value ^= all((x >> v) & 1 for v in monomial)
        bits |= value << x
    return bits


def test_anf_table_matches_pure_python_evaluation():
    rng = random.Random(6)
    for n in range(1, 11):
        for _ in range(8):
            monomials = [
                [rng.randrange(n) for _ in range(rng.randint(0, min(n, 6)))]
                for _ in range(rng.randint(0, 10))
            ]
            if monomials and rng.random() < 0.5:
                monomials.append(monomials[rng.randrange(len(monomials))])  # cancels
            assert anf_table(n, monomials).bits == _anf_bits(n, monomials)
    # n <= 5 is under one 64-input word, n = 6 fills it, n = 7 takes two;
    # repeated indices, a repeated monomial, the empty monomial and the
    # empty list at each
    for n in range(1, 8):
        everything = list(range(n))
        for monomials in (
            [],
            [[]],
            [[], []],
            [everything],
            [[v] for v in everything],
            [[n - 1, n - 1, 0], [0]],
            [everything, [], everything[::-1]],
        ):
            assert anf_table(n, monomials).bits == _anf_bits(n, monomials)
    # variables on both sides of v = 6, in one monomial and apart
    n = 10
    for monomials in ([[2, 7]], [[5, 6, 9], [0, 8], [6], [3]], [[9, 0, 9, 0], [6, 5, 4, 3, 2, 1]]):
        assert anf_table(n, monomials).bits == _anf_bits(n, monomials)
    assert anf_table(3, [[]]) == constant(3, 1)
    assert anf_table(8, [[1, 7], [7, 1, 1]]) == constant(8, 0)
    for bad in (n, -1):
        with pytest.raises(ValueError):
            anf_table(n, [[0], [bad]])


def test_linear_function_is_mask_parity():
    for n in range(1, 7):
        for c in range(1 << n):
            tbl = linear(n, c)
            for x in range(1 << n):
                assert bit(tbl, x) == ((x & c).bit_count() & 1)


def test_xor_and_require_same_arity():
    with pytest.raises(ValueError):
        constant(3, 1) ^ constant(4, 1)
    with pytest.raises(ValueError):
        constant(3, 1) & constant(4, 1)
    a, b = linear(3, 5), linear(3, 3)
    assert a ^ b == linear(3, 6)


def test_walsh_transform_matches_direct_summation(small_tables):
    for tbl in small_tables:
        if tbl.n > 8:
            continue
        spectrum = walsh_transform(tbl)
        for c in range(tbl.size):
            assert spectrum[c] == walsh_at(tbl, c)


def test_walsh_zero_entry_is_weight_identity(small_tables):
    for tbl in small_tables:
        assert walsh_transform(tbl)[0] == tbl.size - 2 * weight(tbl)


def test_spectrum_power_is_conserved(small_tables):
    for tbl in small_tables:
        values = walsh_transform(tbl).values
        assert int(np.dot(values, values)) == 4**tbl.n


def test_walsh_at_validates_mask():
    tbl = constant(4, 0)
    with pytest.raises(IndexError):
        walsh_at(tbl, 16)
    assert walsh_at(tbl, np.uint8(15)) == 0
    with pytest.raises(TypeError):
        walsh_at(tbl, 1.0)
    with pytest.raises(IndexError):
        walsh_at_many(tbl, [0, 16])
    with pytest.raises(IndexError):
        walsh_at_many(tbl, [-1])
    with pytest.raises(ValueError):
        walsh_at_many(tbl, [[0, 1]])
    with pytest.raises(TypeError):
        walsh_at_many(tbl, [0.5])


def _pure_python_walsh(tbl, masks):
    # W(c) = sum over x of (-1)**(f(x) + c.x), one input at a time
    values = [bit(tbl, x) for x in range(tbl.size)]
    return [sum(1 - 2 * ((v + (c & x).bit_count()) & 1) for x, v in enumerate(values)) for c in masks]


def test_walsh_transform_matches_pure_python_sum_on_every_small_table():
    # every function of n = 1, 2 (under one packed byte) and n = 3 (one byte)
    for n in (1, 2, 3):
        masks = range(1 << n)
        for bits in range(1 << (1 << n)):
            tbl = TruthTable(n, bits)
            assert walsh_transform(tbl).values.tolist() == _pure_python_walsh(tbl, masks)


def test_walsh_at_many_matches_pure_python_sum(small_tables):
    for tbl in small_tables:
        empty = walsh_at_many(tbl, np.array([], dtype=np.int64))
        assert empty.dtype == np.int64 and empty.shape == (0,)
        if tbl.n > 8:
            continue
        got = walsh_at_many(tbl, np.arange(tbl.size))
        assert got.dtype == np.int64
        assert got.tolist() == _pure_python_walsh(tbl, range(tbl.size))
    # word edges: n <= 5 is under one 64-input word, n = 6 fills it, n = 7
    # takes two; all-ones tables show any input counted past the table's end
    rng = random.Random(64)
    for n in range(1, 8):
        for tbl in (TruthTable(n, rng.getrandbits(1 << n)), constant(n, 1)):
            assert walsh_at_many(tbl, np.arange(1 << n)).tolist() == _pure_python_walsh(tbl, range(1 << n))
    # n = 12: masks on both sides of the low six bits, and high bits only
    n = 12
    masks = [0, 63, 64, (1 << n) - 1, (1 << n) - 64]
    for tbl in (TruthTable(n, rng.getrandbits(1 << n)), monomial_rsbf(MonomialRsbfSpec(n, 4, 1))):
        assert walsh_at_many(tbl, masks).tolist() == _pure_python_walsh(tbl, masks)
    # n <= 2: one packed byte holds the whole table; x0 and x0 x1 by hand
    assert walsh_at_many(TruthTable(1, 0b10), np.arange(2)).tolist() == [0, 2]
    assert walsh_at_many(TruthTable(2, 0b1000), np.arange(4)).tolist() == [2, 2, 2, -2]


def test_walsh_at_many_spans_word_blocks():
    # At n = 23 the 2**17 words take two blocks of word indices.  The
    # reference is W(c) = 2**n - 2 * weight(f ^ c.x), a big-int popcount.
    # Masks with bit 22 set complement every word of the second block.
    n = 23
    rng = random.Random(n)
    masks = [0, 1, 63, 64, (1 << 22) - 1, 1 << 22, (1 << 22) | 0b101, (1 << n) - 64, (1 << n) - 1]
    for tbl in (TruthTable(n, rng.getrandbits(1 << n)), linear(n, (1 << 22) | 0b101)):
        expected = [tbl.size - 2 * weight(tbl ^ linear(n, c)) for c in masks]
        assert walsh_at_many(tbl, masks).tolist() == expected


def test_walsh_at_rejects_any_int_out_of_range():
    tbl = constant(4, 0)
    for mask in (1 << 64, 1 << 70, -(1 << 70)):
        with pytest.raises(IndexError):
            walsh_at(tbl, mask)


def test_walsh_transform_is_exact_int32_at_full_range():
    n = 20
    for tbl, c, value in (
        (constant(n, 0), 0, 1 << n),
        (constant(n, 1), 0, -(1 << n)),
        (linear(n, 0b1011), 0b1011, 1 << n),
        (linear(n, (1 << n) - 1) ^ constant(n, 1), (1 << n) - 1, -(1 << n)),
    ):
        values = walsh_transform(tbl).values
        assert values.dtype == np.int32
        assert int(values[c]) == value
        assert np.count_nonzero(values) == 1
        masks = [c, 0, 1, (1 << n) - 1]
        assert walsh_at_many(tbl, masks).tolist() == values[masks].tolist()


@pytest.mark.parametrize("n", range(11, 19))
def test_tiled_transform_matches_direct_summation(n):
    # The low stages run on tiles of 2**12-entry rows, 64 rows at a time:
    # n = 11, 12 fill one tile, n = 13..17 one short block of 2..32 rows,
    # n = 18 one full block.  Masks 2**12 - 1 and 2**12 straddle the tile.
    rng = random.Random(n)
    tile = 1 << 12
    edges = {0, 1, tile - 1, tile, (1 << n) - 1}
    masks = sorted({c for c in edges if c < 1 << n} | set(rng.sample(range(1 << n), 64)))
    member = monomial_rsbf(MonomialRsbfSpec(n, 4, 1 + n % 3))
    for tbl in (TruthTable(n, rng.getrandbits(1 << n)), member):
        values = walsh_transform(tbl).values
        assert values.dtype == np.int32
        assert values[masks].tolist() == walsh_at_many(tbl, masks).tolist()
        assert int(values[0]) == tbl.size - 2 * weight(tbl)
        wide = values.astype(np.int64)
        assert int(np.dot(wide, wide)) == 4**n


def test_walsh_transform_working_memory():
    # NumPy reports its buffers to tracemalloc.  The transform may hold the
    # int32 spectrum (4 bytes an input), the packed bytes (1/8 byte), one
    # tile of at most 1 MiB and one block's byte indices cast to intp
    # (2**15 of them, 256 KiB), plus 64 KiB of slack for small objects.
    # Measured at n = 20: 1.376 MiB above the spectrum, against 1.4375 MiB
    # allowed.  An unpacked table or an unblocked take's indices (1 MiB
    # each at n = 20), or take buffering its out (a second spectrum, 4 MiB)
    # does not fit.
    n = 20
    tbl = TruthTable(n, random.Random(n).getrandbits(1 << n))
    size = 1 << n
    tracemalloc.start()
    try:
        spectrum = walsh_transform(tbl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum.values.nbytes == 4 * size
    assert peak < 4 * size + size // 8 + (1 << 20) + (256 << 10) + (64 << 10)


def _read_blocks(blocks):
    """(offsets, copies of the blocks) of one walsh_blocks stream; a block
    is only valid until the next is yielded, so each is copied."""
    offsets, parts = [], []
    for offset, block in blocks:
        assert block.dtype == np.int32
        offsets.append(offset)
        parts.append(block.copy())
    return offsets, parts


@pytest.mark.parametrize("n", range(1, 23))
def test_walsh_blocks_concatenate_to_the_transform(n):
    # The public route, and the int8 route at every depth k it can take
    # here: k = n - 18 is 0, 1, 2 at n = 18, 19, 20, and k = min(6, n)
    # makes 2**k blocks of 1 .. 2**(n - 6) entries.
    rng = random.Random(n)
    member = monomial_rsbf(MonomialRsbfSpec(n, 4, 1 + n % 3))
    depths = sorted({0, 1, min(core._INT8_STAGES, n), min(core._INT8_STAGES, max(0, n - 18))})
    for tbl in (TruthTable(n, rng.getrandbits(1 << n)), member):
        full = walsh_transform(tbl).values
        counts = []
        for blocks in [walsh_blocks(tbl)] + [core._blocks(tbl, k) for k in depths]:
            offsets, parts = _read_blocks(blocks)
            span = parts[0].size
            assert offsets == list(range(0, 1 << n, span))
            assert {part.size for part in parts} == {span}
            assert np.array_equal(np.concatenate(parts), full)
            counts.append(len(parts))
        # one block up to the threshold, blocks of 2**18 masks above it
        assert counts[0] == (1 if n <= core._BLOCKED_ABOVE else 1 << (n - 18))
        assert counts[1:] == [1 << k for k in depths]
        assert nonlinearity(tbl) == (tbl.size - int(full.max())) // 2


def test_walsh_blocks_at_n24_against_direct_sums_and_parseval():
    # No full spectrum is made here: the blocks are read one at a time, the
    # values at seeded masks kept, and the squares summed.  The int8 store
    # (2**24 B), one block and one tile (1 MiB each) and this test's int64
    # copies of a block (2 MiB, two while one replaces the other) fit in
    # the bound with 1.25 MiB to spare; a full int32 spectrum (64 MiB) does
    # not.  Measured: 23.07 MB against 24.38 MB allowed.
    n = 24
    rng = random.Random(n)
    tbl = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
    span = 1 << 18
    masks = sorted({0, span - 1, span, (1 << n) - 1} | set(rng.sample(range(1 << n), 60)))
    got = {}
    power = 0
    tracemalloc.start()
    try:
        for offset, block in walsh_blocks(tbl):
            assert block.size == span
            got.update((c, int(block[c - offset])) for c in masks if offset <= c < offset + span)
            wide = block.astype(np.int64)
            power += int(np.dot(wide, wide))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert power == 4**n
    assert [got[c] for c in masks] == walsh_at_many(tbl, masks).tolist()
    assert got[0] == tbl.size - 2 * weight(tbl)
    assert peak < (1 << n) + 2 * (4 * span) + 2 * (8 * span) + (1280 << 10)


def test_walsh_at_many_working_memory():
    # NumPy reports its buffers to tracemalloc.  The oracle may hold the
    # packed table bytes (1/8 byte an input), its block temporaries (1 MiB:
    # a uint64 work array and uint64 word indices of 2**16 entries each) and
    # the int64 answer, plus 64 KiB of slack for small objects and the
    # per-mask arrays (8 bytes a mask each).  A whole-table unpack (4 MiB at
    # n = 22) or a second copy of the packed table (512 KiB) does not fit.
    n = 22
    rng = random.Random(n)
    tbl = TruthTable(n, rng.getrandbits(1 << n))
    masks = np.array(rng.sample(range(1 << n), 256), dtype=np.int64)
    tracemalloc.start()
    try:
        got = walsh_at_many(tbl, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 8 * 256
    assert peak < (1 << n) // 8 + (1 << 20) + got.nbytes + (64 << 10)


def test_monomial_rsbf_build_working_memory():
    # NumPy reports its buffers to tracemalloc.  A build may hold the uint64
    # words of the table, their bytes and the packed int (1/8 byte an input
    # each), plus 128 KiB of slack for small objects.  Measured at n = 22:
    # 1,610,133 B against 1,703,936 B allowed.  A 2**n-bit pattern of one
    # variable (512 KiB at n = 22) held beside the words does not fit.
    n = 22
    tracemalloc.start()
    try:
        tbl = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tbl.n == n
    assert peak < 3 * (1 << n) // 8 + (128 << 10)


def test_spectrum_getitem_range():
    spectrum = walsh_transform(constant(3, 0))
    with pytest.raises(IndexError):
        spectrum[8]
    assert spectrum[0] == 8


def test_nonlinearity_is_distance_to_nearest_linear():
    for tbl in [linear(5, 9), anf_table(5, [[0, 1]]), constant(5, 1)]:
        brute = min(weight(tbl ^ linear(5, c)) for c in range(32))
        assert nonlinearity(tbl) == brute


def _peaks(spectrum: WalshSpectrum):
    """SpectrumPeaks(...).argmax() of a whole spectrum read as one block."""
    return SpectrumPeaks.of(spectrum.n, [(0, spectrum.values)]).argmax()


def _numpy_peaks(values: np.ndarray) -> list[int]:
    """(signed argmax, max, abs argmax, abs max) from a |W| copy and
    np.argmax, which takes the first, lowest, maximum."""
    k = int(np.argmax(np.abs(values)))
    return [int(np.argmax(values)), int(values.max()), k, int(abs(values[k]))]


def test_spectrum_argmax_breaks_ties_low():
    peaks = _peaks(walsh_transform(constant(3, 0)))
    assert [type(x) for x in peaks] == [int] * 4  # masks are plain ints
    mask_s, value_s, mask_a, value_a = peaks
    assert (int(mask_s), value_s, int(mask_a), value_a) == (0, 8, 0, 8)
    parity = linear(4, 15)
    mask_s, value_s, mask_a, value_a = _peaks(walsh_transform(parity))
    assert (int(mask_s), value_s) == (15, 16)
    assert (int(mask_a), value_a) == (15, 16)
    complemented = parity ^ constant(4, 1)
    mask_s, value_s, mask_a, value_a = _peaks(walsh_transform(complemented))
    assert (int(mask_s), value_s) == (0, 0)  # every other entry is zero, tie at the bottom
    assert (int(mask_a), value_a) == (15, 16)  # reported as a magnitude


@pytest.mark.parametrize(
    "values",
    [
        [1, -5, 0, 2, 0, 0, 5, 2],  # +M at a high mask, -M at a lower one
        [2, 5, 0, 0, -5, 1, 0, 0],  # +M low, -M high
        [0, 3, -7, 1, -2, 0, 0, 1],  # -M only
        [-3, 0, 0, 0, 0, 0, 0, 0],  # all-zero tail below a negative zero mask
        [4, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [-8, -8, -2, -8, 0, 0, 0, 0],
    ],
)
def test_spectrum_argmax_matches_abs_argmax(values):
    # reference: the |W| copy and np.argmax, which take the first maximum
    v = np.array(values, dtype=np.int32)
    mask_s, value_s, mask_a, value_a = _peaks(WalshSpectrum(3, v))
    k = int(np.argmax(np.abs(v)))
    assert (int(mask_a), value_a) == (k, int(abs(v[k])))
    assert (int(mask_s), value_s) == (int(np.argmax(v)), int(v.max()))


def test_spectrum_peaks_keep_the_lowest_mask_across_blocks():
    # +M and -M in different blocks, in both orders, and ties of the
    # signed max or min in later blocks, which must not replace the first
    M = 9
    streams = [
        [[1, 0, -M, 2], [M, 0, 3, -M]],  # -M first: abs argmax is mask 2
        [[1, M, 0, 2], [-M, 0, 3, M]],  # +M first: abs argmax is mask 1
        [[1, -M, 0], [M], [0, -M, M, 0]],  # uneven blocks
        [[-M, 0], [M, M], [-M, -M], [0, 1]],
    ]
    for stream in streams:
        values = np.array([v for block in stream for v in block], dtype=np.int32)
        blocks, offset = [], 0
        for block in stream:
            blocks.append((offset, np.array(block, dtype=np.int32)))
            offset += len(block)
        peaks = SpectrumPeaks.of(3, blocks)
        got = peaks.argmax()
        assert [int(x) for x in got] == _numpy_peaks(values), stream
        assert peaks.zero == int(values[0])
        assert (peaks.k_top, peaks.k_bottom) == (int(np.argmax(values)), int(np.argmin(values)))


@given(data=st.data())
def test_spectrum_peaks_match_spectrum_argmax_random(data):
    n = data.draw(st.integers(1, 6))
    values = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=1 << n, max_size=1 << n)),
                      dtype=np.int32)
    cuts = sorted(data.draw(st.sets(st.integers(1, (1 << n) - 1), max_size=4)))
    bounds = [0, *cuts, 1 << n]
    blocks = [(a, values[a:b]) for a, b in zip(bounds, bounds[1:])]
    got = SpectrumPeaks.of(n, blocks).argmax()
    assert [int(x) for x in got] == _numpy_peaks(values)


@given(data=st.data())
def test_transform_agrees_with_direct_summation_random(data):
    n = data.draw(st.integers(1, 9))
    tbl = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    spectrum = walsh_transform(tbl)
    c = data.draw(st.integers(0, tbl.size - 1))
    assert spectrum[c] == walsh_at(tbl, c)
    assert spectrum[0] == tbl.size - 2 * weight(tbl)
