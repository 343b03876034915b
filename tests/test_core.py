import pickle
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
    TableStack,
    TruthTable,
    WalshSpectrum,
    anf_table,
    monomial_rsbf,
    nonlinearity,
    sub_function,
    walsh_at,
    walsh_at_many,
    walsh_blocks,
    walsh_transform,
    weight,
)
from rsbf import core

from conftest import bit, constant, from_int, linear


def test_truth_table_validation():
    word = np.zeros(1, dtype="<u8")
    with pytest.raises(ValueError, match="arity"):
        TruthTable(0, word)
    with pytest.raises(ValueError, match="arity"):
        TruthTable(HARD_MAX_N + 1, word)
    # a bit at or above 2**n: input 16 of n = 2, and every bit of the word
    with pytest.raises(ValueError, match="do not fit"):
        TruthTable(2, np.array([1 << 16], dtype="<u8"))
    with pytest.raises(ValueError, match="do not fit"):
        TruthTable(2, np.array([(1 << 64) - 1], dtype="<u8"))
    with pytest.raises(ValueError, match="words"):
        TruthTable(7, word)
    with pytest.raises(ValueError, match="words"):
        TruthTable(3, np.zeros(2, dtype="<u8"))
    with pytest.raises(ValueError, match="words"):
        TruthTable(6, np.zeros((1, 1), dtype="<u8"))
    for wrong in (np.zeros(1, dtype=np.int64), np.zeros(2, dtype=np.uint32),
                  np.zeros(1, dtype=">u8"), 0b10010110):
        with pytest.raises(ValueError, match="uint64"):
            TruthTable(3, wrong)
    assert TruthTable(3, np.array([0b10010110], dtype="<u8")).size == 8
    assert from_int(3, 0b10010110) == TruthTable(3, np.array([0b10010110], dtype="<u8"))
    assert from_int(3, 0b10010110) != from_int(3, 0b10010111)
    assert from_int(3, 0) != from_int(4, 0)


def test_table_words_are_read_only():
    # sub_function's tables live in an lru_cache, so a write through one
    # caller's table would change every later caller's
    tbl = sub_function(1, 2, 10)
    assert tbl.words.dtype == np.dtype("<u8") and tbl.words.shape == (16,)
    with pytest.raises(ValueError):
        tbl.words[0] = 0
    with pytest.raises(ValueError):
        tbl.words[:] ^= np.uint64(1)
    assert sub_function(1, 2, 10) is tbl
    # the table keeps a read-only view of words passed in writeable
    words = np.zeros(1, dtype="<u8")
    with pytest.raises(ValueError):
        TruthTable(4, words).words[0] = 1


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
            assert anf_table(n, monomials) == from_int(n, _anf_bits(n, monomials))
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
            assert anf_table(n, monomials) == from_int(n, _anf_bits(n, monomials))
    # variables on both sides of v = 6, in one monomial and apart
    n = 10
    for monomials in ([[2, 7]], [[5, 6, 9], [0, 8], [6], [3]], [[9, 0, 9, 0], [6, 5, 4, 3, 2, 1]]):
        assert anf_table(n, monomials) == from_int(n, _anf_bits(n, monomials))
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
            tbl = from_int(n, bits)
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
        for tbl in (from_int(n, rng.getrandbits(1 << n)), constant(n, 1)):
            assert walsh_at_many(tbl, np.arange(1 << n)).tolist() == _pure_python_walsh(tbl, range(1 << n))
    # n = 12: masks on both sides of the low six bits, and high bits only
    n = 12
    masks = [0, 63, 64, (1 << n) - 1, (1 << n) - 64]
    for tbl in (from_int(n, rng.getrandbits(1 << n)), monomial_rsbf(MonomialRsbfSpec(n, 4, 1))):
        assert walsh_at_many(tbl, masks).tolist() == _pure_python_walsh(tbl, masks)
    # n <= 2: one packed byte holds the whole table; x0 and x0 x1 by hand
    assert walsh_at_many(from_int(1, 0b10), np.arange(2)).tolist() == [0, 2]
    assert walsh_at_many(from_int(2, 0b1000), np.arange(4)).tolist() == [2, 2, 2, -2]


def test_walsh_at_many_spans_word_blocks():
    # At n = 23 the 2**17 words take two blocks of word indices.  The
    # reference is W(c) = 2**n - 2 * weight(f ^ c.x), a popcount of the
    # words of f XORed with the built table of c.x.
    # Masks with bit 22 set complement every word of the second block.
    n = 23
    rng = random.Random(n)
    masks = [0, 1, 63, 64, (1 << 22) - 1, 1 << 22, (1 << 22) | 0b101, (1 << n) - 64, (1 << n) - 1]
    for tbl in (from_int(n, rng.getrandbits(1 << n)), linear(n, (1 << 22) | 0b101)):
        expected = [tbl.size - 2 * weight(tbl ^ linear(n, c)) for c in masks]
        assert walsh_at_many(tbl, masks).tolist() == expected


@pytest.mark.parametrize("n", range(1, 17))
def test_stacked_kernels_equal_one_table_kernels(n):
    # Row r of a stack's spectra and direct sums is table r's own: n <= 2
    # takes the byte replication path and n <= 5 one-word tables, and the
    # stack repeats a row.  Masks: empty, one mask repeated, scattered,
    # the dense upper half-space and, up to n = 14, every mask.
    rng = random.Random(200 + n)
    tables = [from_int(n, rng.getrandbits(1 << n)) for _ in range(3)]
    tables.append(tables[1])
    if n >= 4:
        tables.append(sub_function(3, 1, n))
    stack = TableStack.of(tables)
    spectra = walsh_transform(stack).values
    assert spectra.shape == (len(tables), 1 << n) and spectra.dtype == np.int32
    mask_sets = [
        np.array([], dtype=np.int64),
        np.array([rng.randrange(1 << n)] * 9),
        np.array(rng.sample(range(1 << n), min(5, 1 << n))),
        np.arange(1 << (n - 1), 1 << n),
    ]
    if n <= 14:
        mask_sets.append(np.arange(1 << n))
    for masks in mask_sets:
        got = walsh_at_many(stack, masks)
        assert got.shape == (len(tables), masks.size) and got.dtype == np.int64
        for r, tbl in enumerate(tables):
            assert got[r].tolist() == walsh_at_many(tbl, masks).tolist(), (r, masks[:4])
    for r, tbl in enumerate(tables):
        assert np.array_equal(spectra[r], walsh_transform(tbl).values), r


def test_table_stack_checks_its_rows():
    a, b = constant(3, 1), linear(3, 5)
    stack = TableStack.of([a, b])
    assert len(stack) == 2 and stack.n == 3 and not stack.words.flags.writeable
    assert [TruthTable(3, words) for words in stack.words] == [a, b]
    with pytest.raises(ValueError):
        TableStack.of([])
    with pytest.raises(ValueError):
        TableStack.of([a, constant(4, 0)])  # one arity to a stack
    with pytest.raises(ValueError):
        TableStack(3, np.zeros((0, 1), dtype="<u8"))  # no rows
    with pytest.raises(ValueError):
        TableStack(3, np.zeros(1, dtype="<u8"))  # one table's words, not a stack
    with pytest.raises(ValueError):
        TableStack(3, np.array([[0], [1 << 8]], dtype="<u8"))  # a bit past 2**3
    # a stack's spectra are one array of rows, read by row and mask
    spectra = walsh_transform(stack)
    assert spectra.values[1, 5] == walsh_transform(b)[5] == 8
    with pytest.raises(TypeError, match="values\\[row, mask\\]"):
        spectra[5]
    # a pool job's stack is rebuilt on the other side, read-only again
    copy = pickle.loads(pickle.dumps(stack))
    assert not copy.words.flags.writeable and np.array_equal(copy.words, stack.words)


def test_walsh_at_many_mask_shapes():
    # The oracle sums a dense mask set as a rectangle of (high, low) pairs
    # and a scattered one mask by mask; it picks by its cost count, so
    # each shape below is sized to reach the route named.  Every mask
    # comes back at its own position, repeats included.
    rng = random.Random(7)
    for n in range(1, 8):
        # word edges: n <= 5 is under one word, n = 6 fills it, n = 7 takes two
        for tbl in (from_int(n, rng.getrandbits(1 << n)), constant(n, 1)):
            want = _pure_python_walsh(tbl, range(1 << n))
            # dense: every mask, shuffled and repeated to 2**13 masks
            order = list(range(1 << n))
            rng.shuffle(order)
            masks = np.array(order * (1 << (13 - n)))
            assert walsh_at_many(tbl, masks).tolist() == [want[c] for c in masks]
            # scattered: a few masks, unsorted and repeated
            masks = [rng.randrange(1 << n) for _ in range(5)]
            masks += masks[:2]
            assert walsh_at_many(tbl, masks).tolist() == [want[c] for c in masks]
    n = 10
    tbl = from_int(n, rng.getrandbits(1 << n))
    want = _pure_python_walsh(tbl, range(1 << n))
    # dense: the half-space of masks with the top bit set, shuffled
    masks = np.arange(1 << (n - 1), 1 << n)
    rng.shuffle(masks)
    assert walsh_at_many(tbl, masks).tolist() == [want[c] for c in masks]
    # scattered: far-apart masks, including the extremes
    masks = [1023, 0, 517, 64, 63, 1023, 300]
    assert walsh_at_many(tbl, masks).tolist() == [want[c] for c in masks]
    # n = 16: a scattered set against the popcount reference
    n = 16
    tbl = from_int(n, rng.getrandbits(1 << n))
    masks = [rng.randrange(1 << n) for _ in range(24)]
    expected = [tbl.size - 2 * weight(tbl ^ linear(n, c)) for c in masks]
    assert walsh_at_many(tbl, masks).tolist() == expected


def test_walsh_at_many_dense_set_spans_word_blocks():
    # At n = 23 the dense route takes the 2**17 words in blocks of 2**16 /
    # (2 * lows) words, 4096 here.  High 2**16 negates every word from
    # k = 2**16 on, whole blocks at once; high 2**16 - 1 changes sign
    # inside each block.  Eight (high, low) pairs, each 64 times, make the
    # set dense.  Reference: the popcount form.
    n = 23
    rng = random.Random(n)
    tbl = from_int(n, rng.getrandbits(1 << n))
    pairs = [((1 << 16) - 1, 0), ((1 << 16) - 1, 63), ((1 << 16) - 1, 5), (1 << 16, 0),
             (1 << 16, 63), (1 << 16, 40), ((1 << 16) - 1, 33), (1 << 16, 33)]
    distinct = [h << 6 | low for h, low in pairs]
    expected = {c: tbl.size - 2 * weight(tbl ^ linear(n, c)) for c in distinct}
    masks = distinct * 64
    rng.shuffle(masks)
    assert walsh_at_many(tbl, masks).tolist() == [expected[c] for c in masks]


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


@pytest.mark.parametrize("n", range(12, 21))
def test_tile_holds_int16_extremes(n):
    # The lookup and the tile run the stages on the low 12 mask bits in
    # int16.  A constant or linear table puts +-2**12 there, the most any
    # tile entry reaches: at low mask c & 4095 in every row, where the
    # tile's last stage leaves it, for masks of both signs and with the
    # high bits set or clear.  The reference is the popcount form W(c) =
    # 2**n - 2 * weight(f ^ c.x); every other coefficient is 0.
    low = (1 << 12) - 1
    cases = [
        (constant(n, 0), 0),
        (constant(n, 1), 0),
        (linear(n, low), low),
        (linear(n, low) ^ constant(n, 1), low),
        (linear(n, (1 << n) - 1), (1 << n) - 1),
        (linear(n, (1 << n) - 1 - low) ^ constant(n, 1), (1 << n) - 1 - low),
    ]
    for tbl, c in cases:
        values = walsh_transform(tbl).values
        assert values.dtype == np.int32
        want = tbl.size - 2 * weight(tbl ^ linear(n, c))
        assert abs(want) == 1 << n
        assert int(values[c]) == want
        assert np.count_nonzero(values) == 1


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
    for tbl in (from_int(n, rng.getrandbits(1 << n)), member):
        values = walsh_transform(tbl).values
        assert values.dtype == np.int32
        assert values[masks].tolist() == walsh_at_many(tbl, masks).tolist()
        assert int(values[0]) == tbl.size - 2 * weight(tbl)
        wide = values.astype(np.int64)
        assert int(np.dot(wide, wide)) == 4**n


def test_walsh_transform_working_memory():
    # NumPy reports its buffers to tracemalloc.  The transform may hold the
    # int32 spectrum (4 bytes an input), one tile of at most 1 MiB and one
    # block's byte indices cast to intp (2**15 of them, 256 KiB), plus 64
    # KiB of slack for small objects; it reads the table's bytes in place.
    # Measured at n = 20: 1.252 MiB above the spectrum, against 1.3125 MiB
    # allowed.  A copy of the packed bytes (128 KiB at n = 20), an unpacked
    # table or an unblocked take's indices (1 MiB each), or take buffering
    # its out (a second spectrum, 4 MiB) does not fit.
    n = 20
    tbl = from_int(n, random.Random(n).getrandbits(1 << n))
    size = 1 << n
    tracemalloc.start()
    try:
        spectrum = walsh_transform(tbl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum.values.nbytes == 4 * size
    assert peak < 4 * size + (1 << 20) + (256 << 10) + (64 << 10)


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
    # The public route, and the int8 route at every depth k it can take,
    # k = 0 .. min(6, n): its int32 tiles then take 2**k blocks of 1 ..
    # 2**n entries, the low stages of 2**(n - k - 12) tile blocks each
    # from n - k = 18 up.  walsh_blocks takes k = n - 18 from n = 21 up.
    rng = random.Random(n)
    member = monomial_rsbf(MonomialRsbfSpec(n, 4, 1 + n % 3))
    depths = list(range(min(core._INT8_STAGES, n) + 1))
    for tbl in (from_int(n, rng.getrandbits(1 << n)), member):
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
    # NumPy reports its buffers to tracemalloc.  The oracle reads the
    # table's words in place and may hold its block temporaries (1 MiB: a
    # uint64 work array and uint64 word indices of 2**16 entries each) and
    # the int64 answer, plus 64 KiB of slack for small objects and the
    # per-mask arrays (8 bytes a mask each).  Measured at n = 22: 1,066,664
    # B against 1,116,160 B allowed.  A whole-table unpack (4 MiB at n = 22)
    # or a copy of the packed table (512 KiB) does not fit.
    n = 22
    rng = random.Random(n)
    tbl = from_int(n, rng.getrandbits(1 << n))
    masks = np.array(rng.sample(range(1 << n), 256), dtype=np.int64)
    tracemalloc.start()
    try:
        got = walsh_at_many(tbl, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 8 * 256
    assert peak < (1 << 20) + got.nbytes + (64 << 10)


def test_monomial_rsbf_build_working_memory():
    # NumPy reports its buffers to tracemalloc.  A build may hold the uint64
    # words of the table (1/8 byte an input, 512 KiB at n = 22) and a
    # quarter of that again for small objects: measured 595,240 B against
    # 655,360 B allowed.  Its bytes or a packed int held beside the words
    # (512 KiB each) do not fit.  weight and walsh_at then read the words in
    # place: weight's per-word counts (64 KiB) and the direct sum's block
    # temporaries (1 MiB) measured 1,059,009 B against 1.1 MiB allowed; a
    # copy of the table beside them does not fit.
    n = 22
    table_bytes = (1 << n) // 8
    tracemalloc.start()
    try:
        tbl = monomial_rsbf(MonomialRsbfSpec(n, 4, 1))
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        wt, w = weight(tbl), walsh_at(tbl, 12345)
        reads = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert tbl.words.nbytes == table_bytes
    assert build < 1.25 * table_bytes
    assert reads < 1.1 * (1 << 20)
    assert w == walsh_at_many(tbl, [12345])[0] and tbl.size - 2 * wt == walsh_at(tbl, 0)


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
    tbl = from_int(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    spectrum = walsh_transform(tbl)
    c = data.draw(st.integers(0, tbl.size - 1))
    assert spectrum[c] == walsh_at(tbl, c)
    assert spectrum[0] == tbl.size - 2 * weight(tbl)
