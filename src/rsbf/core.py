"""Bit-packed truth tables and integer Walsh spectra for Boolean functions.

A function on n variables is stored as one Python integer whose bit x holds
the output at input x.  An input packs the assignment (x_0, ..., x_{n-1}) as
sum x_i * 2**i, so x_0 is always the least significant bit.  Coefficient
masks of linear functions use the same packing.

Tables are built from their monomials on uint64 words (``anf_table``), and
the butterfly reads the packed bytes directly, with no unpacked table.

All spectral values are exact integers; nothing in this module produces a
float.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Hard ceiling keeps one spectrum within a couple of GiB; the configurable
# default below is what commands use unless told otherwise.
HARD_MAX_N = 28
DEFAULT_MAX_N = 24

__all__ = [
    "HARD_MAX_N",
    "DEFAULT_MAX_N",
    "TruthTable",
    "WalshSpectrum",
    "weight",
    "anf_table",
    "walsh_transform",
    "walsh_blocks",
    "walsh_at",
    "walsh_at_many",
    "nonlinearity",
    "SpectrumPeaks",
]


def _check_arity(n: int) -> None:
    if not 1 <= n <= HARD_MAX_N:
        raise ValueError(f"arity must be in 1..{HARD_MAX_N}, got {n}")


@dataclass(frozen=True)
class TruthTable:
    """Boolean function of ``n`` variables with outputs packed into ``bits``."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_arity(self.n)
        if self.bits < 0 or self.bits >> (1 << self.n):
            raise ValueError("packed bits do not fit a table of this arity")

    @property
    def size(self) -> int:
        """Number of table entries, 2**n."""
        return 1 << self.n

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        return TruthTable(self.n, self.bits ^ _same_arity(self, other).bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        return TruthTable(self.n, self.bits & _same_arity(self, other).bits)


def _same_arity(f: TruthTable, g: TruthTable) -> TruthTable:
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    return g


def _check_masks(n: int, masks):
    """Coefficient masks of arity n, range-checked.

    One mask of any integer type comes back as a Python int; an integer
    array comes back as an int64 array of its shape, and an empty array
    passes whatever its dtype.  A mask outside 0 .. 2**n - 1 raises
    IndexError, a non-integer TypeError.
    """
    if np.ndim(masks) == 0:
        c = operator.index(masks)
        if not 0 <= c < 1 << n:
            raise IndexError(f"mask {c} out of range for n={n}")
        return c
    c = np.asarray(masks)
    if c.size:
        if c.dtype.kind not in "iu":
            raise TypeError(f"masks must be integers, got {c.dtype}")
        if c.min() < 0 or c.max() >= 1 << n:
            raise IndexError(f"masks out of range for n={n}")
    return c.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """All 2**n Walsh coefficients of one function, indexed by mask."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (1 << self.n,):
            raise ValueError("spectrum length must be 2**n")

    def __getitem__(self, mask) -> int:
        return int(self.values[_check_masks(self.n, mask)])


def weight(table: TruthTable) -> int:
    """Number of inputs mapped to 1."""
    return table.bits.bit_count()


# _LOW[b] is the table of x -> b.x over the 64 inputs of one word, for a
# six-bit mask b: bit x of the word is the parity of b & x.  It is built in
# NumPy, which leaves no Python-int garbage in the heap at import.
_SIX_BITS = np.arange(64, dtype=np.uint64)
_LOW = np.packbits(
    np.bitwise_count(_SIX_BITS[:, None] & _SIX_BITS) & 1, axis=1, bitorder="little"
).view("<u8")[:, 0]


def anf_table(n: int, monomials) -> TruthTable:
    """XOR of ``monomials``, each an iterable of variable indices.

    Repeated indices collapse (x * x = x), equal monomials cancel in pairs,
    and the empty monomial is the constant 1.  The table is built on the
    2**(n-6) little-endian uint64 words of the packed bits (one word, cut
    to the 2**n valid bits, when n < 6), one NumPy op per monomial, so its
    working memory is the words, their bytes and the packed int.
    """
    _check_arity(n)
    # Word k holds inputs 64k .. 64k + 63, so a variable v >= 6 is bit v - 6
    # of k: axis n - 1 - v of the (2,) * (n - 6) cube of words.  A variable
    # v < 6 varies inside each word, where x_v is the parity of (1 << v) & x.
    words = np.zeros(1 << max(n - 6, 0), dtype="<u8")
    cube = words.reshape((2,) * max(n - 6, 0))
    valid = np.uint64((1 << min(1 << n, 64)) - 1)
    for monomial in monomials:
        word = valid
        where = [slice(None)] * cube.ndim
        for v in monomial:
            if not 0 <= v < n:
                raise ValueError(f"variable index {v} out of range for n={n}")
            if v < 6:
                word &= _LOW[1 << v]
            else:
                where[n - 1 - v] = 1
        cube[tuple(where)] ^= word
    return TruthTable(n, int.from_bytes(words.tobytes(), "little"))


# The butterfly's low stages pair runs of only 1, 2, 4, ... entries, which
# NumPy handles in short strided loops.  So the first three stages come
# from _BYTE_SPECTRA, one 8-entry row per table byte, and the spectrum is
# viewed as rows of _TILE_WIDTH entries, up to _TILE_ROWS rows at a time
# copied transposed into one int32 tile; there stage half pairs contiguous
# runs of half * rows entries.  The tile, 2**12 * 64 * 4 bytes = 1 MiB at
# most and 4 * 2**n bytes for n <= 12, and one block's byte indices cast
# to intp, 2**12 * 64 / 8 * 8 bytes = 256 KiB at most, are all the memory
# the transform adds to the spectrum and the packed table bytes; there is
# no unpacked table, and the tile is small enough to stay in cache while
# its stages run.
_TILE_WIDTH = 1 << 12
_TILE_ROWS = 64


def _stages(v: np.ndarray, half: int, stop: int) -> None:
    """In place on the flat array v, butterfly stages pairing runs of
    half, 2 * half, ... entries, up to runs of stop / 2."""
    while half < stop:
        pairs = v.reshape(-1, 2, half)
        a, b = pairs[:, 0, :], pairs[:, 1, :]
        a += b  # a + b
        b *= -2
        b += a  # a + b - 2b = a - b
        half <<= 1


# _BYTE_SPECTRA[b] is the spectrum of the byte b read as a table of three
# variables, input x at bit x: the first three butterfly stages run on the
# (-1)**bit rows of all 256 bytes.  It is built by the butterfly alone and
# shares nothing with the direct oracle.
_BYTE_SPECTRA = np.arange(256, dtype=np.int32)[:, None] >> np.arange(8, dtype=np.int32)
_BYTE_SPECTRA = 1 - 2 * (_BYTE_SPECTRA & 1)
_stages(_BYTE_SPECTRA.reshape(-1), 1, 8)


def _tiled_stages(v: np.ndarray, tile: np.ndarray, fill, done: int) -> None:
    """Every butterfly stage of the flat int32 array v, in place.

    v is viewed as rows of _TILE_WIDTH entries.  For each block of up to
    _TILE_ROWS of them, fill(block, r0) returns rows r0 .. r0 + len(block)
    with their first ``done`` stages already run (block itself, or rows of
    another array, widened as they are copied).  They are copied transposed
    into ``tile`` (at least min(len(v), _TILE_WIDTH * _TILE_ROWS) entries),
    where stage half pairs contiguous runs of half * rows entries, and the
    stages from _TILE_WIDTH up run on the whole array (Bailey's four-step
    layout); the stages commute, so the order does not change the result.
    """
    width = min(v.shape[0], _TILE_WIDTH)
    grid = v.reshape(-1, width)
    for r0 in range(0, grid.shape[0], _TILE_ROWS):
        block = grid[r0 : r0 + _TILE_ROWS]
        rows = block.shape[0]
        t = tile[: width * rows]
        t.reshape(width, rows)[...] = fill(block, r0).T
        _stages(t, rows << done, width * rows)
        block[...] = t.reshape(width, rows).T
    _stages(v, width, v.shape[0])


def walsh_transform(table: TruthTable) -> WalshSpectrum:
    """Full spectrum by the in-place butterfly, O(n * 2**n) int32 ops.

    The packed table bytes are read once: each byte's 8-entry spectrum is
    looked up in _BYTE_SPECTRA, a tile block at a time, so no unpacked
    table is ever made; _tiled_stages runs the remaining stages.

    int32 is exact: after stage k every entry is a signed count of 2**k
    inputs, so no value, final or partial, exceeds 2**n <= 2**HARD_MAX_N
    = 2**28 < 2**31 in magnitude.
    """
    size = table.size
    # A table under one byte (n <= 2) is repeated across it; the byte's
    # spectrum at c < 2**n is then reps times the table's own, exactly.
    reps = 8 // min(size, 8)
    bits = table.bits if reps == 1 else table.bits * (0xFF // ((1 << size) - 1))
    raw = np.frombuffer(bits.to_bytes(size * reps // 8, "little"), dtype=np.uint8)
    v = np.empty(size * reps, dtype=np.int32)
    row_bytes = min(v.shape[0], _TILE_WIDTH) // 8

    def fill(block: np.ndarray, r0: int) -> np.ndarray:
        # mode="clip" lets take write straight into the block; the default
        # "raise" buffers out, a second spectrum
        byte_rows = raw[r0 * row_bytes : (r0 + block.shape[0]) * row_bytes]
        np.take(_BYTE_SPECTRA, byte_rows, axis=0, out=block.reshape(-1, 8), mode="clip")
        return block

    _tiled_stages(v, np.empty(min(v.shape[0], _TILE_WIDTH * _TILE_ROWS), dtype=np.int32), fill, 3)
    if reps > 1:
        v = v[:size] // reps
    return WalshSpectrum(table.n, v)


# walsh_blocks hands out the spectrum in blocks of 2**_BLOCK_BITS masks, 1
# MiB of int32, once n is above _BLOCKED_ABOVE.  Up to there the one-pass
# transform, which reads its first three stages from _BYTE_SPECTRA, is as
# fast or faster, and its spectrum is 4 MiB at most.  Medians of the
# transform plus its signed extremes for the stride-1 quartic, one-pass
# against blocked, on a 2-CPU Xeon with NumPy 2.4: 6.9 against 8.1 ms at
# n = 19, 14.3 against 14.3 ms at n = 20, 29.7 against 27.3 ms at n = 21,
# 70.3 against 57.1 ms at n = 22 and 411 against 234 ms at n = 24.
_BLOCK_BITS = 18
_BLOCKED_ABOVE = 20
# The top stages run on an int8 store.  Entering stage k every entry is a
# signed count of 2**(k - 1) inputs, so a + b, -2b and a - b, all that the
# stage forms, are at most 2**k in magnitude: k <= 6 keeps |v| <= 64 < 127.
_INT8_STAGES = 6


def walsh_blocks(table: TruthTable):
    """The spectrum of ``walsh_transform`` as (offset, int32 block) pairs
    in mask order: block b holds masks offset .. offset + len(block) - 1.

    Up to n = _BLOCKED_ABOVE it is one block, the full transform.  Above,
    no full int32 spectrum is made: the table is unpacked once to an int8
    store of (-1)**f(x), 2**n bytes, and its top k = min(6, n - 18) stages
    run there in place (exact, see _INT8_STAGES).  The 2**k contiguous
    runs of the store are then the 2**k blocks, each widened into one
    reused int32 buffer of 2**(n - k) entries (1 MiB up to n = 24) where
    _tiled_stages runs the low stages.  The buffer is overwritten by the
    next block, so a caller that keeps a block copies it.  Working memory:
    the store, the packed bytes while they unpack (2**n / 8), the buffer
    and one tile of at most 1 MiB.
    """
    if table.n <= _BLOCKED_ABOVE:
        yield 0, walsh_transform(table).values
    else:
        yield from _blocks(table, min(_INT8_STAGES, table.n - _BLOCK_BITS))


def _blocks(table: TruthTable, k: int):
    """walsh_blocks with its top k stages on the int8 store; k must be at
    most min(_INT8_STAGES, n) for int8 to stay exact."""
    size = table.size
    raw = table.bits.to_bytes((size + 7) // 8, "little")
    store = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]
    store = store.view(np.int8)
    del raw  # the packed bytes go before the blocks' buffers come
    store *= -2
    store += 1  # (-1)**f(x)
    span = size >> k
    _stages(store, span, size)
    v = np.empty(span, dtype=np.int32)
    tile = np.empty(min(span, _TILE_WIDTH * _TILE_ROWS), dtype=np.int32)
    width = min(span, _TILE_WIDTH)
    for offset in range(0, size, span):
        rows = store[offset : offset + span].reshape(-1, width)
        _tiled_stages(v, tile, lambda block, r0: rows[r0 : r0 + block.shape[0]], 0)
        yield offset, v


# Direct sums run over blocks of this many (mask, word) pairs, so the uint64
# work array and the uint64 word indices take 512 KiB each at most.
_WORD_BLOCK = 1 << 16


def walsh_at_many(table: TruthTable, masks) -> np.ndarray:
    """Walsh coefficients at each of ``masks`` by direct summation over all
    inputs, as an int64 vector.

    Deliberately independent of walsh_transform so the butterfly can be
    checked against it; it never calls the transform.  The sum is
    word-packed: 64 inputs at a time, one XOR and one popcount per
    (mask, word) pair, so it costs O(len(masks) * 2**n / 64) word
    operations.  Its working memory is the packed table bytes plus at most
    1 MiB of block temporaries, beside the per-mask arrays and the answer.
    """
    c = np.asarray(masks)
    if c.ndim != 1:
        raise ValueError(f"masks must be one-dimensional, got shape {c.shape}")
    c = _check_masks(table.n, c)
    size = table.size
    # Word k of the little-endian table holds inputs 64k .. 64k + 63.  At
    # x = 64k + j, c.x = (c & 63).j + (c >> 6).k, so over word k the linear
    # function is _LOW[c & 63], complemented when (c >> 6).k is odd.  A
    # table under one word (n <= 5) has k = 0 only, so no complement, and
    # its unused high bits are zero, so _LOW is cut to the valid bits.
    nwords = (size + 63) // 64
    words = np.frombuffer(table.bits.to_bytes(8 * nwords, "little"), dtype="<u8")
    c = c.astype(np.uint64)
    low = _LOW[c & np.uint64(63)] & np.uint64((1 << min(size, 64)) - 1)
    high = c >> np.uint64(6)
    # ones counts the inputs where f(x) + c.x is odd: at most 2**n <= 2**28.
    # One work array and one vector of word indices serve every block.
    ones = np.zeros(c.size, dtype=np.int64)
    width = min(nwords, _WORD_BLOCK)
    rows = _WORD_BLOCK // width
    k = np.arange(width, dtype=np.uint64)
    work = np.empty((min(rows, c.size), width), dtype=np.uint64)
    for k0 in range(0, nwords, width):
        for r0 in range(0, c.size, rows):
            r1 = min(r0 + rows, c.size)
            t = work[: r1 - r0]
            np.bitwise_and(high[r0:r1, None], k, out=t)
            np.bitwise_count(t, out=t)
            t &= np.uint64(1)
            np.negative(t, out=t)  # all ones where the word is complemented
            t ^= words[k0 : k0 + width]
            t ^= low[r0:r1, None]
            np.bitwise_count(t, out=t)
            ones[r0:r1] += t.view(np.int64).sum(axis=1)  # counts 0..64
        k += np.uint64(width)
    return size - 2 * ones


def walsh_at(table: TruthTable, mask) -> int:
    """One Walsh coefficient by direct summation over all inputs; see
    walsh_at_many.  A mask out of range raises IndexError, however large."""
    return int(walsh_at_many(table, [_check_masks(table.n, mask)])[0])


def nonlinearity(table: TruthTable) -> int:
    """Minimum distance to the 2**n linear functions.

    Constants and complements of linear functions are not in the reference
    set.
    """
    top = max(int(block.max()) for _, block in walsh_blocks(table))
    return (table.size - top) // 2


class SpectrumPeaks:
    """Signed extremes of a spectrum read as (offset, block) pairs in mask
    order, as walsh_blocks yields them; nothing of a block is kept.

    ``zero`` is S(0), from the block at offset 0; ``top`` and ``bottom``
    are the max and min, at the lowest masks ``k_top`` and ``k_bottom``
    that reach them: a later block, whose masks are higher, replaces an
    extreme only when it beats it.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.zero = self.top = self.bottom = None
        self.k_top = self.k_bottom = 0

    @classmethod
    def of(cls, n: int, blocks) -> "SpectrumPeaks":
        peaks = cls(n)
        for offset, block in blocks:
            peaks.add(offset, block)
        return peaks

    def add(self, offset: int, block: np.ndarray) -> int:
        """Take in one block; returns the block's own peak magnitude."""
        if offset == 0:
            self.zero = int(block[0])
        k_max, k_min = int(np.argmax(block)), int(np.argmin(block))
        hi, lo = int(block[k_max]), int(block[k_min])
        if self.top is None or hi > self.top:
            self.top, self.k_top = hi, offset + k_max
        if self.bottom is None or lo < self.bottom:
            self.bottom, self.k_bottom = lo, offset + k_min
        return max(hi, -lo)

    def argmax(self) -> tuple[int, int, int, int]:
        """(signed argmax, signed max, abs argmax, abs max).  Ties break
        toward the lowest mask; the peak magnitude is the larger of max and
        -min, read with no |W| copy of the spectrum."""
        top, bottom = self.top, -self.bottom
        if top == bottom:
            k_abs = min(self.k_top, self.k_bottom)
        else:
            k_abs = self.k_top if top > bottom else self.k_bottom
        return self.k_top, top, k_abs, max(top, bottom)

