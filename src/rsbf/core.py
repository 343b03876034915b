"""Bit-packed truth tables and integer Walsh spectra for Boolean functions.

A function on n variables is stored as packed little-endian uint64 words:
bit j of word k holds the output at input 64k + j.  An input packs the
assignment (x_0, ..., x_{n-1}) as sum x_i * 2**i, so x_0 is always the
least significant bit.  Coefficient masks of linear functions use the same
packing.

Tables are built from their monomials on those words (``anf_table``), and
every kernel reads views of them: no Python-int copy and no unpacked table
is made on the way.

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
    "TableStack",
    "WalshSpectrum",
    "weight",
    "anf_table",
    "walsh_transform",
    "walsh_blocks",
    "walsh_pieces",
    "walsh_at",
    "walsh_at_many",
    "walsh_at_anf",
    "nonlinearity",
    "SpectrumPeaks",
]


def _check_arity(n: int) -> None:
    if not 1 <= n <= HARD_MAX_N:
        raise ValueError(f"arity must be in 1..{HARD_MAX_N}, got {n}")


def _word_count(n: int) -> int:
    """Words of a table of arity n: one below n = 6, else 2**(n - 6)."""
    return 1 << max(n - 6, 0)


def _read_only_words(n: int, words, ndim: int) -> np.ndarray:
    """A read-only view of ``words``, checked to be tables of arity n: a
    little-endian uint64 array of ``ndim`` dimensions, the last of
    _word_count(n) words and any other of at least one row, with nothing
    set past the 2**n valid bits of a one-word table (n < 6)."""
    if not isinstance(words, np.ndarray) or words.dtype != np.dtype("<u8"):
        raise ValueError("words must be a little-endian uint64 array")
    if words.ndim != ndim or words.shape[-1] != _word_count(n) or not words.shape[0]:
        raise ValueError(f"a table of arity {n} takes {_word_count(n)} words, "
                         f"got shape {words.shape}")
    if n < 6 and np.any(words >> np.uint64(1 << n)):
        raise ValueError("packed bits do not fit a table of this arity")
    words = words.view()
    words.flags.writeable = False
    return words


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Boolean function of ``n`` variables, its outputs packed into the
    little-endian uint64 ``words``: bit j of word k is f(64k + j).  Below
    n = 6 the one word is cut to its 2**n valid bits.

    The table keeps a read-only view of ``words``, so no holder of the
    table (the ``lru_cache`` of ``sub_function`` among them) can change it.
    """

    n: int
    words: np.ndarray

    def __post_init__(self) -> None:
        _check_arity(self.n)
        object.__setattr__(self, "words", _read_only_words(self.n, self.words, 1))

    @property
    def size(self) -> int:
        """Number of table entries, 2**n."""
        return 1 << self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.words, other.words)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        return TruthTable(self.n, self.words ^ _same_arity(self, other).words)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        return TruthTable(self.n, self.words & _same_arity(self, other).words)


@dataclass(frozen=True, eq=False)
class TableStack:
    """Tables of one arity ``n`` as the rows of one read-only uint64 array
    ``words`` of shape (tables, words a table), each row packed as a
    TruthTable's words.

    walsh_transform and walsh_at_many take a stack in one pass over all its
    rows, so NumPy's fixed cost per call, which is most of a call's time at
    small n, is paid once for the stack; a TruthTable is the one-row case.
    """

    n: int
    words: np.ndarray

    def __post_init__(self) -> None:
        _check_arity(self.n)
        object.__setattr__(self, "words", _read_only_words(self.n, self.words, 2))

    @classmethod
    def of(cls, tables) -> "TableStack":
        """The stack of ``tables``, one or more of one arity, in order."""
        tables = list(tables)
        if not tables:
            raise ValueError("a stack takes at least one table")
        for table in tables:
            _same_arity(tables[0], table)
        return cls(tables[0].n, np.stack([table.words for table in tables]))

    def __len__(self) -> int:
        return self.words.shape[0]

    def __reduce__(self):
        # a stack sent to a pool worker is rebuilt there, read-only again
        return TableStack, (self.n, self.words)


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
    """All 2**n Walsh coefficients of one function, indexed by mask; the
    spectra of a TableStack hold one such row of ``values`` per table."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim > 2 or self.values.shape[-1:] != (1 << self.n,):
            raise ValueError("spectrum length must be 2**n")

    def __getitem__(self, mask) -> int:
        if self.values.ndim != 1:
            raise TypeError("a stack's spectra take a row and a mask: read values[row, mask]")
        return int(self.values[_check_masks(self.n, mask)])


def weight(table: TruthTable) -> int:
    """Number of inputs mapped to 1: a popcount of the words.  Each word
    counts 0..64 and the sum is at most 2**n <= 2**28, so int64 is exact."""
    return int(np.bitwise_count(table.words).sum(dtype=np.int64))


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
    and the empty monomial is the constant 1.  The table is built on its
    own 2**(n-6) little-endian uint64 words (one word, cut to the 2**n
    valid bits, when n < 6), one NumPy op per monomial in place, and they
    are returned read-only: its working memory is the words, 2**n / 8
    bytes.
    """
    _check_arity(n)
    words = np.zeros(_word_count(n), dtype="<u8")
    _xor_monomials(n, words, monomials)
    return TruthTable(n, words)


def _xor_monomials(n: int, words: np.ndarray, monomials) -> None:
    """XOR each of ``monomials`` into the writable table words of arity n,
    in place, one NumPy op a monomial."""
    # Word k holds inputs 64k .. 64k + 63, so a variable v >= 6 is bit v - 6
    # of k: axis n - 1 - v of the (2,) * (n - 6) cube of words.  A variable
    # v < 6 varies inside each word, where x_v is the parity of (1 << v) & x.
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


# The butterfly's low stages pair runs of only 1, 2, 4, ... entries, which
# NumPy handles in short strided loops.  So the first three stages come
# from _BYTE_SPECTRA, one 8-entry row per table byte, and the spectrum is
# viewed as rows of _TILE_WIDTH entries, a block of rows at a time copied
# transposed into a pair of tiles; there stage half pairs contiguous runs
# of half * rows entries, out of place from one tile to the other.  The
# pair takes _TILE_BYTES, 1 MiB, whatever its dtype: 64 rows of int16 or
# 32 of int32 (4 * 2**n bytes or 8 * 2**n bytes in all for n <= 12).  It
# and one block's byte indices cast to intp, 2**12 * 64 / 8 * 8 bytes =
# 256 KiB at most, are all the memory the transform adds to the spectrum;
# it reads the table's bytes as a view of its words, there is no unpacked
# table, and the tiles are small enough to stay in cache while their
# stages run.
_TILE_WIDTH = 1 << 12
_TILE_BYTES = 1 << 20


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
# shares nothing with the direct oracle.  Its entries are at most 8 in
# magnitude, and it is int16 to match the transform's tiles.
_BYTE_SPECTRA = np.arange(256, dtype=np.int16)[:, None] >> np.arange(8, dtype=np.int16)
_BYTE_SPECTRA = 1 - 2 * (_BYTE_SPECTRA & 1)
_stages(_BYTE_SPECTRA.reshape(-1), 1, 8)


def _tiles(size: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The pair of tiles for a spectrum, or block, of ``size`` entries:
    _TILE_BYTES in all, or less when ``size`` entries fill them."""
    entries = min(size, _TILE_BYTES // (2 * np.dtype(dtype).itemsize))
    return np.empty(entries, dtype=dtype), np.empty(entries, dtype=dtype)


def _tiled_stages(v: np.ndarray, tiles, fill, done: int, span: int) -> None:
    """Every butterfly stage of each run of ``span`` entries of the flat
    int32 array v, in place: v holds one spectrum, or one per row of a
    stack, and no stage pairs entries of two runs.

    Each run is viewed as rows of width min(span, _TILE_WIDTH) entries,
    taken a block of as many rows as a tile of ``tiles`` holds.
    fill(r0, rows, spare) returns rows r0 .. r0 + rows - 1 of v with their
    first ``done`` stages already run, as a (rows, width) array: rows of
    another array, or rows it writes into the tile ``spare``.  They are
    copied transposed into the other tile, where stage half pairs
    contiguous runs of half * rows entries, each stage one add and one
    subtract from one tile into the other, and widened into v as they are
    copied back.  The stages from _TILE_WIDTH up to span run on the whole
    array (Bailey's four-step layout); the stages commute, so the order
    does not change the result.  The tiles' dtype must hold every entry
    the tile stages form.
    """
    width = min(span, _TILE_WIDTH)
    grid = v.reshape(-1, width)
    block_rows = tiles[0].shape[0] // width
    for r0 in range(0, grid.shape[0], block_rows):
        block = grid[r0 : r0 + block_rows]
        rows = block.shape[0]
        a, b = (t[: width * rows] for t in tiles)
        b.reshape(width, rows)[...] = fill(r0, rows, a).T
        half = rows << done
        while half < width * rows:
            src, dst = b.reshape(-1, 2, half), a.reshape(-1, 2, half)
            np.add(src[:, 0], src[:, 1], out=dst[:, 0])
            np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
            a, b = b, a
            half <<= 1
        block[...] = b.reshape(width, rows).T
    _stages(v, width, span)


def walsh_transform(tables) -> WalshSpectrum:
    """Full spectrum by the butterfly, O(n * 2**n) integer ops a table.

    ``tables`` is a TruthTable, whose spectrum comes back, or a TableStack,
    whose spectra come back as the (tables, 2**n) values of one
    WalshSpectrum, row r the spectrum of table r.  A stack is one pass over
    the concatenated bytes of its rows, a view of their words: each byte's
    8-entry spectrum is looked up in _BYTE_SPECTRA, a tile block at a time,
    straight into one int16 tile, so no unpacked table is ever made;
    _tiled_stages runs the remaining stages of each row, those on the mask
    bits below n only, so no stage pairs entries of two tables.

    After stage k every entry is a signed count of 2**k inputs, so no
    value, final or partial, exceeds 2**k in magnitude.  The lookup covers
    stages 1..3 and the tile stages 4..12, the low 12 mask bits, so every
    tile entry is at most 2**12 < 2**15 in magnitude and int16 is exact
    there.  The stages on the row bits run on the int32 spectrum, exact to
    2**n <= 2**HARD_MAX_N = 2**28 < 2**31, whatever the number of rows.
    """
    n, size = tables.n, 1 << tables.n
    words = tables.words.reshape(-1, _word_count(n))
    raw = words.view(np.uint8)[:, : (size + 7) // 8].reshape(-1)
    # A table under one byte (n <= 2) is repeated across it; the byte's
    # spectrum at c < 2**n is then reps times the table's own, exactly.
    reps = 8 // min(size, 8)
    if reps > 1:
        raw = raw * np.uint8(0xFF // ((1 << size) - 1))  # 2**size - 1 times it is 255
    span = size * reps  # entries a table
    v = np.empty(words.shape[0] * span, dtype=np.int32)
    row_bytes = min(span, _TILE_WIDTH) // 8

    def fill(r0: int, rows: int, spare: np.ndarray) -> np.ndarray:
        # mode="clip" lets take write straight into the tile; the default
        # "raise" buffers out, a second tile
        byte_rows = raw[r0 * row_bytes : (r0 + rows) * row_bytes]
        np.take(_BYTE_SPECTRA, byte_rows, axis=0, out=spare.reshape(-1, 8), mode="clip")
        return spare.reshape(rows, -1)

    _tiled_stages(v, _tiles(v.shape[0], np.int16), fill, 3, span)
    v = v.reshape(-1, span)
    if reps > 1:
        v = v[:, :size] // reps
    return WalshSpectrum(n, v.reshape(tables.words.shape[:-1] + (size,)))


# walsh_pieces hands out the spectrum in blocks of 2**_BLOCK_BITS masks, 1
# MiB of int32, above n = _BLOCKED_ABOVE, where the one-pass transform's
# spectrum passes 4 MiB.  Medians of 9 of the transform plus its signed
# extremes for the stride-1 quartic, one-pass against blocked, on a 2-CPU
# Xeon with NumPy 2.4: 4.1/7.3 ms at n = 19, 8.5/11.3 at 20, 19.0/24.0 at
# 21, 41.4/50.6 at 22 and 246/206 at 24.  A dump at n = 19 and 20 is cut
# into pieces of 2**_PIECE_BITS masks of the blocked route (one-pass
# against blocked 3.5/6.0 and 9.0/13.2 ms in one process), so no process
# holds the spectrum, and one at n = 21..23 into pieces of 2**_DUMP_BITS
# masks, 512 KiB of int32 each, at k = n - 17 where walsh_blocks takes
# k = n - 18, so a dump holds half the block.  Every piece of the stride-1
# quartic in one process, thread time, medians of 21 interleaved, k =
# n - 18 against n - 17: 22.7/23.5 ms at n = 21, 46.0/46.2 at 22 and
# 91.5/91.5 at 23; at n = 24 both take k = 6, 190.7 ms.  A word of the
# transposed table holds 2**k <= 64 bits, so the top stages are
# _TOP_STAGES at most.
_BLOCK_BITS = 18
_BLOCKED_ABOVE = 20
_DUMP_BITS = 17
_PIECE_BITS = 16
_TOP_STAGES = 6
# bytes of words transposed at a time, and words counted at a time (the
# count's scratch, 128 KiB at most, stays in cache)
_TRANSPOSE_BYTES = 1 << 20
_COUNT_WORDS = 1 << 14

# _PARITY[j] has bit h set where j.h is odd: the signs at j of the spectra
# of the 64 unit vectors, so it is the butterfly's own, as _BYTE_SPECTRA
# is, and shares nothing with _LOW and the direct oracle.  It is built in
# int16 with _BYTE_SPECTRA's NumPy loops: int8 ones would page 0.24 MiB
# more of NumPy's code into every process.
_PARITY = np.eye(64, dtype=np.int16)
_stages(_PARITY.reshape(-1), 1, 64)
_PARITY = np.packbits((1 - _PARITY) >> 1, axis=1, bitorder="little").view("<u8")[:, 0]


def walsh_blocks(table: TruthTable):
    """The spectrum of ``walsh_transform`` as (offset, int32 block) pairs
    in mask order: block b holds masks offset .. offset + len(block) - 1.

    Up to n = _BLOCKED_ABOVE it is one block, the full transform.  Above,
    no full int32 spectrum is made: the blocks are walsh_pieces', each
    made as it is asked for, into one reused buffer, so a caller that
    keeps a block copies it.
    """
    span, piece = walsh_pieces(table, table.size)
    for offset in range(0, table.size, span):
        yield offset, piece(offset)


def walsh_pieces(table: TruthTable, rows: int):
    """The spectrum of ``walsh_transform`` as (span, piece): piece(offset),
    for offset a multiple of span, returns the int32 values of masks
    offset .. offset + span - 1.  The work the pieces share is done here,
    and a piece costs only its own, so forked children can make any
    subset of them.

    Up to n = _BLOCKED_ABOVE the one-pass transform runs here, and a piece
    is a view of ``rows`` of its entries (all of them if fewer).  Above,
    a piece is one of _block_pieces' at depth k = min(6, n - 18), or with
    ``rows`` under 2**n (a dump's pieces) k = min(6, n - 17); at n = 19
    and 20 it is one for ``rows`` under 2**n, at k = n - 16.  Their
    working memory is 2**n bits of transposed table, a span of int32 (1
    MiB up to n = 24), two tiles of 1 MiB in all and 1.5 MiB of scratch
    at most: nothing of 2**n bytes.  The pieces keep P, not the table.
    """
    n = table.n
    if n > _BLOCKED_ABOVE:
        bits = _BLOCK_BITS if rows >= table.size else _DUMP_BITS
        return _block_pieces(table, min(_TOP_STAGES, n - bits))
    if rows < table.size and n - _PIECE_BITS >= 3:  # P of 2**n bits
        return _block_pieces(table, n - _PIECE_BITS)
    values = walsh_transform(table).values
    span = min(rows, table.size)
    return span, lambda offset: values[offset : offset + span]


def _transposed(table: TruthTable, k: int) -> np.ndarray:
    """P: with span = 2**(n - k), word x holds f(h * span + x) at bit h
    for each of the 2**k slices h, in words of w = max(2**k, 8) bits:
    2**n bits in all for k >= 3, a byte a word below.

    The slices' rows, cut into w-bit words, are transposed a w x w bit
    block at a time by the mask-swap of "Hacker's Delight" (Warren, 2002,
    section 7-3): stage j swaps bit b + j of row r with bit b of row r + j
    for the r and b without bit j, rows past the slices being zero.  Rows
    under a word (a table of at most 4096 bits) are unpacked instead.
    """
    slices, span = 1 << k, table.size >> k
    w = max(slices, 8)
    dtype = np.dtype(f"<u{w // 8}")
    if span < w:
        bits = np.unpackbits(table.words.view(np.uint8), bitorder="little")[: table.size]
        packed = np.packbits(bits.reshape(slices, span).T, axis=1, bitorder="little")
        return np.ascontiguousarray(packed).view(dtype).reshape(span)
    columns = span // w
    rows = table.words.view(dtype)[: table.size // w].reshape(slices, columns)
    p = np.empty(span, dtype=dtype)
    chunk = min(columns, _TRANSPOSE_BYTES // (w * dtype.itemsize))
    block = np.empty((w, chunk), dtype=dtype)
    swap = np.empty(w // 2 * chunk, dtype=dtype)
    masks = [(j, dtype.type(sum(1 << b for b in range(w) if not b & j)))
             for j in (w >> s for s in range(1, w.bit_length()))]
    for c0 in range(0, columns, chunk):
        block[:slices] = rows[:, c0 : c0 + chunk]
        block[slices:] = 0
        for j, mask in masks:
            pairs = block.reshape(-1, 2, j, chunk)
            lo, hi, t = pairs[:, 0], pairs[:, 1], swap.reshape(-1, j, chunk)
            np.right_shift(lo, j, out=t)
            t ^= hi
            t &= mask
            hi ^= t
            np.multiply(t, dtype.type(1 << j), out=t)  # t << j; uint8 shifts are slow
            lo ^= t
        p.reshape(columns, w)[c0 : c0 + chunk] = block.T
    return p


def _block_pieces(table: TruthTable, k: int):
    """walsh_pieces with its top k stages, 0 <= k <= min(_TOP_STAGES, n),
    read from P (_transposed): after them, entry j * span + x is the sum
    over slices h of (-1)**(f(h * span + x) + j.h), that is 2**k - 2 *
    popcount(P[x] ^ L_j), L_j = _PARITY[j] cut to 2**k bits.  Piece j
    forms these in the tile fill, a tile block at a time, as int8 (exact:
    at most 2**k <= 64 in magnitude), widened into one reused int32
    buffer where _tiled_stages runs the low stages.
    """
    span = table.size >> k
    p = _transposed(table, k)
    patterns = (_PARITY[: 1 << k] & np.uint64((1 << (1 << k)) - 1)).astype(p.dtype)
    v = np.empty(span, dtype=np.int32)
    # the tile stages take entries of up to 2**k to 2**(k + 12) in
    # magnitude, past int16 for the k >= 3 that n > _BLOCKED_ABOVE takes
    tiles = _tiles(span, np.int32)
    width = min(span, _TILE_WIDTH)
    # NumPy 2.4 counts uint16 bits at about 1.25 ns a word, uint32 at 0.43
    wide = np.uint32 if p.dtype == np.uint16 else p.dtype
    words = np.empty(min(tiles[0].shape[0], _COUNT_WORDS), dtype=wide)
    top = np.uint8(1 << k)

    def piece(offset: int) -> np.ndarray:
        pattern = patterns[offset // span]

        def fill(r0: int, rows: int, spare: np.ndarray) -> np.ndarray:
            x0, count = r0 * width, rows * width
            out = spare.view(np.uint8)[:count]
            for s in range(0, count, words.size):
                ones = words[: min(words.size, count - s)]
                np.bitwise_xor(p[x0 + s : x0 + s + ones.size], pattern, out=ones)
                c = np.bitwise_count(ones, out=out[s : s + ones.size])
                np.add(c, c, out=c)
                np.subtract(top, c, out=c)  # 2**k - 2 * popcount, mod 2**8
            return out.view(np.int8).reshape(rows, width)

        _tiled_stages(v, tiles, fill, 0, span)
        return v

    return span, piece


# Direct sums run over blocks of this many (row, word) pairs, so the uint64
# work array and the uint64 word indices take 512 KiB each at most, for a
# table or a whole stack.  On a dense mask set a block of words and its G
# take half that each.
_WORD_BLOCK = 1 << 16


def _pow2_at_most(x: int) -> int:
    return 1 << (max(x, 1).bit_length() - 1)


def walsh_at_many(tables, masks) -> np.ndarray:
    """Walsh coefficients at each of ``masks`` by direct summation over all
    inputs, as an int64 vector for a TruthTable and an int64 (tables,
    masks) matrix for a TableStack, row r that of table r.

    Deliberately independent of walsh_transform so the butterfly can be
    checked against it; it never calls the transform.  The sum is
    word-packed, 64 inputs at a time.  Word k of the little-endian table
    holds inputs x = 64k + j, where c.x = l.j + h.k for the low mask
    l = c & 63 and the high mask h = c >> 6.  So

        W(c) = sum over k of s(h, k) * G[k, l],

    with s(h, k) = (-1)**popcount(h & k) and G[k, l] = 64 - 2 *
    popcount(word_k ^ _LOW[l]), the word's own sum at low l (on the 2**n
    valid bits of the one word when n < 6).  s depends on the masks alone,
    so it is formed once for a whole stack, and G once for each table.

    On a dense mask set G is counted once per word and distinct low, at
    most 64 of them, s once per word and high in the span of the highs,
    and the sum is an int64 matrix product of the two: each (high, low)
    pair is summed once and read by every mask that has it.  A scattered
    set is summed one mask at a time: one XOR and one popcount per
    (table, mask, word), the word complemented where s(h, k) = -1.  The
    choice follows a count of NumPy passes.

    Over all highs W is a Walsh transform of G's columns, but it is not
    taken as one: each coefficient is its own sum over every word, so no
    value passes through another and the route shares nothing with the
    butterfly.  It costs O(len(masks) * 2**n / 64) word operations a
    table.  It reads the tables' words in place, so its working memory is
    at most 1 MiB of block temporaries, beside the per-mask arrays, the
    dense rectangle (under 8 entries a mask and table) and the answer.
    """
    c = np.asarray(masks)
    if c.ndim != 1:
        raise ValueError(f"masks must be one-dimensional, got shape {c.shape}")
    n = tables.n
    c = _check_masks(n, c)
    words = tables.words.reshape(-1, _word_count(n))
    count, nwords = words.shape
    # a table under one word (n <= 5) has its unused high bits zero, so
    # _LOW is cut to the valid bits and a word counts min(2**n, 64) inputs
    valid = min(1 << n, 64)
    cut = np.uint64((1 << valid) - 1)
    high, low = c >> 6, c & 63
    # In NumPy passes over the words, a mask summed alone costs about 4
    # for its s and 4 a table, and some 64 a table for its row of counts;
    # a rectangle costs about 5 for each row of s and of each table's G,
    # one for each (table, high, low), every high in the span by every
    # distinct low, and some 2**15 in all for its extra calls.  Its span is
    # read only when a span of one high would pay, so one or two masks cost
    # nothing more.  Both routes timed, best of 25, on a 2-CPU Xeon with
    # NumPy 2.4, over 1, 2, 4 and 7 tables at arities 4..14 on every mask
    # and on one half (the identity grids' left stacks over both halves or
    # one, and their lower-arity terms, each drop's 2**(n - drop) distinct
    # masks), and on 1..256 scattered masks at arities 8..14 and 1..4 at
    # 16..24: the count picks the faster route in all but 1 of 167 cases,
    # by 5 %.  Without the 64 for a row of counts it missed 14, 10 of them
    # by more than 10 % and up to 1.8 times, all with 128 to 512 masks at
    # arities 7 to 10 (4 rows at arity 8 on every mask: alone 85 against
    # 57 us).
    most = min(c.size, 64)  # distinct lows, at most
    alone = (nwords * 4 * (1 + count) + 64 * count) * c.size

    def rectangle(span: int) -> int:
        return nwords * (count * span * most + 5 * (span + count * most)) + (1 << 15)

    dense = False
    if rectangle(1) <= alone:
        h0 = int(high.min())
        span = int(high.max()) - h0 + 1
        dense = rectangle(span) <= alone
    if dense:
        seen = np.zeros(64, dtype=bool)
        seen[low] = True
        lows = np.flatnonzero(seen)
        rows = np.arange(h0, h0 + span, dtype=np.uint64)
        low_words = _LOW[lows] & cut
        width = min(nwords, _pow2_at_most(_WORD_BLOCK // (2 * count * lows.size)))
        g = np.empty((count, lows.size, width), dtype=np.uint64)
        # sums[h - h0, r, j]: W of table r at high h and the j-th distinct low
        sums = np.zeros((span, count, lows.size), dtype=np.int64)
    else:
        rows = high.astype(np.uint64)
        row_words = _LOW[low] & cut
        width = min(nwords, _pow2_at_most(_WORD_BLOCK // count))
        # ones[r, m]: the inputs where table r's f(x) + c_m.x is odd, at most 2**n
        ones = np.zeros((count, c.size), dtype=np.int64)
    # the work array holds s on the dense route, and on the scattered route
    # one row of words for each table and mask
    layers = 1 if dense else count
    row_block = max(_WORD_BLOCK // (width * layers), 1)
    k = np.arange(width, dtype=np.uint64)
    work = np.empty((layers, min(row_block, rows.size), width), dtype=np.uint64)
    # |G| <= 64 and a sum runs over at most 2**n <= 2**28 inputs, so every
    # partial sum is exact in int64
    for k0 in range(0, nwords, width):
        block = words[:, k0 : k0 + width]
        if dense:
            np.bitwise_xor(block[:, None, :], low_words[:, None], out=g)
            np.bitwise_count(g, out=g)
            g_int = g.view(np.int64)
            g_int *= -2
            g_int += valid  # G
        for r0 in range(0, rows.size, row_block):
            r1 = min(r0 + row_block, rows.size)
            t = work[:, : r1 - r0]
            first = t[0]
            np.bitwise_and(rows[r0:r1, None], k, out=first)
            np.bitwise_count(first, out=first)
            first &= np.uint64(1)  # h.k mod 2
            if dense:
                s = first.view(np.int64)
                s *= -2
                s += 1  # s(h, k)
                sums[r0:r1] += (s @ g_int.reshape(-1, width).T).reshape(r1 - r0, count, -1)
            else:
                np.negative(first, out=first)  # all ones where the word is complemented
                if count > 1:  # every other table's rows from the first's
                    np.bitwise_xor(t[:1], block[1:, None, :], out=t[1:])
                first ^= block[0]
                t ^= row_words[r0:r1, None]
                np.bitwise_count(t, out=t)
                ones[:, r0:r1] += t.view(np.int64).sum(axis=2)  # counts 0..64
        k += np.uint64(width)
    if dense:
        values = sums[high - h0, :, (np.cumsum(seen) - 1)[low]].T
    else:
        values = (1 << n) - 2 * ones
    return values.reshape(tables.words.shape[:-1] + (c.size,))


def walsh_at(table: TruthTable, mask) -> int:
    """One Walsh coefficient by direct summation over all inputs; see
    walsh_at_many.  A mask out of range raises IndexError, however large."""
    return int(walsh_at_many(table, [_check_masks(table.n, mask)])[0])


# walsh_at_anf sums subcubes of 2**_SUBCUBE_BITS inputs, a 128 KiB table
# each.  Medians of one mask's sum on a 2-CPU Xeon with NumPy 2.4, for
# subcubes of 2**18 / 2**20 / 2**22 inputs: 2.8 / 2.8 / 5.5 ms for the
# stride-1 quartic at n = 24, 20 / 6.8 / 35 ms at n = 28, and 140 / 87 /
# 99 ms for stride 5 at n = 28, whose restrictions seldom repeat; building
# the whole table and summing it took 5.1, 77 and 63 ms.  Smaller subcubes
# pay NumPy's cost per call on more of them, and larger ones leave the
# cache.
_SUBCUBE_BITS = 20


def walsh_at_anf(n: int, monomials, masks):
    """Walsh coefficients of the XOR of ``monomials`` (as anf_table takes
    them) on n variables at ``masks``, by direct summation, with no table
    of 2**n bits: one int for one mask, an int64 array for an array.

    With m = min(n, _SUBCUBE_BITS), the inputs split into the 2**(n - m)
    subcubes whose top n - m variables are fixed to a, and

        W(c) = sum over a of (-1)**popcount(c_hi & a) * W_a(c_lo),

    with c_lo = c mod 2**m, c_hi = c >> m and W_a the spectrum of f with
    its top variables fixed to a (Carlet, Boolean Functions for
    Cryptography and Coding Theory, CUP 2021, ch. 2).  That restriction is
    the XOR of the monomials whose fixed variables are all 1 in a, cut to
    their low variables, so each subcube's table of 2**m bits is built
    from them and summed by walsh_at_many, the one direct oracle; a kept
    monomial with no low variable is the constant 1 and negates W_a, and
    subcubes whose other kept monomials agree share one sum (the
    quartic's 256 subcubes at n = 28 take 16).  Every term is at most
    2**m in magnitude and the sum at most 2**n <= 2**28, so int64 is
    exact.  A mask out of range raises IndexError before anything is
    built.
    """
    _check_arity(n)
    c = _check_masks(n, masks)
    scalar = isinstance(c, int)
    c = np.asarray(c, dtype=np.int64)
    m = min(n, _SUBCUBE_BITS)
    # each monomial as (its fixed variables' bits, its variables below m)
    terms = []
    for monomial in monomials:
        bits = 0
        for v in monomial:
            if not 0 <= v < n:
                raise ValueError(f"variable index {v} out of range for n={n}")
            bits |= 1 << v
        terms.append((bits >> m, tuple(v for v in range(m) if bits >> v & 1)))
    low, high = c.reshape(-1) & ((1 << m) - 1), c.reshape(-1) >> m
    total = np.zeros(c.size, dtype=np.int64)
    sums: dict = {}
    for a in range(1 << (n - m)):
        kept = [low_vars for fixed, low_vars in terms if fixed & a == fixed]
        key = tuple(low_vars for low_vars in kept if low_vars)
        if key not in sums:
            sums[key] = walsh_at_many(anf_table(m, key), low)
        odd = (np.bitwise_count(high & a) + (len(kept) - len(key))) & 1
        total += np.where(odd, -sums[key], sums[key])
    return int(total[0]) if scalar else total.reshape(c.shape)


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

