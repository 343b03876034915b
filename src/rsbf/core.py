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
    ``rows`` is not read: the table is unpacked once to an int8 store of
    (-1)**f(x), 2**n bytes, and its top k = min(6, n - 18) stages run
    there in place (exact, see _INT8_STAGES).  The 2**k contiguous runs
    of the store are then the 2**k pieces, of span 2**(n - k), each
    widened into one reused int32 buffer (1 MiB up to n = 24) where
    _tiled_stages runs the low stages; the buffer is overwritten by the
    next piece.  Working memory: the store, unpacked straight from a view
    of the table's words, the buffer and a pair of int32 tiles of at most
    1 MiB in all.
    """
    if table.n <= _BLOCKED_ABOVE:
        values = walsh_transform(table).values
        span = min(rows, table.size)
        return span, lambda offset: values[offset : offset + span]
    return _block_pieces(table, min(_INT8_STAGES, table.n - _BLOCK_BITS))


def _block_pieces(table: TruthTable, k: int):
    """walsh_pieces with its top k stages on the int8 store; k must be at
    most min(_INT8_STAGES, n) for int8 to stay exact."""
    size = table.size
    store = np.unpackbits(table.words.view(np.uint8), bitorder="little")[:size].view(np.int8)
    store *= -2
    store += 1  # (-1)**f(x)
    span = size >> k
    _stages(store, span, size)
    v = np.empty(span, dtype=np.int32)
    # the tile stages take entries of up to 2**k to 2**(k + 12) in
    # magnitude, past int16 for the k >= 3 that n > _BLOCKED_ABOVE takes
    tiles = _tiles(span, np.int32)
    width = min(span, _TILE_WIDTH)

    def piece(offset: int) -> np.ndarray:
        rows = store[offset : offset + span].reshape(-1, width)
        _tiled_stages(v, tiles, lambda r0, count, spare: rows[r0 : r0 + count], 0, span)
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

