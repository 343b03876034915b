"""Walsh coefficients by the transfer-matrix method, from no truth table.

A stride-1 degree-l function is a sum of windows x_i ... x_{i+l-1}, so
its Walsh sum can be run one input bit at a time with the last l - 1 bits
as the state (Stanley, Enumerative Combinatorics I, section 4.7).  Each
step places one bit x_k and emits the monomial that ends there,
x_{k-l+1} ... x_k; the 2^(l-1) square matrix T_b of that step holds the
sign it contributes, with b the mask bit of x_k.  The family is then a
trace around the cycle and each chain variant an open chain between a
head and a tail vector.  The single-coefficient routes run on Python ints,
so no width bound applies there; the values obey |W| <= 2^n.

``peak_certificate`` splits the trace in the middle (meet in the middle:
Horowitz and Sahni, JACM 1974): W(a + (b << h)) = Tr(A_a B_b), with A_a the
product of the h = t // 2 low steps and B_b that of the t - h high steps,
held as two int64 stacks.  It is exact in int64.  An entry of A_a is a
signed count of h-step walks, so |A| <= 2^h, and likewise |B| <= 2^(t-h);
a product A[r, s] B[s, r] is then at most 2^t, and a row bound or a
partial trace, a sum of 4^(l-1) such products, at most 4^(l-1) * 2^t,
which stays below 2^63 while t + 2(l - 1) <= 62.  The stack checksums
reduce modulo a prime below 2^31, argued where they are taken.

Nothing here reads a table, the butterfly or the direct oracle, so this
route cannot share a table-builder fault with them.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .recurrences import _sign

__all__ = [
    "transfer_matrix",
    "family_walsh_transfer",
    "subfn_zero_transfer",
    "PeakCertificate",
    "peak_certificate",
]

# variant j adds the first j head products over (x_0, x_1, x_2), variant i
# the first i tail products over (x_{n-3}, x_{n-2}, x_{n-1}); a product is
# the AND of the state bits its mask names, x_0 and x_{n-3} in bit 0
_HEAD_MASKS = (0b111, 0b011, 0b001)
_TAIL_MASKS = (0b111, 0b110, 0b100)


def transfer_matrix(l: int, bit: int) -> list[list[int]]:
    """T_bit of the stride-1 degree-l family, an integer 2^(l-1) square.

    State s packs the last l - 1 placed bits, oldest in bit 0.  Placing y
    moves s to (s >> 1) | (y << (l - 2)) with sign (-1)^(y * (m + bit)),
    where m = 1 when every bit of s is set (the monomial is then y)."""
    if l < 2:
        raise ValueError(f"degree must be at least 2, got {l}")
    if bit not in (0, 1):
        raise ValueError(f"mask bit must be 0 or 1, got {bit}")
    w = l - 1
    full = (1 << w) - 1
    matrix = [[0] * (1 << w) for _ in range(1 << w)]
    for s in range(1 << w):
        for y in (0, 1):
            matrix[s][(s >> 1) | (y << (w - 1))] = _sign(y * ((s == full) + bit))
    return matrix


def _entries(l: int) -> tuple[list, list]:
    """The nonzero (s, s', sign) entries of T_0 and T_1: two a row."""
    return tuple(
        [(s, t, v) for s, row in enumerate(transfer_matrix(l, b)) for t, v in enumerate(row) if v]
        for b in (0, 1)
    )


def _advance(vec: list[int], entries: list) -> list[int]:
    out = [0] * len(vec)
    for s, t, v in entries:
        out[t] += v * vec[s]
    return out


def family_walsh_transfer(n: int, l: int = 4, c: int = 0) -> int:
    """W_n(c) of the stride-1 degree-l family: Tr(T_{c_0} ... T_{c_{n-1}})
    with c_i bit i of c.

    Step i places x_i (indices mod n), so the walk starts in the state of
    x_{-l+1} .. x_{-1}; a trace is the same from any starting step.  A
    closed walk of n steps is one periodic input, so the trace holds for
    every n >= 1, n < l included (the monomials then fold onto repeated
    variables).  c = 0 gives W(0); costs n * 2^(2l-1) integer steps."""
    if n < 1:
        raise ValueError(f"arity must be at least 1, got {n}")
    if not 0 <= c < 1 << n:
        raise IndexError(f"mask {c} out of range for n={n}")
    steps = _entries(l)
    states = 1 << (l - 1)
    # row r of the running product: walks that start in state r
    rows = [[int(s == r) for s in range(states)] for r in range(states)]
    for i in range(n):
        rows = [_advance(row, steps[(c >> i) & 1]) for row in rows]
    return sum(row[r] for r, row in enumerate(rows))


def subfn_zero_transfer(n_max: int) -> dict[int, dict[tuple[int, int], int]]:
    """Zero-mask values of all 16 chain variants at every arity
    m = 4..n_max: {m: {(i, j): value}}.

    One pass: the start vector over (x_0, x_1, x_2) carries variant j's
    head products, step k places x_k through T_0 of the quartic, and after
    each step the vector is read against the four tail vectors.  Costs
    under 200 integer operations an arity."""
    if n_max < 4:
        raise ValueError(f"variants need arity at least 4, got {n_max}")
    step = _entries(4)[0]
    chains = [[_sign(sum((s & m) == m for m in _HEAD_MASKS[:j])) for s in range(8)] for j in range(4)]
    tails = [[_sign(sum((s & m) == m for m in _TAIL_MASKS[:i])) for s in range(8)] for i in range(4)]
    values = {}
    for m in range(4, n_max + 1):
        chains = [_advance(v, step) for v in chains]
        values[m] = {
            (i, j): sum(a * b for a, b in zip(chains[j], tails[i]))
            for i in range(4)
            for j in range(4)
        }
    return values


# the stack checksums reduce modulo this prime, 2**31 - 1
_PRIME = (1 << 31) - 1
# kept rows are multiplied out, and row bounds taken, this many int64
# entries at a time (8 MiB)
_CHUNK = 1 << 20


class PeakCertificate(NamedTuple):
    """What ``peak_certificate`` found about one stride-1 spectrum S."""

    zero: int  # S(0) = Tr(T_0^t)
    certified: bool  # |S(c)| <= S(0) at every mask c
    rows: int  # low rows whose bound reaches S(0), of 2^(t // 2)
    # the lowest mask of the largest |S(c)|, c != 0, in those rows, and
    # S there; None when more than 2^(l-1) rows were kept
    mask: int | None
    value: int | None
    # (want, got) of the low and the high stack's checksums
    checksums: tuple


def _stack(l: int, m: int) -> np.ndarray:
    """P_x = T_{x_0} ... T_{x_{m-1}} for every x < 2^m, as one int64 array
    of shape (S, S, 2^m): entry [r, s, x] is P_x[r, s].

    Built in place by doubling: pass k puts T_b to the right of the first
    2^k matrices, as bit k of the index.  P @ T_b needs no matrix product,
    since T_b has two nonzeros a column: column s' of P @ T_b gathers
    columns 2j and 2j + 1 of P, j = s' mod S/2.  For s' < S/2 it is their
    sum; for s' >= S/2 it is (-1)^b times their sum, or times their
    difference on the last column, whose second source is the full state.
    Every operation runs on 2^k contiguous entries, and a pass holds one
    temporary of a quarter of the result."""
    states = 1 << (l - 1)
    half = states >> 1
    stack = np.empty((states, states, 1 << m), dtype=np.int64)
    stack[..., 0] = np.eye(states, dtype=np.int64)
    for k in range(m):
        n = 1 << k
        old, new = stack[..., :n], stack[..., n : 2 * n]
        pair = old.reshape(states, half, 2, n)
        sums = pair[:, :, 0] + pair[:, :, 1]
        last = pair[:, -1, 0] - pair[:, -1, 1]
        old[:, :half] = new[:, :half] = sums
        old[:, half:] = sums
        np.negative(sums, out=new[:, half:])
        old[:, -1] = last
        np.negative(last, out=new[:, -1])
    return stack


def _checksum(stack: np.ndarray, l: int, rng: random.Random) -> tuple[int, int]:
    """(want, got) of a Freivalds / Schwartz-Zippel check of one stack.

    Sum over x of z^x P_x, with z^x the product of z_i over the set bits
    x_i, is the ordered product of (T_0 + z_i T_1) over the steps, as
    polynomials in z.  Both sides are taken modulo _PRIME at random
    nonzero z_i and read through random nonzero vectors u, v (u^T M v), so
    one wrong entry, off by d with d not a multiple of the prime, always
    moves got; more wrong entries cancel with probability at most
    (m + 1) / _PRIME."""
    states = 1 << (l - 1)
    m = stack.shape[2].bit_length() - 1
    z = [rng.randrange(1, _PRIME) for _ in range(m)]
    u = [rng.randrange(1, _PRIME) for _ in range(states)]
    v = [rng.randrange(1, _PRIME) for _ in range(states)]
    # want: the product of the small sparse steps, on Python ints
    even, odd = _entries(l)
    rows = [[int(s == r) for s in range(states)] for r in range(states)]
    for zi in z:
        step = even + [(s, t, zi * sign) for s, t, sign in odd]
        rows = [[x % _PRIME for x in _advance(row, step)] for row in rows]
    # got: weights z^x by doubling (bit i of x is step i), each below the
    # prime; |z^x P_x| < 2^(31 + m), so a run of 2^(31 - m) of them sums
    # below 2^62 and the running total never wraps int64
    w = np.ones(1, dtype=np.int64)
    for zi in z:
        w = np.concatenate([w, w * zi % _PRIME])
    flat = stack.reshape(states * states, -1)
    run = 1 << max(0, 31 - m)
    total = np.zeros(flat.shape[0], dtype=np.int64)
    for x0 in range(0, flat.shape[1], run):
        total = (total + flat[:, x0 : x0 + run] @ w[x0 : x0 + run]) % _PRIME
    got = total.reshape(states, states).tolist()

    def read(matrix) -> int:
        return sum(u[r] * v[s] * matrix[r][s] for r in range(states) for s in range(states)) % _PRIME

    return read(rows), read(got)


def _row_bounds(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Bound of each low row a on |Tr(A_a B_b)| over every b: the sum over
    (r, s) of |A_a[r, s]| times the max over b of |B_b[s, r]|, taken
    _CHUNK entries of |A| at a time."""
    # reach[(r, s)] = max over b of |B_b[s, r]|, flat in A's (r, s) order
    reach = np.maximum(high.max(axis=2), -high.min(axis=2)).T.reshape(-1)
    flat = low.reshape(reach.size, -1)
    run = max(1, _CHUNK // reach.size)
    return np.concatenate([np.einsum("q,qa->a", reach, np.abs(flat[:, x : x + run]))
                           for x in range(0, flat.shape[1], run)])


def peak_certificate(t: int, l: int = 4, seed: int = 0) -> PeakCertificate:
    """Whether S(0) is the peak of the stride-1 degree-l spectrum S on t
    variables, |S(c)| <= S(0) at every mask c, with no truth table.

    With h = t // 2 and c = a + (b << h), S(c) = Tr(A_a B_b) (see the
    module docstring).  Low row a holds the 2^(t-h) masks of one a, and by
    the triangle inequality none of them exceeds the row's bound, the sum
    over (r, s) of |A_a[r, s]| times the max over b of |B_b[s, r]|.  A row
    whose bound is below S(0) cannot beat it; only the kept rows, those
    whose bound reaches S(0), are multiplied out, _CHUNK entries at a
    time, for their largest |S(c)| off c = 0.  For l >= 3 the bound has
    kept at most 2^(l-1) rows at every t checked (up to 28); when it keeps
    more, as for l = 2, whose peaks spread over half the rows, none is
    multiplied out and the answer is uncertified: the products would cost
    about as much as the whole spectrum.

    Both stacks are checked against the step matrices with checksums drawn
    from ``seed``.  Exact in int64 while t + 2(l - 1) <= 62."""
    if t < 1:
        raise ValueError(f"arity must be at least 1, got {t}")
    if l < 2:
        raise ValueError(f"degree must be at least 2, got {l}")
    if t + 2 * (l - 1) > 62:
        raise ValueError(f"t + 2(l - 1) must be at most 62 for int64, got t={t}, l={l}")
    h = t // 2
    low, high = _stack(l, h), _stack(l, t - h)
    rng = random.Random(seed)
    checksums = (_checksum(low, l, rng), _checksum(high, l, rng))
    zero = int((low[..., 0] * high[..., 0].T).sum())
    kept = np.flatnonzero(_row_bounds(low, high) >= zero)
    if kept.size > 1 << (l - 1):
        return PeakCertificate(zero, False, int(kept.size), None, None, checksums)
    # S(a + (b << h)) = A_a^T flattened . cols[:, b], with cols[:, b] = B_b
    # flattened; einsum sums along the contiguous stack axis, where an
    # int64 matmul, which has no BLAS, would read cols with a 2^(t-h) stride
    cols = high.reshape(-1, high.shape[2])
    best = (-1, 0, 0)  # (|S|, mask, S) of the largest |S| off 0, lowest mask on ties
    run = max(1, _CHUNK // cols.shape[1])
    for k0 in range(0, kept.size, run):
        rows = kept[k0 : k0 + run]
        values = np.einsum("jq,qb->jb", low[..., rows].transpose(2, 1, 0).reshape(rows.size, -1), cols)
        size = np.abs(values)
        if rows[0] == 0:
            size[0, 0] = -1  # c = 0
        top = int(size.max())
        j, b = np.divmod(np.flatnonzero(size.reshape(-1) == top), cols.shape[1])
        masks = rows[j] + (b << h)
        k = int(np.argmin(masks))
        found = (top, int(masks[k]), int(values[j[k], b[k]]))
        if (top, -found[1]) > (best[0], -best[1]):
            best = found
    return PeakCertificate(zero, zero >= best[0], int(kept.size), best[1], best[2], checksums)
