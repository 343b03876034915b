"""Walsh coefficients by the transfer-matrix method, from no truth table.

A stride-1 degree-l function is a sum of windows x_i ... x_{i+l-1}, so
its Walsh sum can be run one input bit at a time with the last l - 1 bits
as the state (Stanley, Enumerative Combinatorics I, section 4.7).  Each
step places one bit x_k and emits the monomial that ends there,
x_{k-l+1} ... x_k; the 2^(l-1) square matrix T_b of that step holds the
sign it contributes, with b the mask bit of x_k.  The family is then a
trace around the cycle and each chain variant an open chain between a
head and a tail vector.  Everything runs on Python ints, so no width
bound applies; the values obey |W| <= 2^n.

Nothing here reads a table, the butterfly or the direct oracle, so this
route cannot share a table-builder fault with them.
"""

from __future__ import annotations

from .recurrences import _sign

__all__ = ["transfer_matrix", "family_walsh_transfer", "subfn_zero_transfer"]

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
