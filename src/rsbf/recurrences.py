"""Arity-lowering identities for variant spectra, zero-mask recurrences,
and the spectral bound that pins peaks to the zero mask.

Every evaluator is exact: the recurrences run on Python integers, and the
identities sum in int64, far above the 2**28 that bounds every term.  The
identities rewrite a coefficient at arity n in terms of variant
coefficients two to four variables down, at one mask or at a whole int64
mask array in one call; by default the lower-arity values come from the
direct summation oracle, but a caller may inject any provider with the
same (i, j, n, masks) signature.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np

from . import goldens
from .core import HARD_MAX_N, _check_masks, walsh_at_many, weight
from .families import MonomialRsbfSpec, monomial_rsbf, sub_function
from .transfer import _HEAD_MASKS, _TAIL_MASKS, _checksum, _product_signs, _sign, _stack

__all__ = [
    "SpectralBaseTable",
    "MissingBaseEntry",
    "subfn_walsh_top0",
    "subfn_walsh_top1",
    "family_walsh_via_subfns",
    "subfn_zero_recurrence",
    "family_zero_recurrence",
    "family_zero_value",
    "spectral_bound_check",
]

# (i, j, n, masks) -> coefficients of variant (i, j) at arity n; masks is an
# int or an int64 array, and the answer has the same shape
SubWalsh = Callable[[int, int, int, Any], Any]

log = logging.getLogger(__name__)


def _direct_provider(i: int, j: int, n: int, c):
    # the masks go to the oracle as they come, repeats and all: where a
    # rectangle pays, it sums each distinct (high, low) pair once
    return walsh_at_many(sub_function(i, j, n), np.ravel(c)).reshape(np.shape(c))


def _int64_provider(sub_walsh: SubWalsh | None) -> SubWalsh:
    # identity sums run in int64 whatever width the provider returns
    w = sub_walsh or _direct_provider
    return lambda i, j, m, c: np.asarray(w(i, j, m, c), dtype=np.int64)


def _result(total):
    return total if np.ndim(total) else int(total)


# Lemma 2.1 (top coefficient 0) and Lemma 2.2 (top coefficient 1): variant
# i's coefficient at arity n and mask c is the sum of its terms
# (factor, i', drop, bits), each factor * (-1)^(c_{n-k} summed over k in
# bits) * W_{i'j}(c mod 2^(n - drop)) on n - drop variables
_LOWERED = {
    0: (((2, 0, 2, ()), (2, 0, 3, (2,)), (2, 0, 4, (2, 3))),
        ((2, 0, 2, ()), (2, 0, 3, (2,)), (2, 3, 4, (2, 3, 4))),
        ((2, 0, 2, ()), (2, 0, 4, (2, 3))),
        ((2, 0, 3, (2,)), (2, 3, 4, (2, 3, 4)))),
    1: (((1, 1, 2, (2,)), (-1, 2, 2, (2,))),
        ((1, 1, 2, (2,)), (-1, 3, 2, (2,))),
        ((1, 1, 2, (2,)), (1, 3, 2, (2,))),
        ((2, 0, 2, ()), (2, 0, 4, (2, 3)))),
}


def _lowered_sums(top_bit: int, n: int, c, sub_walsh: SubWalsh | None = None,
                  variants=range(4)):
    """Evaluator j -> a generator of (i, coefficients of variant (i, j) at
    the masks c) for each i in ``variants``, in that order, by the identity
    _LOWERED[top_bit].  Needs n >= 8.

    The masks are split once, here: the lowered masks and the signs (int8
    arrays) that those variants read.  Each call takes each distinct
    lower-arity term (i', j, n - drop) from the provider once and shares it
    among the variants, so one column j's four right-hand sides cost 4
    provider calls (Lemma 2.1) or 5 (Lemma 2.2), and only that column's
    terms and one right-hand side are alive at a time."""
    if n < 8:
        raise ValueError(f"reduction needs n >= 8, got {n}")
    c = _check_masks(n, c)
    if np.any((c >> (n - 1)) & 1 != top_bit):
        raise ValueError(f"top coefficient must be {top_bit} for this identity")
    table = {i: _LOWERED[top_bit][i] for i in variants}
    terms = {term[1:] for variant in table.values() for term in variant}
    lowered = {drop: c & ((1 << (n - drop)) - 1) for _, drop, _ in terms}
    signs = {bits: _sign(sum((c >> (n - k)) & 1 for k in bits)) for _, _, bits in terms}
    if np.ndim(c):
        signs = {bits: np.asarray(sign, dtype=np.int8) for bits, sign in signs.items()}
    w = _int64_provider(sub_walsh)

    def sums(j: int):
        values: dict = {}  # (i', drop) -> its coefficients, int64
        for i, variant in table.items():
            total = 0
            for factor, low, drop, bits in variant:
                if (low, drop) not in values:
                    values[low, drop] = w(low, j, n - drop, lowered[drop])
                # factor * sign is int8 (|2| at most); the product with the
                # int64 term, and so the sum, is int64
                total += factor * signs[bits] * values[low, drop]
            yield i, _result(total)

    return sums


def _check_variant(i: int, j: int) -> None:
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise ValueError(f"variant indices must be in 0..3, got ({i},{j})")


def subfn_walsh_top0(i: int, j: int, n: int, c, sub_walsh: SubWalsh | None = None):
    """Variant coefficient at a mask whose top coefficient is 0, rewritten
    over variants two to four variables down.  Needs n >= 8.

    ``c`` is one mask (the answer is an int) or an int64 mask array (the
    answer is an int64 array of the same shape)."""
    _check_variant(i, j)
    return next(_lowered_sums(0, n, c, sub_walsh, (i,))(j))[1]


def subfn_walsh_top1(i: int, j: int, n: int, c, sub_walsh: SubWalsh | None = None):
    """Variant coefficient at a mask whose top coefficient is 1, rewritten
    over variants two or four variables down.  Needs n >= 8.  ``c`` is an
    int or an int64 array, as for subfn_walsh_top0."""
    _check_variant(i, j)
    return next(_lowered_sums(1, n, c, sub_walsh, (i,))(j))[1]


def family_walsh_via_subfns(n: int, c, sub_walsh: SubWalsh | None = None):
    """Stride-1 quartic family coefficient from seven variant coefficients
    three variables down.  Needs n >= 7.  ``c`` is an int or an int64
    array, as for subfn_walsh_top0."""
    if n < 7:
        raise ValueError(f"decomposition needs n >= 7, got {n}")
    c = _check_masks(n, c)
    b1, b2, b3 = (c >> (n - 1)) & 1, (c >> (n - 2)) & 1, (c >> (n - 3)) & 1
    c3 = c & ((1 << (n - 3)) - 1)
    w = _int64_provider(sub_walsh)
    total = ((1 + _sign(b2)) * w(0, 0, n - 3, c3)
             + _sign(b1) * w(0, 1, n - 3, c3)
             + _sign(b2 + b1) * w(0, 2, n - 3, c3)
             + _sign(b3) * w(1, 0, n - 3, c3)
             + _sign(b3 + b1) * w(1, 1, n - 3, c3)
             + _sign(b3 + b2) * w(2, 0, n - 3, c3)
             + _sign(b3 + b2 + b1) * w(3, 3, n - 3, c3))
    return _result(total)


class MissingBaseEntry(LookupError):
    """A recurrence seed outside the stored base range."""


@dataclass(frozen=True)
class SpectralBaseTable:
    """Zero-mask seed values for the variants and the stride-1 family."""

    sub_zero: Mapping[tuple[int, int, int], int]
    family_zero: Mapping[int, int]

    def sub_seed(self, i: int, j: int, n: int) -> int:
        try:
            return self.sub_zero[(i, j, n)]
        except KeyError:
            raise MissingBaseEntry(f"no stored value for variant ({i},{j}) at n={n}") from None

    def family_seed(self, n: int) -> int:
        try:
            return self.family_zero[n]
        except KeyError:
            raise MissingBaseEntry(f"no stored family value at n={n}") from None

    @classmethod
    def from_reference(cls) -> "SpectralBaseTable":
        """Seeds from the stored reference table."""
        sub, fam = goldens.zero_value_maps()
        return cls(sub, fam)


def _run_zero_recurrence(seeds: dict[int, int], n: int) -> int:
    values = dict(seeds)
    for m in range(8, n + 1):
        values[m] = 2 * (values[m - 2] + values[m - 3] + values[m - 4])
    return values[n]


def subfn_zero_recurrence(i: int, j: int, n: int, base: SpectralBaseTable) -> int:
    """Variant value at mask zero by the order-4 recurrence, seeded at
    arities 4..7.  Needs n >= 8; bottom-up, integers throughout."""
    if n < 8:
        raise ValueError(f"recurrence starts at n=8, got {n}")
    return _run_zero_recurrence({m: base.sub_seed(i, j, m) for m in range(4, 8)}, n)


def family_zero_recurrence(n: int, base: SpectralBaseTable) -> int:
    """Family value at mask zero by the same recurrence.  Needs n >= 8."""
    if n < 8:
        raise ValueError(f"recurrence starts at n=8, got {n}")
    return _run_zero_recurrence({m: base.family_seed(m) for m in range(4, 8)}, n)


@lru_cache(maxsize=1)
def _family_seeds() -> dict[int, int]:
    # 2**n - 2 * weight at n = 4..7: four popcounts, not the stored table
    return {n: (1 << n) - 2 * weight(monomial_rsbf(MonomialRsbfSpec(n, 4, 1))) for n in range(4, 8)}


def family_zero_value(n: int) -> int:
    """Family value at mask zero for any n >= 4.

    The seeds at n = 4..7 are recomputed from the tables' weights rather
    than read from the stored table; larger arities run the recurrence.
    """
    if n < 4:
        raise ValueError(f"family values start at n=4, got {n}")
    return _run_zero_recurrence(_family_seeds(), n)


def spectral_bound_check(n: int, seed: int = 0) -> list[tuple[str, int, int]]:
    """Witnesses (f<i><j>:c=<mask>, bound, 8|w|) where 8*|variant
    coefficient| fails to stay below the family zero value three variables
    up, over all 16 variants and all masks with c_1 set, in variant then
    mask order; empty when the bound holds.  Needs 4 <= n <= HARD_MAX_N.

    Each variant is an open chain of transfer steps (``rsbf.transfer``):
    with h = (n - 3) // 2 and c = c_0c_1c_2 + (a << 3) + (b << (3 + h)),
    W_ij(c) = u_j(c_0c_1c_2)^T A_a B_b t_i, where u_j is variant j's head
    over (x_0, x_1, x_2) with the mask's low three bits, A_a and B_b are
    the products of the h low and the n - 3 - h high steps, and t_i is
    variant i's tail.  By the triangle inequality no mask of row
    (j, c_0c_1c_2, a) beats the sum over states s of |(u_j^T A_a)[s]|
    times the max over b of |(B_b t_i)[s]|; only the rows whose 8 * bound
    reaches the family value are multiplied out (n = 4..6 keep some, and
    no larger n up to the cap keeps any).  A state has two predecessors
    and two successors under a step, so |(u_j^T A_a)[s]| <= 2^h and
    |(B_b t_i)[s]| <= 2^(n - 3 - h); a row bound over the 8 states, and
    any coefficient, is then at most 2^n, and 8 times it at most 2^31 at
    the cap: int64 holds every product and sum.

    Both stacks are checked against the step matrices with checksums
    drawn from ``seed``; a mismatch is a ``route:stack:n=<n>`` witness
    (want, got), ahead of the variant witnesses."""
    if not 4 <= n <= HARD_MAX_N:
        raise ValueError(f"the bound needs n in 4..{HARD_MAX_N}, got {n}")
    bound = family_zero_value(n + 3)
    h = (n - 3) // 2
    low, high = _stack(4, h), _stack(4, n - 3 - h)
    rng = random.Random(seed)
    witnesses = [(f"route:stack:n={n}", want, got)
                 for want, got in (_checksum(low, 4, rng), _checksum(high, 4, rng)) if want != got]
    # heads[j, k] = u_j(low[k]) over the states, for the low masks c_0c_1c_2 with c_1 = 1
    states = np.arange(8)
    low_masks = np.flatnonzero(states & 2)
    parity = _sign(np.bitwise_count(low_masks[:, None] & states).astype(np.int64))
    heads = np.array([_product_signs(_HEAD_MASKS, j) for j in range(4)])[:, None, :] * parity
    # rows[j, k, s, a] = (u_j(low[k])^T A_a)[s]
    rows = np.einsum("jkr,rsa->jksa", heads, low)
    size = np.abs(rows)
    kept = largest = 0
    for i in range(4):
        # cols[s, b] = (B_b t_i)[s]
        cols = np.einsum("srb,r->sb", high, np.array(_product_signs(_TAIL_MASKS, i)))
        scaled = 8 * np.einsum("jksa,s->jka", size, np.abs(cols).max(axis=1))
        largest = max(largest, int(scaled.max()))
        j, k, a = np.nonzero(scaled >= bound)
        kept += j.size
        if not j.size:
            continue
        # 8|W| at every mask of the kept rows: kept row r, high part b
        eight = 8 * np.abs(np.einsum("rs,sb->rb", rows[j, k, :, a], cols))
        masks = low_masks[k, None] + (a[:, None] << 3) + (np.arange(cols.shape[1]) << (3 + h))
        r, b = np.nonzero(eight >= bound)
        for x in np.lexsort((masks[r, b], j[r])):
            label = f"f{i}{j[r[x]]}:c={masks[r[x], b[x]]}"
            witnesses.append((label, bound, int(eight[r[x], b[x]])))
    log.info("bound n=%d: %d rows kept, largest 8 * row bound %d against %d",
             n, kept, largest, bound)
    return witnesses
