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
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np

from . import goldens
from .core import _check_masks, walsh_at_many, walsh_transform, weight
from .families import MonomialRsbfSpec, monomial_rsbf, sub_function

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


def _sign(parity):
    return 1 - 2 * (parity & 1)


def _direct_provider(i: int, j: int, n: int, c):
    # each distinct mask is summed once, whatever the arity
    masks, where = np.unique(c, return_inverse=True)
    return walsh_at_many(sub_function(i, j, n), masks)[where].reshape(np.shape(c))


def _int64_provider(sub_walsh: SubWalsh | None) -> SubWalsh:
    # identity sums run in int64 whatever width the provider returns
    w = sub_walsh or _direct_provider
    return lambda i, j, m, c: np.asarray(w(i, j, m, c), dtype=np.int64)


def _result(total):
    return total if np.ndim(total) else int(total)


def _checked(i: int, j: int, n: int, c, top_bit: int, floor: int):
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise ValueError(f"variant indices must be in 0..3, got ({i},{j})")
    if n < floor:
        raise ValueError(f"reduction needs n >= {floor}, got {n}")
    c = _check_masks(n, c)
    if np.any((c >> (n - 1)) & 1 != top_bit):
        raise ValueError(f"top coefficient must be {top_bit} for this identity")
    return c


def subfn_walsh_top0(i: int, j: int, n: int, c, sub_walsh: SubWalsh | None = None):
    """Variant coefficient at a mask whose top coefficient is 0, rewritten
    over variants two to four variables down.  Needs n >= 8.

    ``c`` is one mask (the answer is an int) or an int64 mask array (the
    answer is an int64 array of the same shape)."""
    c = _checked(i, j, n, c, 0, 8)
    w = _int64_provider(sub_walsh)
    b2, b3, b4 = (c >> (n - 2)) & 1, (c >> (n - 3)) & 1, (c >> (n - 4)) & 1
    c2, c3, c4 = c & ((1 << (n - 2)) - 1), c & ((1 << (n - 3)) - 1), c & ((1 << (n - 4)) - 1)
    if i == 0:
        total = (2 * w(0, j, n - 2, c2)
                 + 2 * _sign(b2) * w(0, j, n - 3, c3)
                 + 2 * _sign(b2 + b3) * w(0, j, n - 4, c4))
    elif i == 1:
        total = (2 * w(0, j, n - 2, c2)
                 + 2 * _sign(b2) * w(0, j, n - 3, c3)
                 + 2 * _sign(b2 + b3 + b4) * w(3, j, n - 4, c4))
    elif i == 2:
        total = 2 * w(0, j, n - 2, c2) + 2 * _sign(b2 + b3) * w(0, j, n - 4, c4)
    else:
        total = (2 * _sign(b2) * w(0, j, n - 3, c3)
                 + 2 * _sign(b2 + b3 + b4) * w(3, j, n - 4, c4))
    return _result(total)


def subfn_walsh_top1(i: int, j: int, n: int, c, sub_walsh: SubWalsh | None = None):
    """Variant coefficient at a mask whose top coefficient is 1, rewritten
    over variants two or four variables down.  Needs n >= 8.  ``c`` is an
    int or an int64 array, as for subfn_walsh_top0."""
    c = _checked(i, j, n, c, 1, 8)
    w = _int64_provider(sub_walsh)
    b2, b3 = (c >> (n - 2)) & 1, (c >> (n - 3)) & 1
    c2, c4 = c & ((1 << (n - 2)) - 1), c & ((1 << (n - 4)) - 1)
    if i == 0:
        total = _sign(b2) * w(1, j, n - 2, c2) + _sign(1 + b2) * w(2, j, n - 2, c2)
    elif i == 1:
        total = _sign(b2) * w(1, j, n - 2, c2) + _sign(1 + b2) * w(3, j, n - 2, c2)
    elif i == 2:
        total = _sign(b2) * w(1, j, n - 2, c2) + _sign(b2) * w(3, j, n - 2, c2)
    else:
        total = 2 * w(0, j, n - 2, c2) + 2 * _sign(b2 + b3) * w(0, j, n - 4, c4)
    return _result(total)


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


def _eight_magnitudes(values: np.ndarray) -> np.ndarray:
    # int64: a magnitude may reach 2**28 at the hard cap, and 8 * 2**28 = 2**31
    # overflows int32
    return 8 * np.abs(values.astype(np.int64))


def spectral_bound_check(n: int) -> list[tuple[str, int, int]]:
    """Witnesses (f<i><j>:c=<mask>, bound, 8|w|) where 8*|variant
    coefficient| fails to stay below the family zero value three variables
    up, over all 16 variants and all masks with c_1 set, in variant then
    mask order; empty when the bound holds."""
    bound = family_zero_value(n + 3)
    masks = np.nonzero(np.arange(1 << n) & 2)[0]
    observed_max = 0
    witnesses: list[tuple[str, int, int]] = []
    for i in range(4):
        for j in range(4):
            scaled = _eight_magnitudes(walsh_transform(sub_function(i, j, n)).values[masks])
            observed_max = max(observed_max, int(scaled.max()))
            for k in np.nonzero(scaled >= bound)[0]:
                witnesses.append((f"f{i}{j}:c={int(masks[k])}", bound, int(scaled[k])))
    log.info("bound n=%d: max 8|w| = %d against %d", n, observed_max, bound)
    return witnesses

