"""Generators for the quartic chain, its sixteen boundary variants, and
monomial rotation symmetric families, plus the cycle structure of strides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .core import TruthTable, _check_arity, _check_masks, _xor_monomials, anf_table, walsh_transform

__all__ = [
    "MonomialRsbfSpec",
    "CycleDecomposition",
    "quartic_chain",
    "sub_function",
    "monomial_rsbf",
    "family_monomials",
    "variant_monomials",
    "anf_key",
    "cycle_decompose",
    "factored_walsh",
]


@dataclass(frozen=True)
class MonomialRsbfSpec:
    """Parameters (n, l, e): arity, monomial degree, and rotation stride."""

    n: int
    l: int
    e: int

    def __post_init__(self) -> None:
        _check_arity(self.n)
        if self.l < 2:
            raise ValueError(f"degree must be at least 2, got {self.l}")
        if self.e < 1:
            raise ValueError(f"stride must be at least 1, got {self.e}")

    @property
    def degenerate(self) -> bool:
        """True when there are fewer variables than the nominal degree."""
        return self.n < self.l


@dataclass(frozen=True)
class CycleDecomposition:
    """Orbits of i -> i + e (mod n): s = gcd(n, e) cycles of length t = n/s."""

    n: int
    e: int
    s: int
    t: int
    cycles: tuple[tuple[int, ...], ...]


def _chain(n: int) -> list:
    return [range(i, i + 4) for i in range(n - 3)]


def _tail(first: int, last: int, count: int) -> list:
    return [range(first + r, last + 1) for r in range(count)]


# the head corrections of variant j are the first j of these
_HEADS = ((0, 1, 2), (0, 1), (0,))


def _corrections(i: int, j: int, n: int) -> list:
    """The tail and head corrections of variant (i, j), checked."""
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise ValueError(f"variant indices must be in 0..3, got ({i},{j})")
    _check_arity(n)
    if n < 4:
        raise ValueError(f"variants need arity at least 4, got {n}")
    return _tail(n - 3, n - 1, i) + list(_HEADS[:j])


def variant_monomials(i: int, j: int, n: int) -> list:
    """The monomials of sub_function(i, j, n): the chain, then the
    variant's tail and head corrections."""
    return _chain(n) + _corrections(i, j, n)


# every variant of an arity shares its chain; four entries serve an identity
# grid arity, which reads the chains at n and the three arities below it,
# and the cap keeps a library sweep over many arities from holding all
# their chains (32 MiB each at n = 28)
@lru_cache(maxsize=4)
def quartic_chain(n: int) -> TruthTable:
    """XOR of the n-3 windows x_i x_{i+1} x_{i+2} x_{i+3}, no wraparound."""
    _check_arity(n)
    if n < 4:
        raise ValueError(f"chain needs at least 4 variables, got {n}")
    return anf_table(n, _chain(n))


# check-all fills 208 entries (n <= 16); the bound keeps a library caller's
# sweep over many arities from growing the cache for the life of the process
@lru_cache(maxsize=256)
def sub_function(i: int, j: int, n: int) -> TruthTable:
    """The chain plus the (i, j)-indexed tail and head corrections: a copy
    of the shared chain table with at most six correction monomials XORed
    into it in place, so a build holds two tables, the chain and its own."""
    corrections = _corrections(i, j, n)
    words = quartic_chain(n).words.copy()
    _xor_monomials(n, words, corrections)
    return TruthTable(n, words)


def family_monomials(spec: MonomialRsbfSpec) -> list:
    """The n monomials x_i x_{i+e} ... x_{i+(l-1)e} of monomial_rsbf(spec),
    indices mod n, as anf_table takes them."""
    n, l, e = spec.n, spec.l, spec.e
    return [[(i + k * e) % n for k in range(l)] for i in range(n)]


def monomial_rsbf(spec: MonomialRsbfSpec) -> TruthTable:
    """XOR over i of x_i x_{i+e} ... x_{i+(l-1)e}, indices mod n.

    Repeated indices inside one monomial collapse (x * x = x); identical
    monomials then cancel in pairs under XOR.
    """
    return anf_table(spec.n, family_monomials(spec))


def anf_key(spec: MonomialRsbfSpec) -> tuple[int, tuple[int, ...]]:
    """(n, the monomials of monomial_rsbf(spec), each the bit mask of its
    variables, reduced as it reduces them and sorted).  The algebraic
    normal form is unique, so two specs build the same table exactly when
    their keys are equal, and no table is built to find that out."""
    n, l, e = spec.n, spec.l, spec.e
    key: set = set()
    for i in range(n):
        monomial = 0
        for k in range(l):
            monomial |= 1 << (i + k * e) % n
        key ^= {monomial}
    return n, tuple(sorted(key))


def cycle_decompose(n: int, e: int) -> CycleDecomposition:
    """Orbits of the stride-e rotation on variable indices."""
    _check_arity(n)
    if e < 1:
        raise ValueError(f"stride must be at least 1, got {e}")
    s = gcd(n, e)
    t = n // s
    cycles = tuple(tuple((k + j * e) % n for j in range(t)) for k in range(s))
    return CycleDecomposition(n, e, s, t, cycles)


# one entry: the factor suite reads each (t, l) twice in a row, and a
# stride-1 spectrum at t = 28 is 1 GiB, too much to keep for the process
@lru_cache(maxsize=1)
def _aligned_spectrum(t: int, l: int):
    return walsh_transform(monomial_rsbf(MonomialRsbfSpec(t, l, 1)))


def factored_walsh(spec: MonomialRsbfSpec, masks):
    """Walsh coefficients as products of one factor per rotation cycle.

    Monomials never mix variables from different orbits, so the function
    splits into independent stride-1 copies on t variables each and the
    transform multiplies, with each factor's mask bits read in orbit order.
    ``masks`` is one int, giving an int, or an integer array, giving an
    int64 array of its shape; each factor is at most 2**t in magnitude, so
    no partial product exceeds 2**n <= 2**28.
    """
    c = _check_masks(spec.n, masks)
    scalar = isinstance(c, int)
    c = np.asarray(c, dtype=np.int64)
    dec = cycle_decompose(spec.n, spec.e)
    base = _aligned_spectrum(dec.t, spec.l).values
    product = np.ones_like(c)
    for cycle in dec.cycles:
        sub = np.zeros_like(c)
        for pos, var in enumerate(cycle):
            sub |= ((c >> var) & 1) << pos
        product *= base[sub]
    return int(product) if scalar else product
