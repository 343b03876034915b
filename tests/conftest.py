import contextlib
import os
import random
import signal

import numpy as np
import pytest
from hypothesis import settings

from rsbf import (
    MonomialRsbfSpec,
    TruthTable,
    anf_table,
    monomial_rsbf,
    sub_function,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def from_int(n, bits):
    """The table of n variables whose output at x is bit x of the int bits:
    the packed int form, for tables drawn with getrandbits."""
    words = 1 << max(n - 6, 0)
    return TruthTable(n, np.frombuffer(bits.to_bytes(8 * words, "little"), dtype="<u8"))


def bit(table, x):
    """f(x), read from the packed words."""
    return int(table.words[x >> 6] >> np.uint64(x & 63)) & 1


def constant(n, value):
    """The constant 0 or 1 function of n variables."""
    return from_int(n, ((1 << (1 << n)) - 1) * value)


def linear(n, c):
    """x -> c.x, the XOR of the variables in mask c."""
    return anf_table(n, [(v,) for v in range(n) if c >> v & 1])


def rotate(x, n, shift):
    """Input x rotated so bit i of the result is bit (i + shift) mod n of x."""
    s = shift % n
    return ((x >> s) | (x << (n - s))) & ((1 << n) - 1)


@pytest.fixture(scope="session")
def small_tables():
    """Mixed corpus with n <= 10: every chain variant, families across
    degrees and strides, linear functions, constants, and random tables."""
    corpus = []
    for n in range(4, 11):
        for i in range(4):
            for j in range(4):
                corpus.append(sub_function(i, j, n))
    for l in range(2, 7):
        for n in range(max(l, 2), 11):
            for e in range(1, 5):
                corpus.append(monomial_rsbf(MonomialRsbfSpec(n, l, e)))
    for n in range(1, 9):
        corpus.append(constant(n, 0))
        corpus.append(constant(n, 1))
        for c in range(min(1 << n, 8)):
            corpus.append(linear(n, c))
    rng = random.Random(1234)
    for n in range(1, 11):
        for _ in range(3):
            corpus.append(from_int(n, rng.getrandbits(1 << n)))
    return corpus


@contextlib.contextmanager
def within(seconds: float, error=TimeoutError):
    """Raises ``error`` in this process once ``seconds`` have passed, as an
    interrupt would: a pool or a dump that hangs fails its test instead."""

    def expire(signum, frame):
        raise error(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child():
    # raises ChildProcessError only when this process has no child at all,
    # running or waiting to be reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def reaped():
    yield
    assert_no_child()
