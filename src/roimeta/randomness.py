"""Counter-mode deterministic random streams built on BLAKE2b.

Every stream is keyed by an explicit tuple (seed, purpose, index, ...), and
each draw hashes the key with an incrementing counter. Output therefore never
depends on global state, platform, word size, or library version, and streams
with distinct keys are independent, so per-campaign generation can run in any
order. Normal variates come from the inverse-CDF transform; Poisson counts
(``poisson_quantiles``, one uniform each) use exact inversion up to a mean of
50 and above it ``max(0, round(lam + sqrt(lam) * normal_quantile(u)))``.

Cost model: one keyed BLAKE2b (a copy of the key-absorbed state, fed the 8-byte
counter) per draw, plus two BLAKE2b calls to absorb each new key. A single
variate (``uniform``, ``normal``) adds a Python frame or two per draw;
``uniforms(n)`` draws a block in one loop, about a fifth cheaper per draw, and
the simulator takes all its draws that way. ``sample_sums`` absorbs its
streams' shared key parts once, and its partial Fisher-Yates pays k draws, not
n - 1. The digest maps to (0, 1) as ``(u64 + 0.5) * 2**-64`` in ``uniform``, in
``uniforms`` and in ``sample_sums``' loop; the draw parity test in
tests/test_simulate.py pins all three copies. For the top 2**10 u64 values the
product rounds to 1.0, which ``uniform`` and ``uniforms`` replace and
``sample_sums`` clamps to the last position.

A large-mean count costs one ``normal_quantile``. A call with more draws than
there are counts within 8 sd of the mean (about ``16 * sqrt(lam)``) first
tabulates each of those counts' upper boundary in u, ``normal_cdf((k + 0.5 -
lam) / sqrt(lam))``, and reads a count off the table with one ``bisect``:
about a third of the cost at mean 2000, table included. The simulator makes
one call per experiment so that the table pays; the table lives for one call
and nothing is cached. A draw within a guard of 1e-9 of a boundary, or off the
table, takes the expression above, which alone defines a count. No count can
move: a draw the table reads lies at least 2.5e-9 * sqrt(lam) from k + 0.5 in
``lam + sqrt(lam) * z``, while a boundary's ``erfc`` error, ``normal_quantile``'s
error and the rounding of that sum come to far less up to a mean of 1e6, so the
expression lands on the same side. Above a mean of 1e6 every count takes the
expression.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect
from collections.abc import Iterable, Sequence

from .statfuncs import normal_cdf, normal_quantile

_POISSON_EXACT_LIMIT = 50.0
_POISSON_TABLE_LIMIT = 1e6  # the guard is shown to cover the errors up to this mean
_POISSON_TABLE_GUARD = 1e-9


class HashStream:
    """Deterministic stream of variates identified by its key parts."""

    __slots__ = ("_prefix", "_counter")

    def __init__(self, *key_parts: object):
        material = "\x1f".join(map(str, key_parts)).encode("utf-8")
        # Each draw hashes key + counter; the key is absorbed here, once.
        key = hashlib.blake2b(material, digest_size=16).digest()
        self._prefix = hashlib.blake2b(key, digest_size=8)
        self._counter = 0

    def uniform(self) -> float:
        """Uniform draw strictly inside (0, 1)."""
        block = self._prefix.copy()
        block.update(self._counter.to_bytes(8, "big"))
        self._counter += 1
        u = (int.from_bytes(block.digest(), "big") + 0.5) * 2.0 ** -64
        return u if u < 1.0 else 1.0 - 2.0 ** -53  # u64 >= 2**64 - 2**10 rounds to 1.0

    def uniforms(self, n: int) -> list[float]:
        """The next ``n`` values of ``uniform()``, drawn in one loop."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n!r}")
        copy, from_bytes = self._prefix.copy, int.from_bytes
        start = self._counter
        draws = []
        for counter in range(start, start + n):
            block = copy()
            block.update(counter.to_bytes(8, "big"))
            u = (from_bytes(block.digest(), "big") + 0.5) * 2.0 ** -64
            draws.append(u if u < 1.0 else 1.0 - 2.0 ** -53)
        self._counter = start + n
        return draws

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        return mean + sd * normal_quantile(self.uniform())

    @staticmethod
    def sample_sums(key_parts: tuple, columns: Iterable[tuple]) -> tuple[list[int], list[int]]:
        """Per ``(name, xs, ys, k)`` in ``columns``, the sums of ``xs`` and ``ys`` over k of
        their n positions, drawn from ``HashStream(*key_parts, name)`` (name in UTF-8) by a
        partial Fisher-Yates: draw i < k swaps i and i + min(int(u * (n - i)), n - i - 1)."""
        blake2b, from_bytes = hashlib.blake2b, int.from_bytes
        stem = blake2b("\x1f".join(map(str, (*key_parts, ""))).encode("utf-8"), digest_size=16)
        sums_x, sums_y = [], []
        for name, xs, ys, k in columns:
            if not (n := len(xs)) >= k >= 0:
                raise ValueError(f"k must be in [0, {n}], got {k!r}")
            keyed = stem.copy()
            keyed.update(name)
            copy = blake2b(keyed.digest(), digest_size=8).copy
            moved, sum_x, sum_y = {}, 0, 0  # moved: position -> what it holds now
            for i in range(k):
                block = copy()
                block.update(i.to_bytes(8, "big"))
                j = int((from_bytes(block.digest(), "big") + 0.5) * 2.0 ** -64 * (n - i))
                j = i + j if j < n - i else n - 1  # i + min(j, n - i - 1)
                pick, moved[j] = moved.get(j, j), moved.get(i, i)
                sum_x, sum_y = sum_x + xs[pick], sum_y + ys[pick]
            sums_x.append(sum_x)
            sums_y.append(sum_y)
        return sums_x, sums_y


def _count_bounds(lam: float, root: float, first: int, stop: int) -> list[float]:
    """For k in [first, stop), the u above which the count exceeds k:
    ``normal_cdf((k + 0.5 - lam) / root)``."""
    return [normal_cdf((k + 0.5 - lam) / root) for k in range(first, stop)]


def poisson_quantiles(lam: float, draws: Sequence[float]) -> list[int]:
    """One Poisson(``lam``) count per uniform in ``draws``, ``lam`` > 0: exact
    inversion up to a mean of 50, a rounded normal approximation above it, read
    off a table of count boundaries when ``draws`` outnumber them."""
    if lam > _POISSON_EXACT_LIMIT:
        root = math.sqrt(lam)
        first = max(0, math.ceil(lam - 8.0 * root))  # the counts within 8 sd of lam
        stop = math.floor(lam + 8.0 * root) + 1
        if lam > _POISSON_TABLE_LIMIT or len(draws) <= stop - first:
            return [max(0, round(lam + root * normal_quantile(u))) for u in draws]
        bounds = _count_bounds(lam, root, first, stop)
        guard, last = _POISSON_TABLE_GUARD, len(bounds) - 1
        counts = []
        for u in draws:
            i = bisect(bounds, u)  # bounds[i - 1] <= u < bounds[i]: count first + i
            if 0 < i <= last and bounds[i - 1] + guard < u < bounds[i] - guard:
                counts.append(first + i)
            else:  # near a boundary or off the table: the direct path's expression
                counts.append(max(0, round(lam + root * normal_quantile(u))))
        return counts
    start = math.exp(-lam)
    counts = []
    for u in draws:
        k, prob, cumulative = 0, start, start
        while u > cumulative:
            k += 1
            prob *= lam / k
            cumulative += prob
            if prob == 0.0:  # mass exhausted; u was in the rounding tail
                break
        counts.append(k)
    return counts
