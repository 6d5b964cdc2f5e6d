"""Counter-mode deterministic random streams built on BLAKE2b.

Every stream is keyed by an explicit tuple (seed, purpose, index, ...), and
each draw hashes the key with an incrementing counter. Output therefore never
depends on global state, platform, word size, or library version, and streams
with distinct keys are independent, so per-campaign generation can run in any
order. Normal variates come from the inverse-CDF transform; Poisson counts
(``poisson_quantiles``, one uniform each) use exact inversion for small means
and a rounded normal approximation for large ones.

Cost model: one keyed BLAKE2b (a copy of the key-absorbed state, fed the 8-byte
counter) per draw, plus two BLAKE2b calls to absorb each new key. A single
variate (``uniform``, ``normal``) adds a Python frame or two per draw;
``uniforms(n)`` draws a block in one loop, about a fifth cheaper per draw, and
the simulator takes each arm's draws that way. ``shuffle(items, k)`` is a
partial Fisher-Yates that pays k draws, not n - 1, so an A/A split that keeps k
of n parts costs k draws. The digest maps to (0, 1) as ``(u64 + 0.5) * 2**-64``
in ``uniform``, in ``uniforms`` and, inline, in ``shuffle``'s loop; the draw
parity test in tests/test_simulate.py pins all three copies. For the top 2**10
u64 values the product rounds to 1.0, which ``uniform`` and ``uniforms``
replace and ``shuffle`` clamps to the last position.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable

from .statfuncs import normal_quantile

_POISSON_EXACT_LIMIT = 50.0


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

    def lognormal(self, log_mean: float, log_sd: float) -> float:
        return math.exp(self.normal(log_mean, log_sd))

    def shuffle(self, items: list, k: int) -> None:
        """Partial Fisher-Yates: swap i with i + min(int(u * (n - i)), n - i - 1),
        i = 0 .. k-1, so ``items[:k]`` is a uniform random k-sample for k draws
        (k = n - 1: all)."""
        n = len(items)
        if not 0 <= k <= n:
            raise ValueError(f"k must be in [0, {n}], got {k!r}")
        copy, from_bytes = self._prefix.copy, int.from_bytes
        counter = self._counter
        for i in range(k):
            block = copy()
            block.update(counter.to_bytes(8, "big"))
            counter += 1
            j = int((from_bytes(block.digest(), "big") + 0.5) * 2.0 ** -64 * (n - i))
            j = i + j if j < n - i else n - 1  # i + min(j, n - i - 1)
            items[i], items[j] = items[j], items[i]
        self._counter = counter


def poisson_quantiles(lam: float, draws: Iterable[float]) -> list[int]:
    """One Poisson(``lam``) count per uniform in ``draws``, ``lam`` > 0: exact
    inversion up to a mean of 50, a rounded normal approximation above it."""
    if lam > _POISSON_EXACT_LIMIT:
        root = math.sqrt(lam)
        return [max(0, round(lam + root * normal_quantile(u))) for u in draws]
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
