"""Counter-mode deterministic random streams built on BLAKE2b.

Every stream is keyed by an explicit tuple (seed, purpose, index, ...), and
each draw hashes the key with an incrementing counter. Output therefore never
depends on global state, platform, word size, or library version, and streams
with distinct keys are independent, so per-campaign generation can run in any
order. Normal variates come from the inverse-CDF transform; Poisson uses exact
inversion for small means and a rounded normal approximation for large ones.
"""

from __future__ import annotations

import hashlib
import math

from .statfuncs import normal_quantile

_POISSON_EXACT_LIMIT = 50.0


class HashStream:
    """Deterministic stream of variates identified by its key parts."""

    __slots__ = ("_prefix", "_counter")

    def __init__(self, *key_parts: object):
        material = "\x1f".join(str(part) for part in key_parts).encode("utf-8")
        # Each draw hashes key + counter; the key is absorbed here, once.
        key = hashlib.blake2b(material, digest_size=16).digest()
        self._prefix = hashlib.blake2b(key, digest_size=8)
        self._counter = 0

    def _next_u64(self) -> int:
        block = self._prefix.copy()
        block.update(self._counter.to_bytes(8, "big"))
        self._counter += 1
        return int.from_bytes(block.digest(), "big")

    def uniform(self) -> float:
        """Uniform draw strictly inside (0, 1)."""
        return (self._next_u64() + 0.5) * 2.0 ** -64

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        return mean + sd * normal_quantile(self.uniform())

    def lognormal(self, log_mean: float, log_sd: float) -> float:
        return math.exp(self.normal(log_mean, log_sd))

    def poisson(self, lam: float) -> int:
        if lam < 0:
            raise ValueError(f"poisson mean must be >= 0, got {lam!r}")
        if lam == 0:
            return 0
        if lam <= _POISSON_EXACT_LIMIT:
            u = self.uniform()
            k = 0
            prob = math.exp(-lam)
            cumulative = prob
            while u > cumulative:
                k += 1
                prob *= lam / k
                cumulative += prob
                if prob == 0.0:  # mass exhausted; u was in the rounding tail
                    break
            return k
        approx = round(lam + math.sqrt(lam) * self.normal())
        return max(0, int(approx))

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"n must be >= 1, got {n!r}")
        return min(int(self.uniform() * n), n - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
