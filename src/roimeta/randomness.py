"""Counter-mode deterministic random streams built on BLAKE2b.

Every stream is keyed by an explicit tuple (seed, purpose, index, ...), and
each block of eight draws hashes the key with an incrementing counter. Output
therefore never depends on global state, platform, word size, or library
version, and streams with distinct keys are independent, so per-campaign
generation can run in any order. Normal variates come from the inverse-CDF
transform; Poisson counts (``poisson_quantiles``, one uniform each) use exact
inversion up to a mean of 50 and above it
``max(0, round(lam + sqrt(lam) * normal_quantile(u)))``.

Cost model (stream v2): block ``c`` is the 64-byte BLAKE2b digest of the
stream's 16-byte key and the 8-byte big-endian counter ``c``, read as eight
big-endian u64 words, and draw ``i`` is word ``i % 8`` of block ``i // 8``: an
eighth of a digest per draw, plus one BLAKE2b call for each new key.
``uniforms(n)`` hashes every block its draws touch, so a call that starts inside
a block hashes it again. ``leading_uniforms`` and ``sample_sums`` serve many
streams that share their leading key parts: they hash those parts once, derive
each stream's key from a copy of that state, hash ceil(n / 8) blocks for a
stream's first n draws (a split's k draws, not n - 1), and map all the words
with one ``_units`` call, which alone maps words to (0, 1), as ``(u64 + 0.5) *
2**-64``. The simulator takes a whole experiment's draws in one such call. A
split of k = 1 reads its one word as an index, with no Fisher-Yates state.

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
import struct
from bisect import bisect
from collections.abc import Sequence

from .statfuncs import normal_cdf, normal_quantile

_POISSON_EXACT_LIMIT = 50.0
_POISSON_TABLE_LIMIT = 1e6  # the guard is shown to cover the errors up to this mean
_POISSON_TABLE_GUARD = 1e-9
_BLOCK_0 = (0).to_bytes(8, "big")


def _units(data: bytes) -> list[float]:
    """Each big-endian u64 word in ``data`` as a uniform strictly inside (0, 1); the
    top 2**10 words round to 1.0 and become the largest double below 1."""
    return [u if (u := (w + 0.5) * 2.0 ** -64) < 1.0 else 1.0 - 2.0 ** -53
            for w in struct.unpack(f">{len(data) >> 3}Q", data)]


def _leading_words(key_parts: tuple, streams: Sequence[tuple[bytes, int]]) -> bytearray:
    """For each ``(name, n)`` in ``streams``, in order, the first ``n`` words of
    ``HashStream(*key_parts, name)`` (name in UTF-8); the shared parts are hashed once."""
    blake2b, data = hashlib.blake2b, bytearray()
    stem = blake2b("\x1f".join(map(str, (*key_parts, ""))).encode("utf-8"), digest_size=16)
    for name, n in streams:
        keyed = stem.copy()
        keyed.update(name)
        key, full = keyed.digest(), n >> 3
        if n == 1:  # a k = 1 split's word, without the block loop: ~0.2 us a split
            data += blake2b(key + _BLOCK_0).digest()[:8]
            continue
        for c in range(full):
            data += blake2b(key + c.to_bytes(8, "big")).digest()
        if n & 7:  # only n % 8 words of the last block count
            data += blake2b(key + full.to_bytes(8, "big")).digest()[:(n & 7) << 3]
    return data


class HashStream:
    """Deterministic stream of variates identified by its key parts."""

    __slots__ = ("_key", "_counter")

    def __init__(self, *key_parts: object):
        material = "\x1f".join(map(str, key_parts)).encode("utf-8")
        self._key = hashlib.blake2b(material, digest_size=16).digest()
        self._counter = 0

    def uniform(self) -> float:
        """Uniform draw strictly inside (0, 1)."""
        return self.uniforms(1)[0]

    def uniforms(self, n: int) -> list[float]:
        """The next ``n`` draws of the stream."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n!r}")
        start, key = self._counter, self._key
        self._counter = start + n
        data = b"".join([hashlib.blake2b(key + c.to_bytes(8, "big")).digest()
                         for c in range(start >> 3, (start + n + 7) >> 3)])
        skip = (start & 7) << 3  # the words of the first block that earlier calls took
        return _units(data[skip:skip + (n << 3)])

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        return mean + sd * normal_quantile(self.uniform())

    @staticmethod
    def leading_uniforms(key_parts: tuple, streams: int, n: int) -> list[float]:
        """The first ``n`` draws of ``HashStream(*key_parts, i)`` for each i in
        ``range(streams)``, stream after stream, in one list."""
        return _units(_leading_words(key_parts, [(str(i).encode(), n) for i in range(streams)]))

    @staticmethod
    def sample_sums(key_parts: tuple, columns: Sequence[tuple]) -> tuple[list[int], list[int]]:
        """Per ``(name, xs, ys, k)`` in ``columns``, the sums of ``xs`` and ``ys`` over k of
        their n positions, drawn from ``HashStream(*key_parts, name)`` (name in UTF-8) by a
        partial Fisher-Yates: draw i < k swaps i and i + int(u * (n - i)), below n because
        a draw is at most 1 - 2**-53, and (1 - 2**-53) * m rounds below m for m < 2**53."""
        for _, xs, _, k in columns:
            if not len(xs) >= k >= 0:
                raise ValueError(f"k must be in [0, {len(xs)}], got {k!r}")
        words = _leading_words(key_parts, [(name, k) for name, _, _, k in columns])
        draw = iter(_units(words)).__next__
        sums_x, sums_y = [], []
        for _, xs, ys, k in columns:
            n = len(xs)
            if k == 1:  # the one pick is position int(u * n)
                j = int(draw() * n)
                sums_x.append(xs[j])
                sums_y.append(ys[j])
                continue
            moved, sum_x, sum_y = {}, 0, 0  # moved: position -> what it holds now
            for i in range(k):
                j = i + int(draw() * (n - i))
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
