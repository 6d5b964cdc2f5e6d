"""A fixed reference computation that times are expressed against.

On the shared 2-vCPU virtual machine this benchmark was written on, the CPU
speed changes by up to 2x in phases lasting from seconds to minutes: a fixed
in-memory study decision took from 0.11 s to 0.27 s within a few minutes, on
either CPU, with nothing else running. Raw seconds from two sets of runs then
differ by more than any useful regression bound. Dividing each measured wall
time by the wall time of this computation, run on the same CPU right before
and right after it, cancels most of that shared speed factor.

How well it cancels depends on how much the reference resembles the program.
In 240 s probes of CLI decisions and re-renders, the spread of 20 s window
medians was 16 % and 21 % in seconds on the ``wide`` input; 8 % and 10 % in
units of the working-set walk below alone; and 4.8 % and 2.1 % in units of
the walk plus the miniature decision, which is this reference. A reference
with a small working set did worse still (8.7 % and 6.8 % on ``deep``): the
slow phases fall mostly on cache and memory traffic.

The computation uses no roimeta code, so a change to the package cannot move
it. One reference unit is about 40 ms on that machine in its faster phases
and up to about 60 ms in its slower ones.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass

WALK_ITEMS = 20_000
ROWS = 4_000
# One reference unit in seconds on that machine in its faster phases. Set-up
# times are reported as seconds at this speed: wall seconds in reference units
# times this constant.
REFERENCE_S = 0.040


@dataclass(frozen=True)
class _Row:
    key: str
    arm: str
    index: int
    count: int
    x: float
    y: float

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError("negative amount")


_FIELDS = [
    (f"c{i // 20}", "AB"[i % 2], i % 10, 1000 + i % 977,
     f"{(i * 7919) % 10007 / 7.0:.6f}", f"{(i * 104729) % 10007 / 6.0:.6f}")
    for i in range(ROWS)
]
# Half the rows as CSV, half as JSON lines, as the two input formats.
_CSV_TEXT = "".join(",".join(map(str, f)) + "\n" for f in _FIELDS[: ROWS // 2])
_JSONL_TEXT = "".join(
    json.dumps(dict(zip(("key", "arm", "index", "count", "x", "y"), f))) + "\n"
    for f in _FIELDS[ROWS // 2:]
)


def _walk(n: int = WALK_ITEMS) -> int:
    """Build and walk a working set of some megabytes."""
    rows = [(i, i * 0.5, f"k{i}") for i in range(n)]
    total = 0.0
    for _, x, _ in rows:
        total += x * 1.0001
    by_key = {key: x for _, x, key in rows}
    return len(json.dumps(by_key)) + int(total)


def _mini_decision() -> int:
    """Parse rows into frozen records, group, hash, sum and serialise them."""
    rows = [
        _Row(key, arm, int(index), int(count), float(x), float(y))
        for key, arm, index, count, x, y in csv.reader(io.StringIO(_CSV_TEXT))
    ]
    for line in _JSONL_TEXT.splitlines():
        r = json.loads(line)
        rows.append(_Row(r["key"], r["arm"], r["index"], r["count"],
                         float(r["x"]), float(r["y"])))
    groups: dict[str, list[_Row]] = {}
    for row in rows:
        groups.setdefault(row.key, []).append(row)
    out = []
    for key, members in groups.items():
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        sx = math.fsum(r.x for r in members)
        sy = math.fsum(r.y for r in members)
        out.append({
            "key": key,
            "u": (int.from_bytes(digest, "big") + 0.5) * 2.0 ** -64,
            "ratio": sy / sx if sx else 0.0,
            "rows": [[r.index, r.count, r.x, r.y] for r in members],
        })
    return len(json.dumps(out, sort_keys=True))


def reference_work() -> int:
    return _walk() + _mini_decision()


def _time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class ReferenceClock:
    """Converts a wall time into reference units.

    Call ``relative`` right after the timed operation, and start the next
    timed operation right after that: the reference runs that bracket an
    operation are the one that closed an earlier call and the one this call
    runs. Within ``min_gap_s`` of the last reference run it is not run again
    and that one stands for both ends, so that a loop of short operations is
    not slowed down by a third.
    """

    def __init__(self, min_gap_s: float = 0.0):
        self.min_gap_s = min_gap_s
        self._before = _time_reference()
        self._measured_at = time.perf_counter()

    def relative(self, seconds: float) -> float:
        if time.perf_counter() - self._measured_at < self.min_gap_s:
            return seconds / self._before
        after = _time_reference()
        unit = (self._before + after) / 2.0
        self._before = after
        self._measured_at = time.perf_counter()
        return seconds / unit

    def normalized(self, seconds: float) -> float:
        """``seconds`` as they would read at a reference unit of ``REFERENCE_S``."""
        return self.relative(seconds) * REFERENCE_S
