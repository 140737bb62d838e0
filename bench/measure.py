"""Summary statistics, output digests and the host-speed calibration loop;
no dependency on simulbeam."""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
from time import perf_counter, process_time
from typing import NamedTuple

import numpy as np

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile of sorted values by nearest rank, and how many
    samples lie beyond it."""
    rank = max(1, math.ceil(pct * len(ordered) / 100.0 - 1e-9))  # 1e-9: float error
    return ordered[rank - 1], len(ordered) - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, value, samples beyond)``. Raises ``ValueError``
    when there are too few samples for even the median to qualify.
    """
    ordered = sorted(values)
    best = None
    for pct in PERCENTILES:
        if not ordered:
            break
        value, beyond = nearest_rank(ordered, pct)
        if beyond < MIN_BEYOND:
            break
        best = (pct, value, beyond)
    if best is None:
        raise ValueError(f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond the median")
    return best


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mismatches(expected: dict, got: dict) -> list[str]:
    """Config labels whose recorded ``fwd_passes`` or ``sha256`` differ from ``got``."""
    return sorted(
        label
        for label in expected.keys() | got.keys()
        if expected.get(label) != got.get(label)
    )


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# Timings are reported as they would read on a host where one calibration
# loop takes this long.
CALIBRATION_REF_S = 0.010


class _Item(NamedTuple):
    tokens: tuple
    logprobs: tuple


def calibration_loop(n: int = 5000) -> float:
    """A fixed mix of the interpreter work the decoder does: small tuples and
    objects, float sums, a sort with a key, and small numpy calls. It runs no
    simulbeam code, so a change to the program does not move it."""
    vector = np.log(np.linspace(0.01, 1.0, 21))
    pool = []
    total = 0.0
    for i in range(n):
        item = _Item((i % 7, i % 5, i % 3), (float(vector[i % 21]), -0.25, -0.5))
        pool.append(item)
        total += math.fsum(item.logprobs)
        if i % 8 == 7:
            pool.sort(key=lambda h: (-math.fsum(h.logprobs), h.tokens))
            del pool[4:]
            total += float(np.count_nonzero(np.isfinite(vector)))
    return total


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one calibration loop, started after a full collection."""
    gc.collect()
    cpu = process_time()
    start = perf_counter()
    calibration_loop()
    return perf_counter() - start, process_time() - cpu


class Calibrated:
    """Scales times measured between calibration loops to the reference host.

    ``mark()`` runs a loop after a piece of work and returns its index. The
    work's factors are the reference time over the median of the ``WINDOW``
    loops on each side of it. A slowdown of the shared core moves the loop
    and the work alike, so their ratio stays; the median keeps one loop's
    own jitter out of it.
    """

    WINDOW = 4

    def __init__(self) -> None:
        self.loops: list[tuple[float, float]] = [calibrate()]

    def mark(self) -> int:
        self.loops.append(calibrate())
        return len(self.loops) - 1

    def scales(self, mark: int) -> tuple[float, float]:
        """``(wall, cpu)`` factors for the work that ended at loop ``mark``."""
        near = self.loops[max(0, mark - self.WINDOW) : mark + self.WINDOW]
        return (
            CALIBRATION_REF_S / statistics.median(w for w, _ in near),
            CALIBRATION_REF_S / statistics.median(c for _, c in near),
        )

    def median_wall_s(self) -> float:
        return statistics.median(w for w, _ in self.loops)
