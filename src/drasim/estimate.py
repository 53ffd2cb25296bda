"""Monte Carlo estimate container and deterministic accumulation helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Estimate", "ChunkAccumulator"]


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and a 95% normal interval."""

    mean: float
    std_error: float
    samples: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.mean - 1.96 * self.std_error, self.mean + 1.96 * self.std_error)


class ChunkAccumulator:
    """Order-insensitive accumulation of chunked sample batches.

    Per-chunk partial sums come from numpy's pairwise summation (np.add.reduce,
    the reduction np.sum runs for an array, without its Python wrapper) and are
    then combined with math.fsum, which is exact, so the final mean and standard
    error are bit-identical no matter how the fixed-size chunks were scheduled.
    """

    def __init__(self):
        self._sums: list[float] = []
        self._sq_sums: list[float] = []
        self._count = 0

    def add(self, values: np.ndarray, square: np.ndarray = None) -> None:
        """Accumulate one chunk; square, if given, is a float array of values' shape
        that the squares are written into instead of a new one."""
        values = np.asarray(values, dtype=float)
        self._sums.append(float(np.add.reduce(values, axis=None)))
        self._sq_sums.append(float(np.add.reduce(np.square(values, out=square),
                                                 axis=None)))
        self._count += values.size

    def result(self) -> Estimate:
        n = self._count
        if n == 0:
            return Estimate(mean=0.0, std_error=0.0, samples=0)
        total = math.fsum(self._sums)
        total_sq = math.fsum(self._sq_sums)
        mean = total / n
        if n > 1:
            var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
            se = math.sqrt(var / n)
        else:
            se = 0.0
        return Estimate(mean=mean, std_error=se, samples=n)
