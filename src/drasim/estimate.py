"""Monte Carlo estimate container and deterministic accumulation helpers.

An estimate is finite or refused: a chunk with a NaN or an infinite value makes
ChunkAccumulator.result raise FloatingPointError, never return a NaN mean with a
zero standard error that a 3-SE gate could read as a pass."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Estimate", "ChunkAccumulator", "pairwise_split"]

# numpy's pairwise summation adds up to this many elements in one unrolled block,
# and splits a longer array in two
_PAIRWISE_BLOCK = 128


def pairwise_split(n: int) -> Optional[int]:
    """Where np.add.reduce splits a contiguous float array of n elements, or None
    when it sums them in one block (n <= 128). numpy's pairwise_sum returns the sum
    of rows [0, h) plus the sum of rows [h, n), h = n//2 - (n//2) % 8, each summed
    the same way, so those two floats added give the bits of the whole sum."""
    if n <= _PAIRWISE_BLOCK:
        return None
    half = n // 2
    return half - half % 8


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
    error are bit-identical however the fixed-size chunks were scheduled or split.
    A chunk may be added as its two halves at pairwise_split, one add each, and
    then joined by merge_halves, which adds their sums as np.add.reduce adds
    them: the chunk's sums keep the bits of adding it whole.
    """

    def __init__(self):
        self._sums: list[float] = []
        self._sq_sums: list[float] = []
        self._count = 0

    def add(self, values: np.ndarray, square: np.ndarray = None) -> None:
        """Accumulate one chunk; square, if given, is a float array of values' shape
        that the squares are written into instead of a new one. A sum or a square that
        overflows is inf, which result refuses, without numpy's warning."""
        values = np.asarray(values, dtype=float)
        with np.errstate(over="ignore"):
            self._sums.append(float(np.add.reduce(values, axis=None)))
            self._sq_sums.append(float(np.add.reduce(np.square(values, out=square),
                                                     axis=None)))
        self._count += values.size

    def merge_halves(self) -> None:
        """Join the last two chunks added, rows [0, h) and [h, n) of one chunk with
        h = pairwise_split(n), into that chunk: its sum and sum of squares are the
        halves' added in that order, the floats np.add.reduce gives for it whole."""
        sums, sq_sums = self._sums, self._sq_sums
        sums[-2:] = [sums[-2] + sums[-1]]
        sq_sums[-2:] = [sq_sums[-2] + sq_sums[-1]]

    def result(self) -> Estimate:
        """The mean and standard error of every value added; FloatingPointError when
        their sum or the sum of their squares is not finite."""
        n = self._count
        if n == 0:
            return Estimate(mean=0.0, std_error=0.0, samples=0)
        total = math.fsum(self._sums)
        total_sq = math.fsum(self._sq_sums)
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            raise FloatingPointError(
                f"non-finite estimate over {n} samples: sum {total}, sum of squares {total_sq}")
        mean = total / n
        if n > 1:
            var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
            se = math.sqrt(var / n)
        else:
            se = 0.0
        return Estimate(mean=mean, std_error=se, samples=n)
