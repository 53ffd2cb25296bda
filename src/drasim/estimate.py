"""Monte Carlo estimate container and deterministic accumulation helpers.

An estimate is finite or refused: a NaN or an infinite value, or chunk sums that
add up past the largest float, make ChunkAccumulator.result raise FloatingPointError,
never return a NaN mean with a zero standard error that a 3-SE gate passes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .seeding import CHUNK_SAMPLES

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

    Each part of a chunk is added with the stream row it starts at and kept as one
    partial: its count, and its sum and sum of squares by numpy's pairwise summation
    (np.add.reduce, the reduction np.sum runs for an array, without its Python
    wrapper). result adds a chunk's two halves at pairwise_split with +, as
    np.add.reduce adds them (+ commutes, so either may come first), and the chunks
    with the exact math.fsum, so the mean and standard error are bit-identical
    however the fixed-size chunks were scheduled or split.
    """

    def __init__(self):
        self._parts: list[tuple[int, tuple[int, float, float]]] = []

    def add(self, values: np.ndarray, start: int, square: np.ndarray = None) -> None:
        """Accumulate the part of a chunk that begins at stream row start; square, if
        given, is a float array of values' shape that the squares are written into
        instead of a new one. A sum or a square that overflows is inf, which result
        refuses, without numpy's warning."""
        values = np.asarray(values, dtype=float)
        with np.errstate(over="ignore"):
            partial = (values.size, float(np.add.reduce(values, axis=None)),
                       float(np.add.reduce(np.square(values, out=square), axis=None)))
        self._parts.append((start, partial))

    def result(self) -> Estimate:
        """The mean and standard error of every value added; FloatingPointError when
        their sum or the sum of their squares is not finite."""
        chunks = {}  # chunk index -> (count, sum, sum of squares) of its parts
        for start, partial in self._parts:
            k = start // CHUNK_SAMPLES
            chunks[k] = tuple(a + b for a, b in zip(chunks[k], partial)) if k in chunks else partial
        n = sum(count for count, _, _ in chunks.values())
        if n == 0:
            return Estimate(mean=0.0, std_error=0.0, samples=0)
        _, sums, sq_sums = zip(*chunks.values())
        try:
            total, total_sq = math.fsum(sums), math.fsum(sq_sums)
        except (OverflowError, ValueError) as exc:  # finite sums past the largest float, inf - inf
            raise FloatingPointError(f"non-finite estimate over {n} samples: {exc}") from None
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
