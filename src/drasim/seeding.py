"""Deterministic seed derivation and counter-based uniform streams.

All randomness in an experiment flows from one 64-bit seed. Monte Carlo work
is split into fixed-size chunks; chunk c draws from a Philox stream whose
counter high word is c, so the values for sample index i depend only on
(seed, i) and are identical no matter how chunks are scheduled or batched.
chunk_generator is the one definition of that stream: chunk_uniforms draws a
chunk from it into a new array, and the estimators' loop also fills a reused
buffer from it on a helper thread (Generator.random(out=...)), which gives the
same values.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["CHUNK_SAMPLES", "derive_seed", "chunk_generator", "chunk_uniforms", "chunk_bounds"]

CHUNK_SAMPLES = 1 << 16  # protocol constant; changing it changes every stream
_INT_PART = struct.Struct(">Icq")  # length 9, b"i", the value
_STR_HEAD = struct.Struct(">Ic")  # length, b"s"; the UTF-8 bytes follow


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of ints/strings (SHA-256 based).

    Each part is encoded as a 4-byte big-endian length, then b"s" and its UTF-8
    bytes for a string, or b"i" and its low 63 bits as a signed 64-bit big-endian
    integer for an int; the seed is the first 8 bytes of the digest of them all.
    """
    encoded = []
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
            encoded.append(_STR_HEAD.pack(len(data) + 1, b"s") + data)
        elif isinstance(part, (int, np.integer)):
            encoded.append(_INT_PART.pack(9, b"i", int(part) & 0x7FFFFFFFFFFFFFFF))
        else:
            raise TypeError(f"unsupported seed part {type(part).__name__}")
    return int.from_bytes(hashlib.sha256(b"".join(encoded)).digest()[:8], "big")


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """The generator of one chunk's stream: Philox keyed by seed, counter high word
    chunk_index. Its random() fills row by row, so the first r rows of a chunk are
    the same whatever the number of rows drawn."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, chunk_index]))


def chunk_uniforms(seed: int, chunk_index: int, rows: int, cols: int) -> np.ndarray:
    """Uniforms for one chunk: shape (rows, cols), stream fixed by (seed, chunk)."""
    return chunk_generator(seed, chunk_index).random((rows, cols))


def chunk_bounds(samples: int):
    """Yield (chunk_index, start, stop) covering range(samples) in fixed chunks."""
    start = 0
    chunk = 0
    while start < samples:
        stop = min(samples, start + CHUNK_SAMPLES)
        yield chunk, start, stop
        chunk += 1
        start = stop
