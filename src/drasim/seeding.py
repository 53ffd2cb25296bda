"""Deterministic seed derivation and counter-based uniform streams.

All randomness in an experiment flows from one 64-bit seed. Monte Carlo work
is split into fixed-size chunks; chunk c draws from a Philox stream whose
counter high word is c, so the values for sample index i depend only on
(seed, i) and are identical no matter how chunks are scheduled or batched.

fill_uniforms is the one definition of that stream: it draws the first rows of
a chunk into a given array, on a Philox of the calling thread's own that it
repositions for each fill by setting the counter (a state assignment, about a
microsecond, where building a Philox costs some 25). chunk_uniforms draws a
chunk into a new array. The estimators' loop draws whole chunks into pooled
buffers on two threads, and gets the same values.

Every value draw of the lab goes through these streams: each Monte Carlo
estimate and check in estimators, and sample_values there. This module is the
one place that builds a numpy bit generator.
"""

from __future__ import annotations

import hashlib
import operator
import struct
import threading

import numpy as np

__all__ = ["CHUNK_SAMPLES", "derive_seed", "fill_uniforms", "chunk_uniforms", "chunk_bounds"]

CHUNK_SAMPLES = 1 << 16  # protocol constant; changing it changes every stream
_pack_int_part = struct.Struct(">Icq").pack  # length 9, b"i", the value
_STR_HEAD = struct.Struct(">Ic")  # length, b"s"; the UTF-8 bytes follow
_WORD = (1 << 64) - 1
_thread = threading.local()  # .philox: see _thread_philox


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of ints/strings (SHA-256 based).

    Each part is encoded as a 4-byte big-endian length, then b"s" and its UTF-8
    bytes for a string, or b"i" and its low 63 bits as a signed 64-bit big-endian
    integer for an int; the seed is the first 8 bytes of the digest of them all.
    """
    encoded = []
    for part in parts:
        if type(part) is int:
            encoded.append(_pack_int_part(9, b"i", part & 0x7FFFFFFFFFFFFFFF))
        elif isinstance(part, str):
            data = part.encode("utf-8")
            encoded.append(_STR_HEAD.pack(len(data) + 1, b"s") + data)
        elif isinstance(part, (int, np.integer)):
            encoded.append(_pack_int_part(9, b"i", int(part) & 0x7FFFFFFFFFFFFFFF))
        else:
            raise TypeError(f"unsupported seed part {type(part).__name__}")
    return int.from_bytes(hashlib.sha256(b"".join(encoded)).digest()[:8], "big")


def _thread_philox() -> tuple:
    """The calling thread's (Philox, Generator over it), built on its first fill."""
    if not hasattr(_thread, "philox"):
        bit_generator = np.random.Philox(key=0)
        _thread.philox = bit_generator, np.random.Generator(bit_generator)
    return _thread.philox


def fill_uniforms(seed: int, chunk_index: int, out: np.ndarray) -> np.ndarray:
    """Fill out, shape (rows, cols), with the first rows of the chunk's stream and
    return it. The stream is Philox keyed by seed, counter high word chunk_index,
    read row by row: the uniform at (row, col) is double row * cols + col of it, so
    a row's values do not depend on how many rows are drawn. Every key that
    Philox(key=seed) refuses is refused, and so is a key that is not an integer."""
    key = operator.index(seed)
    if not 0 <= key < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")
    bit_generator, generator = _thread_philox()
    bit_generator.state = {  # the next draw makes the block of counter 1
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, chunk_index), "key": (key & _WORD, key >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator.random(out=out)


def chunk_uniforms(seed: int, chunk_index: int, rows: int, cols: int) -> np.ndarray:
    """Uniforms for one chunk: shape (rows, cols), stream fixed by (seed, chunk)."""
    return fill_uniforms(seed, chunk_index, np.empty((rows, cols)))


def chunk_bounds(samples: int):
    """Yield (chunk_index, start, stop) covering range(samples) in fixed chunks."""
    start = 0
    chunk = 0
    while start < samples:
        stop = min(samples, start + CHUNK_SAMPLES)
        yield chunk, start, stop
        chunk += 1
        start = stop
