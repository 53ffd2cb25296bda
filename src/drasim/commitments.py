"""Bid commitment schemes: an ideal registry and a hash-based realization.

The ideal scheme is the default for experiments. Its handles are allocation
order nonces, so they carry zero information about the committed bid (perfect
hiding is exact, not computational), and verification is a registry lookup,
so a handle can only ever open to the pair it was issued for. No operation
derives a new valid commitment from an existing handle, which enforces
non-malleability structurally.

The hash scheme exists for realism and cross-checking: a domain-separated
SHA-256 digest over the canonical bid encoding and the random string. Bids
are encoded as big-endian IEEE-754 doubles so digests are reproducible
bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import hashlib
import struct

from .records import record

__all__ = [
    "Commitment",
    "Opening",
    "IdealScheme",
    "HashScheme",
    "make_scheme",
    "SCHEMES",
    "DEFAULT_SECURITY_BITS",
    "PROTOCOL_TAG",
]

DEFAULT_SECURITY_BITS = 128
PROTOCOL_TAG = b"drasim/bid-commit/v1"


@record
class Commitment:
    """Opaque commitment handle; equality is the only pre-opening observation.

    token is an allocation-order nonce (int) for the ideal scheme and a
    32-byte digest for the hash scheme.
    """

    scheme: str
    token: object

    def token_str(self) -> str:
        if isinstance(self.token, bytes):
            return f"{self.scheme}:{self.token.hex()}"
        return f"{self.scheme}:{self.token}"


@record
class Opening:
    """A commitment's preimage: the bid and the random string used."""

    message: float
    randomness: bytes


def _check_randomness(randomness: bytes) -> None:
    if not isinstance(randomness, (bytes, bytearray)):
        raise TypeError(f"randomness must be bytes, got {type(randomness).__name__}")
    if len(randomness) * 8 != DEFAULT_SECURITY_BITS:
        raise ValueError(
            f"randomness must be exactly {DEFAULT_SECURITY_BITS} bits, got {len(randomness) * 8}"
        )


_pack_double = struct.Struct(">d").pack


def canonical_message(message: float) -> bytes:
    """Big-endian IEEE-754 double; fixed 8-byte encoding for every bid."""
    return _pack_double(float(message))


class IdealScheme:
    """Registry-backed perfectly hiding commitments, confined to one simulation.

    Handles are issued in allocation order regardless of content; nothing but
    handle equality is observable before opening.
    """

    name = "ideal"

    def __init__(self):
        self._registry: dict[int, tuple[bytes, bytes]] = {}
        self._next = 0

    def commit(self, message: float, randomness: bytes) -> Commitment:
        _check_randomness(randomness)
        handle = self._next
        self._next += 1
        self._registry[handle] = (_pack_double(float(message)), bytes(randomness))
        return Commitment(self.name, handle)

    def verify(self, commitment: Commitment, opening: Opening) -> bool:
        """Whether the opening is the pair committed to: its canonical_message
        bytes and its random string, as bytes."""
        if not isinstance(commitment, Commitment) or commitment.scheme != self.name:
            return False
        stored = self._registry.get(commitment.token)
        if stored is None:
            return False
        randomness = opening.randomness
        try:
            return stored == (_pack_double(float(opening.message)),
                              randomness if type(randomness) is bytes else bytes(randomness))
        except (TypeError, ValueError):
            return False


class HashScheme:
    """SHA-256 commitments: digest = H(tag || lambda || bid || randomness).

    Pure and stateless; binding is computational (collision resistance) and
    hiding holds only against parties that cannot enumerate bids, which is why
    the ideal scheme is the experimental default.
    """

    name = "sha256"

    def _digest(self, message: float, randomness: bytes) -> bytes:
        h = hashlib.sha256()
        h.update(PROTOCOL_TAG)
        h.update(struct.pack(">I", DEFAULT_SECURITY_BITS))
        h.update(canonical_message(message))
        h.update(randomness)
        return h.digest()

    def commit(self, message: float, randomness: bytes) -> Commitment:
        _check_randomness(randomness)
        return Commitment(scheme=self.name, token=self._digest(message, bytes(randomness)))

    def verify(self, commitment: Commitment, opening: Opening) -> bool:
        if not isinstance(commitment, Commitment) or commitment.scheme != self.name:
            return False
        try:
            token = self._digest(opening.message, bytes(opening.randomness))
        except (TypeError, ValueError, struct.error):
            return False
        return token == commitment.token


# the scheme names make_scheme takes, each scheme's own
SCHEMES = {IdealScheme.name: IdealScheme, HashScheme.name: HashScheme}


def make_scheme(kind: str):
    if kind not in SCHEMES:
        raise ValueError(f"unknown commitment scheme {kind!r}")
    return SCHEMES[kind]()
