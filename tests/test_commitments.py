"""Commitment scheme tests: opening correctness, binding, hiding by
construction, and the frozen hash test vectors."""

import json
import random
from pathlib import Path

import pytest

from drasim import HashScheme, IdealScheme, Opening, make_scheme
from drasim.commitments import DEFAULT_SECURITY_BITS

FIXTURES = Path(__file__).parent / "fixtures"


def rnd_bytes(rng, n=16):
    return rng.randbytes(n)


@pytest.mark.parametrize("kind", ["ideal", "sha256"])
def test_commit_verify_roundtrip(kind):
    scheme = make_scheme(kind)
    rng = random.Random(1)
    r = rnd_bytes(rng)
    c = scheme.commit(5.25, r)
    assert scheme.verify(c, Opening(5.25, r))
    assert not scheme.verify(c, Opening(5.0, r))          # binding on honest openings
    assert not scheme.verify(c, Opening(5.25, rnd_bytes(rng)))  # altered randomness


@pytest.mark.parametrize("kind", ["ideal", "sha256"])
def test_randomness_length_enforced(kind):
    scheme = make_scheme(kind)
    with pytest.raises(ValueError):
        scheme.commit(1.0, b"\x00" * 15)
    with pytest.raises(ValueError):
        scheme.commit(1.0, b"\x00" * 17)
    with pytest.raises(TypeError):
        scheme.commit(1.0, "not-bytes")


def test_ideal_handles_are_allocation_order():
    scheme = IdealScheme()
    rng = random.Random(2)
    c0 = scheme.commit(5.0, rnd_bytes(rng))
    c1 = scheme.commit(7.0, rnd_bytes(rng))
    assert (c0.token, c1.token) == (0, 1)
    # handles depend only on allocation order, not on content
    other = IdealScheme()
    d0 = other.commit(123.456, rnd_bytes(rng))
    assert d0.token == c0.token


def test_ideal_registry_miss_and_cross_scheme():
    scheme = IdealScheme()
    rng = random.Random(3)
    r = rnd_bytes(rng)
    c = scheme.commit(2.0, r)
    fresh = IdealScheme()
    assert not fresh.verify(c, Opening(2.0, r))  # never issued there
    hash_scheme = HashScheme()
    assert not hash_scheme.verify(c, Opening(2.0, r))
    assert not scheme.verify("garbage", Opening(2.0, r))


def test_ideal_verify_malformed_opening_returns_false():
    scheme = IdealScheme()
    c = scheme.commit(2.0, b"\x00" * 16)
    assert not scheme.verify(c, Opening(2.0, None))
    assert not scheme.verify(c, Opening(2.0, b"\x00" * 8))


def test_hash_scheme_deterministic_and_distinct():
    scheme = HashScheme()
    r = bytes(range(16))
    assert scheme.commit(4.0, r) == scheme.commit(4.0, r)
    assert scheme.commit(4.0, r) != scheme.commit(4.0000001, r)
    assert scheme.commit(4.0, r) != scheme.commit(4.0, bytes(reversed(range(16))))


def test_hash_binding_no_collisions_100k():
    scheme = HashScheme()
    rng = random.Random(20240917)
    seen = set()
    for _ in range(100_000):
        m = rng.uniform(-1e6, 1e6)
        r = rng.randbytes(16)
        token = scheme.commit(m, r).token
        assert token not in seen
        seen.add(token)


def test_hash_test_vectors():
    data = json.loads((FIXTURES / "hash_vectors.json").read_text())
    assert data["security_bits"] == DEFAULT_SECURITY_BITS
    scheme = HashScheme()
    for vec in data["vectors"]:
        r = bytes.fromhex(vec["randomness"])
        c = scheme.commit(vec["message"], r)
        assert c.token.hex() == vec["digest"]
        assert scheme.verify(c, Opening(vec["message"], r))
    # nearby randomness strings hit different digests (domain separation sanity)
    d0 = next(v for v in data["vectors"] if v["randomness"] == "a5" * 16)
    d1 = next(v for v in data["vectors"] if v["randomness"] == "a6" * 16)
    assert d0["digest"] != d1["digest"]


def test_make_scheme_rejects_unknown():
    with pytest.raises(ValueError):
        make_scheme("pedersen")
