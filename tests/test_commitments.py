"""Commitment scheme tests: opening correctness, binding, hiding by
construction, the frozen hash test vectors, and a witness that the protocol
needs its commitments non-malleable."""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from drasim import (
    AuctionConfig,
    Exponential,
    HashScheme,
    Honest,
    IdealScheme,
    Opening,
    Truthful,
    commitments,
    make_scheme,
    optimal_revenue,
    reserve_price,
    run_auction,
)
from drasim.commitments import DEFAULT_SECURITY_BITS, Commitment
from drasim.estimators import estimate_revenue, sample_values
from drasim.seeding import derive_seed
from drasim.strategies import TwoPhase
from drasim.verification import audit_run

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


# ---------------------------------------------------------------------------
# Non-malleability: the attack the paper's assumption rules out
# ---------------------------------------------------------------------------

GRID = 1 << 20      # fixed-point steps per unit of value
MODULUS = 1 << 64
DELTA = 1.0 / GRID  # the mauled bid sits one grid step under the bid it copies


def encode(message: float) -> int:
    return math.floor(float(message) * GRID) % MODULUS


class AdditiveScheme:
    """token = enc(m) + pad(r) mod 2^64, with enc(m) = floor(m * 2^20) and pad(r)
    from SHA-256 of r: hiding by the pad and binding on the grid, but malleable,
    as token - enc(d) commits to (m - d, r) for any d on the grid."""

    name = "additive"

    def commit(self, message: float, randomness: bytes) -> Commitment:
        return Commitment(self.name, self._token(message, randomness))

    def verify(self, commitment: Commitment, opening: Opening) -> bool:
        return (isinstance(commitment, Commitment) and commitment.scheme == self.name
                and commitment.token == self._token(opening.message, opening.randomness))

    @staticmethod
    def _token(message: float, randomness: bytes) -> int:
        pad = int.from_bytes(hashlib.sha256(bytes(randomness)).digest()[:8], "big")
        return (encode(message) + pad) % MODULUS


def maul(commitment: Commitment) -> Commitment:
    """The commitment's token less enc(DELTA), as an int or as bytes of its length."""
    token = commitment.token
    if isinstance(token, bytes):
        shifted = (int.from_bytes(token, "big") - encode(DELTA)) % (1 << 8 * len(token))
        return Commitment(commitment.scheme, shifted.to_bytes(len(token), "big"))
    return Commitment(commitment.scheme, (token - encode(DELTA)) % MODULUS)


class MaulingShill(TwoPhase):
    """On broadcast, a false buyer for each real commitment c_i, committed to
    maul(c_i) without knowing its bid b_i, and opened after the real reveals as
    (b_i - DELTA, r_i): the top bid's copy sets the price one step under it."""

    mode = "broadcast"

    def execute(self, game):
        self.check_config(game.config)
        copies = {}  # false id -> the real id whose commitment it mauls
        for i in game.buyer_ids:
            msg = game.buyer_commit(i)
            fid = game.mint_false_buyer(0.0)
            game.commitments[fid] = maul(msg.commitment)
            game.publish_false_commit(fid)
            copies[fid] = i
        game.end_commit()
        openings = {i: msg.opening for i in game.buyer_ids
                    if (msg := game.buyer_reveal(i)) is not None}
        for fid, i in copies.items():
            game.openings[fid] = Opening(openings[i].message - DELTA, openings[i].randomness)
            game.reveal_false(fid)
        game.end_reveal()
        return game.finalize()


EXPONENTIAL = Exponential(1.0)


def mauling_config(scheme: str) -> AuctionConfig:
    reserve = reserve_price(EXPONENTIAL)
    return AuctionConfig(n=2, dist=EXPONENTIAL, reserve=reserve, collateral=reserve,
                         scheme=scheme)


@pytest.fixture
def additive(monkeypatch):
    monkeypatch.setitem(commitments.SCHEMES, AdditiveScheme.name, AdditiveScheme)
    return AdditiveScheme.name


def test_a_malleable_scheme_lets_the_mauling_shill_beat_rev_d_n_unseen(additive):
    config = mauling_config(additive)
    est = estimate_revenue(config, MaulingShill(), 1_000, 1)
    assert est.mean > optimal_revenue(EXPONENTIAL, 2).mean + 3.0 * est.std_error
    for k in range(100):  # a safe deviation: no view can tell it from an honest run
        values = sample_values(EXPONENTIAL, 2, derive_seed(1, "maul", k))
        audit = audit_run(mauling_config(additive), [Truthful(v) for v in values],
                          MaulingShill())
        assert audit.ok, (values, audit.violations)
        assert audit.outcome.revealed == {1, 2, 3, 4}


@pytest.mark.parametrize("scheme", ["ideal", "sha256"])
def test_a_shipped_scheme_refuses_the_mauled_openings(scheme):
    config = mauling_config(scheme)
    audit = audit_run(config, [Truthful(2.5), Truthful(1.7)], MaulingShill())
    outcome = audit.outcome
    assert outcome.revealed == {1, 2} and outcome.winner == 1
    assert outcome.sale_price == 1.7  # the honest price: no false bid counts
    assert [(e.depositor, e.recipient) for e in outcome.ledger] == [(1, 1), (2, 2), (3, 1), (4, 1)]
    assert "buyer 1: view fails consistency check" in audit.violations
    est = estimate_revenue(config, MaulingShill(), 1_000, 1)
    honest = estimate_revenue(config, Honest(), 1_000, 1)
    assert est.mean + 3.0 * est.std_error < honest.mean
