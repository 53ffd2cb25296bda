"""Channel tests: broadcast atomicity, id binding, per-view phase grammar,
mode separation, transcript determinism, and the records messages are made of."""

import pickle
from dataclasses import FrozenInstanceError, replace
from typing import Optional

import pytest

from drasim import (
    AUCTIONEER,
    AuctionConfig,
    Channel,
    CollateralNotice,
    CommitMsg,
    EndCommit,
    EndReveal,
    Exponential,
    Honest,
    ModeError,
    OutcomeNotice,
    ProtocolViolation,
    RevealMsg,
    SpoofingError,
    Truthful,
    reserve_price,
    run_auction,
)
from drasim.channels import (
    END_COMMIT,
    OUT_OF_PHASE,
    PHASE_COMMIT,
    PHASE_DONE,
    PHASE_REVEAL,
    PHASE_TRANSITIONS,
)
from drasim.commitments import IdealScheme, Opening
from drasim.records import record


def fresh_channel(mode="broadcast", n=3):
    return Channel(mode, n)


def buyer_view(ch, agent):
    """The view the channel has delivered to buyer `agent` so far."""
    return ch.transcript(None).view(agent)


def commit_msg(bidder, scheme=None):
    scheme = scheme or IdealScheme()
    return CommitMsg(bidder=bidder, commitment=scheme.commit(1.0, b"\x00" * 16))


def test_broadcast_reaches_every_view():
    ch = fresh_channel()
    msg = commit_msg(1)
    ch.broadcast(1, msg)
    for agent in (1, 2, 3):
        assert [e.payload for e in buyer_view(ch, agent).events] == [msg]


def test_broadcast_atomicity_identical_projection():
    ch = fresh_channel()
    scheme = IdealScheme()
    for i in (1, 2, 3):
        ch.broadcast(i, commit_msg(i, scheme))
    ch.broadcast(AUCTIONEER, EndCommit())
    log = tuple(e for e in ch.events if e.recipient is None)
    for agent in (1, 2, 3):
        projected = tuple(e for e in buyer_view(ch, agent).events if e.recipient is None)
        assert projected == log


def test_false_id_accepted_after_binding():
    ch = fresh_channel()
    ch.bind_id(7, AUCTIONEER)
    ch.broadcast(7, commit_msg(7), physical=AUCTIONEER)
    assert buyer_view(ch, 2).events[0].payload.bidder == 7


def test_id_spoofing_rejected():
    ch = fresh_channel()
    with pytest.raises(SpoofingError):
        ch.broadcast(1, commit_msg(1), physical=2)  # buyer 2 under id 1
    with pytest.raises(SpoofingError):
        ch.broadcast(9, commit_msg(9))  # unbound id
    ch.bind_id(7, AUCTIONEER)
    with pytest.raises(SpoofingError):
        ch.bind_id(7, 1)


def test_mode_separation():
    b = fresh_channel("broadcast")
    with pytest.raises(ModeError):
        b.private_send(1, 2, commit_msg(1))
    c = fresh_channel("centralized")
    with pytest.raises(ModeError):
        c.broadcast(1, commit_msg(1))


def test_centralized_visibility():
    ch = fresh_channel("centralized")
    msg = commit_msg(1)
    ch.private_send(1, AUCTIONEER, msg)
    ch.private_send(AUCTIONEER, 2, msg)
    assert [e.payload for e in buyer_view(ch, 1).events] == [msg]  # own send echoed
    assert [e.payload for e in buyer_view(ch, 2).events] == [msg]  # forwarded copy
    assert buyer_view(ch, 3).events == ()  # third party sees nothing


def test_buyer_views_need_a_buyer_id():
    dist = Exponential(1.0)
    config = AuctionConfig(n=3, dist=dist, reserve=reserve_price(dist), collateral=1.0,
                           mode="broadcast", seed=0)
    _, transcript = run_auction(config, [Truthful(2.0), Truthful(0.7), Truthful(1.4)],
                                Honest())
    for agent in (None, 0, 4, -1):
        with pytest.raises(ValueError):
            transcript.view(agent)
    assert transcript.buyer_views() == {i: transcript.view(i) for i in (1, 2, 3)}


def test_phase_grammar_commit_after_end():
    ch = fresh_channel()
    ch.broadcast(1, commit_msg(1))
    ch.broadcast(AUCTIONEER, EndCommit())
    with pytest.raises(ProtocolViolation):
        ch.broadcast(2, commit_msg(2))


def test_phase_grammar_reveal_before_end_commit():
    ch = fresh_channel()
    scheme = IdealScheme()
    c = scheme.commit(1.0, b"\x00" * 16)
    ch.broadcast(1, CommitMsg(1, c))
    with pytest.raises(ProtocolViolation):
        ch.broadcast(1, RevealMsg(1, Opening(1.0, b"\x00" * 16)))


def test_phase_grammar_staggered_end_commit_is_legal():
    # The centralized deviation surface: different views may close at
    # different logical times without violating any single view's grammar.
    ch = fresh_channel("centralized", n=2)
    scheme = IdealScheme()
    c1 = scheme.commit(1.0, b"\x00" * 16)
    ch.private_send(1, AUCTIONEER, CommitMsg(1, c1))
    ch.private_send(AUCTIONEER, 2, CommitMsg(1, c1))
    ch.private_send(AUCTIONEER, 1, EndCommit())
    ch.private_send(1, AUCTIONEER, RevealMsg(1, Opening(1.0, b"\x00" * 16)))
    # buyer 2 is still in its commitment phase and can receive commits
    c9 = scheme.commit(9.0, b"\x01" * 16)
    ch.bind_id(9, AUCTIONEER)
    ch.private_send(AUCTIONEER, 2, CommitMsg(9, c9))
    ch.private_send(AUCTIONEER, 2, EndCommit())
    with pytest.raises(ProtocolViolation):
        ch.private_send(AUCTIONEER, 2, EndCommit())  # duplicate close
    with pytest.raises(ProtocolViolation):
        ch.private_send(AUCTIONEER, 1, OutcomeNotice(None, 0.0))  # before end_reveal
    ch.private_send(AUCTIONEER, 1, EndReveal())
    ch.private_send(AUCTIONEER, 1, OutcomeNotice(None, 0.0))


def test_phase_transitions_rows():
    # a payload's row, keyed by its kind, gives the view's next phase from each phase
    def row(payload):
        return PHASE_TRANSITIONS.get(payload.kind, OUT_OF_PHASE)

    assert row(EndCommit())[PHASE_COMMIT] == PHASE_REVEAL
    assert row(RevealMsg(1, Opening(1.0, b"\x00" * 16)))[PHASE_REVEAL] == PHASE_REVEAL
    assert row(CollateralNotice(1, 1.0, "refund"))[PHASE_DONE] == PHASE_DONE
    assert row(END_COMMIT)[PHASE_DONE] is None
    assert row(CollateralNotice(1, 1.0, "bribe")) == OUT_OF_PHASE  # an unknown kind


def test_delivery_refused_by_a_later_view_leaves_every_view_as_it_was():
    ch = fresh_channel("centralized", n=2)
    scheme = IdealScheme()
    ch.private_send(AUCTIONEER, 1, EndCommit())  # buyer 1 reveals, buyer 2 still commits
    before = ch.transcript(scheme)
    # buyer 1 to buyer 2: view 2 admits the commit, view 1 (its sender's) does not
    with pytest.raises(ProtocolViolation, match="^CommitMsg out of phase in view 1$"):
        ch.private_send(1, 2, commit_msg(1, scheme))
    assert len(ch.events) == 1 and ch.transcript(scheme).views == before.views
    ch.private_send(AUCTIONEER, 2, commit_msg(1, scheme))  # view 2 is still committing
    ch.private_send(AUCTIONEER, 2, EndCommit())


def test_logical_time_strictly_increases():
    ch = fresh_channel()
    scheme = IdealScheme()
    for i in (1, 2, 3):
        ch.broadcast(i, commit_msg(i, scheme))
    ts = [e.t for e in ch.events]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)


def test_transcript_determinism_byte_for_byte():
    dist = Exponential(1.0)
    config = AuctionConfig(n=3, dist=dist, reserve=reserve_price(dist), collateral=1.0,
                           mode="broadcast", seed=42)
    buyers = [Truthful(2.0), Truthful(0.7), Truthful(1.4)]
    _, t1 = run_auction(config, buyers, Honest())
    _, t2 = run_auction(config, buyers, Honest())
    assert t1.dump_jsonl() == t2.dump_jsonl()
    # and a different seed changes the bytes (fresh commitment randomness)
    config_b = AuctionConfig(n=3, dist=dist, reserve=reserve_price(dist), collateral=1.0,
                             mode="broadcast", seed=43)
    _, t3 = run_auction(config_b, buyers, Honest())
    assert t1.dump_jsonl() != t3.dump_jsonl()


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Channel("gossip", 2)


def test_records_keep_their_dataclass_behaviour():
    notice = CollateralNotice(2, 1.5, "refund")
    assert notice == CollateralNotice(party=2, amount=1.5, kind="refund", counterparty=None)
    assert hash(notice) == hash(CollateralNotice(2, 1.5, "refund"))
    assert repr(notice) == "CollateralNotice(party=2, amount=1.5, kind='refund', counterparty=None)"
    assert replace(notice, kind="transfer", counterparty=1) == CollateralNotice(2, 1.5, "transfer", 1)
    assert pickle.loads(pickle.dumps(notice)) == notice
    assert EndCommit() == EndCommit() and not hasattr(notice, "__dict__")
    with pytest.raises(TypeError):
        CollateralNotice(2, 1.5)
    with pytest.raises(FrozenInstanceError):
        notice.amount = 2.0

    class Later:
        when: Optional[int] = None

        def __post_init__(self):
            pass

    with pytest.raises(TypeError, match="a record has no __post_init__"):
        record(Later)
