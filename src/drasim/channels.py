"""Message transport for auction runs: broadcast or centralized private channels.

Broadcast delivery is atomic: one logical timestamp, every agent's view gains
the event. Centralized mode gives the auctioneer full scheduling power over
forwarding, which is exactly the deviation surface the centralized attacks
exploit (drop, delay, selectively forward).

Logical time is a single global counter; there are no wall clocks, so a run is
reproducible byte-for-byte from (config, seed). Identities are plain integers:
0 is the auctioneer, 1..n are real buyers, ids above n are minted for false
buyers. An id is bound to the physical party that first uses it, which stands
in for signatures; buyers cannot tell false ids from real ones by inspection.

A view is the subsequence of events an agent observes: everything addressed to
it, everything broadcast, and its own sent messages (view_members). Per-view
phase legality (next_phase: no commits after that view's end-of-commitment, no
reveals before it) is enforced on delivery; a strategy that breaks the message
grammar aborts the run, which separates grammar violations from safe
deviations. The view-consistency checker judges views by the same two rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .commitments import Commitment, Opening

__all__ = [
    "AUCTIONEER",
    "BURN",
    "CommitMsg",
    "EndCommit",
    "RevealMsg",
    "EndReveal",
    "OutcomeNotice",
    "CollateralNotice",
    "Event",
    "View",
    "Channel",
    "MODES",
    "Transcript",
    "ChannelError",
    "ModeError",
    "SpoofingError",
    "ProtocolViolation",
    "next_phase",
    "view_members",
]

AUCTIONEER = 0
BURN = -1  # ledger destination for collateral destroyed when no one can receive it


class ChannelError(RuntimeError):
    pass


class ModeError(ChannelError):
    """Operation not available in the channel's communication mode."""


class SpoofingError(ChannelError):
    """A message used an id bound to a different physical sender."""


class ProtocolViolation(ChannelError):
    """A message broke the phase grammar in some receiving view."""


@dataclass(frozen=True)
class CommitMsg:
    bidder: int
    commitment: Commitment


@dataclass(frozen=True)
class EndCommit:
    pass


@dataclass(frozen=True)
class RevealMsg:
    bidder: int
    opening: Opening


@dataclass(frozen=True)
class EndReveal:
    pass


@dataclass(frozen=True)
class OutcomeNotice:
    """Recipient-specific allocation announcement: winner id (or None) and price."""

    winner: Optional[int]
    price: float


@dataclass(frozen=True)
class CollateralNotice:
    """Money movement visible to one party: kind in {deposit, refund, transfer}.

    counterparty is the forfeiting bidder for transfers to a winner.
    """

    party: int
    amount: float
    kind: str
    counterparty: Optional[int] = None


Payload = Union[CommitMsg, EndCommit, RevealMsg, EndReveal, OutcomeNotice, CollateralNotice]

PHASE_COMMIT, PHASE_REVEAL, PHASE_DONE = 0, 1, 2

# The phase grammar of one view. Payload type (for collateral notices, their
# kind) -> (the one phase it is legal in, the phase after it).
_GRAMMAR = {
    CommitMsg: (PHASE_COMMIT, PHASE_COMMIT),
    "deposit": (PHASE_COMMIT, PHASE_COMMIT),
    EndCommit: (PHASE_COMMIT, PHASE_REVEAL),
    RevealMsg: (PHASE_REVEAL, PHASE_REVEAL),
    EndReveal: (PHASE_REVEAL, PHASE_DONE),
    OutcomeNotice: (PHASE_DONE, PHASE_DONE),
    "refund": (PHASE_DONE, PHASE_DONE),
    "transfer": (PHASE_DONE, PHASE_DONE),
}


def next_phase(phase: int, payload: Payload) -> Optional[int]:
    """A view's phase after `payload`, or None when `payload` is illegal in `phase`.

    Every view starts in PHASE_COMMIT, and a complete one ends in PHASE_DONE.
    """
    rule = _GRAMMAR.get(payload.kind if isinstance(payload, CollateralNotice) else type(payload))
    return rule[1] if rule is not None and rule[0] == phase else None


@dataclass(frozen=True)
class Event:
    t: int
    sender: int
    recipient: Optional[int]  # None means broadcast
    payload: Payload


@dataclass(frozen=True)
class View:
    """Ordered events one agent observed (received, broadcast, or own-sent)."""

    agent: int
    events: tuple


def view_members(event: Event, n_buyers: int):
    """The buyers whose view contains `event`: every buyer for a broadcast,
    otherwise the buyer it is addressed to and the buyer who sent it."""
    if event.recipient is None:
        return range(1, n_buyers + 1)
    members = [event.recipient] if 1 <= event.recipient <= n_buyers else []
    if 1 <= event.sender <= n_buyers and event.sender != event.recipient:
        members.append(event.sender)
    return members


def _buyer_views(events, n_buyers: int) -> dict[int, View]:
    """Every buyer's view, from one pass over the events."""
    selected = {i: [] for i in range(1, n_buyers + 1)}
    for event in events:
        for buyer in view_members(event, n_buyers):
            selected[buyer].append(event)
    return {i: View(agent=i, events=tuple(seen)) for i, seen in selected.items()}


def _buyer_view(events, n_buyers: int, agent: int) -> View:
    if agent not in range(1, n_buyers + 1):
        raise ValueError(f"no buyer {agent!r}: buyer views are defined for ids 1..{n_buyers}")
    return _buyer_views(events, n_buyers)[agent]


def _payload_json(p: Payload) -> dict:
    if isinstance(p, CommitMsg):
        return {"type": "commit", "bidder": p.bidder, "commitment": p.commitment.token_str()}
    if isinstance(p, EndCommit):
        return {"type": "end_commit"}
    if isinstance(p, RevealMsg):
        return {"type": "reveal", "bidder": p.bidder, "bid": p.opening.message,
                "randomness": p.opening.randomness.hex()}
    if isinstance(p, EndReveal):
        return {"type": "end_reveal"}
    if isinstance(p, OutcomeNotice):
        return {"type": "outcome", "winner": p.winner, "price": p.price}
    if isinstance(p, CollateralNotice):
        return {"type": "collateral", "party": p.party, "amount": p.amount,
                "kind": p.kind, "counterparty": p.counterparty}
    raise TypeError(f"unknown payload {type(p).__name__}")


# the communication modes a Channel runs: one log for all, or private channels
# through the auctioneer
MODES = ("broadcast", "centralized")


class Channel:
    """One run's transport. Confined to a single simulation instance."""

    def __init__(self, mode: str, n_buyers: int):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.n_buyers = n_buyers
        self.events: list[Event] = []
        self._clock = 0
        self._owners: dict[int, int] = {AUCTIONEER: AUCTIONEER}
        self._owners.update({i: i for i in range(1, n_buyers + 1)})
        self._phase: dict[int, int] = {i: PHASE_COMMIT for i in range(1, n_buyers + 1)}

    # -- identity -----------------------------------------------------------

    def bind_id(self, agent_id: int, physical: int) -> None:
        """Bind a fresh id (false buyers) to its controlling party."""
        if agent_id in self._owners and self._owners[agent_id] != physical:
            raise SpoofingError(f"id {agent_id} already bound")
        self._owners[agent_id] = physical

    def _check_owner(self, sender: int, physical: int) -> None:
        owner = self._owners.get(sender)
        if owner is None:
            raise SpoofingError(f"id {sender} was never bound to a sender")
        if owner != physical:
            raise SpoofingError(f"id {sender} is bound to {owner}, not {physical}")

    # -- delivery -----------------------------------------------------------

    def _append(self, sender: int, recipient: Optional[int], payload: Payload) -> Event:
        event = Event(t=self._clock, sender=sender, recipient=recipient, payload=payload)
        for buyer in view_members(event, self.n_buyers):
            phase = next_phase(self._phase[buyer], payload)
            if phase is None:
                raise ProtocolViolation(f"{type(payload).__name__} out of phase in view {buyer}")
            self._phase[buyer] = phase
        self._clock += 1
        self.events.append(event)
        return event

    def broadcast(self, sender: int, payload: Payload, physical: Optional[int] = None) -> Event:
        """Atomic delivery to every agent; broadcast mode only."""
        if self.mode != "broadcast":
            raise ModeError("broadcast requires a broadcast channel")
        self._check_owner(sender, physical if physical is not None else sender)
        return self._append(sender, None, payload)

    def private_send(self, sender: int, recipient: int, payload: Payload,
                     physical: Optional[int] = None) -> Event:
        """Point-to-point delivery; centralized mode only."""
        if self.mode != "centralized":
            raise ModeError("private_send requires a centralized channel")
        self._check_owner(sender, physical if physical is not None else sender)
        return self._append(sender, recipient, payload)

    def notify(self, recipient: int, payload: CollateralNotice, sender: int = AUCTIONEER) -> Event:
        """Targeted money notice in either mode (never part of the broadcast log)."""
        return self._append(sender, recipient, payload)

    # -- inspection ----------------------------------------------------------

    def view(self, agent: int) -> View:
        if agent != AUCTIONEER:
            return _buyer_view(self.events, self.n_buyers, agent)
        return View(agent=agent, events=tuple(
            e for e in self.events
            if e.recipient in (None, AUCTIONEER) or e.sender == AUCTIONEER
            or self._owners.get(e.sender) == AUCTIONEER))

    def broadcast_log(self) -> tuple:
        return tuple(e for e in self.events if e.recipient is None)


@dataclass(frozen=True)
class Transcript:
    """Full physical event log of one run, plus what a verifier needs from it."""

    mode: str
    n_buyers: int
    events: tuple
    scheme: object

    def view(self, agent: int) -> View:
        return _buyer_view(self.events, self.n_buyers, agent)

    def buyer_views(self) -> dict[int, View]:
        return _buyer_views(self.events, self.n_buyers)

    def dump_jsonl(self) -> str:
        """One JSON object per event, stable field order, for golden files."""
        lines = []
        for e in self.events:
            obj = {
                "t": e.t,
                "sender": e.sender,
                "recipient": "*" if e.recipient is None else e.recipient,
                "payload": _payload_json(e.payload),
            }
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + "\n"
