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
it, everything broadcast, and its own sent messages (view_members). Its phase
grammar is one transition table, PHASE_TRANSITIONS: for each payload kind, the
view's next phase from each phase, and None where the payload is out of phase
(no commits after the view's end-of-commitment, no reveals before it). Every
view starts in PHASE_COMMIT and a complete one ends in PHASE_DONE. The channel
applies the member rule and reads the table once per event, as it delivers:
every receiving buyer's view must admit the event, and gains it, or none does.
A strategy that breaks the grammar aborts the run, which separates grammar
violations from safe deviations. The view-consistency checker parses a view
by the same table, one read per entry.

A view is read from a transcript, which carries every buyer's view as the
channel delivered it, so Transcript.view and buyer_views are lookups; the
channel has no view accessor of its own.
"""

from __future__ import annotations

import json
from dataclasses import field
from typing import Optional, Union

from .commitments import Commitment, Opening
from .records import record

__all__ = [
    "AUCTIONEER",
    "BURN",
    "CommitMsg",
    "EndCommit",
    "RevealMsg",
    "EndReveal",
    "END_COMMIT",
    "END_REVEAL",
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
    "PHASE_COMMIT",
    "PHASE_REVEAL",
    "PHASE_DONE",
    "PHASE_TRANSITIONS",
    "OUT_OF_PHASE",
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


@record
class CommitMsg:
    """A sealed bid: the bidder's id and the commitment it posts."""

    bidder: int
    commitment: Commitment
    kind = "commit"


@record
class EndCommit:
    """The auctioneer's close of the commitment phase."""

    kind = "end_commit"


@record
class RevealMsg:
    """The bidder's opening of its commitment, posted in the reveal phase."""

    bidder: int
    opening: Opening
    kind = "reveal"


@record
class EndReveal:
    """The auctioneer's close of the reveal phase."""

    kind = "end_reveal"


@record
class OutcomeNotice:
    """Recipient-specific allocation announcement: winner id (or None) and price."""

    winner: Optional[int]
    price: float
    kind = "outcome"


@record
class CollateralNotice:
    """Money movement visible to one party: kind in {deposit, refund, transfer}.

    counterparty is the forfeiting bidder for transfers to a winner.
    """

    party: int
    amount: float
    kind: str
    counterparty: Optional[int] = None


Payload = Union[CommitMsg, EndCommit, RevealMsg, EndReveal, OutcomeNotice, CollateralNotice]

# the fieldless payloads carry no data: one instance of each serves every run
END_COMMIT = EndCommit()
END_REVEAL = EndReveal()

PHASE_COMMIT, PHASE_REVEAL, PHASE_DONE = 0, 1, 2

# The phase grammar of one view as a transition table: a payload's kind -> the
# view's phase after it from each phase, PHASE_COMMIT, PHASE_REVEAL, PHASE_DONE
# in that order; None where the payload is out of phase. A collateral notice
# carries its own kind, every other payload class names one.
PHASE_TRANSITIONS = {
    "commit": (PHASE_COMMIT, None, None),
    "deposit": (PHASE_COMMIT, None, None),
    "end_commit": (PHASE_REVEAL, None, None),
    "reveal": (None, PHASE_REVEAL, None),
    "end_reveal": (None, PHASE_DONE, None),
    "outcome": (None, None, PHASE_DONE),
    "refund": (None, None, PHASE_DONE),
    "transfer": (None, None, PHASE_DONE),
}
OUT_OF_PHASE = (None, None, None)  # the row of a kind the grammar does not know


@record
class Event:
    """One message on the channel: its index t in the log, sender, recipient and payload."""

    t: int
    sender: int
    recipient: Optional[int]  # None means broadcast
    payload: Payload

    def to_json(self) -> dict:
        """The event as one JSON object, stable field order: a transcript's form in
        dump_jsonl and in the run command's output."""
        return {"t": self.t, "sender": self.sender,
                "recipient": "*" if self.recipient is None else self.recipient,
                "payload": _payload_json(self.payload)}


@record
class View:
    """Ordered events one agent observed (received, broadcast, or own-sent)."""

    agent: int
    events: tuple


def view_members(event: Event, buyers: range):
    """The buyers out of `buyers` (ids 1..n) whose view contains `event`: all of
    them for a broadcast, otherwise the one it is addressed to and its sender."""
    recipient, sender = event.recipient, event.sender
    if recipient is None:
        return buyers
    if sender == recipient or sender not in buyers:
        return (recipient,) if recipient in buyers else ()
    return (recipient, sender) if recipient in buyers else (sender,)


def _payload_json(p: Payload) -> dict:
    if isinstance(p, CommitMsg):
        return {"type": "commit", "bidder": p.bidder, "commitment": p.commitment.token_str()}
    if isinstance(p, (EndCommit, EndReveal)):
        return {"type": p.kind}
    if isinstance(p, RevealMsg):
        return {"type": "reveal", "bidder": p.bidder, "bid": p.opening.message,
                "randomness": p.opening.randomness.hex()}
    if isinstance(p, OutcomeNotice):
        return {"type": "outcome", "winner": p.winner, "price": p.price}
    if isinstance(p, CollateralNotice):
        return {"type": "collateral", "party": p.party, "amount": p.amount,
                "kind": p.kind, "counterparty": p.counterparty}
    raise TypeError(f"unknown payload {type(p).__name__}")


# the communication modes a Channel runs: one log for all, or private channels via the auctioneer
MODES = ("broadcast", "centralized")


class Channel:
    """One run's transport. Confined to a single simulation instance."""

    def __init__(self, mode: str, n_buyers: int):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.n_buyers = n_buyers
        self.buyers = buyers = range(1, n_buyers + 1)
        self.events: list[Event] = []
        parties = range(n_buyers + 1)  # the auctioneer (0) and the buyers
        self._owners = dict(zip(parties, parties))
        self._phase = dict.fromkeys(buyers, PHASE_COMMIT)
        self._views: dict[int, list] = {i: [] for i in buyers}

    # -- identity -----------------------------------------------------------

    def bind_id(self, agent_id: int, physical: int) -> None:
        """Bind a fresh id (false buyers) to its controlling party."""
        if agent_id in self._owners and self._owners[agent_id] != physical:
            raise SpoofingError(f"id {agent_id} already bound")
        self._owners[agent_id] = physical

    # -- delivery -----------------------------------------------------------

    def _append(self, sender: int, recipient: Optional[int], payload: Payload,
                physical: Optional[int]) -> Event:
        """Log the event, if `sender` is an id of the party `physical` (default: the
        sender itself), and deliver it to each view that sees it, grammar permitting."""
        physical = sender if physical is None else physical
        owner = self._owners.get(sender)
        if owner != physical:
            raise SpoofingError(f"id {sender} was never bound to a sender" if owner is None
                                else f"id {sender} is bound to {owner}, not {physical}")
        events = self.events
        event = Event(len(events), sender, recipient, payload)
        members = view_members(event, self.buyers)
        phases, row = self._phase, PHASE_TRANSITIONS.get(payload.kind, OUT_OF_PHASE)
        for buyer in members:
            if row[phases[buyer]] is None:
                raise ProtocolViolation(f"{type(payload).__name__} out of phase in view {buyer}")
        views = self._views
        for buyer in members:
            phases[buyer] = row[phases[buyer]]
            views[buyer].append(event)
        events.append(event)
        return event

    def broadcast(self, sender: int, payload: Payload, physical: Optional[int] = None) -> Event:
        """Atomic delivery to every agent; broadcast mode only."""
        if self.mode != "broadcast":
            raise ModeError("broadcast requires a broadcast channel")
        return self._append(sender, None, payload, physical)

    def private_send(self, sender: int, recipient: int, payload: Payload) -> Event:
        """Point-to-point delivery; centralized mode only."""
        if self.mode != "centralized":
            raise ModeError("private_send requires a centralized channel")
        return self._append(sender, recipient, payload, None)

    def notify(self, recipient: int, payload: CollateralNotice, sender: int = AUCTIONEER) -> Event:
        """Targeted money notice in either mode (never part of the broadcast log)."""
        return self._append(sender, recipient, payload, None)

    # -- inspection ----------------------------------------------------------

    def transcript(self, scheme) -> "Transcript":
        """The log so far, with every buyer's view as delivered."""
        return Transcript(self.mode, self.n_buyers, tuple(self.events), scheme,
                          {i: View(i, tuple(seen)) for i, seen in self._views.items()})


@record
class Transcript:
    """Full physical event log of one run, plus what a verifier needs from it:
    the commitment scheme, and each buyer's view as the channel delivered it."""

    mode: str
    n_buyers: int
    events: tuple
    scheme: object
    views: dict = field(compare=False)  # buyer id -> View, derived from events

    def view(self, agent: int) -> View:
        if agent not in self.views:
            raise ValueError(f"no buyer {agent!r}: buyer views are defined for ids "
                             f"1..{self.n_buyers}")
        return self.views[agent]

    def buyer_views(self) -> dict[int, View]:
        return dict(self.views)

    def dump_jsonl(self) -> str:
        """One JSON object per event (Event.to_json), for golden files."""
        return "\n".join(json.dumps(e.to_json(), separators=(",", ":")) for e in self.events) + "\n"
