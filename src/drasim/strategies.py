"""Buyer and auctioneer strategies, and the per-buyer view-consistency checker.

Buyer strategies are static: truthful commitment to the private value, a fixed
off-value bid, or committing and then refusing to open. Auctioneer strategies
drive the run:

  * Honest: the promised auction, in either communication mode.
  * ShillBroadcast: honest play plus false buyers whose bid values are fixed
    before the commitment phase closes. They are functions of the instance and
    the strategy seed only, never of buyer values or openings; commitments hide
    bids, so there is nothing value-dependent to condition on. The reveal
    policy decides per false bid, after real openings, whether to withhold.
  * Lifted: replays a broadcast strategy over private channels, the auctioneer
    forwarding every buyer message to everyone else. Outcome-identical to the
    broadcast run under matched seeds.
  * AdaptiveReserve: the centralized two-buyer deviation. Close the commitment
    phase for buyer A early, open A's bid, and if it clears a threshold show
    buyer B a fresh false commitment at A's bid plus the collateral: priced to
    either extract a first-price payment from B or eat one deposit.

A deviation counts as safe here when check_view_consistency accepts every real
buyer's transcript on every run: each view must be explainable by some honest
execution. That is a necessary-condition filter rather than the full
simulation-based definition, and it is itself under test via the known
deviations it must accept and the corruptions it must reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .channels import (
    PHASE_COMMIT,
    PHASE_DONE,
    CollateralNotice,
    CommitMsg,
    EndCommit,
    OutcomeNotice,
    RevealMsg,
    Transcript,
    View,
    next_phase,
)
from .protocol import AuctionConfig, AuctionGame, Outcome

__all__ = [
    "Truthful",
    "FixedBid",
    "NoReveal",
    "AlwaysReveal",
    "WithholdIf",
    "ALWAYS_REVEAL",
    "WITHHOLD_IF_WINNING",
    "Honest",
    "ShillBroadcast",
    "Lifted",
    "AdaptiveReserve",
    "lift_to_centralized",
    "reveal_dominant_variant",
    "check_view_consistency",
    "summary_is_consistent",
    "view_summary",
    "ViewSummary",
    "commit_phase_payloads",
    "false_commit_payloads",
]

_PRICE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Buyer strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truthful:
    """Commit to the private value and open the commitment."""

    value: float

    def bid(self) -> float:
        return self.value

    def reveals(self) -> bool:
        return True


@dataclass(frozen=True)
class FixedBid:
    """Commit to a chosen bid (unilateral deviation) and open it."""

    value: float
    bid_amount: float

    def bid(self) -> float:
        return self.bid_amount

    def reveals(self) -> bool:
        return True


@dataclass(frozen=True)
class NoReveal:
    """Commit truthfully, then withhold the opening (forfeits the deposit)."""

    value: float

    def bid(self) -> float:
        return self.value

    def reveals(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Reveal policies for false bids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlwaysReveal:
    name = "always"

    def withholds(self, false_bid: float, revealed_real_bids: Sequence[float]) -> bool:
        return False


@dataclass(frozen=True)
class WithholdIf:
    """Withhold a false bid when the predicate over revealed real bids fires.

    The predicate sees exactly what the auctioneer legitimately holds at
    reveal time: the false bid's value and all opened real bids.
    """

    predicate: Callable[[float, Sequence[float]], bool]
    name: str = "withhold_if"

    def withholds(self, false_bid: float, revealed_real_bids: Sequence[float]) -> bool:
        return bool(self.predicate(false_bid, revealed_real_bids))


def _outbids_all_reals(false_bid: float, revealed_real_bids: Sequence[float]) -> bool:
    return false_bid > max(revealed_real_bids, default=-math.inf)


ALWAYS_REVEAL = AlwaysReveal()
# Withhold exactly when the false bid outbids every opened real bid (it would
# win the item); otherwise revealing it only props up the price.
WITHHOLD_IF_WINNING = WithholdIf(_outbids_all_reals, name="withhold_if_winning")


# ---------------------------------------------------------------------------
# Auctioneer strategies
# ---------------------------------------------------------------------------

def _run_two_phase(game: AuctionGame, false_bids: Sequence[float], reveal_policy) -> Outcome:
    """The promised two-round schedule, mode-aware, with optional false bids."""
    centralized = game.mode == "centralized"
    for i in game.buyer_ids:
        msg = game.buyer_commit(i)
        if centralized:
            for j in game.buyer_ids:
                if j != i:
                    game.forward(msg, to=j)
    fids = []
    for bid in false_bids:
        fid = game.mint_false_buyer(bid)
        game.publish_false_commit(fid)
        fids.append(fid)
    game.end_commit()
    revealed_real: list[float] = []
    reveal_msgs = []
    for i in game.buyer_ids:
        msg = game.buyer_reveal(i)
        if msg is not None:
            revealed_real.append(msg.opening.message)
            reveal_msgs.append(msg)
            if centralized:
                for j in game.buyer_ids:
                    if j != i:
                        game.forward(msg, to=j)
    for fid in fids:
        false_bid = game.openings[fid].message
        if not reveal_policy.withholds(false_bid, revealed_real):
            game.reveal_false(fid)
    game.end_reveal()
    return game.finalize()


class Honest:
    """The promised auction; works over broadcast or centralized channels."""

    kind = "honest"

    def check_config(self, config: AuctionConfig) -> None:
        """Honest play runs under every config."""

    def execute(self, game: AuctionGame) -> Outcome:
        return _run_two_phase(game, false_bids=(), reveal_policy=ALWAYS_REVEAL)

    def describe(self) -> str:
        return "honest"


@dataclass(frozen=True)
class ShillBroadcast:
    """False buyers over the broadcast channel, with a reveal policy.

    false_bids must be pinned before the run (instance-dependent, never
    value-dependent); with no false bids this is exactly Honest.
    """

    false_bids: tuple = ()
    reveal_policy: object = ALWAYS_REVEAL
    kind = "shill"

    def check_config(self, config: AuctionConfig) -> None:
        """Raise ValueError unless the config is one this strategy runs under."""
        if config.mode != "broadcast":
            raise ValueError("ShillBroadcast runs on the broadcast channel; wrap in Lifted")

    def execute(self, game: AuctionGame) -> Outcome:
        self.check_config(game.config)
        return _run_two_phase(game, self.false_bids, self.reveal_policy)

    def describe(self) -> str:
        bids = ",".join(f"{b:.6g}" for b in self.false_bids)
        return f"shill[{bids}]/{self.reveal_policy.name}"


@dataclass(frozen=True)
class Lifted:
    """A broadcast strategy replayed over centralized private channels."""

    inner: object
    kind = "lifted"

    def check_config(self, config: AuctionConfig) -> None:
        """Raise ValueError unless the config is one this strategy runs under."""
        if config.mode != "centralized":
            raise ValueError("Lifted strategies require centralized mode")
        if not isinstance(self.inner, (ShillBroadcast, Honest)):
            raise ValueError(f"cannot lift {type(self.inner).__name__}")

    def execute(self, game: AuctionGame) -> Outcome:
        self.check_config(game.config)
        if isinstance(self.inner, ShillBroadcast):
            return _run_two_phase(game, self.inner.false_bids, self.inner.reveal_policy)
        return _run_two_phase(game, (), ALWAYS_REVEAL)

    def describe(self) -> str:
        return f"lifted({self.inner.describe()})"


def lift_to_centralized(buyer_strategies: Sequence, auctioneer_strategy):
    """Map a broadcast strategy profile to its centralized replay."""
    if isinstance(auctioneer_strategy, (Lifted, AdaptiveReserve)):
        raise ValueError(f"{type(auctioneer_strategy).__name__} is not a broadcast strategy")
    return list(buyer_strategies), Lifted(auctioneer_strategy)


def reveal_dominant_variant(shill: ShillBroadcast, collateral_amount: float) -> ShillBroadcast:
    """Replace the reveal policy by AlwaysReveal; valid when every false bid is
    covered by the collateral, where revealing weakly dominates withholding."""
    excess = [b for b in shill.false_bids if b > collateral_amount]
    if excess:
        raise ValueError(
            f"false bids {excess} exceed the collateral {collateral_amount}; "
            "reveal-dominance does not apply"
        )
    return replace(shill, reveal_policy=ALWAYS_REVEAL)


@dataclass(frozen=True)
class AdaptiveReserve:
    """Centralized two-buyer deviation keyed on a threshold for buyer A's bid.

    Stagger the end of the commitment phase: A finishes and opens first. Below
    the threshold, proceed exactly as promised. At or above it, mint a false
    buyer C bidding A's bid plus the collateral, show C's commitment only to B,
    and resolve so that B either pays C's bid (when B outbids it), or wins at
    A's bid with C withheld and C's deposit forfeited to B, or loses to A as
    usual. Every buyer's view stays consistent with an honest run.

    threshold may be +inf, which reduces to Honest play exactly.
    """

    threshold: float
    kind = "adaptive"

    def describe(self) -> str:
        return f"adaptive(T={self.threshold:.6g})"

    def check_config(self, config: AuctionConfig) -> None:
        """Raise ValueError unless the config is one this strategy runs under."""
        if config.mode != "centralized":
            raise ValueError("the adaptive reserve deviation needs centralized channels")
        if config.n != 2:
            raise ValueError(f"adaptive reserve is a two-buyer deviation, got n={config.n}")
        if self.threshold < config.reserve - _PRICE_TOL:
            raise ValueError(f"threshold {self.threshold} below reserve {config.reserve}")

    def execute(self, game: AuctionGame) -> Outcome:
        self.check_config(game.config)
        reserve = game.config.reserve
        a_id, b_id = 1, 2
        msg_a = game.buyer_commit(a_id)
        msg_b = game.buyer_commit(b_id)
        game.forward(msg_b, to=a_id)
        game.forward(msg_a, to=b_id)
        game.end_commit(to=[a_id])
        reveal_a = game.buyer_reveal(a_id)

        if reveal_a is None:
            # A withheld: nothing to condition on, fall back to the promised path.
            game.end_commit(to=[b_id])
            reveal_b = game.buyer_reveal(b_id)
            if reveal_b is not None:
                game.forward(reveal_b, to=a_id)
            game.end_reveal()
            return game.finalize()

        bid_a = reveal_a.opening.message
        if bid_a < self.threshold:
            game.end_commit(to=[b_id])
            reveal_b = game.buyer_reveal(b_id)
            game.forward(reveal_a, to=b_id)
            if reveal_b is not None:
                game.forward(reveal_b, to=a_id)
            game.end_reveal()
            return game.finalize()

        # b_A cleared the threshold: the false buyer C exists only for B.
        bid_c = bid_a + game.config.collateral
        fid = game.mint_false_buyer(bid_c)
        game.publish_false_commit(fid, to=[b_id])
        game.end_commit(to=[b_id])
        reveal_b = game.buyer_reveal(b_id)

        if reveal_b is None:
            # B withheld; the honest-looking resolution sells to A at the reserve.
            game.forward(reveal_a, to=b_id)
            game.reveal_false(fid, to=[b_id], count=False)
            game.end_reveal()
            sale = bid_a > reserve
            return game.finalize_custom(
                winner=a_id if sale else None,
                sale_price=reserve if sale else 0.0,
                counted=[a_id],
                forfeits={b_id: a_id},
                notices={
                    a_id: OutcomeNotice(a_id if sale else None, reserve if sale else 0.0),
                    b_id: OutcomeNotice(fid if bid_c > reserve else None,
                                        max(reserve, bid_a) if bid_c > reserve else 0.0),
                },
            )

        bid_b = reveal_b.opening.message
        game.forward(reveal_b, to=a_id)
        game.forward(reveal_a, to=b_id)

        if reserve >= max(bid_a, bid_b):
            # Nothing clears the reserve; C's story to B is an idle high bidder.
            game.reveal_false(fid, to=[b_id], count=False)
            game.end_reveal()
            story_b = (OutcomeNotice(fid, max(reserve, bid_a, bid_b)) if bid_c > reserve
                       else OutcomeNotice(None, 0.0))
            return game.finalize_custom(
                winner=None, sale_price=0.0, counted=[a_id, b_id],
                notices={a_id: OutcomeNotice(None, 0.0), b_id: story_b},
            )
        if bid_b <= bid_a:
            # A outbids B (ties go to the lower index): the promised sale to A,
            # with C revealed to B as the apparent winner.
            game.reveal_false(fid, to=[b_id], count=False)
            game.end_reveal()
            price = max(reserve, bid_b)
            return game.finalize_custom(
                winner=a_id, sale_price=price, counted=[a_id, b_id],
                notices={
                    a_id: OutcomeNotice(a_id, price),
                    b_id: OutcomeNotice(fid, max(reserve, bid_a, bid_b)),
                },
            )
        if bid_b <= bid_c:
            # B lands inside (b_A, b_C]: withhold C, sell to B at A's bid, and
            # forfeit C's deposit to B as the honest rule demands.
            game.end_reveal()
            price = max(reserve, bid_a)
            return game.finalize_custom(
                winner=b_id, sale_price=price, counted=[a_id, b_id],
                forfeits={fid: b_id},
                notices={a_id: OutcomeNotice(b_id, price), b_id: OutcomeNotice(b_id, price)},
            )
        # B outbids even C: reveal everything and collect the first-price-like b_C.
        game.reveal_false(fid, to=[b_id], count=True)
        game.end_reveal()
        return game.finalize_custom(
            winner=b_id, sale_price=bid_c, counted=[a_id, b_id, fid],
            notices={
                a_id: OutcomeNotice(b_id, max(reserve, bid_a)),
                b_id: OutcomeNotice(b_id, bid_c),
            },
        )


# ---------------------------------------------------------------------------
# View consistency: the operational "safe deviation" filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViewSummary:
    """What one buyer can reconstruct from its own transcript.

    Where an id commits or opens twice, or a second notice arrives, the later
    event wins; such a view is not well-formed.
    """

    agent: int
    own_bid: Optional[float]          # None if the buyer never opened on-channel
    beta: float                       # max(reserve, highest revealed competing bid)
    notice: Optional[OutcomeNotice]
    commits: dict
    revealed_bids: dict
    deposits: tuple
    refunds: tuple
    transfers: tuple
    openings: dict                    # id -> the Opening it revealed
    # the phase grammar held to the end of revelation, with one commitment per
    # id, at most one opening per id and only of committed ids, and one notice
    well_formed: bool


def view_summary(view: View, config: AuctionConfig) -> ViewSummary:
    """Parse one buyer's view in one pass; summary_is_consistent judges the result."""
    phase = PHASE_COMMIT  # None once the grammar is broken
    well_formed = True
    commits: dict[int, object] = {}
    openings: dict[int, object] = {}
    notice: Optional[OutcomeNotice] = None
    money = {"deposit": [], "refund": [], "transfer": []}
    for event in view.events:
        p = event.payload
        if phase is not None:
            phase = next_phase(phase, p)
        if isinstance(p, CommitMsg):
            well_formed = well_formed and p.bidder not in commits
            commits[p.bidder] = p.commitment
        elif isinstance(p, RevealMsg):
            well_formed = well_formed and p.bidder in commits and p.bidder not in openings
            openings[p.bidder] = p.opening
        elif isinstance(p, OutcomeNotice):
            well_formed = well_formed and notice is None
            notice = p
        elif isinstance(p, CollateralNotice) and p.kind in money:
            money[p.kind].append(p)
    revealed = {bidder: opening.message for bidder, opening in openings.items()}
    competing = [bid for bidder, bid in revealed.items() if bidder != view.agent]
    return ViewSummary(
        agent=view.agent,
        own_bid=revealed.get(view.agent),
        beta=max([config.reserve] + competing),
        notice=notice,
        commits=commits,
        revealed_bids=revealed,
        deposits=tuple(money["deposit"]),
        refunds=tuple(money["refund"]),
        transfers=tuple(money["transfer"]),
        openings=openings,
        well_formed=well_formed and phase == PHASE_DONE and notice is not None,
    )


def check_view_consistency(view: View, config: AuctionConfig, scheme) -> bool:
    """True iff the buyer's transcript could have come from an honest run.

    Checks, in order: phase grammar inside the view; at most one commitment
    per observed id; every observed opening verifies against its observed
    commitment; the buyer's own allocation (a bid above every revealed
    competitor and the reserve must win at exactly that level, and any win
    must be priced there); and the buyer's own money (deposit once, refund
    exactly when it opened, forfeiture transfers only as the top revealed
    bidder, one per observed unopened commitment).

    Only the buyer's own allocation and money are validated; announcements
    about other buyers are not verifiable from a single view.
    """
    return summary_is_consistent(view_summary(view, config), config, scheme)


def summary_is_consistent(summary: ViewSummary, config: AuctionConfig, scheme) -> bool:
    """check_view_consistency on a view that view_summary has already parsed."""
    agent, notice, commits, revealed = (summary.agent, summary.notice, summary.commits,
                                        summary.revealed_bids)
    if not summary.well_formed or agent not in commits:
        return False
    if not all(scheme.verify(commits[bidder], opening)
               for bidder, opening in summary.openings.items()):
        return False

    own_bid, beta = summary.own_bid, summary.beta
    competing = [bid for bidder, bid in revealed.items() if bidder != agent]

    if own_bid is not None and own_bid > beta + _PRICE_TOL:
        if notice.winner != agent or abs(notice.price - beta) > _PRICE_TOL:
            return False
    if notice.winner == agent:
        if own_bid is None:
            return False
        if abs(notice.price - beta) > _PRICE_TOL:
            return False
        if own_bid < beta - _PRICE_TOL:
            return False
        if not own_bid > config.reserve:
            return False

    # Own money: one deposit of the posted amount during the commitment phase.
    own_deposits = [d for d in summary.deposits if d.party == agent]
    if len(own_deposits) != 1 or abs(own_deposits[0].amount - config.collateral) > _PRICE_TOL:
        return False
    own_refunds = [r for r in summary.refunds if r.party == agent]
    if own_bid is not None and len(own_refunds) != 1:
        return False
    if own_bid is None and own_refunds:
        return False
    if any(abs(r.amount - config.collateral) > _PRICE_TOL for r in own_refunds):
        return False

    own_transfers = [t for t in summary.transfers if t.party == agent]
    if own_transfers:
        unrevealed = set(commits) - set(revealed)
        sources = [t.counterparty for t in own_transfers]
        if len(sources) != len(set(sources)) or set(sources) != unrevealed:
            return False
        if any(abs(t.amount - config.collateral) > _PRICE_TOL for t in own_transfers):
            return False
        # Forfeits flow to the candidate: the lowest-id top revealed bidder,
        # sale or no sale, so candidacy is judged against revealed competitors
        # only (the reserve plays no role here).
        if own_bid is None:
            return False
        comp_max = max(competing, default=-math.inf)
        if own_bid < comp_max - _PRICE_TOL:
            return False
        # A tie is an exact one, as in the resolution rule: bids a hair apart
        # are not tied, and the higher one is the candidate.
        if own_bid == comp_max:
            tied = [b for b, bid in revealed.items() if b != agent and bid == comp_max]
            if tied and min(tied) < agent:
                return False
    elif notice.winner == agent:
        if set(commits) - set(revealed):
            return False
    return True


# ---------------------------------------------------------------------------
# Transcript helpers for coupling and structural tests
# ---------------------------------------------------------------------------

def commit_phase_payloads(transcript: Transcript) -> list:
    """Payloads of all events before the first end-of-commitment send."""
    out = []
    for event in transcript.events:
        if isinstance(event.payload, EndCommit):
            break
        out.append(event.payload)
    return out


def false_commit_payloads(transcript: Transcript) -> list:
    """Commit messages sent under ids above the real-buyer range."""
    return [e.payload for e in transcript.events
            if isinstance(e.payload, CommitMsg) and e.payload.bidder > transcript.n_buyers]
