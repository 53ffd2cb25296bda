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

Beside its execute, each auctioneer strategy defines vector_net(chunk, config),
the same run's auctioneer net per row of truthful values in closed form, for
the vector engine. The Chunk holds the rows and computes their top two and the
promised price once for every strategy priced on it; the kernels write into its
work arrays, so the array vector_net returns holds only until the next kernel
call on the chunk. They select by 0/1-mask products, as masked copies
mispredict on random masks: exact for finite values and bids, reserve > 0 (see
_shill_net). A subclass that overrides execute but not vector_net has no vector
path: it runs on engine="simulate" only. Lifted refuses it as well, since it
replays schedule() through the two-phase execute, not the subclass's.

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

import numpy as np

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
from .distributions import at_or_above_reserve
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
    "Chunk",
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
# Auctioneer strategies, each with the closed form the vector engine prices it by
# ---------------------------------------------------------------------------

def _top_two(values: np.ndarray) -> tuple:
    """Largest and second-largest value per profile (second 0 when n = 1), exactly
    as a sort gives them: a running max over the buyer columns only selects."""
    top, second = values[:, 0], np.zeros(len(values))
    for j, column in enumerate(values.T[1:]):
        low = np.minimum(top, column)
        second = np.maximum(second, low) if j else low
        top = np.maximum(top, column)
    return top, second


class Chunk:
    """One chunk of value profiles, one row each, as the vector kernels see it.

    Beside the values it keeps what every auctioneer strategy prices from: their
    top two (by _top_two), and the promised auction's price max(reserve, second)
    and sale mask top > reserve. Each is computed on first use, once per chunk.
    It also owns the kernels' work arrays, allocated on first use with the first
    chunk's length; load() brings in the next chunk and keeps them, so a Monte
    Carlo loop allocates them once per estimate, not once per strategy and chunk.

    An array that a kernel returns may be one of these work arrays. It holds
    until the next kernel call on the chunk; a caller that needs it longer keeps
    a copy. A chunk is used on one thread.
    """

    def __init__(self, values: np.ndarray):
        self._capacity = len(values)
        self._work: dict = {}
        self.load(values)

    def load(self, values: np.ndarray) -> "Chunk":
        """Make values, no more rows than the first chunk's, the chunk's profiles."""
        self.values = values
        self._order = None
        self._honest = None
        return self

    def work(self, name: str, dtype=float) -> np.ndarray:
        """The work array `name`, one entry per profile, contents undefined."""
        buffer = self._work.get(name)
        if buffer is None:
            buffer = self._work[name] = np.empty(self._capacity, dtype)
        return buffer[:len(self.values)]

    def top_two(self) -> tuple:
        if self._order is None:
            self._order = _top_two(self.values)
        return self._order

    def honest(self, reserve: float) -> tuple:
        """(max(reserve, second), top > reserve): the promised auction's price and
        whether it sells, per profile."""
        if self._honest is None or self._honest[0] != reserve:
            top, second = self.top_two()
            self._honest = (reserve, np.maximum(reserve, second, out=self.work("honest_price")),
                            np.greater(top, reserve, out=self.work("sale", bool)))
        return self._honest[1:]


def _shill_net(chunk: Chunk, reserve: float, collateral: float,
               false_bids: Sequence[float], withhold_winning: bool) -> np.ndarray:
    """Auctioneer net per profile for truthful buyers and a shill strategy, in the
    chunk's work array "net": the largest of the promised price and the revealed
    false bids when the top real bid clears the reserve and outbids them all, less
    one collateral per withheld false bid. Its 0/1-mask selects are exact since
    x * 1.0 == x and x * 0.0 == +0.0 for finite x >= 0, max(sp, ±0.0) == sp as
    sp >= reserve > 0, values are quantiles of [0, 1) and false bids are finite."""
    top, _ = chunk.top_two()
    price, sale = chunk.honest(reserve)
    net = chunk.work("net")
    if not false_bids:
        return np.multiply(price, sale, out=net)
    mask = chunk.work("mask", bool)
    if not withhold_winning:
        np.greater_equal(top, max(false_bids), out=mask)  # ties break to the lower (real) index
        np.logical_and(mask, sale, out=mask)
        return np.multiply(np.maximum(price, max(false_bids), out=net), mask, out=net)
    raised, withheld = chunk.work("raised"), chunk.work("withheld")
    np.copyto(net, price)  # the shill price, until the sale mask applies
    withheld.fill(len(false_bids))
    for bid in false_bids:  # revealed unless it outbids the top real bid
        np.less_equal(bid, top, out=mask)
        np.subtract(withheld, mask, out=withheld)
        np.maximum(net, np.multiply(mask, bid, out=raised), out=net)
    np.multiply(net, sale, out=net)
    return np.subtract(net, np.multiply(collateral, withheld, out=withheld), out=net)


def adaptive_net_delta(values: np.ndarray, reserve: float, threshold: float,
                       collateral: float) -> np.ndarray:
    """Adaptive-minus-honest auctioneer net per (v_A, v_B) profile.

    Zero off the stratum {v_A >= T}. On it: +collateral when B outbids the
    false bid v_A + f (first-price extraction), -collateral when B lands in
    (v_A, v_A + f] (the false deposit is forfeited to B), zero otherwise.
    """
    a = values[:, 0]
    b = values[:, 1]
    active = a >= threshold
    plus = active & (b > a + collateral)
    minus = active & (b > a) & (b <= a + collateral) & (b > reserve)
    return collateral * plus.astype(float) - collateral * minus.astype(float)


class TwoPhase:
    """The promised auction with schedule()'s false bids and reveal policy, on the
    mode and n it needs (None: any), which config validation reads too."""

    mode = None
    n = None
    false_bids = ()
    reveal_policy = ALWAYS_REVEAL

    def schedule(self) -> tuple:
        return self.false_bids, self.reveal_policy

    def check_config(self, config: AuctionConfig) -> None:
        """Raise ValueError unless the config is one this strategy runs under."""
        if self.mode not in (None, config.mode):
            raise ValueError(f"{type(self).__name__} runs on {self.mode} channels, not {config.mode}")
        if self.n not in (None, config.n):
            raise ValueError(f"{type(self).__name__} needs n = {self.n}, got n={config.n}")
        if not all(map(math.isfinite, self.schedule()[0])):
            raise ValueError(f"false bids {self.schedule()[0]} must be finite")

    def execute(self, game: AuctionGame) -> Outcome:
        """The promised two-round schedule, mode-aware, with optional false bids."""
        self.check_config(game.config)
        false_bids, reveal_policy = self.schedule()
        centralized = game.mode == "centralized"

        def relay(msg, sender: int) -> None:  # the auctioneer forwards to the others
            for j in (game.buyer_ids if centralized else ()):
                if j != sender:
                    game.forward(msg, to=j)

        for i in game.buyer_ids:
            relay(game.buyer_commit(i), i)
        fids = []
        for bid in false_bids:
            fid = game.mint_false_buyer(bid)
            game.publish_false_commit(fid)
            fids.append(fid)
        game.end_commit()
        revealed_real: list[float] = []
        for i in game.buyer_ids:
            msg = game.buyer_reveal(i)
            if msg is not None:
                revealed_real.append(msg.opening.message)
                relay(msg, i)
        for fid in fids:
            false_bid = game.openings[fid].message
            if not reveal_policy.withholds(false_bid, revealed_real):
                game.reveal_false(fid)
        game.end_reveal()
        return game.finalize()

    def vector_net(self, chunk: Chunk, config: AuctionConfig) -> np.ndarray:
        false_bids, policy = self.schedule()
        withhold = policy is WITHHOLD_IF_WINNING
        if not (withhold or isinstance(policy, AlwaysReveal)):
            raise ValueError(f"no vector path for reveal policy {policy!r}; use engine='simulate'")
        return _shill_net(chunk, config.reserve, config.collateral, false_bids, withhold)


class Honest(TwoPhase):
    """The promised auction; works over broadcast or centralized channels."""

    kind = "honest"

    def describe(self) -> str:
        return "honest"


@dataclass(frozen=True)
class ShillBroadcast(TwoPhase):
    """False buyers over the broadcast channel, with a reveal policy.

    false_bids must be pinned before the run (instance-dependent, never
    value-dependent); with no false bids this is exactly Honest.
    """

    false_bids: tuple = ()
    reveal_policy: object = ALWAYS_REVEAL
    kind = "shill"
    mode = "broadcast"

    def describe(self) -> str:
        bids = ",".join(f"{b:.6g}" for b in self.false_bids)
        return f"shill[{bids}]/{self.reveal_policy.name}"


def _first_definer(cls: type, *names: str) -> type:
    """The first class of cls's MRO that itself defines one of the named methods."""
    return next((c for c in cls.__mro__ if not vars(c).keys().isdisjoint(names)), object)


def liftable(cls: type) -> bool:
    """Whether Lifted can replay strategies of class cls over private channels: it
    replays schedule() through TwoPhase.execute, so cls must run that execute."""
    return (issubclass(cls, TwoPhase) and cls.mode in (None, "broadcast")
            and _first_definer(cls, "execute") is TwoPhase)


@dataclass(frozen=True)
class Lifted(TwoPhase):
    """A broadcast strategy replayed over centralized private channels."""

    inner: object
    kind = "lifted"
    mode = "centralized"

    def __post_init__(self):
        if not liftable(type(self.inner)):
            raise ValueError(f"{type(self.inner).__name__} is not a broadcast strategy "
                             "that runs the two-phase execute")

    def schedule(self) -> tuple:
        return self.inner.schedule()

    def describe(self) -> str:
        return f"lifted({self.inner.describe()})"


def lift_to_centralized(buyer_strategies: Sequence, auctioneer_strategy):
    """Map a broadcast strategy profile to its centralized replay."""
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
class AdaptiveReserve(TwoPhase):
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
    mode = "centralized"
    n = 2

    def describe(self) -> str:
        return f"adaptive(T={self.threshold:.6g})"

    def check_config(self, config: AuctionConfig) -> None:
        super().check_config(config)
        if not at_or_above_reserve(self.threshold, config.reserve):
            raise ValueError(f"threshold {self.threshold} below reserve {config.reserve}")

    def vector_net(self, chunk: Chunk, config: AuctionConfig) -> np.ndarray:
        net = super().vector_net(chunk, config)  # the promised auction's, which the delta changes
        return np.add(net, adaptive_net_delta(chunk.values, config.reserve, self.threshold,
                                              config.collateral), out=net)

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

        if reveal_a is None or reveal_a.opening.message < self.threshold:
            # The promised path: A withheld, leaving nothing to condition on, or
            # A's bid is below the threshold.
            game.end_commit(to=[b_id])
            reveal_b = game.buyer_reveal(b_id)
            if reveal_a is not None:
                game.forward(reveal_a, to=b_id)
            if reveal_b is not None:
                game.forward(reveal_b, to=a_id)
            game.end_reveal()
            return game.finalize()

        # b_A cleared the threshold: the false buyer C exists only for B.
        bid_a = reveal_a.opening.message
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
