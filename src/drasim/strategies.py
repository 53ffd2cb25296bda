"""Buyer and auctioneer strategies, and the per-buyer view-consistency checker.

Buyer strategies are static: truthful commitment to the private value, a fixed
off-value bid, or committing and then refusing to open. Auctioneer strategies
drive the run:

  * Honest: the promised auction, in either communication mode.
  * ShillBroadcast: honest play plus false buyers whose bid values are fixed
    before the commitment phase closes. They are the strategy's own fields,
    never functions of buyer values or openings; commitments hide bids, so
    there is nothing value-dependent to condition on. After the real openings,
    its RevealPolicy, ALWAYS_REVEAL or WITHHOLD_IF_WINNING (withhold each false
    bid that outbids every opened real bid, forfeiting its collateral), decides
    per false bid whether to withhold it; both engines read that closed set.
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
promised auction's net once for every strategy priced on it; the kernels write
into its work arrays, so the array vector_net returns holds only until the next
kernel call on the chunk. The shill kernels select by 0/1-mask products, as
masked copies mispredict on random masks: exact for finite values and bids,
reserve > 0 (see _shill_net). The nets of one false bid under the two reveal
policies are written once, in _bid_nets, which _shill_net and the estimators'
credibility grid both run. A subclass that overrides execute but not
vector_net has no vector path: it runs on engine="simulate" only. Lifted
refuses it as well, since it replays schedule() through the two-phase execute,
not the subclass's.

A deviation counts as safe here when check_view_consistency accepts every real
buyer's transcript on every run: each view must be explainable by some honest
execution. That is a necessary-condition filter rather than the full
simulation-based definition, and it is itself under test via the known
deviations it must accept and the corruptions it must reject. view_summary
parses a view in one pass, reading the channel's phase transition table once
per entry, and keeps each fact the view shows once: its commitments, openings,
notice, collateral notices and the highest competing revealed bid.
summary_is_consistent then checks the buyer's own deposits, refunds and
transfers in one pass over the collateral notices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .channels import (
    PHASE_COMMIT,
    OUT_OF_PHASE,
    PHASE_DONE,
    PHASE_TRANSITIONS,
    CollateralNotice,
    CommitMsg,
    EndCommit,
    OutcomeNotice,
    RevealMsg,
    Transcript,
    View,
)
from .distributions import at_or_above_reserve
from .protocol import MONEY_TOL, AuctionConfig, AuctionGame, Outcome
from .records import record

__all__ = [
    "Truthful",
    "FixedBid",
    "NoReveal",
    "RevealPolicy",
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
    "view_beta",
    "view_summary",
    "ViewSummary",
    "commit_phase_payloads",
    "false_commit_payloads",
]

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

class RevealPolicy(enum.Enum):
    """What a shill auctioneer does with each false bid after the real openings;
    the value is the policy's name in configs and describe()."""

    ALWAYS_REVEAL = "always"
    # withhold exactly when the false bid outbids every opened real bid (it would
    # win the item); otherwise revealing it only props up the price
    WITHHOLD_IF_WINNING = "withhold_if_winning"

    def withholds(self, false_bid: float, revealed_real_bids: Sequence[float]) -> bool:
        """Whether to withhold false_bid, from what the auctioneer legitimately
        holds at reveal time: the false bid and the opened real bids."""
        return (self is WITHHOLD_IF_WINNING
                and false_bid > max(revealed_real_bids, default=-math.inf))


ALWAYS_REVEAL, WITHHOLD_IF_WINNING = RevealPolicy


# ---------------------------------------------------------------------------
# Auctioneer strategies, each with the closed form the vector engine prices it by
# ---------------------------------------------------------------------------

def _top_two(values: np.ndarray, top: np.ndarray, second: np.ndarray) -> tuple:
    """Largest and second-largest value per profile (second 0 when n = 1), written
    into top and second and returned, exactly as a sort gives them: a running max
    and min over the buyer columns only select. Each column after the first makes
    the second value min(top, max(second, column)), which is max(second, min(top,
    column)) as second <= top; before the second column it is -inf, so that
    column's step is min(first, column)."""
    first, *others = values.T
    if not others:
        np.copyto(top, first)
        second.fill(0.0)
        return top, second
    high, low = first, -np.inf
    for column in others:
        low = np.minimum(high, np.maximum(low, column, out=second), out=second)
        high = np.maximum(high, column, out=top)
    return top, second


class Chunk:
    """One chunk of value profiles, one row each, as the vector kernels see it.

    Beside the values it keeps what every auctioneer strategy prices from: their
    top two (by _top_two), and the promised auction's net max(reserve, second) *
    sale and sale mask top > reserve. Each is computed on first use, once per
    chunk, into a work array. The work arrays, one entry per profile, are
    allocated on first use at the longest length loaded yet and kept by load()
    until a longer one comes, so a Monte Carlo loop allocates them at most
    twice per estimate, not once per strategy and chunk. Where the loop loads
    each chunk as its two halves, that length is the longest half. By (name, dtype):

      * "top", "second": top_two()'s, for the chunk.
      * "honest_net", ("sale", bool): honest()'s, for the chunk and its reserve.
      * "net": the array _shill_net returns, so every vector_net of TwoPhase, each
        net _bid_nets yields, and the adaptive estimator's pruned delta.
      * ("mask", bool), "withheld": the shill kernels' per-bid masks, and
        _shill_net's withheld counts or _bid_nets's forfeit on withheld rows.
      * "forfeit": _bid_nets's promised net less the collateral, for one call.
      * "scratch": holds nothing from one call to the next; _shill_net's raised
        bids, and the squares the estimators' accumulator writes.

    An array that a kernel returns may be one of these work arrays. It holds
    until the next kernel call on the chunk; a caller that needs it longer keeps
    a copy. A chunk is used on one thread.
    """

    def __init__(self, values: np.ndarray):
        self._capacity = 0
        self._work: dict = {}
        self.load(values)

    def load(self, values: np.ndarray) -> "Chunk":
        """Make values the chunk's profiles, dropping work arrays too short for them."""
        if len(values) > self._capacity:
            self._capacity = len(values)
            self._work.clear()
        self.values = values
        self._order = None
        self._honest = None
        return self

    def work(self, name: str, dtype=float) -> np.ndarray:
        """The work array `name` of this dtype, one entry per profile, contents
        undefined. A name asked for with two dtypes names two arrays."""
        key = (name, np.dtype(dtype))
        buffer = self._work.get(key)
        if buffer is None:
            buffer = self._work[key] = np.empty(self._capacity, dtype)
        return buffer[:len(self.values)]

    def top_two(self) -> tuple:
        """(top, second): the largest and second-largest value of each profile."""
        if self._order is None:
            self._order = _top_two(self.values, self.work("top"), self.work("second"))
        return self._order

    def honest(self, reserve: float) -> tuple:
        """(max(reserve, second) * sale, sale) with sale = top > reserve: the promised
        auction's auctioneer net, its price where it sells and +0.0 where not, and
        its sale mask, per profile."""
        if self._honest is None or self._honest[0] != reserve:
            top, second = self.top_two()
            sale = np.greater(top, reserve, out=self.work("sale", bool))
            net = np.maximum(reserve, second, out=self.work("honest_net"))
            self._honest = (reserve, np.multiply(net, sale, out=net), sale)
        return self._honest[1:]


def _bid_nets(chunk: Chunk, reserve: float, collateral: float, false_bids: Sequence[float]):
    """For each false bid b in turn, the auctioneer net per profile with b the one
    false bid: yielded first under the always policy where b > reserve (at or below
    it that net is the promised one, chunk.honest's, and is not yielded), then under
    withhold-if-winning. Each net is the chunk's work array "net", which the next one
    overwrites, so a consumer is done with one net before it asks for the next.

    With p s the promised net and m = top >= b the reveal mask (ties break to the
    lower, real, index), the always net is max(p s, b) m (see _shill_net). Withheld
    where m is 0, b costs one collateral: above the reserve the withhold net is the
    always net plus (1 - m)(p s - f), with p s - f computed once per call into
    "forfeit", so a revealed row keeps its bits, as x + (+-0.0) == x, and a withheld
    row is +0.0 + (p s - f) == p s - f; at or below it, it is p s - f (1 - m)."""
    top, _ = chunk.top_two()
    honest_net, _ = chunk.honest(reserve)
    net, mask = chunk.work("net"), chunk.work("mask", bool)
    forfeit = None
    for bid in false_bids:
        revealed = np.greater_equal(top, bid, out=mask)
        if bid <= reserve:
            withheld = np.logical_not(revealed, out=mask)
            yield np.subtract(honest_net, np.multiply(collateral, withheld, out=net), out=net)
            continue
        yield np.multiply(np.maximum(honest_net, bid, out=net), revealed, out=net)
        if forfeit is None:
            forfeit = np.subtract(honest_net, collateral, out=chunk.work("forfeit"))
        withheld = np.logical_not(revealed, out=mask)
        yield np.add(net, np.multiply(withheld, forfeit, out=chunk.work("withheld")), out=net)


def _shill_net(chunk: Chunk, reserve: float, collateral: float,
               false_bids: Sequence[float], withhold_winning: bool) -> np.ndarray:
    """Auctioneer net per profile for truthful buyers and a shill strategy, in the
    chunk's work array "net": the largest of the promised price and the revealed
    false bids when the top real bid clears the reserve and outbids them all, less
    one collateral per withheld false bid.

    It starts from the promised auction's net p s (price p, 0/1 sale mask s). A
    false bid b <= reserve never raises the price, as reserve <= p, so only bids
    b > reserve enter a max, as m b with m their 0/1 reveal mask top >= b: where
    m is 1, top > reserve and s is 1, so max(p s, m b) == max(p, m b) s, and no
    zeros of opposite sign meet in a max. Products with 0/1 masks are exact, as
    x * 1.0 == x and x * 0.0 == +0.0 for finite x >= 0: values are quantiles of
    [0, 1), false bids are finite and reserve > 0. Under the always policy, false
    bids at or below the reserve leave the promised net, and above it the largest
    bid alone sets the price; that case and one withheld-if-winning bid are
    _bid_nets's, and several such bids run the loop below."""
    net = chunk.work("net")
    if not (withhold_winning and false_bids):
        high = max(false_bids, default=reserve)
        if high <= reserve:
            np.copyto(net, chunk.honest(reserve)[0])
            return net
        return next(_bid_nets(chunk, reserve, collateral, (high,)))
    if len(false_bids) == 1:
        *_, net = _bid_nets(chunk, reserve, collateral, false_bids)
        return net
    top, _ = chunk.top_two()
    honest_net, _ = chunk.honest(reserve)
    mask = chunk.work("mask", bool)
    raised, withheld = chunk.work("scratch"), chunk.work("withheld")
    shill_price, withheld_count = honest_net, float(len(false_bids))
    for bid in false_bids:
        np.less_equal(bid, top, out=mask)  # revealed unless it outbids the top real bid
        withheld_count = np.subtract(withheld_count, mask, out=withheld)
        if bid > reserve:
            shill_price = np.maximum(shill_price, np.multiply(mask, bid, out=raised), out=net)
    return np.subtract(shill_price, np.multiply(collateral, withheld_count, out=withheld), out=net)


class TwoPhase:
    """The promised auction with schedule()'s false bids and reveal policy, on the
    mode and n it needs (None: any), which check_setting holds a setting to."""

    mode = None
    n = None
    false_bids = ()
    reveal_policy = ALWAYS_REVEAL

    def schedule(self) -> tuple:
        return self.false_bids, self.reveal_policy

    @classmethod
    def check_setting(cls, mode: str, n: int) -> None:
        """Raise ValueError unless strategies of this class run on `mode` channels
        with n buyers: the rule that check_config and config validation apply."""
        if cls.mode not in (None, mode):
            raise ValueError(f"{cls.__name__} runs on {cls.mode} channels, not {mode}")
        if cls.n not in (None, n):
            raise ValueError(f"{cls.__name__} needs n = {cls.n}, got n={n}")

    def check_config(self, config: AuctionConfig) -> None:
        """Raise ValueError unless the config is one this strategy runs under."""
        self.check_setting(config.mode, config.n)
        false_bids, policy = self.schedule()
        if not all(map(math.isfinite, false_bids)):
            raise ValueError(f"false bids {false_bids} must be finite")
        if not isinstance(policy, RevealPolicy):
            raise ValueError(f"reveal policy {policy!r} is not a RevealPolicy")

    def execute(self, game: AuctionGame) -> Outcome:
        """The promised two-round schedule, mode-aware, with optional false bids."""
        self.check_config(game.config)
        false_bids, reveal_policy = self.schedule()
        centralized = game.mode == "centralized"

        def relay(msg, sender: int) -> None:  # the auctioneer forwards to the others
            for j in game.buyer_ids:
                if j != sender:
                    game.forward(msg, to=j)

        for i in game.buyer_ids:
            msg = game.buyer_commit(i)
            if centralized:
                relay(msg, i)
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
                if centralized:
                    relay(msg, i)
        for fid in fids:
            false_bid = game.openings[fid].message
            if not reveal_policy.withholds(false_bid, revealed_real):
                game.reveal_false(fid)
        game.end_reveal()
        return game.finalize()

    def vector_net(self, chunk: Chunk, config: AuctionConfig) -> np.ndarray:
        false_bids, policy = self.schedule()
        return _shill_net(chunk, config.reserve, config.collateral, false_bids,
                          policy is WITHHOLD_IF_WINNING)


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
    reveal_policy: RevealPolicy = ALWAYS_REVEAL
    kind = "shill"
    mode = "broadcast"

    def describe(self) -> str:
        bids = ",".join(f"{b:.6g}" for b in self.false_bids)
        return f"shill[{bids}]/{self.reveal_policy.value}"


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
    """Replace the reveal policy by ALWAYS_REVEAL; valid when every false bid is
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
    buyer C bidding A's bid plus the collateral and show C's commitment only to
    B. The run still settles by the resolution rule, in one of three ways. When
    B outbids C, C is counted and B pays max(reserve, b_C). When b_B lies in
    (max(b_A, reserve), b_C], C is withheld: B wins at max(reserve, b_A) and
    C's deposit is forfeited to B. Otherwise (B withheld, b_B <= b_A, or
    nothing clears the reserve) the promised settlement stands, and C's opening
    is a story shown to B alone, its deposit reclaimed. The deviation lies only
    in what each buyer is shown: B is told that C won its story, and A, when C
    is counted, that B paid max(reserve, b_A). Every buyer's view stays
    consistent with an honest run.

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
        net = super().vector_net(chunk, config)  # the promised net, which the deviation changes
        return _adaptive_net(chunk.values, config.reserve, self.threshold, config.collateral, net)

    def execute(self, game: AuctionGame) -> Outcome:
        self.check_config(game.config)
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
        if reveal_b is not None:
            game.forward(reveal_b, to=a_id)
        game.forward(reveal_a, to=b_id)
        reserve = game.config.reserve

        if reveal_b is None or reveal_b.opening.message <= max(bid_a, reserve):
            # B withheld, A outbids B (ties go to the lower index), or nothing
            # clears the reserve: the promised settlement, with C opened to B
            # alone and, when b_C clears the reserve, announced to B as the winner
            # at the runner-up's price.
            game.reveal_false(fid, to=[b_id], count=False)
            game.end_reveal()
            story = (OutcomeNotice(fid, max(reserve, bid_a)) if bid_c > reserve
                     else OutcomeNotice(None, 0.0))
            return game.finalize({b_id: story})
        if reveal_b.opening.message <= bid_c:
            # B clears the reserve and lands inside (b_A, b_C]: withhold C, so B
            # wins at max(reserve, b_A) and C's deposit is forfeited to B.
            game.end_reveal()
            return game.finalize()
        # B outbids even C: C is counted and B pays max(reserve, b_C), while A is
        # told that B paid the price A's view implies.
        game.reveal_false(fid, to=[b_id])
        game.end_reveal()
        return game.finalize({a_id: OutcomeNotice(b_id, max(reserve, bid_a))})


def _adaptive_net(values: np.ndarray, reserve: float, threshold: float, collateral: float,
                  net: np.ndarray) -> np.ndarray:
    """AdaptiveReserve's auctioneer net per (v_A, v_B) profile, written over net, the
    promised net on every row the deviation changes, and returned. Those rows have
    v_A >= T and B above the reserve and A, where the promised auction sells to B
    at max(reserve, v_A). A B above the false bid v_A + f pays max(reserve, v_A +
    f); a B in (v_A, v_A + f] wins at the promised price, and C's deposit f is lost.
    This is execute's settlement in the message engine's arithmetic, at every
    threshold check_config admits, the ROOT_TOL sliver below the reserve included."""
    a, b = values[:, 0], values[:, 1]
    false_bid = a + collateral
    changed = (a >= threshold) & (b > reserve) & (b > a)
    outbid = changed & (b > false_bid)
    changed ^= outbid  # now the rows with B in (v_A, v_A + f]
    net[np.flatnonzero(changed)] -= collateral
    rows = np.flatnonzero(outbid)
    net[rows] = np.maximum(reserve, false_bid[rows])
    return net


def adaptive_net_delta(values: np.ndarray, reserve: float, threshold: float,
                       collateral: float) -> np.ndarray:
    """AdaptiveReserve's net less the promised auction's per (v_A, v_B) profile: the
    message engine's paired difference of the two, row for row. The promised net
    is max(reserve, v_A) on every row the deviation changes, so _adaptive_net
    prices from it, and every other row is an exact zero."""
    promised = np.maximum(reserve, values[:, 0])
    net = _adaptive_net(values, reserve, threshold, collateral, promised.copy())
    return np.subtract(net, promised, out=net)


# ---------------------------------------------------------------------------
# View consistency: the operational "safe deviation" filter
# ---------------------------------------------------------------------------

@record
class ViewSummary:
    """What one buyer can reconstruct from its own transcript, each fact once.

    Where an id commits or opens twice, or a second notice arrives, the later
    event wins; such a view is not well-formed.
    """

    agent: int
    notice: Optional[OutcomeNotice]
    commits: dict                     # id -> the Commitment it posted
    openings: dict                    # id -> the Opening it revealed
    money: tuple                      # the view's collateral notices, in view order
    rival: float                      # the highest competing revealed bid; -inf if none
    # the phase grammar held to the end of revelation, with one commitment per
    # id, at most one opening per id and only of committed ids, and one notice
    well_formed: bool


def view_summary(view: View) -> ViewSummary:
    """Parse one buyer's view in one pass; summary_is_consistent judges the result."""
    phase = PHASE_COMMIT  # None once the grammar is broken
    well_formed = True
    commits, openings = {}, {}  # id -> its Commitment, Opening
    notice: Optional[OutcomeNotice] = None
    money = []
    for event in view.events:
        p = event.payload
        kind = type(p)
        if phase is not None:
            phase = PHASE_TRANSITIONS.get(p.kind, OUT_OF_PHASE)[phase]
        if kind is CommitMsg:
            bidder = p.bidder
            if bidder in commits:
                well_formed = False
            commits[bidder] = p.commitment
        elif kind is RevealMsg:
            bidder = p.bidder
            if bidder in openings or bidder not in commits:
                well_formed = False
            openings[bidder] = p.opening
        elif kind is CollateralNotice:
            money.append(p)
        elif kind is OutcomeNotice:
            if notice is not None:
                well_formed = False
            notice = p
    agent = view.agent
    rival = -math.inf  # a NaN bid never compares above it
    for bidder, opening in openings.items():
        bid = opening.message
        if bid > rival and bidder != agent:
            rival = bid
    return ViewSummary(agent, notice, commits, openings, tuple(money), rival,
                       well_formed and phase == PHASE_DONE and notice is not None)


def view_beta(summary: ViewSummary, config: AuctionConfig) -> float:
    """beta, the price a win in this view must carry: the view's rival bid, or the
    reserve if the rival does not exceed it."""
    rival = summary.rival
    return rival if rival > config.reserve else config.reserve


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
    return summary_is_consistent(view_summary(view), config, scheme)


def summary_is_consistent(summary: ViewSummary, config: AuctionConfig, scheme) -> bool:
    """check_view_consistency on a view that view_summary has already parsed."""
    agent, notice, commits, openings = (summary.agent, summary.notice, summary.commits,
                                        summary.openings)
    if not summary.well_formed or agent not in commits:
        return False
    verify = scheme.verify
    for bidder, opening in openings.items():
        if not verify(commits[bidder], opening):
            return False

    own_bid = openings[agent].message if agent in openings else None  # None: never opened
    beta = view_beta(summary, config)

    if own_bid is not None and own_bid > beta + MONEY_TOL:
        if notice.winner != agent or not abs(notice.price - beta) <= MONEY_TOL:
            return False
    if notice.winner == agent:
        if own_bid is None:
            return False
        if not abs(notice.price - beta) <= MONEY_TOL:
            return False
        if own_bid < beta - MONEY_TOL:
            return False
        if not own_bid > config.reserve:
            return False

    # Own money: one deposit of the posted amount during the commitment phase, a
    # refund of it exactly when the buyer opened, and transfers as checked below.
    # A well-formed view's notices are deposits, refunds and transfers only.
    collateral = config.collateral
    deposited = refunded = 0
    sources = []  # the forfeiting bidder of each transfer to this buyer
    for money in summary.money:
        if money.party != agent:
            continue
        if not abs(money.amount - collateral) <= MONEY_TOL:
            return False
        if money.kind == "deposit":
            deposited += 1
        elif money.kind == "refund":
            refunded += 1
        else:
            sources.append(money.counterparty)
    if deposited != 1 or refunded != (0 if own_bid is None else 1):
        return False
    if sources:
        if len(sources) != len(set(sources)) or set(sources) != commits.keys() - openings.keys():
            return False
        # Forfeits flow to the candidate: the lowest-id top revealed bidder,
        # sale or no sale, so candidacy is judged against revealed competitors
        # only (the reserve plays no role here).
        if own_bid is None:
            return False
        rival = summary.rival
        if own_bid < rival - MONEY_TOL:
            return False
        # A tie is an exact one, as in the resolution rule: bids a hair apart
        # are not tied, and the higher one is the candidate.
        if own_bid == rival:
            for bidder, opening in openings.items():
                if opening.message == rival and bidder < agent:
                    return False
    elif notice.winner == agent:
        if commits.keys() - openings.keys():
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
