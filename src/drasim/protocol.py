"""The deferred revelation auction: phase engine, resolution rule, collateral ledger.

One auction is two rounds plus resolution. Buyers commit to bids and deposit
collateral, the auctioneer closes the commitment phase, buyers open their
commitments, and the auction resolves as a second-price sale with reserve over
the opened bids only. A bidder who fails to open forfeits its deposit to the
winning bidder; deposits of openers are refunded.

Resolution rule, given the set S of ids whose opening verifies:
  * the candidate is the lowest-index maximizer of revealed bids over S
    (ties are lexicographic, and a tie with the reserve goes to the
    auctioneer, i.e. no sale: the sale condition is strictly above reserve);
  * the price is max(reserve, second-highest revealed bid);
  * deposits of ids outside S transfer to the candidate, or burn if S is
    empty (burning, rather than the auctioneer keeping them, keeps withheld
    collateral a pure cost to a deviating auctioneer), except the reclaimed
    ones: false ids opened only as a story to some buyers (reveal_false with
    count=False), whose deposits go back to the auctioneer.

resolve applies the rule and settles the collateral in one function: it gives the
winner, the price, the ledger of every deposit and the auctioneer's net.
Every run settles by it, deviations included: a centralized deviation
differs from honest play only in what each buyer is shown (the openings it
forwards and the outcome notice each buyer receives), never in how the counted
openings settle.

The engine is strictly sequential and deterministic given (config, seed). Each
party's random strings come from its own Mersenne Twister stream, seeded by
derive_seed(seed, "buyer", i) or derive_seed(seed, "auctioneer"); a stream is
built on its first draw (a buyer's commitment, the auctioneer's first false
buyer), so a run that never mints a false buyer never seeds the auctioneer's.
Money conservation is checked by conservation_residual, outside the engine:
verification.audit_run applies it to every audited run, and the test suite to
the runs it makes. A run does not check itself.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Optional, Sequence

from .channels import (
    AUCTIONEER,
    BURN,
    Channel,
    CollateralNotice,
    CommitMsg,
    END_COMMIT,
    END_REVEAL,
    MODES,
    ModeError,
    OutcomeNotice,
    ProtocolViolation,
    RevealMsg,
    Transcript,
)
from .commitments import DEFAULT_SECURITY_BITS, SCHEMES, Opening, make_scheme
from .distributions import ValueDistribution, _require_integer, _require_regular_finite_reserve
from .records import record
from .seeding import derive_seed

__all__ = [
    "AuctionConfig",
    "LedgerEntry",
    "Outcome",
    "resolve",
    "conservation_residual",
    "AuctionGame",
    "run_auction",
    "buyer_utility",
    "MONEY_TOL",
]

MONEY_TOL = 1e-9


@record
class AuctionConfig:
    """Static parameters of one auction instance. A distribution that cannot run
    auctions is refused with NonRegularError or InfiniteReserveError."""

    n: int
    dist: ValueDistribution
    reserve: float
    collateral: float
    mode: str = "broadcast"
    scheme: str = "ideal"
    seed: int = 0

    def _validate(self):
        _require_integer(self.n, "n")
        if self.n < 1:
            raise ValueError(f"need at least one buyer, got n={self.n}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown commitment scheme {self.scheme!r}")
        if not (math.isfinite(self.collateral) and self.collateral >= 0.0):
            raise ValueError(f"collateral must be finite and >= 0, got {self.collateral}")
        recomputed = _require_regular_finite_reserve(self.dist)
        if abs(recomputed - self.reserve) > 1e-6:
            raise ValueError(
                f"reserve {self.reserve} inconsistent with distribution (expected {recomputed})"
            )


@record
class LedgerEntry:
    """Disposition of one deposit: back to the depositor, to a winner, or burned."""

    depositor: int
    recipient: int  # BURN (-1) when destroyed
    amount: float


@record
class Outcome:
    """Physical result of a run: who won, what was paid, where deposits went.

    auctioneer_net books a false winner's payment at zero (the auctioneer
    paying itself), counts real deposits captured by auctioneer-controlled
    winners as gains, and auctioneer-funded deposits lost to real winners or
    burned as costs.
    """

    winner: Optional[int]
    sale_price: float
    revealed: frozenset
    ledger: tuple
    auctioneer_net: float

    def to_json(self) -> dict:
        return {
            "winner": self.winner,
            "sale_price": self.sale_price,
            "revealed": sorted(self.revealed),
            "ledger": [[e.depositor, "burn" if e.recipient == BURN else e.recipient, e.amount]
                       for e in self.ledger],
            "auctioneer_net": self.auctioneer_net,
        }


def conservation_residual(outcome: Outcome, depositors=None,
                          collateral_amount: float = None) -> float:
    """Sum over agents of (payments + collateral in - collateral out) plus burned.

    Zero (to MONEY_TOL) for every well-formed outcome, and NaN where the sale
    price is NaN: a winner's price is booked unless it is exactly 0.0. When
    depositors and the collateral amount are supplied, the ledger is also checked
    structurally: every depositor disposed exactly once, at exactly the posted
    amount. Each flow is added once as paid and once as received, so the residual
    reads 0 whatever auctioneer_net says; verification.audit_run checks that net.
    """
    check_amounts = depositors is not None and collateral_amount is not None
    amounts_off = False
    ledger_depositors = []
    flows = defaultdict(list)  # agent -> its payments and collateral, in and out
    burned: list[float] = []
    if outcome.winner is not None and outcome.sale_price != 0.0:
        flows[outcome.winner].append(-outcome.sale_price)
        flows[AUCTIONEER].append(outcome.sale_price)
    for entry in outcome.ledger:
        depositor, recipient, amount = entry.depositor, entry.recipient, entry.amount
        ledger_depositors.append(depositor)
        if check_amounts and not abs(amount - collateral_amount) <= MONEY_TOL:
            amounts_off = True
        flows[depositor].append(-amount)
        if recipient == BURN:
            burned.append(amount)
        else:
            flows[recipient].append(amount)
    if depositors is not None:
        if sorted(ledger_depositors) != sorted(depositors):
            raise AssertionError("ledger does not dispose each deposit exactly once")
        if amounts_off:
            raise AssertionError("ledger amount differs from the posted collateral")
    return math.fsum(map(math.fsum, flows.values())) + math.fsum(burned)


def resolve(scheme, commitments: dict, openings: dict, reserve: float,
            collateral_amount: float, false_ids: frozenset = frozenset(),
            reclaimed: frozenset = frozenset()) -> Outcome:
    """Apply the resolution rule to per-id commitments and optional openings (an
    id without an opening, or with None, withheld), and settle the deposits: the
    revealed ids' and the reclaimed ids' (false ids opened only as a story) go back
    to their depositors, every other to the candidate, or burns when no opening
    verifies. A reclaimed id that is neither revealed nor false is refused.
    Conservation is not checked here: see conservation_residual."""
    unknown = openings.keys() - commitments.keys()
    if unknown:
        raise ValueError(f"openings for ids without commitments: {sorted(unknown)}")
    bids = {}  # id -> its verified bid
    best = transfer_to = None  # the highest bid, and the lowest id that made it
    verify = scheme.verify
    for bidder, opening in openings.items():
        if opening is not None and verify(commitments[bidder], opening):
            bid = bids[bidder] = opening.message
            if transfer_to is None or bid > best:
                best, transfer_to = bid, bidder
            elif bid == best and bidder < transfer_to:
                transfer_to = bidder
    winner, price = None, 0.0
    if transfer_to is not None and best > reserve:
        winner, price = transfer_to, reserve
        for bidder, bid in bids.items():
            if bidder != winner and bid > price:
                price = bid
    revealed = frozenset(bids)
    if reclaimed - revealed - false_ids:
        raise ValueError("only auctioneer-controlled deposits may be refunded unrevealed")
    forfeit_to = BURN if transfer_to is None else transfer_to
    # whether the forfeited deposits stay with the auctioneer (itself or a false buyer)
    kept = forfeit_to != BURN and (forfeit_to == AUCTIONEER or forfeit_to in false_ids)

    ledger, lost, captured = [], 0, 0  # auctioneer-funded deposits lost / real ones captured
    for dep in sorted(commitments):
        if dep in revealed or dep in reclaimed:
            ledger.append(LedgerEntry(dep, dep, collateral_amount))
            continue
        ledger.append(LedgerEntry(dep, forfeit_to, collateral_amount))
        if dep == AUCTIONEER or dep in false_ids:
            lost += not kept
        elif kept:
            captured += 1
    real_sale = (winner is not None and winner != AUCTIONEER and winner not in false_ids
                 and price > 0.0)
    net = (price if real_sale else 0.0) - collateral_amount * lost \
        + collateral_amount * captured
    return Outcome(winner, price, revealed, tuple(ledger), net)


def buyer_utility(outcome: Outcome, buyer_id: int, value: float) -> float:
    """Quasilinear utility: value if winning, minus payment, plus net collateral."""
    util = 0.0
    if outcome.winner == buyer_id:
        util += value - outcome.sale_price
    for entry in outcome.ledger:
        if entry.depositor == buyer_id:
            util -= entry.amount
        if entry.recipient == buyer_id:
            util += entry.amount
    return util


class AuctionGame:
    """Execution context handed to the auctioneer strategy.

    Exposes the primitive moves (collect a commitment, forward, mint a false
    buyer, close phases, request reveals, announce, settle) so strategies can
    schedule them; the engine owns identity binding, deposits, opening custody
    and final accounting, which is always the resolution rule's.
    """

    _bytes = DEFAULT_SECURITY_BITS // 8  # a random string's length

    def __init__(self, config: AuctionConfig, buyers: Sequence):
        if len(buyers) != config.n:
            raise ValueError(f"expected {config.n} buyer strategies, got {len(buyers)}")
        self.config = config
        self.mode = config.mode
        self.buyers = dict(enumerate(buyers, start=1))
        self.scheme = make_scheme(config.scheme)
        self.channel = channel = Channel(config.mode, config.n)
        self.buyer_ids = channel.buyers
        self._buyer_rng: dict[int, random.Random] = {}  # each built on its first draw
        self._auctioneer_rng: Optional[random.Random] = None
        self.commitments: dict[int, object] = {}
        self.openings: dict[int, Opening] = {}     # private custody, incl. false ids
        self.revealed: dict[int, Opening] = {}     # openings counted in resolution
        self.reclaimed: set[int] = set()           # false ids opened only as a story
        self.false_ids: set[int] = set()
        self._next_false = config.n + 1
        self._outcome: Optional[Outcome] = None

    @property
    def auctioneer_rng(self) -> random.Random:
        """The auctioneer's random stream, seeded on first use."""
        if self._auctioneer_rng is None:
            self._auctioneer_rng = random.Random(derive_seed(self.config.seed, "auctioneer"))
        return self._auctioneer_rng

    def _buyer_send(self, i: int, payload) -> None:
        """Buyer i's message: broadcast, or privately to the auctioneer."""
        if self.mode == "broadcast":
            self.channel.broadcast(i, payload)
        else:
            self.channel.private_send(i, AUCTIONEER, payload)

    def _auctioneer_send(self, payload, to: Optional[Sequence[int]] = None,
                         sender: int = AUCTIONEER, per_buyer: Optional[dict] = None) -> None:
        """An auctioneer-side message under id `sender` (itself or a false buyer).

        Broadcast mode sends `payload` once to everyone, and refuses (ModeError) a
        `to` or `per_buyer`. Centralized mode sends one private copy to each buyer
        in `to` (default: all of them), or that buyer's entry of `per_buyer` where
        it has one.
        """
        if self.mode == "broadcast":
            if to is not None or per_buyer is not None:
                raise ModeError("a broadcast channel cannot target a send")
            self.channel.broadcast(sender, payload, physical=AUCTIONEER)
            return
        send = self.channel.private_send
        for recipient in (self.buyer_ids if to is None else to):
            send(AUCTIONEER, recipient,
                 payload if per_buyer is None else per_buyer.get(recipient, payload))

    # -- commitment phase ----------------------------------------------------

    def buyer_commit(self, i: int) -> CommitMsg:
        """Buyer i commits to its strategy's bid and deposits collateral."""
        strat = self.buyers[i]
        rng = self._buyer_rng.get(i)
        if rng is None:
            rng = self._buyer_rng[i] = random.Random(derive_seed(self.config.seed, "buyer", i))
        opening = Opening(float(strat.bid()), rng.randbytes(self._bytes))
        commitment = self.scheme.commit(opening.message, opening.randomness)
        self.openings[i] = opening
        self.commitments[i] = commitment
        msg = CommitMsg(i, commitment)
        self._buyer_send(i, msg)
        self.channel.notify(AUCTIONEER, CollateralNotice(i, self.config.collateral, "deposit"),
                            sender=i)
        return msg

    def mint_false_buyer(self, bid: float) -> int:
        """Allocate a fresh id controlled by the auctioneer, committed to `bid`."""
        fid = self._next_false
        self._next_false += 1
        self.channel.bind_id(fid, AUCTIONEER)
        opening = Opening(float(bid), self.auctioneer_rng.randbytes(self._bytes))
        self.openings[fid] = opening
        self.commitments[fid] = self.scheme.commit(opening.message, opening.randomness)
        self.false_ids.add(fid)
        return fid

    def publish_false_commit(self, fid: int, to: Optional[Sequence[int]] = None) -> None:
        self._auctioneer_send(CommitMsg(fid, self.commitments[fid]), to, sender=fid)

    def forward(self, payload, to: int) -> None:
        """Centralized-mode forwarding of a buyer message by the auctioneer."""
        self.channel.private_send(AUCTIONEER, to, payload)

    def end_commit(self, to: Optional[Sequence[int]] = None) -> None:
        self._auctioneer_send(END_COMMIT, to)

    # -- revelation phase ------------------------------------------------------

    def buyer_reveal(self, i: int) -> Optional[RevealMsg]:
        """Request buyer i's opening; None if its strategy withholds."""
        if not self.buyers[i].reveals():
            return None
        opening = self.openings[i]
        msg = RevealMsg(i, opening)
        self._buyer_send(i, msg)
        self.revealed[i] = opening
        return msg

    def reveal_false(self, fid: int, to: Optional[Sequence[int]] = None,
                     count: bool = True) -> RevealMsg:
        """Open a false bid on-channel to `to` (default: everyone). count=False makes
        it a story for those buyers alone: resolution leaves the bid out and
        refunds the deposit, where a false bid never opened forfeits it."""
        opening = self.openings[fid]
        msg = RevealMsg(fid, opening)
        self._auctioneer_send(msg, to, sender=fid)
        if count:
            self.revealed[fid] = opening
        else:
            self.reclaimed.add(fid)
        return msg

    def end_reveal(self) -> None:
        self._auctioneer_send(END_REVEAL)

    # -- resolution ------------------------------------------------------------

    def finalize(self, notices: Optional[dict] = None) -> Outcome:
        """Resolve the counted openings, the stories' deposits reclaimed, and settle:
        announce the outcome (or a buyer's entry of `notices`), then notify each real
        depositor's refund and each real recipient's forfeited deposit, refunds
        first, in ledger order. On a broadcast channel, `notices` raise ModeError
        and leave the run as it was."""
        if self._outcome is not None:
            raise ProtocolViolation("run already finalized")
        false_ids = self.false_ids
        outcome = resolve(
            self.scheme, self.commitments, self.revealed, self.config.reserve,
            self.config.collateral, frozenset(false_ids), frozenset(self.reclaimed))
        self._auctioneer_send(OutcomeNotice(outcome.winner, outcome.sale_price),
                              per_buyer=notices)
        self._outcome = outcome  # once announced: a refused notice leaves the run open
        notify = self.channel.notify
        transfers = []
        for entry in outcome.ledger:
            depositor, recipient = entry.depositor, entry.recipient
            if recipient == depositor:
                if depositor not in false_ids:
                    notify(depositor, CollateralNotice(depositor, entry.amount, "refund"))
            elif recipient != BURN and recipient not in false_ids:
                transfers.append(CollateralNotice(recipient, entry.amount, "transfer", depositor))
        for notice in transfers:
            notify(notice.party, notice)
        return outcome

    def transcript(self) -> Transcript:
        return self.channel.transcript(self.scheme)


def run_auction(config: AuctionConfig, buyer_strategies: Sequence, auctioneer_strategy):
    """Execute one auction under the given strategies.

    Returns (Outcome, Transcript). The outcome is the physical truth; in
    centralized mode per-buyer announcements inside the transcript may tell a
    different story.
    """
    game = AuctionGame(config, buyer_strategies)
    outcome = auctioneer_strategy.execute(game)
    if game._outcome is None or outcome is not game._outcome:
        raise ProtocolViolation("auctioneer strategy must finalize the run exactly once")
    return outcome, game.transcript()
