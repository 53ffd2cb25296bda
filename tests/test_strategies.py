"""Strategy tests: the adaptive deviation's decision tree, the broadcast-to-
centralized lift, reveal dominance, and the view-consistency checker on both
honest views and deliberately corrupted ones."""

import math
from dataclasses import replace

import pytest

from drasim import (
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    AuctionConfig,
    CollateralNotice,
    CommitMsg,
    EndCommit,
    GeneralizedPareto,
    Honest,
    Lifted,
    NoReveal,
    OutcomeNotice,
    ShillBroadcast,
    Truthful,
    buyer_utility,
    check_view_consistency,
    estimate_paired_difference,
    lift_to_centralized,
    reserve_price,
    reveal_dominant_variant,
    run_auction,
    view_summary,
)
from drasim.channels import Event, View
from drasim.strategies import commit_phase_payloads, false_commit_payloads
from drasim.verification import audit_run, coupling_matches, sample_values

GPA = GeneralizedPareto(0.5)
R = reserve_price(GPA)


def centralized_config(collateral, seed=0):
    return AuctionConfig(n=2, dist=GPA, reserve=R, collateral=collateral,
                         mode="centralized", seed=seed)


def broadcast_config(collateral, seed=0, n=2):
    return AuctionConfig(n=n, dist=GPA, reserve=R, collateral=collateral,
                         mode="broadcast", seed=seed)


# ---------------------------------------------------------------------------
# Adaptive reserve deviation: the decision tree, case by case
# ---------------------------------------------------------------------------

def test_adaptive_case_b_inside_window():
    # v_A=10, v_B=12, T=8, f=3: false bid 13; B wins at max(10, r), C's 3 to B
    config = centralized_config(collateral=3.0)
    out, transcript = run_auction(config, [Truthful(10.0), Truthful(12.0)],
                                  AdaptiveReserve(8.0))
    assert out.winner == 2 and out.sale_price == 10.0
    assert out.auctioneer_net == 10.0 - 3.0
    moved = {(e.depositor, e.recipient) for e in out.ledger}
    assert (3, 2) in moved  # the false buyer's deposit forfeits to B
    assert buyer_utility(out, 2, 12.0) == 12.0 - 10.0 + 3.0
    # B's view stays consistent with an honest run
    assert check_view_consistency(transcript.view(2), config, transcript.scheme)
    assert check_view_consistency(transcript.view(1), config, transcript.scheme)


def test_adaptive_case_b_outbids_false():
    # v_B=14 > b_C=13: all revealed, B pays the false bid
    config = centralized_config(collateral=3.0)
    out, transcript = run_auction(config, [Truthful(10.0), Truthful(14.0)],
                                  AdaptiveReserve(8.0))
    assert out.winner == 2 and out.sale_price == 13.0
    assert out.auctioneer_net == 13.0
    assert all(e.recipient == e.depositor for e in out.ledger)  # no forfeits
    for i in (1, 2):
        assert check_view_consistency(transcript.view(i), config, transcript.scheme)


def test_adaptive_below_threshold_is_promised_path():
    config = centralized_config(collateral=3.0)
    out, _ = run_auction(config, [Truthful(5.0), Truthful(4.0)], AdaptiveReserve(8.0))
    honest, _ = run_auction(config, [Truthful(5.0), Truthful(4.0)], Honest())
    assert out == honest


def test_adaptive_a_wins_case():
    config = centralized_config(collateral=3.0)
    out, transcript = run_auction(config, [Truthful(10.0), Truthful(9.0)],
                                  AdaptiveReserve(8.0))
    assert out.winner == 1 and out.sale_price == 9.0
    assert out.auctioneer_net == 9.0
    for i in (1, 2):
        assert check_view_consistency(transcript.view(i), config, transcript.scheme)
    # B is told the false buyer won; B's own outcome is an ordinary loss
    notice = [e.payload for e in transcript.view(2).events
              if isinstance(e.payload, OutcomeNotice)]
    assert notice[0].winner == 3


def test_adaptive_infinite_threshold_equals_honest():
    config = centralized_config(collateral=2.0)
    for seed in range(5):
        values = sample_values(GPA, 2, seed)
        buyers = [Truthful(v) for v in values]
        cfg = replace(config, seed=seed)
        out_a, _ = run_auction(cfg, buyers, AdaptiveReserve(math.inf))
        out_h, _ = run_auction(cfg, buyers, Honest())
        assert out_a == out_h


def test_adaptive_tie_goes_to_a():
    config = centralized_config(collateral=3.0)
    out, _ = run_auction(config, [Truthful(10.0), Truthful(10.0)], AdaptiveReserve(8.0))
    assert out.winner == 1 and out.sale_price == 10.0


def test_adaptive_no_reveal_b():
    config = centralized_config(collateral=3.0)
    out, transcript = run_auction(config, [Truthful(10.0), NoReveal(12.0)],
                                  AdaptiveReserve(8.0))
    assert out.winner == 1 and out.sale_price == R
    assert (2, 1) in {(e.depositor, e.recipient) for e in out.ledger}
    assert check_view_consistency(transcript.view(1), config, transcript.scheme)


def test_adaptive_never_sells_below_the_reserve():
    # T = b_A = 2.0, the closed-form r, lies just below the bisected R. With f = 0,
    # C bids b_A too, so a B above R pays R, as in the honest run and the vector engine.
    config = centralized_config(collateral=0.0)
    buyers = [Truthful(2.0), Truthful(R + 1.0)]
    out, _ = run_auction(config, buyers, AdaptiveReserve(2.0))
    honest, _ = run_auction(config, buyers, Honest())
    assert out.winner == 2 and out.sale_price == R
    assert out.auctioneer_net == honest.auctioneer_net


def test_adaptive_mode_and_arity_checks():
    with pytest.raises(ValueError):
        run_auction(broadcast_config(2.0), [Truthful(3.0), Truthful(4.0)],
                    AdaptiveReserve(8.0))
    cfg3 = AuctionConfig(n=3, dist=GPA, reserve=R, collateral=2.0, mode="centralized")
    with pytest.raises(ValueError):
        run_auction(cfg3, [Truthful(3.0)] * 3, AdaptiveReserve(8.0))
    with pytest.raises(ValueError):
        run_auction(centralized_config(2.0), [Truthful(3.0), Truthful(4.0)],
                    AdaptiveReserve(0.5))  # threshold below reserve


# ---------------------------------------------------------------------------
# Lift to centralized
# ---------------------------------------------------------------------------

def test_lift_preserves_outcome_exactly():
    strategies = [Honest(),
                  ShillBroadcast((float(GPA.quantile(0.7)),), ALWAYS_REVEAL),
                  ShillBroadcast((float(GPA.quantile(0.95)),), WITHHOLD_IF_WINNING)]
    for strategy in strategies:
        for seed in range(40):
            values = sample_values(GPA, 2, seed * 7 + 1)
            buyers = [Truthful(v) for v in values]
            cfg_b = broadcast_config(32.0, seed=seed)
            cfg_c = replace(cfg_b, mode="centralized")
            out_b, _ = run_auction(cfg_b, buyers, strategy)
            lifted_buyers, lifted = lift_to_centralized(buyers, strategy)
            out_c, _ = run_auction(cfg_c, lifted_buyers, lifted)
            assert out_b == out_c


def test_lift_payload_multisets_match():
    from collections import Counter
    buyers = [Truthful(5.0), Truthful(3.0)]
    strategy = ShillBroadcast((4.0,), ALWAYS_REVEAL)
    cfg_b = broadcast_config(32.0, seed=9)
    _, t_b = run_auction(cfg_b, buyers, strategy)
    _, t_c = run_auction(replace(cfg_b, mode="centralized"), buyers, Lifted(strategy))
    for i in (1, 2):
        mb = Counter(map(repr, (e.payload for e in t_b.view(i).events)))
        mc = Counter(map(repr, (e.payload for e in t_c.view(i).events)))
        assert mb == mc


def test_lift_rejections():
    with pytest.raises(ValueError):
        lift_to_centralized([], AdaptiveReserve(3.0))
    for inner in (Lifted(Honest()), AdaptiveReserve(3.0)):  # one rule for both ways in
        with pytest.raises(ValueError, match="not a broadcast strategy"):
            Lifted(inner)
        with pytest.raises(ValueError, match="not a broadcast strategy"):
            lift_to_centralized([], inner)
    with pytest.raises(ValueError):
        run_auction(broadcast_config(2.0), [Truthful(3.0), Truthful(4.0)],
                    Lifted(Honest()))
    with pytest.raises(ValueError):
        run_auction(centralized_config(2.0), [Truthful(3.0), Truthful(4.0)],
                    ShillBroadcast((1.0,), ALWAYS_REVEAL))


class HonestPlayingShill(ShillBroadcast):
    def execute(self, game):
        return Honest().execute(game)


def test_lift_refuses_a_subclass_with_its_own_execute():
    # Lifted replays schedule() through the two-phase execute, never the inner
    # strategy's execute: this one nets the honest 2.5 on broadcast, and its replay
    # would have netted the shill's 3.0
    strategy = HonestPlayingShill((3.0,), ALWAYS_REVEAL)
    buyers = [Truthful(5.0), Truthful(2.5)]
    outcome, _ = run_auction(broadcast_config(2.0), buyers, strategy)
    assert outcome.auctioneer_net == 2.5
    with pytest.raises(ValueError, match="not a broadcast strategy"):
        Lifted(strategy)
    with pytest.raises(ValueError, match="not a broadcast strategy"):
        lift_to_centralized(buyers, strategy)
    lifted_shill = Lifted(ShillBroadcast((3.0,), ALWAYS_REVEAL))
    outcome, _ = run_auction(centralized_config(2.0), buyers, lifted_shill)
    assert outcome.auctioneer_net == 3.0


# ---------------------------------------------------------------------------
# Reveal dominance
# ---------------------------------------------------------------------------

def test_reveal_dominant_variant_transform():
    shill = ShillBroadcast((1.5,), WITHHOLD_IF_WINNING)
    variant = reveal_dominant_variant(shill, collateral_amount=32.0)
    assert variant.reveal_policy is ALWAYS_REVEAL
    assert variant.false_bids == shill.false_bids
    already = ShillBroadcast((1.5,), ALWAYS_REVEAL)
    assert reveal_dominant_variant(already, 32.0) == already
    with pytest.raises(ValueError):
        reveal_dominant_variant(ShillBroadcast((40.0,), WITHHOLD_IF_WINNING), 32.0)


def test_reveal_dominance_monte_carlo():
    config = broadcast_config(32.0)
    bid = float(GPA.quantile(0.9))
    withhold = ShillBroadcast((bid,), WITHHOLD_IF_WINNING)
    reveal = reveal_dominant_variant(withhold, 32.0)
    diff = estimate_paired_difference(config, reveal, withhold, 200_000, 4)
    assert diff.mean >= -3.0 * diff.std_error


# ---------------------------------------------------------------------------
# View checker: positives and corrupted negatives
# ---------------------------------------------------------------------------

def honest_run(n=3, seed=0):
    config = broadcast_config(2.0, seed=seed, n=n)
    values = sample_values(GPA, n, seed + 100)
    buyers = [Truthful(v) for v in values]
    out, transcript = run_auction(config, buyers, Honest())
    return config, out, transcript


def test_checker_accepts_honest_views():
    config, _, transcript = honest_run()
    for i in (1, 2, 3):
        assert check_view_consistency(transcript.view(i), config, transcript.scheme)


def test_checker_accepts_shill_views():
    config = broadcast_config(32.0, seed=3)
    buyers = [Truthful(5.0), Truthful(3.0)]
    for policy in (ALWAYS_REVEAL, WITHHOLD_IF_WINNING):
        strategy = ShillBroadcast((10.0,), policy)
        _, transcript = run_auction(config, buyers, strategy)
        for i in (1, 2):
            assert check_view_consistency(transcript.view(i), config, transcript.scheme)


def _tamper(view, index, payload):
    events = list(view.events)
    old = events[index]
    events[index] = Event(t=old.t, sender=old.sender, recipient=old.recipient,
                          payload=payload)
    return View(agent=view.agent, events=tuple(events))


def test_checker_rejects_wrong_winner_price():
    config, out, transcript = honest_run(seed=5)
    winner = out.winner
    assert winner == 3  # a seed that sells, so the tampered notice is the only flaw
    view = transcript.view(winner)
    assert check_view_consistency(view, config, transcript.scheme)
    idx = next(i for i, e in enumerate(view.events)
               if isinstance(e.payload, OutcomeNotice))
    bad = _tamper(view, idx, OutcomeNotice(winner, out.sale_price + 0.5))
    assert not check_view_consistency(bad, config, transcript.scheme)
    # and naming someone else the winner while this buyer's bid tops the view
    other = 1 if winner != 1 else 2
    bad2 = _tamper(view, idx, OutcomeNotice(other, out.sale_price))
    assert not check_view_consistency(bad2, config, transcript.scheme)


@pytest.mark.parametrize("kind", ["deposit", "refund", "notice"])
def test_checker_rejects_a_nan_amount_or_price(kind):
    # buyer 1's own deposit, its refund or the price it is told: NaN fails every
    # comparison, so only a test that NaN cannot pass refuses it
    config = broadcast_config(2.0)
    out, transcript = run_auction(config, [Truthful(5.0), Truthful(3.0)], Honest())
    assert out.winner == 1
    view = transcript.view(1)
    assert check_view_consistency(view, config, transcript.scheme)
    idx, payload = next(
        (i, e.payload) for i, e in enumerate(view.events)
        if (isinstance(e.payload, OutcomeNotice) if kind == "notice" else
            isinstance(e.payload, CollateralNotice) and e.payload.kind == kind
            and e.payload.party == 1))
    for bad in (7.0, math.nan):
        forged = replace(payload, **{"price" if kind == "notice" else "amount": bad})
        assert not check_view_consistency(_tamper(view, idx, forged), config,
                                          transcript.scheme), bad


def test_checker_rejects_commit_after_end_commit():
    config, _, transcript = honest_run(seed=5)
    view = transcript.view(1)
    end_idx = next(i for i, e in enumerate(view.events)
                   if isinstance(e.payload, EndCommit))
    commit_event = next(e for e in view.events if isinstance(e.payload, CommitMsg))
    events = list(view.events)
    events.insert(end_idx + 1, commit_event)
    # a duplicate commit under the same id is also a phase violation here
    bad = View(agent=1, events=tuple(events))
    assert not check_view_consistency(bad, config, transcript.scheme)


def test_checker_rejects_unverifiable_reveal():
    from drasim.channels import RevealMsg
    config, _, transcript = honest_run(seed=6)
    view = transcript.view(1)
    idx, msg = next((i, e.payload) for i, e in enumerate(view.events)
                    if isinstance(e.payload, RevealMsg))
    forged = RevealMsg(bidder=msg.bidder,
                       opening=replace(msg.opening, message=msg.opening.message + 1.0))
    bad = _tamper(view, idx, forged)
    assert not check_view_consistency(bad, config, transcript.scheme)


def test_checker_rejects_missing_refund():
    config, _, transcript = honest_run(seed=7)
    view = transcript.view(2)
    events = tuple(e for e in view.events
                   if not (isinstance(e.payload, CollateralNotice)
                           and e.payload.kind == "refund"))
    bad = View(agent=2, events=events)
    assert not check_view_consistency(bad, config, transcript.scheme)


def test_checker_rejects_phantom_transfer():
    config, out, transcript = honest_run(seed=8)
    loser = next(i for i in (1, 2, 3) if i != out.winner)
    view = transcript.view(loser)
    events = view.events + (
        Event(t=999, sender=0, recipient=loser,
              payload=CollateralNotice(party=loser, amount=2.0, kind="transfer",
                                       counterparty=17)),
    )
    bad = View(agent=loser, events=events)
    assert not check_view_consistency(bad, config, transcript.scheme)


def test_checker_accepts_forfeit_to_near_tied_top_bidder():
    # Bids 1e-12 apart are not tied: the higher one is the candidate and takes
    # the withheld false bid's deposit, as the resolution rule says.
    config = broadcast_config(1.0)
    _, transcript = run_auction(config, [Truthful(0.5), Truthful(0.5 + 1e-12)],
                                ShillBroadcast((1.0,), WITHHOLD_IF_WINNING))
    for i in (1, 2):
        assert check_view_consistency(transcript.view(i), config, transcript.scheme)


def test_checker_over_sampled_deviation_runs():
    cases = [
        ("broadcast", Honest()),
        ("broadcast", ShillBroadcast((float(GPA.quantile(0.9)),), ALWAYS_REVEAL)),
        ("broadcast", ShillBroadcast((float(GPA.quantile(0.9)),), WITHHOLD_IF_WINNING)),
        ("centralized", Lifted(ShillBroadcast((float(GPA.quantile(0.9)),),
                                              WITHHOLD_IF_WINNING))),
        ("centralized", AdaptiveReserve(threshold=float(GPA.quantile(0.8)))),
    ]
    for mode, strategy in cases:
        config = AuctionConfig(n=2, dist=GPA, reserve=R, collateral=2.0, mode=mode, seed=1)
        for k in range(200):
            values = sample_values(GPA, 2, k * 13 + 5)
            result = audit_run(replace(config, seed=k), [Truthful(v) for v in values],
                               strategy)
            assert result.ok, (strategy, k, result.violations)


def test_audit_counts_only_opening_buyers_as_candidates():
    # Buyer 2 commits above buyer 1's bid but never opens: the resolution rule
    # picks its candidate from revealed bids only, so buyer 1 is the only one.
    for mode in ("broadcast", "centralized"):
        config = AuctionConfig(n=2, dist=GPA, reserve=R, collateral=2.0, mode=mode, seed=0)
        result = audit_run(config, [Truthful(5.0), NoReveal(6.0)], Honest())
        assert result.violations == (), (mode, result.violations)
        assert result.outcome.winner == 1


def test_audit_reports_a_ledger_that_drops_a_committed_id(monkeypatch):
    # Leaving a committed id out of the ledger keeps the money balanced, so only the
    # check against the ids the views show committed can see it, false buyers' too.
    from drasim import verification

    dropped = []

    def drops_last_deposit(config, buyers, auctioneer):
        outcome, transcript = run_auction(config, buyers, auctioneer)
        dropped.append(outcome.ledger[-1].depositor)
        return replace(outcome, ledger=outcome.ledger[:-1]), transcript

    monkeypatch.setattr(verification, "run_auction", drops_last_deposit)
    shill = ShillBroadcast((float(GPA.quantile(0.9)),), WITHHOLD_IF_WINNING)
    for mode, strategy in (("broadcast", Honest()), ("broadcast", shill),
                           ("centralized", Lifted(shill))):
        config = AuctionConfig(n=2, dist=GPA, reserve=R, collateral=2.0, mode=mode, seed=3)
        result = audit_run(config, [Truthful(5.0), Truthful(9.0)], strategy)
        assert result.violations == ("ledger does not dispose each deposit exactly once",)
    assert dropped == [2, 3, 3]  # buyer 2, then the false buyer
    check = verification._check_structural(2, 0)  # verify fails the check: exit 1, not 3
    # each run's dropped entry, and in 3 runs a false buyer's lost deposit that the
    # auctioneer's net still books
    assert not check.passed and check.detail.endswith(" 13 violations")


def test_audit_reports_a_nan_sale_price(monkeypatch):
    # the price check, the auctioneer's net and the conservation residual see it: the
    # residual books every price but exactly 0.0
    from drasim import verification

    def nan_price(config, buyers, auctioneer):
        outcome, transcript = run_auction(config, buyers, auctioneer)
        return replace(outcome, sale_price=math.nan), transcript

    monkeypatch.setattr(verification, "run_auction", nan_price)
    result = audit_run(broadcast_config(2.0), [Truthful(5.0), Truthful(3.0)], Honest())
    assert result.violations == ("money conservation residual nan",
                                 "auctioneer net 3.0 != its inflow nan",
                                 "price nan != max(reserve, runner-up) 3.0")


def test_audit_reports_an_auctioneer_net_its_flows_do_not_give(monkeypatch):
    # the conservation residual adds each flow once as paid and once as received, so
    # it reads 0.0 whatever the net; the net is checked against the flows themselves
    from drasim import verification

    def wrong_net(config, buyers, auctioneer):
        outcome, transcript = run_auction(config, buyers, auctioneer)
        return replace(outcome, auctioneer_net=999.0), transcript

    monkeypatch.setattr(verification, "run_auction", wrong_net)
    shill = ShillBroadcast((float(GPA.quantile(0.9)),), WITHHOLD_IF_WINNING)
    for mode, strategy in (("broadcast", Honest()), ("broadcast", shill),
                           ("centralized", Lifted(shill)),
                           ("centralized", AdaptiveReserve(threshold=4.0))):
        config = AuctionConfig(n=2, dist=GPA, reserve=R, collateral=2.0, mode=mode, seed=3)
        result = audit_run(config, [Truthful(5.0), Truthful(9.0)], strategy)
        assert len(result.violations) == 1
        assert result.violations[0].startswith("auctioneer net 999.0 != its inflow ")


# ---------------------------------------------------------------------------
# False-bid independence (coupling) and policy information restriction
# ---------------------------------------------------------------------------

def test_false_bid_coupling_across_value_profiles():
    config = broadcast_config(32.0, seed=21)
    strategy = ShillBroadcast((float(GPA.quantile(0.9)), 1.0), WITHHOLD_IF_WINNING)
    assert coupling_matches(config, strategy, [5.0, 3.0], [0.3, 44.0])
    # direct transcript comparison, commit-phase prefix equality (ideal scheme)
    _, t_a = run_auction(config, [Truthful(5.0), Truthful(3.0)], strategy)
    _, t_b = run_auction(config, [Truthful(0.3), Truthful(44.0)], strategy)
    assert commit_phase_payloads(t_a) == commit_phase_payloads(t_b)
    assert false_commit_payloads(t_a) == false_commit_payloads(t_b)
    assert len(false_commit_payloads(t_a)) == 2


def test_withhold_if_winning_sees_only_opened_real_bids():
    # the false bid 4.0 outbids the opened 2.0, so it is withheld and forfeits its
    # collateral, though the unopened 5.0 would have outbid it
    config = broadcast_config(2.0, seed=2)
    strategy = ShillBroadcast((4.0,), WITHHOLD_IF_WINNING)
    out, transcript = run_auction(config, [Truthful(2.0), NoReveal(5.0)], strategy)
    [false_commit] = false_commit_payloads(transcript)
    assert out.revealed == {1}
    assert out.winner is None  # the opened 2.0 does not clear the reserve, a hair above 2
    assert out.auctioneer_net == -2.0  # the withheld false bid's collateral, to buyer 1
    assert (false_commit.bidder, 1, 2.0) in {(e.depositor, e.recipient, e.amount)
                                             for e in out.ledger}


def test_view_summary_beta():
    config, out, transcript = honest_run(seed=9)
    for i in (1, 2, 3):
        summary = view_summary(transcript.view(i), config)
        competing = [summary.revealed_bids[j] for j in summary.revealed_bids if j != i]
        assert summary.beta == max([config.reserve] + competing)
