"""Protocol tests: the resolution rule against its worked examples, honest runs
against an independent second-price oracle, utility accounting, and money
conservation across deviation strategies."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drasim import (
    ALWAYS_REVEAL,
    BURN,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    AuctionConfig,
    AuctionGame,
    EqualRevenue,
    Exponential,
    GeneralizedPareto,
    Honest,
    Lifted,
    ModeError,
    NoReveal,
    Opening,
    OutcomeNotice,
    ProtocolViolation,
    ShillBroadcast,
    Truthful,
    Uniform,
    buyer_utility,
    conservation_residual,
    make_scheme,
    reserve_price,
    resolve,
    run_auction,
    view_summary,
)
from drasim.seeding import chunk_uniforms, derive_seed
from drasim.strategies import summary_is_consistent, view_beta
from drasim.verification import audit_run

FIXTURES = Path(__file__).parent / "fixtures"


def make_resolved(bids, opened, reserve, collateral, false_ids=frozenset()):
    """Helper: commit all bids, open the subset, resolve."""
    scheme = make_scheme("ideal")
    commitments, openings = {}, {}
    for i, bid in bids.items():
        r = bytes([i % 256]) * 16
        commitments[i] = scheme.commit(bid, r)
        openings[i] = Opening(bid, r) if i in opened else None
    return resolve(scheme, commitments, openings, reserve, collateral, false_ids)


def spa_oracle(bids, reserve):
    """Independent second-price-with-reserve oracle: sort, apply reserve,
    lexicographic ties."""
    order = sorted(bids, key=lambda i: (-bids[i], i))
    best = order[0]
    if bids[best] > reserve:
        runner_up = max((bids[i] for i in order[1:]), default=-math.inf)
        return best, max(reserve, runner_up)
    return None, 0.0


# ---------------------------------------------------------------------------
# Resolution rule worked examples
# ---------------------------------------------------------------------------

def test_resolve_both_revealed():
    out = make_resolved({1: 5.0, 2: 3.0}, {1, 2}, reserve=1.0, collateral=2.0)
    assert (out.winner, out.sale_price) == (1, 3.0)
    assert {(e.depositor, e.recipient) for e in out.ledger} == {(1, 1), (2, 2)}
    assert out.auctioneer_net == 3.0


def test_resolve_withheld_bid_forfeits_to_winner():
    out = make_resolved({1: 5.0, 2: 3.0}, {1}, reserve=1.0, collateral=2.0)
    assert (out.winner, out.sale_price) == (1, 1.0)  # price floor is the reserve
    assert (2, 1, 2.0) in {(e.depositor, e.recipient, e.amount) for e in out.ledger}
    assert out.auctioneer_net == 1.0


def test_resolve_tie_breaks_lexicographically():
    out = make_resolved({1: 4.0, 2: 4.0}, {1, 2}, reserve=1.0, collateral=2.0)
    assert (out.winner, out.sale_price) == (1, 4.0)


def test_resolve_tie_with_reserve_is_no_sale():
    out = make_resolved({1: 1.0}, {1}, reserve=1.0, collateral=2.0)
    assert out.winner is None and out.sale_price == 0.0
    assert out.auctioneer_net == 0.0


def test_resolve_all_below_reserve_full_refunds():
    out = make_resolved({1: 0.5, 2: 0.8}, {1, 2}, reserve=1.0, collateral=2.0)
    assert out.winner is None
    assert all(e.recipient == e.depositor for e in out.ledger)
    assert out.auctioneer_net == 0.0


def test_resolve_empty_reveal_set_burns_collateral():
    out = make_resolved({1: 5.0, 2: 3.0}, set(), reserve=1.0, collateral=2.0)
    assert out.winner is None
    assert all(e.recipient == BURN for e in out.ledger)
    assert out.auctioneer_net == 0.0  # burned real deposits are no one's gain


def test_resolve_transfer_without_sale():
    # candidate below reserve still receives forfeits (transfer is unconditional)
    out = make_resolved({1: 0.5, 2: 3.0}, {1}, reserve=1.0, collateral=2.0)
    assert out.winner is None
    assert (2, 1, 2.0) in {(e.depositor, e.recipient, e.amount) for e in out.ledger}


def test_resolve_false_winner_has_zero_net():
    out = make_resolved({1: 2.0, 2: 3.0, 7: 9.0}, {1, 2, 7}, reserve=1.0,
                        collateral=2.0, false_ids=frozenset({7}))
    assert out.winner == 7 and out.sale_price == 3.0
    assert out.auctioneer_net == 0.0


def test_resolve_false_withheld_costs_the_auctioneer():
    out = make_resolved({1: 2.0, 2: 3.0, 7: 9.0}, {1, 2}, reserve=1.0,
                        collateral=2.0, false_ids=frozenset({7}))
    assert out.winner == 2 and out.sale_price == 2.0
    assert out.auctioneer_net == 0.0  # price 2 minus forfeited deposit 2


def test_resolve_real_collateral_captured_by_false_winner():
    out = make_resolved({1: 2.0, 2: 3.0, 7: 9.0}, {2, 7}, reserve=1.0,
                        collateral=2.0, false_ids=frozenset({7}))
    assert out.winner == 7
    assert out.auctioneer_net == 2.0  # buyer 1's deposit lands with the false winner


def test_resolve_unknown_opening_rejected():
    scheme = make_scheme("ideal")
    c = scheme.commit(1.0, b"\x00" * 16)
    with pytest.raises(ValueError):
        resolve(scheme, {1: c}, {1: None, 2: Opening(1.0, b"\x00" * 16)}, 1.0, 2.0)


def test_resolve_bad_opening_counts_as_withheld():
    scheme = make_scheme("ideal")
    r = b"\x05" * 16
    commitments = {1: scheme.commit(5.0, r), 2: scheme.commit(3.0, b"\x06" * 16)}
    openings = {1: Opening(5.0, b"\x07" * 16), 2: Opening(3.0, b"\x06" * 16)}
    out = resolve(scheme, commitments, openings, 1.0, 2.0)
    assert out.revealed == frozenset({2})
    assert out.winner == 2 and out.sale_price == 1.0


def test_resolve_refuses_a_reclaimed_real_deposit():
    # only a false id's deposit goes back unrevealed; a real buyer's is refused by
    # name, whether resolve is called directly or a run's story names a real buyer
    refusal = "only auctioneer-controlled deposits may be refunded unrevealed"
    scheme = make_scheme("ideal")
    commitments = {i: scheme.commit(bid, bytes([i]) * 16)
                   for i, bid in ((1, 2.0), (2, 3.0), (7, 9.0))}
    openings = {2: Opening(3.0, bytes([2]) * 16)}
    out = resolve(scheme, commitments, openings, 1.0, 2.0, frozenset({7}), frozenset({2, 7}))
    assert {(e.depositor, e.recipient) for e in out.ledger} == {(1, 2), (2, 2), (7, 7)}
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        resolve(scheme, commitments, openings, 1.0, 2.0, frozenset({7}), frozenset({1}))
    config = AuctionConfig(n=2, dist=Exponential(1.0), reserve=1.0, collateral=1.0,
                           mode="centralized", seed=0)
    game = AuctionGame(config, [Truthful(2.0), Truthful(3.0)])
    for i in game.buyer_ids:
        game.buyer_commit(i)
    game.end_commit()
    game.reveal_false(1, count=False)
    game.buyer_reveal(2)
    game.end_reveal()
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        game.finalize()


# ---------------------------------------------------------------------------
# Honest runs vs the independent oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist,n", [(Exponential(1.0), 3), (GeneralizedPareto(0.5), 2),
                                    (GeneralizedPareto(0.25), 4), (Uniform(0.0, 1.0), 3)],
                         ids=["exp-n3", "gpa5-n2", "gpa25-n4", "uni-n3"])
def test_honest_runs_match_second_price_oracle(dist, n):
    r = reserve_price(dist)
    config = AuctionConfig(n=n, dist=dist, reserve=r, collateral=1.0, seed=0)
    profiles = 10_000
    u = np.vstack([chunk_uniforms(derive_seed(99, dist.kind), c, min(profiles - c * 65536, 65536), n)
                   for c in range((profiles + 65535) // 65536)])
    values = np.asarray(dist.quantile(u), dtype=float)
    for row_idx in range(profiles):
        row = values[row_idx]
        bids = {i + 1: float(row[i]) for i in range(n)}
        want_winner, want_price = spa_oracle(bids, r)
        out = make_resolved(bids, set(bids), r, 1.0)
        assert out.winner == want_winner
        assert out.sale_price == want_price
        assert all(e.recipient == e.depositor for e in out.ledger)


def test_run_auction_equals_resolve_oracle_sampled():
    dist = Exponential(1.0)
    r = reserve_price(dist)
    config = AuctionConfig(n=3, dist=dist, reserve=r, collateral=1.0, seed=5)
    rng = np.random.default_rng(17)
    for _ in range(200):
        values = dist.quantile(rng.random(3))
        out, _ = run_auction(config, [Truthful(float(v)) for v in values], Honest())
        want_winner, want_price = spa_oracle({i + 1: float(values[i]) for i in range(3)}, r)
        assert out.winner == want_winner and out.sale_price == want_price


# ---------------------------------------------------------------------------
# Utilities and accounting
# ---------------------------------------------------------------------------

def test_buyer_utility_examples():
    out = make_resolved({1: 5.0, 2: 3.0}, {1, 2}, reserve=1.0, collateral=2.0)
    assert buyer_utility(out, 1, 5.0) == 2.0   # winner pays 3
    assert buyer_utility(out, 2, 3.0) == 0.0   # loser refunded
    out = make_resolved({1: 5.0, 2: 3.0}, {1}, reserve=1.0, collateral=2.0)
    assert buyer_utility(out, 2, 3.0) == -2.0  # withheld deposit to the winner
    assert buyer_utility(out, 1, 5.0) == 5.0 - 1.0 + 2.0


def test_individual_rationality_of_truthful_play():
    dist = GeneralizedPareto(0.5)
    r = reserve_price(dist)
    config = AuctionConfig(n=3, dist=dist, reserve=r, collateral=32.0, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(300):
        values = [float(v) for v in dist.quantile(rng.random(3))]
        out, _ = run_auction(config, [Truthful(v) for v in values], Honest())
        for i, v in enumerate(values, start=1):
            assert buyer_utility(out, i, v) >= 0.0


def test_money_conservation_across_strategies():
    dist = GeneralizedPareto(0.5)
    r = reserve_price(dist)
    shill_bid = float(dist.quantile(0.9))
    cases = [
        ("broadcast", Honest()),
        ("broadcast", ShillBroadcast((shill_bid,), ALWAYS_REVEAL)),
        ("broadcast", ShillBroadcast((shill_bid, 1.0), WITHHOLD_IF_WINNING)),
        ("centralized", Lifted(ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING))),
        ("centralized", AdaptiveReserve(threshold=float(dist.quantile(0.8)))),
    ]
    rng = np.random.default_rng(11)
    for mode, strategy in cases:
        config = AuctionConfig(n=2, dist=dist, reserve=r, collateral=2.0, mode=mode, seed=8)
        for _ in range(200):
            values = [float(v) for v in dist.quantile(rng.random(2))]
            out, _ = run_auction(config, [Truthful(v) for v in values], strategy)
            residual = conservation_residual(out, depositors=[e.depositor for e in out.ledger],
                                             collateral_amount=2.0)
            assert abs(residual) <= 1e-9


def test_conservation_residual_refuses_a_nan_ledger_amount():
    # abs(nan - f) > tol is False, so the amount check is written as not <= tol
    out = make_resolved({1: 5.0, 2: 3.0}, {1}, reserve=1.0, collateral=2.0)
    ledger = (out.ledger[0], replace(out.ledger[1], amount=math.nan))
    with pytest.raises(AssertionError, match="posted collateral"):
        conservation_residual(replace(out, ledger=ledger), depositors=[1, 2],
                              collateral_amount=2.0)


def test_no_reveal_buyer_forfeits():
    dist = Exponential(1.0)
    config = AuctionConfig(n=2, dist=dist, reserve=1.0, collateral=1.5, seed=1)
    out, _ = run_auction(config, [Truthful(3.0), NoReveal(9.0)], Honest())
    assert out.winner == 1 and out.sale_price == 1.0
    assert buyer_utility(out, 2, 9.0) == -1.5
    assert buyer_utility(out, 1, 3.0) == 3.0 - 1.0 + 1.5


def test_config_validation():
    dist = Exponential(1.0)
    with pytest.raises(ValueError):
        AuctionConfig(n=0, dist=dist, reserve=1.0, collateral=1.0)
    with pytest.raises(ValueError):
        AuctionConfig(n=2, dist=dist, reserve=2.0, collateral=1.0)  # reserve mismatch
    with pytest.raises(ValueError):
        AuctionConfig(n=2, dist=dist, reserve=1.0, collateral=-1.0)
    with pytest.raises(ValueError):
        AuctionConfig(n=2, dist=dist, reserve=1.0, collateral=1.0, mode="mesh")
    with pytest.raises(ValueError):
        AuctionConfig(n=1, dist=EqualRevenue(), reserve=1.0, collateral=1.0)


def test_config_refuses_an_unknown_scheme():
    dist = Exponential(1.0)
    for scheme in ("bogus", "hash"):  # "hash" is a config's old name, not the library's
        with pytest.raises(ValueError, match=f"unknown commitment scheme '{scheme}'"):
            AuctionConfig(n=2, dist=dist, reserve=1.0, collateral=1.0, scheme=scheme)
    for scheme in ("ideal", "sha256"):
        assert AuctionConfig(n=2, dist=dist, reserve=1.0, collateral=1.0, scheme=scheme)


def test_strategy_must_finalize_exactly_once():
    class Lazy:
        def execute(self, game):
            return None

    dist = Exponential(1.0)
    config = AuctionConfig(n=1, dist=dist, reserve=1.0, collateral=1.0, seed=0)
    with pytest.raises(ProtocolViolation):
        run_auction(config, [Truthful(2.0)], Lazy())


def test_broadcast_refuses_a_targeted_send():
    # on a broadcast channel every send reaches everyone: a send to some buyers, or
    # a notice for one buyer, would reach each buyer with the same message
    config = AuctionConfig(n=2, dist=Exponential(1.0), reserve=1.0, collateral=1.0, seed=0)
    game = AuctionGame(config, [Truthful(2.0), Truthful(3.0)])
    for i in game.buyer_ids:
        game.buyer_commit(i)
    with pytest.raises(ModeError):
        game.end_commit(to=[1])
    game.end_commit()
    for i in game.buyer_ids:
        game.buyer_reveal(i)
    game.end_reveal()
    with pytest.raises(ModeError):
        game.finalize({1: OutcomeNotice(None, 0.0)})
    assert game.finalize().winner == 2  # the refused sends left the run to finish


def test_double_finalize_rejected():
    class Greedy(Honest):
        def execute(self, game):
            out = super().execute(game)
            return game.finalize()

    dist = Exponential(1.0)
    config = AuctionConfig(n=1, dist=dist, reserve=1.0, collateral=1.0, seed=0)
    with pytest.raises(ProtocolViolation):
        run_auction(config, [Truthful(2.0)], Greedy())


# ---------------------------------------------------------------------------
# Pinned randomness: every opening's random string and commitment, per deviation
# ---------------------------------------------------------------------------

def _pinned_runs():
    """(name, config, values, strategy) for the five audited deviations, the
    adaptive one with A's bid below and above its threshold, on both schemes."""
    dist = GeneralizedPareto(0.5)
    r = reserve_price(dist)
    shill_bid = float(dist.quantile(0.9))
    threshold = float(dist.quantile(0.8))
    withhold = ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING)
    deviations = [
        ("honest", "broadcast", Honest()),
        ("shill_reveal", "broadcast", ShillBroadcast((shill_bid,), ALWAYS_REVEAL)),
        ("shill_withhold", "broadcast", withhold),
        ("lifted_shill", "centralized", Lifted(withhold)),
    ]
    adaptive = AdaptiveReserve(threshold=threshold)
    # B below A, inside (A, A + f] and above A + f when A clears the threshold
    above = [(threshold + 1.0, b) for b in (threshold, threshold + 2.5, threshold + 9.0)]
    runs = []
    for scheme in ("ideal", "sha256"):
        for seed in (0, 17, 2**40 + 3):
            values = [float(v) for v in dist.quantile(np.random.default_rng(seed).random(2))]
            for name, mode, strategy in deviations:
                config = AuctionConfig(n=2, dist=dist, reserve=r, collateral=2.0, mode=mode,
                                       scheme=scheme, seed=seed)
                runs.append((f"{name}/{scheme}/{seed}", config, values, strategy))
            config = AuctionConfig(n=2, dist=dist, reserve=r, collateral=2.0, mode="centralized",
                                   scheme=scheme, seed=seed)
            runs.append((f"adaptive_below/{scheme}/{seed}", config, [r + 0.5, threshold + 3.0],
                         adaptive))
            for k, pair in enumerate(above):
                runs.append((f"adaptive_above{k}/{scheme}/{seed}", config, list(pair), adaptive))
    return runs


def _pinned_record(config, values, strategy) -> dict:
    """Each opening's bid, random string and commitment token, false buyers'
    included, and the digest of the run's transcript."""
    game = AuctionGame(config, [Truthful(v) for v in values])
    strategy.execute(game)
    return {
        "openings": [[i, game.openings[i].message, game.openings[i].randomness.hex(),
                      game.commitments[i].token_str()] for i in sorted(game.openings)],
        "transcript_sha256": hashlib.sha256(game.transcript().dump_jsonl().encode()).hexdigest(),
    }


def test_run_randomness_matches_the_pinned_openings():
    pinned = json.loads((FIXTURES / "run_openings.json").read_text())
    runs = _pinned_runs()
    assert sorted(pinned["runs"]) == sorted(name for name, *_ in runs)
    assert any(len(record["openings"]) == 3 for record in pinned["runs"].values())
    for name, config, values, strategy in runs:
        assert _pinned_record(config, values, strategy) == pinned["runs"][name], name


def _audit_runs():
    """(name, config, buyers, auctioneer) for the audited runs the fixture pins: those
    of _pinned_runs, and each deviation with buyer 2 withholding its opening, which
    makes withheld deposits, transfer notices and the buyers' own-transfer checks.
    There, buyer 1's bid clears the reserve and the adaptive threshold, and the
    shill's false bid outbids it."""
    runs = [(name, config, [Truthful(v) for v in values], strategy)
            for name, config, values, strategy in _pinned_runs()]
    no_reveal = [Truthful(3.0), NoReveal(2.5)]
    return runs + [(f"{name.split('/')[0].replace('adaptive_below', 'adaptive')}/no_reveal",
                    config, no_reveal, strategy)
                   for name, config, _, strategy in runs
                   if name.endswith("/ideal/0") and not name.startswith("adaptive_above")]


def _notice_json(notice):
    return [notice.party, notice.amount, notice.kind, notice.counterparty]


def _summary_record(summary, config, scheme) -> dict:
    """Every fact of a buyer's ViewSummary, and the consistency verdict on it, under
    the fixture's keys: the own bid, beta, the revealed bids and the three kinds of
    collateral notice are derived from the openings, the rival and the money."""
    notice, openings = summary.notice, summary.openings
    agent = summary.agent
    return {
        "agent": agent,
        "own_bid": openings[agent].message if agent in openings else None,
        "beta": view_beta(summary, config),
        "notice": None if notice is None else [notice.winner, notice.price],
        "commits": [[b, c.token_str()] for b, c in summary.commits.items()],
        "revealed_bids": [[b, o.message] for b, o in openings.items()],
        **{f"{kind}s": [_notice_json(m) for m in summary.money if m.kind == kind]
           for kind in ("deposit", "refund", "transfer")},
        "openings": [[b, o.message, o.randomness.hex()] for b, o in openings.items()],
        "well_formed": summary.well_formed,
        "consistent": summary_is_consistent(summary, config, scheme),
    }


def _audit_record(config, buyers, auctioneer) -> dict:
    """The audited run's outcome and violations, and each buyer's parsed view."""
    result = audit_run(config, buyers, auctioneer)
    _, transcript = run_auction(config, buyers, auctioneer)
    return {
        "outcome": result.outcome.to_json(),
        "violations": list(result.violations),
        "views": [_summary_record(view_summary(view), config, transcript.scheme)
                  for view in transcript.buyer_views().values()],
    }


def test_audited_runs_match_the_pinned_parses():
    pinned = json.loads((FIXTURES / "audit_runs.json").read_text())["runs"]
    runs = _audit_runs()
    assert sorted(pinned) == sorted(name for name, *_ in runs)
    assert any(view["transfers"] for record in pinned.values() for view in record["views"])
    for name, config, buyers, auctioneer in runs:
        assert _audit_record(config, buyers, auctioneer) == pinned[name], name


def _adaptive_branches():
    """(name, config, buyers) for the adaptive deviation's settlement cases, on both
    schemes: B withholding with b_A above and at the reserve, b_B below, level with,
    inside, at and above C's bid, nothing clearing the reserve (T = b_A = r), f = 0,
    and b_A below the threshold. T is r, r + 0.5 or 3r; C bids b_A + f. The
    reserve r is bisected, so it lies just above the closed form r0, which a
    threshold may equal: T = b_A = r0 with b_B in (b_A, r] clears nothing."""
    gpareto, exponential = GeneralizedPareto(0.5), Exponential(1.0)
    cases = []  # (name, dist, f, T, b_A, buyer B)
    for dist, f, r0, tag in ((gpareto, 2.0, 2.0, "gpareto"), (exponential, 1.0, 1.0, "exp")):
        r = reserve_price(dist)
        a = r + 1.5  # clears T = r + 0.5
        cases += [
            (f"{tag}/withhold", dist, f, r + 0.5, a, NoReveal(r + 3.0)),
            (f"{tag}/b_inside", dist, f, r + 0.5, a, Truthful(a + f / 2)),
            (f"{tag}/b_at_c", dist, f, r + 0.5, a, Truthful(a + f)),
            (f"{tag}/b_above_c", dist, f, r + 0.5, a, Truthful(a + f + 3.0)),
            (f"{tag}/b_below_a", dist, f, 3 * r, 3 * r + 1.0, Truthful(3 * r)),
            (f"{tag}/nothing_clears", dist, f, r, r, Truthful(r - 0.5)),
        ]
        for fee, label in ((f, ""), (0.0, "f0_")):
            cases += [
                (f"{tag}/{label}b_between_r0_and_reserve", dist, fee, r0, r0,
                 Truthful((r0 + r) / 2)),
                (f"{tag}/{label}b_at_reserve_above_r0", dist, fee, r0, r0, Truthful(r)),
            ]
    r = reserve_price(gpareto)
    a = 3 * r + 1.0
    cases += [
        ("gpareto/withhold_at_reserve", gpareto, 2.0, r, r, NoReveal(r + 3.0)),
        ("gpareto/b_ties_a", gpareto, 2.0, 3 * r, a, Truthful(a)),
        ("gpareto/nothing_clears_tie", gpareto, 2.0, r, r, Truthful(r)),
        ("gpareto/below_threshold", gpareto, 2.0, r + 0.5, r + 0.25, Truthful(r + 1.0)),
        ("gpareto/f0_b_below_a", gpareto, 0.0, 3 * r, a, Truthful(a - 1.0)),
        ("gpareto/f0_b_ties_a", gpareto, 0.0, 3 * r, a, Truthful(a)),
        ("gpareto/f0_b_above_a", gpareto, 0.0, 3 * r, a, Truthful(a + 1.0)),
        ("gpareto/f0_withhold", gpareto, 0.0, r, r, NoReveal(r + 3.0)),
    ]
    runs = []
    for scheme in ("ideal", "sha256"):
        for name, dist, f, threshold, bid_a, buyer_b in cases:
            config = AuctionConfig(n=2, dist=dist, reserve=reserve_price(dist), collateral=f,
                                   mode="centralized", scheme=scheme, seed=7)
            runs.append((f"{name}/{scheme}", config, [Truthful(bid_a), buyer_b],
                         AdaptiveReserve(threshold=threshold)))
    return runs


def _branch_record(config, buyers, auctioneer) -> dict:
    outcome, transcript = run_auction(config, buyers, auctioneer)
    return {"outcome": outcome.to_json(),
            "transcript_sha256": hashlib.sha256(transcript.dump_jsonl().encode()).hexdigest()}


def test_adaptive_settlements_match_the_pinned_branches():
    pinned = json.loads((FIXTURES / "adaptive_branches.json").read_text())
    runs = _adaptive_branches()
    assert sorted(pinned) == sorted(name for name, *_ in runs)
    for name, config, buyers, auctioneer in runs:
        assert _branch_record(config, buyers, auctioneer) == pinned[name], name


def _seed_part(tag):
    return {"int": int, "np.int64": np.int64, "np.uint8": np.uint8}.get(tag, str)


def test_derive_seed_matches_pinned_values():
    pinned = json.loads((FIXTURES / "run_openings.json").read_text())["derive_seed"]
    assert pinned
    for parts, want in pinned:
        args = [value if tag == "str" else _seed_part(tag)(value) for tag, value in parts]
        assert derive_seed(*args) == want, parts


def test_derive_seed_encodes_a_str_subclass_as_its_str():
    class Tag(str):
        pass

    assert derive_seed(Tag("buyer"), 1) == derive_seed("buyer", 1)
    assert derive_seed(Tag("buyer"), 1) == derive_seed(Tag("buyer"), 1)
