"""Witnesses for verify's checks: each injects one named fault into the program and
asserts that the check it should trip reports failure, so a check that passes
whatever the code does shows here. The checks run at verify_quick's budgets, alone
or as verify_quick's whole report, whose FAIL line and exit code are read."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from drasim import config, distributions, estimators, protocol, strategies, verification
from drasim.cli import main
from drasim.config import build_setup
from drasim.estimate import Estimate
from drasim.verification import (
    _check_conditional_bounds,
    _check_credibility,
    _check_myerson_identity,
    _check_reveal_dominance,
    _check_separation,
    _check_strategyproofness,
    _check_structural,
    _within_3se,
    run_verification,
)

CONFIGS = Path(__file__).parent.parent / "configs"
QUICK = json.loads((CONFIGS / "verify_quick.json").read_text())
BUDGET = build_setup(QUICK).budgets
SEED = QUICK["seed"]


@pytest.fixture
def free_withholding(monkeypatch):
    """The shill kernels without their withheld-collateral term: a withheld false bid
    costs the auctioneer nothing, in _shill_net, which every shill's vector_net runs,
    and in the credibility grid's _bid_nets."""
    def free(kernel):
        return lambda chunk, reserve, collateral, *rest: kernel(chunk, reserve, 0.0, *rest)

    monkeypatch.setattr(strategies, "_shill_net", free(strategies._shill_net))
    monkeypatch.setattr(estimators, "_bid_nets", free(strategies._bid_nets))


def test_credibility_suite_fails_when_withholding_is_free(free_withholding):
    check = _check_credibility(BUDGET["credibility_samples"], BUDGET["credibility_quantiles"], SEED)
    assert check.name == "credibility_suite" and not check.passed


def test_reveal_dominance_fails_when_withholding_is_free(free_withholding):
    check = _check_reveal_dominance(BUDGET["mc_samples"], SEED)
    assert check.name == "reveal_dominance" and not check.passed


def test_structural_invariants_fail_when_the_net_books_no_loss(monkeypatch):
    # an auctioneer net that never goes below zero: a withheld false bid's forfeited
    # deposit is left out of it, while the ledger still sends it to the buyer
    resolve = protocol.resolve

    def no_losses(*args, **kwargs):
        outcome = resolve(*args, **kwargs)
        return replace(outcome, auctioneer_net=max(outcome.auctioneer_net, 0.0))

    monkeypatch.setattr(protocol, "resolve", no_losses)
    check = _check_structural(BUDGET["structural_runs"], SEED)
    assert check.name == "structural_invariants" and not check.passed


def test_structural_invariants_fail_when_a_story_forfeits_its_deposit(monkeypatch):
    # a false bid opened to some buyers only (count=False) whose deposit is not
    # reclaimed: resolution forfeits it to the candidate, a real buyer who never
    # saw the false id commit
    reveal_false = protocol.AuctionGame.reveal_false

    def reveal_without_reclaim(self, fid, to=None, count=True):
        msg = reveal_false(self, fid, to, count)
        self.reclaimed.discard(fid)
        return msg

    monkeypatch.setattr(protocol.AuctionGame, "reveal_false", reveal_without_reclaim)
    check = _check_structural(BUDGET["structural_runs"], SEED)
    assert check.name == "structural_invariants" and not check.passed
    assert not all(check.passed for check in run_verification(build_setup(QUICK)))


def test_separation_fails_when_the_adaptive_kernel_flips_sign(monkeypatch):
    delta = estimators.adaptive_net_delta

    def flipped(values, reserve, threshold, collateral):
        return -delta(values, reserve, threshold, collateral)

    monkeypatch.setattr(estimators, "adaptive_net_delta", flipped)
    thresholds = [float(t) for t in QUICK["thresholds"]]
    check = _check_separation(BUDGET["attack_samples"], BUDGET["attack_rel_tol"], thresholds, SEED)
    assert check.name == "separation" and not check.passed


@pytest.fixture
def negated_virtual_value(monkeypatch):
    """The estimators' phi with its sign flipped."""
    virtual_value = estimators.virtual_value
    monkeypatch.setattr(estimators, "virtual_value", lambda dist, v: -virtual_value(dist, v))


def test_myerson_identity_fails_when_phi_flips_sign(negated_virtual_value):
    check = _check_myerson_identity(BUDGET["mc_samples"], SEED)
    assert check.name == "myerson_identity" and not check.passed


def test_conditional_bound_fails_when_phi_flips_sign(negated_virtual_value):
    check = _check_conditional_bounds(BUDGET["mc_samples"], SEED)
    assert check.name == "conditional_bound" and not check.passed


def verify_quick_lines(capsys):
    """verify_quick's report as the CLI prints it, and its exit code."""
    rc = main(["verify", "--config", str(CONFIGS / "verify_quick.json")])
    return rc, capsys.readouterr().out.splitlines()


def test_reserve_and_alpha_fails_when_the_reserve_is_one_percent_low(monkeypatch, capsys):
    # reserve_price 1% low wherever drasim binds the name, so that every check sees
    # one reserve: patched into verification alone, the price bounds, whose
    # distributions.check_* functions take the true reserve, would refuse the
    # prices verification derives from the low one
    reserve_price = distributions.reserve_price

    def one_percent_low(dist):
        return 0.99 * reserve_price(dist)

    for module in (distributions, estimators, verification, config):
        monkeypatch.setattr(module, "reserve_price", one_percent_low)
    try:
        rc, lines = verify_quick_lines(capsys)
    finally:  # Rev(D^n) is cached per distribution: drop what the low reserve priced
        distributions.optimal_revenue.cache_clear()
    assert rc == 1 and lines[-1] == "VERIFY FAIL: reserve_and_alpha"
    assert lines[0].startswith("FAIL reserve_and_alpha: exponential reserve,gpareto(0.25) reserve,")


def test_estimator_determinism_fails_when_the_stream_moves_per_call(monkeypatch, capsys):
    # each estimate draws the stream of its seed plus the number of estimates before it
    calls = itertools.count()
    value_stream_seed = estimators._value_stream_seed
    monkeypatch.setattr(estimators, "_value_stream_seed",
                        lambda seed: value_stream_seed(seed + next(calls)))
    rc, lines = verify_quick_lines(capsys)
    assert rc == 1 and lines[-1] == "VERIFY FAIL: estimator_determinism"
    assert "FAIL estimator_determinism: mismatch" in lines


def test_lift_equality_fails_when_the_replay_reveals_every_false_bid(monkeypatch, capsys):
    # the centralized replay keeps the inner strategy's false bids but not its reveal
    # policy: a bid the broadcast run withholds is opened and counted
    monkeypatch.setattr(strategies.Lifted, "schedule",
                        lambda self: (self.inner.false_bids, strategies.ALWAYS_REVEAL))
    rc, lines = verify_quick_lines(capsys)
    assert rc == 1 and lines[-1] == "VERIFY FAIL: lift_equality"
    mismatched = (("1.16228", (0, 3, 7, 8, 10, 12, 24)), ("6.94427", range(25)))
    assert "FAIL lift_equality: 150 paired runs, 32 mismatches: " + ",".join(
        f"shill[{bid}]/withhold_if_winning/run={j}" for bid, runs in mismatched for j in runs
    ) in lines


def test_tail_bound_fails_when_the_tail_factor_has_the_wrong_exponent(monkeypatch, capsys):
    # (r/p)^(1/(1-alpha)) where the bound has (r/p)^(alpha/(1-alpha)): the factor
    # falls too fast in p. Both price bounds take the factor, so both fail, and the
    # tail bound's comes first
    def wrong_exponent(alpha, r, p):
        return (1.0 / (1.0 - alpha)) ** (1.0 / (1.0 - alpha)) * (r / p) ** (1.0 / (1.0 - alpha))

    monkeypatch.setattr(distributions, "_tail_factor", wrong_exponent)
    rc, lines = verify_quick_lines(capsys)
    assert rc == 1 and lines[-1] == "VERIFY FAIL: tail_bound"
    failed = ("Exponential(rate=1.0)/alpha=0.25/p=2r,"
              "GeneralizedPareto(shape=0.25)/alpha=0.25/p=2r,"
              "GeneralizedPareto(shape=0.25)/alpha=0.25/p=4r,"
              "GeneralizedPareto(shape=0.25)/alpha=0.25/p=8r,"
              "GeneralizedPareto(shape=0.25)/alpha=0.5/p=4r,"
              "GeneralizedPareto(shape=0.25)/alpha=0.5/p=8r,"
              "GeneralizedPareto(shape=0.25)/alpha=0.75/p=8r,"
              "GeneralizedPareto(shape=0.5)/alpha=0.25/p=2r,"
              "GeneralizedPareto(shape=0.5)/alpha=0.25/p=4r,"
              "GeneralizedPareto(shape=0.5)/alpha=0.25/p=8r,"
              "GeneralizedPareto(shape=0.5)/alpha=0.5/p=4r,"
              "GeneralizedPareto(shape=0.5)/alpha=0.5/p=8r,"
              "GeneralizedPareto(shape=0.75)/alpha=0.25/p=2r,"
              "GeneralizedPareto(shape=0.75)/alpha=0.25/p=4r,"
              "GeneralizedPareto(shape=0.75)/alpha=0.25/p=8r")
    assert "FAIL tail_bound: 36 cases, 15 failures: " + failed in lines
    assert "FAIL posted_price_bound: 36 cases, 15 failures: " + failed in lines


def test_posted_price_bound_fails_when_the_quadrature_reads_quantiles(monkeypatch, capsys):
    # the posted-price quadrature maps s through quantile, not isf: it integrates
    # phi over the lowest sf(p) of the values instead of the highest. The tail bound,
    # in closed form, still passes
    def low_tail(dist, p):
        return distributions._quad(lambda s: distributions.virtual_value(dist, dist.quantile(s)),
                                   float(dist.sf(p)), epsabs=1e-10, epsrel=1e-10, limit=200)[0]

    monkeypatch.setattr(distributions, "posted_price_revenue_quadrature", low_tail)
    rc, lines = verify_quick_lines(capsys)
    assert rc == 1 and lines[-1] == "VERIFY FAIL: posted_price_bound"
    assert lines[1] == "PASS tail_bound: 36 cases, 0 failures"
    grid = (("Exponential(rate=1.0)", (0.25, 0.5, 0.75)),
            ("GeneralizedPareto(shape=0.25)", (0.25, 0.5, 0.75)),
            ("GeneralizedPareto(shape=0.5)", (0.25, 0.5)),
            ("GeneralizedPareto(shape=0.75)", (0.25,)))
    assert "FAIL posted_price_bound: 36 cases, 36 failures: " + ",".join(
        f"{dist}/alpha={alpha}/p={mult}r"
        for dist, alphas in grid for alpha in alphas for mult in (1, 2, 4, 8)
    ) in lines


def test_optimality_fails_when_the_honest_net_is_five_percent_high(monkeypatch, capsys):
    # the promised auction's net 5% above its price on every profile; the other
    # checks that price from it come later in the report
    honest = strategies.Chunk.honest

    def five_percent_high(self, reserve):
        net, sale = honest(self, reserve)
        return net * 1.05, sale

    monkeypatch.setattr(strategies.Chunk, "honest", five_percent_high)
    rc, lines = verify_quick_lines(capsys)
    assert rc == 1 and lines[-1] == "VERIFY FAIL: optimality"
    assert ("FAIL optimality: 6 cases, 6 failures: Exponential(rate=1.0)/n=1,"
            "Exponential(rate=1.0)/n=2,GeneralizedPareto(shape=0.25)/n=1,"
            "GeneralizedPareto(shape=0.25)/n=2,GeneralizedPareto(shape=0.5)/n=1,"
            "GeneralizedPareto(shape=0.5)/n=2") in lines


def test_verify_refuses_a_nan_net_in_one_profile_per_chunk(monkeypatch, capsys):
    # a NaN estimate came with a zero standard error, and optimality, myerson_identity
    # and reveal_dominance passed it; now the estimate raises and verify exits 3
    honest = strategies.Chunk.honest

    def one_nan(self, reserve):
        net, sale = honest(self, reserve)
        net = net.copy()
        net[0] = math.nan
        return net, sale

    monkeypatch.setattr(strategies.Chunk, "honest", one_nan)
    rc = main(["verify", "--config", str(CONFIGS / "verify_quick.json")])
    out, err = capsys.readouterr()
    assert rc == 3 and "PASS optimality" not in out
    assert "FloatingPointError: non-finite estimate" in err
    assert not _within_3se(Estimate(math.nan, 0.0, 1000), 0.0)


def test_strategyproofness_fails_when_the_winner_pays_its_own_bid(monkeypatch, capsys):
    # a first-price sale: resolution charges the winner its own bid, so shading pays
    resolve = protocol.resolve

    def first_price(scheme, commitments, openings, *args, **kwargs):
        outcome = resolve(scheme, commitments, openings, *args, **kwargs)
        if outcome.winner is None:
            return outcome
        return replace(outcome, sale_price=openings[outcome.winner].message)

    monkeypatch.setattr(protocol, "resolve", first_price)
    rc, lines = verify_quick_lines(capsys)
    assert rc == 1 and lines[-1] == "VERIFY FAIL: strategyproofness_grid"
    assert "FAIL strategyproofness_grid: 8 profiles x 3 buyers x 21 bids, 13 violations" in lines


def test_strategyproofness_fails_when_every_sale_is_priced_at_nan(monkeypatch):
    # a NaN utility compares false with everything, so a cell counted only when the
    # deviation's utility is greater than truth's never counted it
    resolve = protocol.resolve

    def nan_price(*args, **kwargs):
        outcome = resolve(*args, **kwargs)
        if outcome.winner is None:
            return outcome
        return replace(outcome, sale_price=math.nan)

    monkeypatch.setattr(protocol, "resolve", nan_price)
    check = _check_strategyproofness(BUDGET["sp_profiles"], SEED)
    assert check.name == "strategyproofness_grid" and not check.passed
