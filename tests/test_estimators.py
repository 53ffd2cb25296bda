"""Estimator tests: engine agreement, determinism, pairing, the stratified
rare-event estimator against its quadrature oracle, and the credibility suite."""

import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from drasim import (
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    AuctionConfig,
    Exponential,
    GeneralizedPareto,
    Honest,
    InfiniteReserveError,
    Lifted,
    ProtocolViolation,
    ShillBroadcast,
    adaptive_gain_quadrature,
    adaptive_net_delta,
    check_conditional_bound,
    credibility_suite,
    estimate_adaptive_gain,
    estimate_myerson_gap,
    estimate_paired_difference,
    estimate_revenue,
    optimal_revenue,
    reserve_price,
    virtual_value,
)
from drasim import estimators
from drasim.config import ExperimentSetup
from drasim.distributions import ROOT_TOL
from drasim.estimate import ChunkAccumulator, Estimate, pairwise_split
from drasim.estimators import (
    _adaptive_gain_by_auctions,
    _attack_profiles,
    _auction_net,
    _estimate,
    _estimate_each,
    _pricing,
    _value_stream_seed,
    attack_sweep,
    sample_values,
    simulate_profile_net,
)
from drasim.seeding import CHUNK_SAMPLES, chunk_bounds, chunk_uniforms, derive_seed, fill_uniforms
from drasim.strategies import Chunk

CONFIGS = Path(__file__).parent.parent / "configs"
GPA = GeneralizedPareto(0.5)
R = reserve_price(GPA)


def config_for(dist, n, collateral, mode="broadcast"):
    return AuctionConfig(n=n, dist=dist, reserve=reserve_price(dist),
                         collateral=collateral, mode=mode, seed=0)


# ---------------------------------------------------------------------------
# Engine agreement and determinism
# ---------------------------------------------------------------------------

STRATEGIES = [
    Honest(),
    ShillBroadcast((3.0,), ALWAYS_REVEAL),
    ShillBroadcast((3.0,), WITHHOLD_IF_WINNING),
    ShillBroadcast((40.0,), ALWAYS_REVEAL),
    ShillBroadcast((40.0,), WITHHOLD_IF_WINNING),
    ShillBroadcast((1.5, 40.0, 6.0), WITHHOLD_IF_WINNING),
]


def test_sample_values_is_profile_0_of_a_fresh_philox_stream():
    for seed in range(50):
        key = _value_stream_seed(seed)
        for dist, n in ((GPA, 2), (Exponential(1.5), 3)):
            u = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, 0])).random(n)
            expected = [float(v).hex() for v in dist.quantile(u)]
            assert [v.hex() for v in sample_values(dist, n, seed)] == expected


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe())
def test_vector_engine_matches_simulator_per_profile(strategy):
    config = config_for(GPA, 2, 32.0)
    values = GPA.quantile(chunk_uniforms(_value_stream_seed(123), 0, 300, 2))
    assert list(values[0]) == sample_values(GPA, 2, 123)  # the estimators' stream
    vec = _pricing(config, strategy, 0)(Chunk(values), 0)
    sim = np.array([simulate_profile_net(config, strategy, row, derive_seed(1, "s", k))
                    for k, row in enumerate(values)])
    assert np.array_equal(vec, sim)


def revenue_by_auctions(config, strategy, samples, seed):
    """estimate_revenue with every profile priced by a full message-level auction."""
    return _estimate(seed, samples, config.n, config.dist.quantile,
                     _auction_net(config, strategy, seed))


def test_engines_agree_at_estimate_level():
    config = config_for(GPA, 2, 32.0)
    strategy = ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    vec = estimate_revenue(config, strategy, 1_500, 7)
    sim = revenue_by_auctions(config, strategy, 1_500, 7)
    assert vec == sim  # same profiles, bit-identical nets


def test_estimates_are_deterministic_and_seeded():
    config = config_for(GPA, 2, 32.0)
    strategy = ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    a = estimate_revenue(config, strategy, 120_000, 5)
    b = estimate_revenue(config, strategy, 120_000, 5)
    c = estimate_revenue(config, strategy, 120_000, 6)
    assert a == b
    assert a != c


def test_zero_false_bids_equals_honest_exactly():
    config = config_for(GPA, 2, 32.0)
    degenerate = ShillBroadcast((), WITHHOLD_IF_WINNING)
    honest = estimate_revenue(config, Honest(), 50_000, 3)
    shill = estimate_revenue(config, degenerate, 50_000, 3)
    assert honest == shill


def test_lifted_strategy_estimates_match_broadcast():
    config_b = config_for(GPA, 2, 32.0)
    config_c = config_for(GPA, 2, 32.0, mode="centralized")
    strategy = ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    est_b = estimate_revenue(config_b, strategy, 40_000, 11)
    est_c = estimate_revenue(config_c, Lifted(strategy), 40_000, 11)
    assert est_b == est_c


@pytest.mark.parametrize("mode,n,strategy", [
    ("broadcast", 2, AdaptiveReserve(threshold=5.0)),
    ("centralized", 3, AdaptiveReserve(threshold=5.0)),
    ("centralized", 2, ShillBroadcast((3.0,), ALWAYS_REVEAL)),
    ("broadcast", 2, Lifted(ShillBroadcast((3.0,), ALWAYS_REVEAL))),
    ("centralized", 2, AdaptiveReserve(threshold=math.nan)),
    ("broadcast", 2, ShillBroadcast((math.nan,), WITHHOLD_IF_WINNING)),
    ("broadcast", 2, ShillBroadcast((math.nan,), ALWAYS_REVEAL)),
    ("broadcast", 3, ShillBroadcast((3.0, math.inf), WITHHOLD_IF_WINNING)),
    ("broadcast", 2, ShillBroadcast((-math.inf,), ALWAYS_REVEAL)),
    ("centralized", 2, Lifted(ShillBroadcast((math.inf,), WITHHOLD_IF_WINNING))),
    ("broadcast", 2, ShillBroadcast((3.0,), "always")),
], ids=["adaptive-broadcast", "adaptive-n3", "shill-centralized", "lifted-broadcast",
        "adaptive-nan", "shill-nan-withhold", "shill-nan-reveal", "shill-inf-withhold",
        "shill-minus-inf-reveal", "lifted-inf", "shill-policy-name"])
def test_both_engines_refuse_a_strategy_outside_its_setting(mode, n, strategy):
    config = config_for(GPA, n, 2.0, mode=mode)
    messages = []
    for estimate in (estimate_revenue, revenue_by_auctions):
        with pytest.raises(ValueError) as refused:
            estimate(config, strategy, 1_000, 0)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


class Greedy(Honest):
    """Finalizes twice, as in test_protocol: the message engine refuses it."""

    def execute(self, game):
        super().execute(game)
        return game.finalize()


class HonestPlayingShill(ShillBroadcast):
    def execute(self, game):
        return Honest().execute(game)


class RenamedShill(ShillBroadcast):
    def describe(self):
        return "renamed " + super().describe()


def test_an_overridden_execute_is_priced_by_full_auctions():
    config = config_for(GPA, 2, 2.0)
    with pytest.raises(ProtocolViolation):
        estimate_revenue(config, Greedy(), 1_000, 0)
    playing_honest = HonestPlayingShill((3.0,), ALWAYS_REVEAL)
    assert bits(estimate_revenue(config, playing_honest, 1_000, 0)) \
        == bits(estimate_revenue(config, Honest(), 1_000, 0))


def test_a_subclass_that_keeps_execute_keeps_the_vector_path(monkeypatch):
    monkeypatch.setattr(estimators, "simulate_profile_net", None)  # an auction would fail
    config = config_for(GPA, 2, 2.0)
    base = ShillBroadcast((3.0, 40.0), WITHHOLD_IF_WINNING)
    renamed = RenamedShill(base.false_bids, base.reveal_policy)
    assert bits(estimate_revenue(config, renamed, 70_000, 43)) \
        == bits(estimate_revenue(config, base, 70_000, 43))
    for mode, strategy in [("broadcast", s) for s in STRATEGIES] + [
            ("centralized", Lifted(ShillBroadcast((3.0,), WITHHOLD_IF_WINNING))),
            ("centralized", AdaptiveReserve(5.0))]:
        estimate_revenue(config_for(GPA, 2, 2.0, mode=mode), strategy, 1_000, 0)
    estimate_adaptive_gain(GPA, 5.0, 2.0, 1_000, 0)


def test_estimate_revenue_pinned_bits():
    # float.hex of two-chunk estimates made while the vector engine still chose each
    # strategy's formula itself: moving the closed forms onto the strategies changes
    # no bit of a mean or standard error
    pinned = [
        ("broadcast", Honest(), "0x1.ed7aeece82c33p-1 0x1.2d98a768238dbp-8"),
        ("broadcast", ShillBroadcast((3.0, 40.0), ALWAYS_REVEAL),
         "0x1.674718488ec66p-3 0x1.475cf4ad5c67ap-7"),
        ("broadcast", ShillBroadcast((3.0, 40.0), WITHHOLD_IF_WINNING),
         "-0x1.02dc0b3d6349dp+1 0x1.be6fb67f3d74fp-7"),
        ("centralized", Lifted(ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)),
         "-0x1.852ec219e754bp-3 0x1.1d8b20d78387ep-7"),
        ("centralized", AdaptiveReserve(5.0), "0x1.eebcfed6efd55p-1 0x1.32163e3a50f90p-8"),
    ]
    for mode, strategy, expected in pinned:
        est = estimate_revenue(config_for(GPA, 2, 2.0, mode=mode), strategy, 70_000, 43)
        assert est.samples == 70_000 > CHUNK_SAMPLES
        assert f"{est.mean.hex()} {est.std_error.hex()}" == expected, strategy.describe()


# ---------------------------------------------------------------------------
# Honest estimates vs quadrature, and the Myerson identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", [Exponential(1.0), GeneralizedPareto(0.25), GPA],
                         ids=lambda d: repr(d))
@pytest.mark.parametrize("n", [1, 2])
def test_honest_revenue_matches_quadrature(dist, n):
    config = config_for(dist, n, 2.0)
    est = estimate_revenue(config, Honest(), 300_000, 13)
    target = optimal_revenue(dist, n).mean
    assert abs(est.mean - target) <= 3.0 * est.std_error


@pytest.mark.parametrize("dist", [Exponential(1.0), GeneralizedPareto(0.25), GPA],
                         ids=lambda d: repr(d))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_myerson_identity_paired_gap(dist, n):
    config = config_for(dist, n, 2.0)
    gap = estimate_myerson_gap(config, 300_000, 17)
    assert abs(gap.mean) <= 3.0 * gap.std_error


# ---------------------------------------------------------------------------
# Adaptive gain: stratified estimator against the quadrature oracle
# ---------------------------------------------------------------------------

def test_adaptive_delta_cases_explicitly():
    # rows: below threshold, no-sale region boundary, A wins, forfeit window,
    # closed right endpoint, beyond the false bid
    values = np.array([
        [4.0, 100.0],   # v_A < T: zero
        [10.0, 9.0],    # A wins: zero
        [10.0, 10.0],   # tie goes to A: zero
        [10.0, 11.0],   # inside (a, a+f]: -f
        [10.0, 12.0],   # b == a + f: -f (closed endpoint)
        [10.0, 12.5],   # above a + f: +f
    ])
    delta = adaptive_net_delta(values, reserve=2.0, threshold=5.0, collateral=2.0)
    assert np.array_equal(delta, np.array([0.0, 0.0, 0.0, -2.0, -2.0, 2.0]))


FAST_EXP = Exponential(1e8)  # reserve 1e-8, bisected to ROOT_TOL: a tenth of its
# stratum at T = reserve - ROOT_TOL has v_A in [T, reserve)


def test_adaptive_gain_simulate_engine_agrees_with_vector():
    below_reserve = reserve_price(FAST_EXP) - ROOT_TOL
    for dist, threshold, collateral in [
        (GPA, 5.0, 2.0),
        (GPA, 2.0, 2.0),  # the shipped T = 2.0 lies below R = 2.000000000482171
        (FAST_EXP, below_reserve, 2.0 ** -27),
        (FAST_EXP, below_reserve, 2.0 ** -34),  # below ROOT_TOL
        (FAST_EXP, below_reserve, 5e-10),
        (Exponential(1.0), reserve_price(Exponential(1.0)), 0.3),
        (GeneralizedPareto(0.25), 1.7, 0.1),
    ]:
        vec = estimate_adaptive_gain(dist, threshold, collateral, 1_200, 3)
        sim = _adaptive_gain_by_auctions(dist, threshold, collateral, 1_200, 3)
        assert vec == sim, (dist, threshold, collateral)


def test_adaptive_gain_infinite_threshold_is_zero():
    est = estimate_adaptive_gain(GPA, math.inf, 2.0, 10_000, 0)
    assert est.mean == 0.0 and est.std_error == 0.0
    assert adaptive_gain_quadrature(GPA, math.inf, 2.0) == 0.0


def test_adaptive_gain_refuses_too_few_samples_on_an_empty_stratum():
    for samples in (-3, 0, 999):
        with pytest.raises(ValueError, match="samples must be >= 1000"):
            estimate_adaptive_gain(GPA, math.inf, 2.0, samples, 0)
    with pytest.raises(ValueError, match="^samples must be an integer, got 1000.0$"):
        estimate_adaptive_gain(GPA, math.inf, 2.0, 1000.0, 0)


def test_attack_sweep_rows_are_the_simulate_engines():
    # the sweep runs the vector engine; each row equals the reference engine's
    # estimate at the row's own seed, bit for bit, with an f at which v_A + f rounds
    thresholds = [2.0, 5.0]
    for row, (i, threshold) in zip(attack_sweep(GPA, 0.3, thresholds, 1_500, 0),
                                   enumerate(thresholds)):
        assert row.estimate == _adaptive_gain_by_auctions(GPA, threshold, 0.3, 1_500,
                                                          derive_seed(0, "T", i))


def test_adaptive_gain_rejects_threshold_below_reserve():
    with pytest.raises(ValueError):
        estimate_adaptive_gain(GPA, 0.5, 2.0, 10_000, 0)
    with pytest.raises(ValueError):
        adaptive_gain_quadrature(GPA, 0.5, 2.0)
    with pytest.raises(ValueError):
        estimate_adaptive_gain(GPA, math.nan, 2.0, 10_000, 0)
    with pytest.raises(ValueError):
        adaptive_gain_quadrature(GPA, math.nan, 2.0)
    for collateral in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError):
            estimate_adaptive_gain(GPA, 5.0, collateral, 4096, 0)
        with pytest.raises(ValueError):
            adaptive_gain_quadrature(GPA, 5.0, collateral)
        with pytest.raises(ValueError):
            config_for(GPA, 2, collateral)
    from drasim import EqualRevenue
    with pytest.raises(InfiniteReserveError):
        estimate_adaptive_gain(EqualRevenue(), 5.0, 2.0, 10_000, 0)


def test_stratified_matches_quadrature():
    for threshold in (2.0, 5.0, 10.0):
        est = estimate_adaptive_gain(GPA, threshold, 2.0, 1 << 21, 9)
        quad = adaptive_gain_quadrature(GPA, threshold, 2.0)
        assert abs(est.mean - quad) <= 3.5 * est.std_error


def plain_adaptive_gain(dist, threshold, collateral, samples, seed):
    """The adaptive gain by plain Monte Carlo: the paired difference of the deviation
    and honest play on unconditioned profiles, with no stratum and no prune."""
    return estimate_paired_difference(config_for(dist, 2, collateral, mode="centralized"),
                                      AdaptiveReserve(threshold), Honest(), samples, seed)


def test_stratified_and_plain_estimators_agree():
    # threshold with P[v_A >= T] ~ 0.1 so the plain estimator still sees the event
    threshold = float(GPA.isf(0.1))
    strat = estimate_adaptive_gain(GPA, threshold, 2.0, 400_000, 21)
    plain = plain_adaptive_gain(GPA, threshold, 2.0, 400_000, 22)
    combined = math.hypot(strat.std_error, plain.std_error)
    assert abs(strat.mean - plain.mean) <= 3.0 * combined


def test_exponential_gain_nonpositive_everywhere():
    for threshold in (1.0, 2.0, 5.0, 10.0):
        quad = adaptive_gain_quadrature(Exponential(1.0), threshold, 1.0)
        assert quad <= 0.0
        est = estimate_adaptive_gain(Exponential(1.0), threshold, 1.0, 1 << 20, 2)
        assert est.mean <= 3.0 * est.std_error


def test_exponential_gain_matches_its_closed_form():
    # For T at or above the reserve 1/rate: P[v_B >= v_A + f] - P[v_A <= v_B < v_A + f]
    # is (2 e^(-rate f) - 1) e^(-rate v_A), so the gain is f (2 e^(-rate f) - 1) e^(-2 rate T) / 2
    for rate in (0.5, 1.0, 2.0):
        dist = Exponential(rate)
        for collateral in (0.25, 0.5, 1.0, 2.0):
            for threshold in (1.0 / rate, 1.5 / rate, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
                exact = (collateral * (2.0 * math.exp(-rate * collateral) - 1.0)
                         * math.exp(-2.0 * rate * threshold) / 2.0)
                quad = adaptive_gain_quadrature(dist, threshold, collateral)
                assert quad == pytest.approx(exact, rel=1e-13, abs=0.0), (rate, collateral,
                                                                          threshold)


def test_adaptive_gain_pinned_bits():
    # float.hex of estimates made before the vector engine skipped the rows with
    # v_B <= v_A: skipping them changes no bit of a mean or standard error
    pinned = [(GPA, 2.0, [2.0, 5.0, 100.0], ["0x1.2700000000000p-9 0x1.693101c1ffee8p-12",
                                            "0x1.1d7829cbc14e5p-9 0x1.0d95e89681b0dp-14",
                                            "0x1.024384c607489p-23 0x1.42a5c58c7d640p-26"]),
              (Exponential(1.0), 1.0, [1.0, 2.0], ["-0x1.1f214160affd6p-6 0x1.3ffbf1fca7e7dp-12",
                                                   "-0x1.3a0ba78292d01p-9 0x1.1efb4339d07e1p-14"])]
    for dist, collateral, thresholds, expected in pinned:
        rows = attack_sweep(dist, collateral, thresholds, 1 << 18, 0)
        assert [f"{r.estimate.mean.hex()} {r.estimate.std_error.hex()}" for r in rows] == expected
    # the plain estimate of the same gain: no stratum and no prune
    plain = plain_adaptive_gain(GPA, 3.0, 2.0, 200_001, 4)
    assert (plain.mean.hex(), plain.std_error.hex()) == ("0x1.5bfe924f9a514p-8",
                                                         "0x1.0b9f3e77a8e1dp-11")


def test_attack_sweep_rows():
    rows = attack_sweep(GPA, 2.0, [2.0, 5.0, 100.0], 1 << 20, 0)
    assert [r.threshold for r in rows] == [2.0, 5.0, 100.0]
    assert any(r.significant for r in rows)
    for r in rows:
        assert r.quadrature > 0.0


# ---------------------------------------------------------------------------
# Credibility suite
# ---------------------------------------------------------------------------

def test_credibility_suite_passes_with_formula_collateral():
    quantiles = 1.0 - np.geomspace(0.9, 0.005, 8)
    report = credibility_suite(GPA, alpha=0.5, n=2, deviation_quantiles=quantiles,
                               samples=150_000, seed=31)
    assert report.collateral == pytest.approx(32.0, abs=1e-6)
    assert report.optimal_revenue == pytest.approx(23.0 / 24.0, abs=1e-8)
    assert len(report.rows) == 1 + 2 * len(quantiles)
    assert report.all_pass, report.violations
    honest_row = report.rows[0]
    assert abs(honest_row.estimate.mean - report.optimal_revenue) \
        <= 3.0 * honest_row.estimate.std_error


def test_credibility_suite_benchmark_at_n5_is_the_quadrature():
    # the benchmark of an n = 5 suite is the quadrature Rev(D^5), not an estimate with
    # its own noise: 0.016 of Monte Carlo error would shift every row's bound
    report = credibility_suite(GPA, 0.5, 5, [0.9], 1_000, 0)
    assert report.optimal_revenue == pytest.approx(2.140469990079363, abs=1e-9)


def test_credibility_suite_flags_reduced_collateral():
    # with 1% of the formula deposit, withholding shills beat the benchmark
    quantiles = [0.8, 0.9, 0.95, 0.99]
    report = credibility_suite(GPA, alpha=0.5, n=2, deviation_quantiles=quantiles,
                               samples=150_000, seed=37, collateral_override=0.32)
    assert report.violations
    assert any("withhold" in v for v in report.violations)


def _two_or_more(n: int, p: float, q: float) -> float:
    """P(at least two of n values fall in a set of probability p and the rest in a
    disjoint set of probability q), summed from positive terms: no cancellation."""
    return sum(math.comb(n, k) * p ** k * q ** (n - k) for k in range(2, n + 1))


def _one_bid_revenue(dist, n: int, collateral: float, bid: float, withhold: bool) -> float:
    """The exact mean auctioneer net, by quadrature, for n truthful buyers with values
    from dist against a shill whose one false bid is `bid`, written from dist.sf alone;
    at bid = reserve and withhold False, the promised auction's Rev(D^n).

    With r the reserve and F = 1 - sf, the always net for b > r is max(second, b) on
    {top >= b}, whose mean is b P(top >= b) + the integral over [b, inf) of
    P(second > x). Withholding where top < b adds max(r, second) on {r < top < b},
    whose mean is r (F(b)^n - F(r)^n) + the integral over [r, b] of P(second > x,
    top < b), and forfeits f F(b)^n. For b <= r the always net is the promised one."""
    from scipy.integrate import quad

    reserve = reserve_price(dist)
    sf = lambda x: float(dist.sf(x))  # noqa: E731

    def integral(integrand, lower, upper):
        value, error = quad(integrand, lower, upper, epsabs=1e-13, epsrel=1e-11, limit=200)
        assert error <= 1e-10
        return value

    def always(b):
        return (-b * math.expm1(n * math.log1p(-sf(b)))
                + integral(lambda x: _two_or_more(n, sf(x), 1.0 - sf(x)), b, math.inf))

    below_bid = (1.0 - sf(bid)) ** n  # P(top < b): the false bid outbids every buyer
    if bid <= reserve:
        return always(reserve) - (collateral * below_bid if withhold else 0.0)
    if not withhold:
        return always(bid)
    band = integral(lambda x: _two_or_more(n, sf(x) - sf(bid), 1.0 - sf(x)), reserve, bid)
    return (always(bid) + reserve * (below_bid - (1.0 - sf(reserve)) ** n) + band
            - collateral * below_bid)


def test_every_credibility_row_lies_within_3_se_of_its_exact_value():
    # the shipped credibility config, every row checked against its own exact mean,
    # not only against Rev(D^n) + 3 SE: a kernel that lowered a shill's net would pass
    # that bound
    setup = ExperimentSetup(json.loads((CONFIGS / "credibility.json").read_text()))
    report = credibility_suite(setup.dist, setup.alpha, setup.n, setup.deviation_quantiles,
                               setup.samples, setup.seed)
    exact = [_one_bid_revenue(setup.dist, setup.n, report.collateral, reserve_price(setup.dist),
                              False)]
    for u in setup.deviation_quantiles:
        bid = float(setup.dist.quantile(u))
        exact += [_one_bid_revenue(setup.dist, setup.n, report.collateral, bid, withhold)
                  for withhold in (False, True)]
    assert exact[0] == pytest.approx(report.optimal_revenue, rel=1e-9)
    assert len(report.rows) == len(exact) == 41
    z = [(row.estimate.mean - value) / row.estimate.std_error
         for row, value in zip(report.rows, exact)]
    assert max(map(abs, z)) <= 3.0, [(row.strategy, round(x, 2))
                                     for row, x in zip(report.rows, z) if abs(x) > 3.0]


def assert_rows_are_separate_estimates(report, dist, n, quantiles, samples, seed):
    """Each row of the report has the bits of estimate_revenue of its strategy alone,
    which prices one function on whole chunks."""
    config = config_for(dist, n, report.collateral)
    strategies = [Honest()] + [ShillBroadcast((float(dist.quantile(u)),), policy)
                               for u in quantiles
                               for policy in (ALWAYS_REVEAL, WITHHOLD_IF_WINNING)]
    assert len(report.rows) == len(strategies)
    for row, strategy in zip(report.rows, strategies):
        assert row.strategy == strategy.describe()
        assert bits(row.estimate) == bits(estimate_revenue(config, strategy, samples, seed))


@pytest.mark.parametrize("n", [1, 3])
def test_credibility_rows_match_separate_estimates(n):
    # one pass over the profiles for all strategies changes no bit of any row
    quantiles = [0.2, 0.9, 0.99]
    report = credibility_suite(GPA, alpha=0.5, n=n, deviation_quantiles=quantiles,
                               samples=70_000, seed=41, collateral_override=0.5)
    assert_rows_are_separate_estimates(report, GPA, n, quantiles, 70_000, 41)


@pytest.mark.parametrize("samples", [2 * CHUNK_SAMPLES + 1_000, 40_000])
def test_credibility_rows_priced_in_halves_equal_whole_chunk_estimates(samples):
    # the shipped grid of 41 strategies, each chunk priced in two halves: at
    # 2 * CHUNK_SAMPLES + 1,000, two full chunks and a 1,000-row one split at 496
    quantiles = json.loads((CONFIGS / "credibility.json").read_text())["deviation_quantiles"]
    report = credibility_suite(GPA, alpha=0.5, n=2, deviation_quantiles=quantiles,
                               samples=samples, seed=7)
    assert len(report.rows) == 41
    assert_rows_are_separate_estimates(report, GPA, 2, quantiles, samples, 7)


@pytest.mark.parametrize("level", [-0.1, 0.0, 1.0, 1.5, math.nan])
def test_credibility_suite_refuses_a_deviation_quantile_outside_the_open_unit_interval(level):
    # by the rule the config applies, before any level becomes a bid: no negative or
    # zero bid is priced, and level 1 raises no divide-by-zero warning first (which
    # the tests' warning filter would raise in place of the ValueError)
    with pytest.raises(ValueError, match=r"deviation_quantiles\[1\] must lie in \(0, 1\)"):
        credibility_suite(GPA, 0.5, 2, [0.5, level], 1_000, 0)


def test_credibility_rows_with_a_bid_at_the_reserve_equal_separate_estimates():
    # exponential(1)'s quantile of this level is its bisected reserve to the last bit:
    # that bid's always row takes the honest row's estimate, and every row after it
    # must still be its own strategy's
    exp, at_reserve = Exponential(1.0), 0.6321205590796548
    assert float(exp.quantile(at_reserve)) == reserve_price(exp)
    quantiles = [0.3, at_reserve, 0.9]
    report = credibility_suite(exp, alpha=0.5, n=2, deviation_quantiles=quantiles,
                               samples=40_000, seed=5, collateral_override=1.0)
    assert_rows_are_separate_estimates(report, exp, 2, quantiles, 40_000, 5)
    assert bits(report.rows[3].estimate) == bits(report.rows[0].estimate)


def test_paired_difference_is_exactly_paired():
    config = config_for(GPA, 2, 32.0)
    a = ShillBroadcast((3.0,), ALWAYS_REVEAL)
    diff = estimate_paired_difference(config, a, a, 30_000, 3)
    assert diff.mean == 0.0 and diff.std_error == 0.0


def test_paired_estimates_of_two_kernels_pinned_bits():
    # float.hex of three-chunk estimates made when every kernel call returned a new
    # array. The two strategies of a paired difference, and the honest net and the
    # allocated virtual value of the Myerson gap, are priced on one chunk, whose work
    # arrays the second kernel call may reuse: the first net must be held apart.
    config = config_for(GPA, 2, 2.0)
    samples = 2 * CHUNK_SAMPLES + 1
    shill = ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    pinned = [
        (estimate_paired_difference(config, shill, Honest(), samples, 43),
         "-0x1.27d0324db14d0p+0 0x1.dd40ca993c493p-9"),
        (estimate_paired_difference(config, Honest(), shill, samples, 43),
         "0x1.27d0324db14d0p+0 0x1.dd40ca993c493p-9"),
        (estimate_myerson_gap(config, samples, 43), "0x1.001c61fb8ed7ap-5 0x1.1724a06793ad3p-7"),
        (estimate_myerson_gap(config_for(GPA, 3, 2.0), samples, 43),
         "0x1.fccabc89ad1eep-6 0x1.80a7dbecfa74fp-7"),
    ]
    for est, expected in pinned:
        assert est.samples == samples
        assert f"{est.mean.hex()} {est.std_error.hex()}" == expected


def test_top_two_runs_once_per_chunk(monkeypatch):
    from drasim import strategies

    top_two, sizes = strategies._top_two, []

    def counting(values, *out):
        sizes.append(len(values))
        return top_two(values, *out)

    monkeypatch.setattr(strategies, "_top_two", counting)
    samples, half = 2 * CHUNK_SAMPLES + 1, CHUNK_SAMPLES // 2
    report = credibility_suite(GPA, alpha=0.5, n=2, deviation_quantiles=[0.2, 0.9, 0.99],
                               samples=samples, seed=41)
    assert len(report.rows) == 7  # honest and two policies for each of three false bids
    # in the order the chunks arrive; seven functions price each full chunk in halves,
    # and a chunk of 128 rows or fewer whole
    assert sorted(sizes) == [1, half, half, half, half]
    sizes.clear()
    estimate_myerson_gap(config_for(GPA, 2, 2.0), samples, 43)
    assert sorted(sizes) == [1, CHUNK_SAMPLES, CHUNK_SAMPLES]  # one function: whole chunks


def test_chunk_work_arrays_are_keyed_by_name_and_dtype():
    chunk = Chunk(np.zeros((4, 2)))
    mask, weights = chunk.work("mask", bool), chunk.work("mask")
    assert (mask.dtype, weights.dtype) == (np.dtype(bool), np.dtype(float))
    assert not np.shares_memory(mask, weights)
    assert np.shares_memory(chunk.work("mask", bool), mask)
    assert np.shares_memory(chunk.work("mask", np.float64), weights)
    assert len(chunk.load(np.zeros((3, 2))).work("mask", bool)) == 3
    # a longer chunk drops the short work arrays: a loop's short last chunk may come first
    assert len(chunk.load(np.zeros((5, 2))).work("mask", bool)) == 5
    assert not np.shares_memory(chunk.work("mask", bool), mask)


def test_vector_path_is_checked_once_per_estimate(monkeypatch):
    from drasim.strategies import TwoPhase

    check_config, configs = TwoPhase.check_config, []

    def counting(self, config):
        configs.append(config)
        return check_config(self, config)

    monkeypatch.setattr(TwoPhase, "check_config", counting)
    estimate_revenue(config_for(GPA, 2, 2.0), Honest(), 2 * CHUNK_SAMPLES + 1, 5)
    assert len(configs) == 1  # three chunks, one check

# ---------------------------------------------------------------------------
# The chunk loop: a helper thread draws whole chunks ahead, the estimates stay serial
# ---------------------------------------------------------------------------

PIPELINE_SAMPLES = [1_000, CHUNK_SAMPLES, CHUNK_SAMPLES + 1, 3 * CHUNK_SAMPLES + 999]


def serial_estimate(seed, samples, cols, per_chunk):
    """The reference loop: chunk_uniforms for every chunk, in order, on this thread."""
    stream = _value_stream_seed(seed)
    acc = ChunkAccumulator()
    for chunk, start, stop in chunk_bounds(samples):
        acc.add(per_chunk(chunk_uniforms(stream, chunk, stop - start, cols)), start)
    return acc.result()


def bits(est):
    return est.mean.hex(), est.std_error.hex(), est.samples


def fresh_philox_rows(key, chunk, rows, cols):
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, chunk])).random(
        (rows, cols))


@pytest.mark.parametrize("key", [0, 2**63, 2**64 - 1])
def test_fill_uniforms_equals_a_fresh_philox_draw(key):
    for cols in (1, 2, 3, 8):
        buffer = np.empty((CHUNK_SAMPLES, cols))  # a pooled buffer, reused across chunks
        for chunk, rows in ((0, CHUNK_SAMPLES), (5, CHUNK_SAMPLES), (6, 999)):
            expected = fresh_philox_rows(key, chunk, rows, cols)
            out = buffer[:rows]
            assert fill_uniforms(key, chunk, out) is out
            assert np.array_equal(out, expected)
            # a row's values do not depend on how many rows are drawn
            assert np.array_equal(fill_uniforms(key, chunk, np.empty((5, cols))), expected[:5])
            assert np.array_equal(chunk_uniforms(key, chunk, rows, cols), expected)


def test_fill_uniforms_refuses_what_philox_refuses():
    out = np.empty((4, 2))
    for key in (-1, -2**64, 2**128, 2**130):
        with pytest.raises(ValueError, match="key must be positive and less than 2"):
            np.random.Philox(key=key)
        with pytest.raises(ValueError, match="key must be positive and less than 2"):
            fill_uniforms(key, 0, out)
    for key in (2**64, 2**128 - 1, np.uint64(2**64 - 1)):  # accepted by both
        assert np.array_equal(fill_uniforms(key, 3, out), fresh_philox_rows(int(key), 3, 4, 2))


def test_concurrent_estimates_give_the_serial_bits():
    # two estimates at once, each with its helper: four threads draw and price the
    # chunks of two loops, switching every microsecond; a chunk lost, priced twice
    # or drawn into a buffer in use would change the bits
    samples, config = 3 * CHUNK_SAMPLES + 999, config_for(GPA, 3, 2.0)
    strategy = ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    calls = [lambda: estimate_revenue(config, strategy, samples, 41),
             lambda: estimate_adaptive_gain(GPA, 2.0, 2.0, samples, 43)]
    serial = [bits(call()) for call in calls]
    results = [None] * len(calls)

    def run(i):
        results[i] = bits(calls[i]())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def test_failure_in_the_callers_fill_propagates_and_joins_the_helper(monkeypatch):
    before = threading.active_count()
    caller = threading.current_thread()
    caller_failed = threading.Event()

    def fill(seed, chunk_index, out):
        if threading.current_thread() is caller:
            caller_failed.set()
            raise RuntimeError("caller's fill")
        caller_failed.wait(timeout=10)  # hold the helper at its first chunk
        return fill_uniforms(seed, chunk_index, out)

    monkeypatch.setattr(estimators, "fill_uniforms", fill)
    with pytest.raises(RuntimeError, match="caller's fill"):
        _estimate(3, 3 * CHUNK_SAMPLES, 2, lambda u: u, lambda chunk, start: chunk.values[:, 0])
    assert caller_failed.is_set()
    assert threading.active_count() == before


def test_failure_in_the_helpers_fill_reaches_the_caller_and_joins_the_helper(monkeypatch):
    # the helper dies on the first chunk it takes; the caller, which draws the rest,
    # must not wait for that chunk for ever. The estimate runs on a thread of its
    # own, so that a caller left waiting fails the test instead of hanging it
    before = threading.active_count()
    caller, helper_failed, raised = [], threading.Event(), []

    def fill(seed, chunk_index, out):
        if threading.current_thread() not in caller:
            helper_failed.set()
            raise RuntimeError("helper's fill")
        helper_failed.wait(timeout=10)  # let the helper take a chunk first
        return fill_uniforms(seed, chunk_index, out)

    def estimate():
        caller.append(threading.current_thread())
        try:
            _estimate(3, 3 * CHUNK_SAMPLES, 2, lambda u: u,
                      lambda chunk, start: chunk.values[:, 0])
        except RuntimeError as exc:
            raised.append(str(exc))

    monkeypatch.setattr(estimators, "fill_uniforms", fill)
    thread = threading.Thread(target=estimate, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert raised == ["helper's fill"]
    assert threading.active_count() == before


def test_the_adaptive_kernel_reads_its_constants_once_per_estimate(monkeypatch):
    # the stratum's weight and the reserve are read once per estimate, however many
    # chunks it has: v_A is isf of the pruned rows' survival, which that weight scales
    calls = []
    sf, reserve = GeneralizedPareto.sf, estimators.reserve_price
    monkeypatch.setattr(GeneralizedPareto, "sf", lambda d, x: calls.append("sf") or sf(d, x))
    monkeypatch.setattr(estimators, "reserve_price", lambda d: calls.append("r") or reserve(d))
    counts = []
    for samples in (CHUNK_SAMPLES, 3 * CHUNK_SAMPLES):
        calls.clear()
        estimate_adaptive_gain(GPA, 5.0, 2.0, samples, 0)
        counts.append((calls.count("sf"), calls.count("r")))
    assert counts == [(1, 1), (1, 1)]


def test_the_chunk_loop_draws_into_one_pool_of_three_buffers(monkeypatch):
    # the caller and the helper draw every chunk into the same three buffers
    config, strategy = config_for(GPA, 3, 2.0), ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    estimates = [lambda: estimate_revenue(config, strategy, 5 * CHUNK_SAMPLES, 37),
                 lambda: estimate_adaptive_gain(GPA, 5.0, 2.0, 2 * CHUNK_SAMPLES + 1, 37)]
    expected = [bits(estimate()) for estimate in estimates]
    drawn = []

    def fill(seed, chunk_index, out):
        drawn.append((chunk_index, out.__array_interface__["data"][0]))
        return fill_uniforms(seed, chunk_index, out)

    monkeypatch.setattr(estimators, "fill_uniforms", fill)
    for estimate, chunks in zip(estimates, (5, 3)):
        drawn.clear()
        assert bits(estimate()) == expected.pop(0)
        assert sorted(k for k, _ in drawn) == list(range(chunks))
        assert len({buffer for _, buffer in drawn}) <= 3


def test_a_short_last_chunk_priced_first_gives_the_serial_bits(monkeypatch):
    # the helper is handed chunk 1 first and holds it until the caller has drawn, and
    # the one-row chunk 2 is handed on only once the helper has begun chunk 1: the
    # caller draws and prices the one-row chunk first, and the full chunks after it
    # must grow the Chunk's work arrays
    samples, seed, threshold, collateral = 2 * CHUNK_SAMPLES + 1, 31, 5.0, 2.0
    strategy = ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    config = config_for(GPA, 3, 2.0)
    kernel = _pricing(config, strategy, seed)
    weight = float(GPA.sf(threshold))
    cond = serial_estimate(seed, samples, 2, lambda u: adaptive_net_delta(
        _attack_profiles(GPA, threshold, u), R, threshold, collateral))
    expected = [
        bits(serial_estimate(seed, samples, 3, lambda u: kernel(Chunk(GPA.quantile(u)), 0))),
        bits(Estimate(mean=weight * cond.mean, std_error=weight * cond.std_error,
                      samples=cond.samples)),
    ]
    drawn = []
    caller = threading.current_thread()
    helper_began, caller_drew = threading.Event(), threading.Event()

    def fill(seed, chunk_index, out):
        if threading.current_thread() is not caller:  # the helper waits for the caller
            helper_began.set()
            caller_drew.wait(timeout=10)
        drawn.append(chunk_index)
        caller_drew.set()
        return fill_uniforms(seed, chunk_index, out)

    def bounds(n):
        first, second, short = chunk_bounds(n)
        yield second
        helper_began.wait(timeout=10)
        yield short
        yield first

    monkeypatch.setattr(estimators, "chunk_bounds", bounds)
    monkeypatch.setattr(estimators, "fill_uniforms", fill)
    for estimate in (lambda: estimate_revenue(config, strategy, samples, seed),
                     lambda: estimate_adaptive_gain(GPA, threshold, collateral, samples, seed)):
        drawn.clear()
        helper_began.clear()
        caller_drew.clear()
        assert bits(estimate()) == expected.pop(0)
        assert drawn[0] == 2 and sorted(drawn) == [0, 1, 2]


@pytest.mark.parametrize("samples", PIPELINE_SAMPLES)
def test_pipelined_estimates_equal_the_serial_loop(samples):
    seed = 29
    strategy = ShillBroadcast((3.0,), WITHHOLD_IF_WINNING)
    for n in (1, 3, 8):
        config = config_for(GPA, n, 2.0)
        expected = serial_estimate(
            seed, samples, n,
            lambda u: _pricing(config, strategy, seed)(Chunk(GPA.quantile(u)), 0))
        assert bits(estimate_revenue(config, strategy, samples, seed)) == bits(expected)
    threshold, collateral, reserve = 5.0, 2.0, R
    weight = float(GPA.sf(threshold))
    cond = serial_estimate(seed, samples, 2, lambda u: adaptive_net_delta(
        _attack_profiles(GPA, threshold, u), reserve, threshold, collateral))
    expected = Estimate(mean=weight * cond.mean, std_error=weight * cond.std_error,
                        samples=cond.samples)
    got = estimate_adaptive_gain(GPA, threshold, collateral, samples, seed)
    assert bits(got) == bits(expected)


def test_chunk_loop_failure_propagates_and_joins_the_helper():
    before = threading.active_count()

    def fails_on_chunk_2(chunk, start):
        if start == 2 * CHUNK_SAMPLES:
            raise RuntimeError("chunk 2")
        return chunk.values[:, 0]

    with pytest.raises(RuntimeError, match="chunk 2"):
        _estimate(3, 4 * CHUNK_SAMPLES, 2, lambda u: u, fails_on_chunk_2)
    assert threading.active_count() == before

    def counts_threads(seen):
        def net(chunk, start):
            seen.append(threading.active_count())
            return chunk.values[:, 0]
        return net

    one_chunk, three_chunks = [], []
    _estimate(3, CHUNK_SAMPLES, 2, lambda u: u, counts_threads(one_chunk))
    _estimate(3, 3 * CHUNK_SAMPLES, 2, lambda u: u, counts_threads(three_chunks))
    assert one_chunk == [before]  # a one-chunk estimate starts no thread
    assert len(three_chunks) == 3 and max(three_chunks) <= before + 1  # one helper at most
    assert threading.active_count() == before  # joined


def test_import_and_one_chunk_estimates_load_no_executor():
    # the executor is imported by the first estimate of more than one chunk, so
    # neither `import drasim` nor a one-chunk estimate loads it, or logging with it
    src = str(Path(estimators.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, drasim\n"
            "loaded = lambda: ['concurrent.futures' in sys.modules, 'logging' in sys.modules]\n"
            "print(loaded())\n"
            "drasim.credibility_suite(drasim.GeneralizedPareto(0.5), 0.5, 2, [0.9], 1000, 0)\n"
            "print(loaded())\n"
            "drasim.credibility_suite(drasim.GeneralizedPareto(0.5), 0.5, 2, [0.9], 70000, 0)\n"
            "print(loaded())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split("\n") == ["[False, False]", "[False, False]", "[True, True]", ""]


def test_chunk_accumulation_is_order_insensitive():
    import numpy as np
    from drasim.estimate import ChunkAccumulator
    rng = np.random.default_rng(8)
    chunks = [rng.random(size) for size in (65536, 65536, 4096)]
    starts = [k * CHUNK_SAMPLES for k in range(len(chunks))]
    forward, backward = ChunkAccumulator(), ChunkAccumulator()
    for c, start in zip(chunks, starts):
        forward.add(c, start)
    for c, start in zip(reversed(chunks), reversed(starts)):
        backward.add(c, start)
    assert forward.result() == backward.result()


@pytest.mark.parametrize("n", [129, 130, 136, 1000, 18928, 34464, 65535, 65536])
def test_numpy_sums_an_array_as_its_two_halves_at_pairwise_split(n):
    # the split a chunk priced in halves relies on: np.add.reduce of n > 128 floats is
    # the sum of rows [0, h) plus that of rows [h, n). A numpy that sums otherwise
    # fails here by name. The data span twelve orders of magnitude, so that a split
    # eight rows off changes some sum
    assert pairwise_split(128) is None
    h = pairwise_split(n)
    assert h == n // 2 - (n // 2) % 8
    rng = np.random.default_rng(n)
    off_by_eight = 0
    for _ in range(20):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        for y in (x, np.square(x)):
            whole = np.add.reduce(y)
            assert whole == np.add.reduce(y[:h]) + np.add.reduce(y[h:])
            off_by_eight += whole != np.add.reduce(y[:h + 8]) + np.add.reduce(y[h + 8:])
    assert off_by_eight > 0


def test_each_half_is_priced_with_its_own_start():
    # the auction pricing seeds profile start + k's run by its index in the stream
    seen = []

    def record_twice(chunk, start):
        for _ in range(2):
            seen.append((start, len(chunk.values)))
            yield chunk.values[:, 0]

    _estimate_each(3, 2 * CHUNK_SAMPLES + 1_000, 2, lambda u: u, 2, record_twice)
    half = CHUNK_SAMPLES // 2
    halves = [(0, half), (half, half), (CHUNK_SAMPLES, half), (CHUNK_SAMPLES + half, half),
              (2 * CHUNK_SAMPLES, 496), (2 * CHUNK_SAMPLES + 496, 504)]
    assert sorted(set(seen)) == halves and len(seen) == 2 * len(halves)


def test_halves_added_in_any_order_give_the_bits_of_the_chunks_added_whole():
    # the accumulator joins a chunk's halves by their starts, not by when they come:
    # every order of the six halves, those where a chunk's two halves are apart or
    # come second half first included, gives the bits of the three whole chunks
    rng = np.random.default_rng(0)
    chunks = [rng.standard_normal(size) * 1e3 for size in (65536, 1000, 18928)]
    whole, parts = ChunkAccumulator(), []
    for k, c in enumerate(chunks):
        start, h = k * CHUNK_SAMPLES, pairwise_split(len(c))
        whole.add(c, start)
        parts += [(c[:h], start), (c[h:], start + h)]
    expected = bits(whole.result())
    # the data bite: the exact sum of the six halves' sums is not that of the chunks'
    assert math.fsum(np.add.reduce(c) for c in chunks) != \
        math.fsum(np.add.reduce(values) for values, _ in parts)
    for order in itertools.permutations(parts):
        halves = ChunkAccumulator()
        for values, start in order:
            halves.add(values, start)
        assert bits(halves.result()) == expected


def test_estimate_invariants():
    values = np.random.default_rng(0).random(1000)
    one_chunk = ChunkAccumulator()
    one_chunk.add(values, 0)
    est = one_chunk.result()
    assert est.ci95 == (est.mean - 1.96 * est.std_error, est.mean + 1.96 * est.std_error)
    assert est.std_error == pytest.approx(np.std(values, ddof=1) / math.sqrt(1000), rel=1e-12)
    assert est.samples == 1000
    config = config_for(GPA, 2, 32.0)
    with pytest.raises(ValueError):
        estimate_revenue(config, Honest(), 999, 0)
    with pytest.raises(ValueError):
        estimate_paired_difference(config, Honest(), Honest(), 999, 0)
    with pytest.raises(ValueError):
        estimate_myerson_gap(config, 999, 0)
    with pytest.raises(ValueError):
        estimate_adaptive_gain(GPA, 5.0, 2.0, 999, 0)
    with pytest.raises(ValueError):
        check_conditional_bound(GPA, 0.5, 2.0, samples=999, seed=0)
    # a float count reached a slice bound or a range and died there with a TypeError
    for call, samples in [
            (lambda: estimate_revenue(config, Honest(), 100000.0, 0), "100000.0"),
            (lambda: estimate_adaptive_gain(GPA, 5.0, 2.0, 100000.0, 0), "100000.0"),
            (lambda: credibility_suite(GPA, 0.5, 2, [0.5], samples=1000.0, seed=0), "1000.0"),
            (lambda: attack_sweep(GPA, 2.0, [5.0], 1000.5, 0), "1000.5")]:
        with pytest.raises(ValueError, match=f"^samples must be an integer, got {samples}$"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_value_makes_the_estimate_raise(bad):
    # a NaN mean came back with std_error max(0.0, nan) = 0.0, which a 3-SE gate passed
    values = np.random.default_rng(0).random(1000)
    values[17] = bad
    acc = ChunkAccumulator()
    acc.add(values, 0)
    with pytest.raises(FloatingPointError):
        acc.result()


@pytest.mark.parametrize("first, second", [(1.2e154, 1.2e154), (math.inf, -math.inf)])
def test_chunk_sums_that_cannot_be_added_make_the_estimate_raise(first, second):
    # two finite sums of squares, 1.44e308 each, overflow math.fsum; a sum of inf and
    # one of -inf make it raise ValueError
    acc = ChunkAccumulator()
    acc.add(np.array([first]), 0)
    acc.add(np.array([second]), CHUNK_SAMPLES)
    with pytest.raises(FloatingPointError, match="non-finite estimate over 2 samples"):
        acc.result()


def test_conditional_bound_draws_the_seeds_value_stream():
    # one chunk: v_i = sample_tail(t, u_i) of the value stream's uniforms; lhs is the
    # mean of v, rhs adds the mean of the paired gap, and the slack is 3 of its SEs
    n, alpha, t = 4096, 0.25, 2.0 * R
    v = GPA.sample_tail(t, chunk_uniforms(_value_stream_seed(5), 0, n, 1)[:, 0])
    gap = virtual_value(GPA, v) / alpha + R - v
    res = check_conditional_bound(GPA, alpha, t, samples=n, seed=5)
    assert res.lhs == pytest.approx(np.mean(v), rel=1e-14)
    assert res.rhs - res.lhs == pytest.approx(np.mean(gap), rel=1e-12)
    assert res.slack == pytest.approx(3.0 * np.std(gap, ddof=1) / math.sqrt(n), rel=1e-9)
    assert res.slack > 0.0 and res.holds


@pytest.mark.parametrize("dist, alpha, closed_form_reserve", [
    (GeneralizedPareto(0.5), 0.5, 2.0),
    (GeneralizedPareto(0.25), 0.75, 1.0 / 0.75),
    (Exponential(1.0), 1.0, 1.0),
])
@pytest.mark.parametrize("mult", [1.0, 2.0])
def test_tight_conditional_bounds_measure_the_reserves_bisection_error(
        dist, alpha, closed_form_reserve, mult):
    # at alpha = alpha_max, phi(v) / alpha is v less the closed-form reserve, so the
    # check's per-sample gap phi(v) / alpha + r - v is the constant r - r_true: the
    # bisection's error, above zero as reserve_price returns the bracket's upper end,
    # and the check holds only by that. The float error of each sample's gap is a
    # few ulp of v / alpha, scaled by |log pdf(v)|, as pdf and sf are exponentials.
    r = reserve_price(dist)
    v = dist.sample_tail(mult * r, chunk_uniforms(_value_stream_seed(9), 0, CHUNK_SAMPLES, 1)[:, 0])
    gap = virtual_value(dist, v) / alpha + r - v
    tol = 4.0 * np.spacing(v / alpha) * (1.0 + np.abs(np.log(dist.pdf(v))))
    assert 0.0 < r - closed_form_reserve <= ROOT_TOL
    assert gap.max() - gap.min() <= 2.0 * tol.max()
    assert np.all(np.abs(gap - (r - closed_form_reserve)) <= tol)


def test_conditional_bound_memory_is_bounded_by_the_chunk():
    # 2^22 draws in 64 chunks: the traced peak holds a few chunk-sized arrays, not
    # arrays of all the draws (one of them is 33.5 MB)
    import tracemalloc
    tracemalloc.start()
    try:
        check_conditional_bound(GPA, 0.5, 2.0, samples=1 << 22, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
