"""The invariant battery behind the `verify` subcommand, and run-audit helpers.

Each check is self-contained and returns a named pass/fail with a short
deterministic detail string (no timings, no environment), so a verify run is
byte-identical for a fixed config. Budgets are scaled by the config's verify
section; the shipped defaults keep the whole battery in the tens of seconds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .channels import AUCTIONEER
from .distributions import (
    Exponential,
    GeneralizedPareto,
    TwoPoint,
    Uniform,
    ValueDistribution,
    check_posted_price_bound,
    check_tail_bound,
    collateral as collateral_level,
    optimal_revenue,
    reserve_price,
    strong_regularity_alpha,
)
from .estimate import Estimate
from .estimators import (
    MIN_SAMPLES,
    attack_sweep,
    check_conditional_bound,
    credibility_suite,
    estimate_myerson_gap,
    estimate_paired_difference,
    estimate_revenue,
    sample_values,
)
from .protocol import (
    MONEY_TOL,
    AuctionConfig,
    Outcome,
    buyer_utility,
    conservation_residual,
    run_auction,
)
from .records import record
from .seeding import derive_seed
from .strategies import (
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    FixedBid,
    Honest,
    Lifted,
    ShillBroadcast,
    Truthful,
    commit_phase_payloads,
    false_commit_payloads,
    reveal_dominant_variant,
    summary_is_consistent,
    view_beta,
    view_summary,
)

__all__ = [
    "VerifyCheck",
    "VERIFY_BUDGETS",
    "run_verification",
    "audit_run",
    "sample_values",
    "coupling_matches",
    "strategyproofness_violations",
]


@record
class VerifyCheck:
    """One check of verify: its name, its verdict and the line that explains it."""

    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Per-run structural audit
# ---------------------------------------------------------------------------

@record
class AuditResult:
    """An audited run's outcome and the violations audit_run found in it; ok when none."""

    outcome: Outcome
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_run(config: AuctionConfig, buyers: Sequence, auctioneer) -> AuditResult:
    """Run one auction and check the per-run structural invariants: money
    conservation (conservation_residual, which the engine does not apply to its
    own runs) with a ledger that disposes of each committed id's deposit once,
    an auctioneer net equal to the sale and ledger flows into the auctioneer's
    ids (0 and those above n), the single-candidate bound, allocation consistency
    for the candidate, and the per-buyer view-consistency verdicts (for revealing
    buyers). Each view is parsed once; the committed ids are those the views
    show, false buyers' included, and the bids are the openings they show. Money
    and prices are compared as not abs(x - y) <= tolerance, so a NaN fails. A
    ledger that conservation_residual refuses is a violation of the run, so verify
    fails its check rather than crash.
    """
    outcome, transcript = run_auction(config, buyers, auctioneer)
    scheme = transcript.scheme
    committed, bids = set(), {}  # every id a view shows committed; the bids they show
    candidates, buyer_violations = [], []
    for i, view in transcript.buyer_views().items():
        summary = view_summary(view)
        committed.update(summary.commits)
        bids.update({bidder: opening.message for bidder, opening in summary.openings.items()})
        # The resolution rule's candidate comes from revealed bids only, so a
        # buyer who withholds is never one, whatever it committed to.
        buyer = buyers[i - 1]
        if buyer.reveals():
            bid, beta = float(buyer.bid()), view_beta(summary, config)
            if bid > beta:
                candidates.append(i)
                notice = summary.notice
                if (notice is None or notice.winner != i
                        or not abs(notice.price - beta) <= MONEY_TOL):
                    buyer_violations.append(
                        f"buyer {i}: bid {bid} above beta {beta} but notice {notice}"
                    )
        if not summary_is_consistent(summary, config, scheme):
            buyer_violations.append(f"buyer {i}: view fails consistency check")
    violations = []
    try:
        residual = conservation_residual(outcome, depositors=committed,
                                         collateral_amount=config.collateral)
    except AssertionError as ledger_fault:  # a violation of the run, not a crash
        violations.append(str(ledger_fault))
        residual = conservation_residual(outcome)
    if not abs(residual) <= MONEY_TOL:
        violations.append(f"money conservation residual {residual}")
    n, winner = config.n, outcome.winner
    inflow = []  # the sale and ledger flows into the auctioneer's ids
    if winner is not None:
        inflow.append(outcome.sale_price)
        if winner == AUCTIONEER or winner > n:  # paid by itself
            inflow.append(-outcome.sale_price)
    for entry in outcome.ledger:
        if entry.recipient == AUCTIONEER or entry.recipient > n:
            inflow.append(entry.amount)
        if entry.depositor == AUCTIONEER or entry.depositor > n:
            inflow.append(-entry.amount)
    expected_net = math.fsum(inflow)
    if not abs(outcome.auctioneer_net - expected_net) <= MONEY_TOL:
        violations.append(f"auctioneer net {outcome.auctioneer_net} != its inflow {expected_net}")
    if winner is not None:
        if winner not in outcome.revealed:
            violations.append("winner outside the counted reveal set")
        elif not bids.get(winner, -1.0) > config.reserve:
            violations.append("sale at or below the reserve")
        else:
            want = config.reserve  # and then the highest counted runner-up bid, if above it
            for bidder in outcome.revealed:
                if bidder != winner and bids[bidder] > want:
                    want = bids[bidder]
            if not abs(outcome.sale_price - want) <= MONEY_TOL:
                violations.append(
                    f"price {outcome.sale_price} != max(reserve, runner-up) {want}")
    violations += buyer_violations
    if len(candidates) > 1:
        violations.append(f"single-candidate violated: {candidates}")
    return AuditResult(outcome, tuple(violations))


def coupling_matches(config: AuctionConfig, auctioneer, values_a: Sequence[float],
                     values_b: Sequence[float]) -> bool:
    """False-bid commitment messages must not depend on buyer values.

    Two runs with the same config seed and different value profiles must emit
    identical false-buyer commit messages; with the ideal scheme the whole
    commitment-phase transcript prefix matches exactly.
    """
    _, t_a = run_auction(config, [Truthful(v) for v in values_a], auctioneer)
    _, t_b = run_auction(config, [Truthful(v) for v in values_b], auctioneer)
    if false_commit_payloads(t_a) != false_commit_payloads(t_b):
        return False
    if config.scheme == "ideal" and commit_phase_payloads(t_a) != commit_phase_payloads(t_b):
        return False
    return True


def strategyproofness_violations(dist: ValueDistribution, n: int, profiles: int,
                                 bid_grid: Sequence[float], seed: int) -> int:
    """Count (profile, buyer, bid) cells where a unilateral deviation beats truth,
    or where the two utilities do not compare (a NaN counts)."""
    reserve = reserve_price(dist)
    f_amount = collateral_level(dist, n, 1.0)
    config = AuctionConfig(n=n, dist=dist, reserve=reserve, collateral=f_amount,
                           mode="broadcast", seed=0)
    honest = Honest()
    bad = 0
    for p in range(profiles):
        values = sample_values(dist, n, derive_seed(seed, "sp", p))
        truthful = [Truthful(v) for v in values]
        base, _ = run_auction(config, truthful, honest)
        for i in range(1, n + 1):
            truth_util = buyer_utility(base, i, values[i - 1])
            for bid in bid_grid:
                deviated = list(truthful)
                deviated[i - 1] = FixedBid(value=values[i - 1], bid_amount=float(bid))
                out, _ = run_auction(config, deviated, honest)
                if not buyer_utility(out, i, values[i - 1]) <= truth_util:
                    bad += 1
    return bad


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------

_ALPHAS = (0.25, 0.5, 0.75)
_PRICE_MULTIPLES = (1.0, 2.0, 4.0, 8.0)


def _tally(name: str, cases: Iterable, noun: str, fault: str) -> VerifyCheck:
    """A counted check from its (label, passed) cases: "N <noun>, M <fault>", and
    after a failure ": " and the failing cases' labels."""
    cases = list(cases)
    failed = [label for label, passed in cases if not passed]
    detail = f"{len(cases)} {noun}, {len(failed)} {fault}"
    return VerifyCheck(name, not failed, detail + (": " + ",".join(failed) if failed else ""))


def _within_3se(est: Estimate, target: float) -> bool:
    """The estimate lies within 3 standard errors of target; a NaN does not."""
    return abs(est.mean - target) <= 3.0 * est.std_error


def _bound_cases(alphas: Sequence[float]):
    """(dist, alpha, reserve) for each bound family and each of alphas up to the
    family's regularity: 1 for exponential(1), 1 - k for gpareto(k)."""
    families = [(Exponential(1.0), 1.0)]
    families += [(GeneralizedPareto(k), 1.0 - k) for k in (0.25, 0.5, 0.75)]
    for dist, alpha_max in families:
        r = reserve_price(dist)
        for alpha in alphas:
            if alpha <= alpha_max + 1e-12:
                yield dist, alpha, r


def _check_price_bounds() -> list:
    """The tail and posted-price inequality grids, one check each."""
    grid = [(f"{dist!r}/alpha={alpha}/p={mult:g}r", dist, alpha, mult * r)
            for dist, alpha, r in _bound_cases(_ALPHAS) for mult in _PRICE_MULTIPLES]
    return [_tally(name, ((label, check(dist, alpha, p).holds) for label, dist, alpha, p in grid),
                   "cases", "failures")
            for name, check in (("tail_bound", check_tail_bound),
                                ("posted_price_bound", check_posted_price_bound))]


def _check_conditional_bounds(samples: int, seed: int) -> VerifyCheck:
    grid = [(f"{dist!r}/alpha={alpha}/t={mult:g}r", dist, alpha, mult * r)
            for dist, alpha, r in _bound_cases((0.25, 0.5, 0.75, 1.0)) for mult in (1.0, 2.0)]
    return _tally("conditional_bound", (
        (label, check_conditional_bound(dist, alpha, t, samples,
                                        derive_seed(seed, "cond", case)).holds)
        for case, (label, dist, alpha, t) in enumerate(grid, 1)), "cases", "failures")


def _check_reserve_and_alpha() -> VerifyCheck:
    problems = []
    if abs(reserve_price(Exponential(1.0)) - 1.0) > 1e-6:
        problems.append("exponential reserve")
    for k in (0.25, 0.5, 0.75):
        if abs(reserve_price(GeneralizedPareto(k)) - 1.0 / (1.0 - k)) > 1e-6:
            problems.append(f"gpareto({k}) reserve")
        rep = strong_regularity_alpha(GeneralizedPareto(k))
        if abs(rep.alpha_hat - (1.0 - k)) > 1e-6:
            problems.append(f"gpareto({k}) alpha")
    if abs(reserve_price(Uniform(0.0, 1.0)) - 0.5) > 1e-6:
        problems.append("uniform reserve")
    if not strong_regularity_alpha(Exponential(1.0)).is_mhr:
        problems.append("exponential mhr")
    rep = strong_regularity_alpha(TwoPoint())
    if rep.is_regular:
        problems.append("two_point regularity")
    f = collateral_level(GeneralizedPareto(0.5), 2, 0.5)
    if abs(f - 32.0) > 1e-6:
        problems.append(f"collateral formula ({f})")
    return VerifyCheck("reserve_and_alpha", not problems, ",".join(problems) or "closed forms match")


def _mc_families():
    return (Exponential(1.0), GeneralizedPareto(0.25), GeneralizedPareto(0.5))


def _auction_config(dist: ValueDistribution, n: int, mode: str = "broadcast",
                    collateral: Optional[float] = None) -> AuctionConfig:
    r = reserve_price(dist)
    f_amount = collateral if collateral is not None else max(r, 1.0)
    return AuctionConfig(n=n, dist=dist, reserve=r, collateral=f_amount, mode=mode, seed=0)


def _check_optimality(samples: int, seed: int) -> VerifyCheck:
    grid = itertools.product(_mc_families(), (1, 2))
    return _tally("optimality", (
        (f"{dist!r}/n={n}",
         _within_3se(estimate_revenue(_auction_config(dist, n), Honest(), samples,
                                      derive_seed(seed, "opt", case)),
                     optimal_revenue(dist, n).mean))
        for case, (dist, n) in enumerate(grid, 1)), "cases", "failures")


def _check_myerson_identity(samples: int, seed: int) -> VerifyCheck:
    grid = itertools.product(_mc_families(), (1, 2, 3))
    return _tally("myerson_identity", (
        (f"{dist!r}/n={n}",
         _within_3se(estimate_myerson_gap(_auction_config(dist, n), samples,
                                          derive_seed(seed, "mye", case)), 0.0))
        for case, (dist, n) in enumerate(grid, 1)), "cases", "failures")


def _check_strategyproofness(profiles: int, seed: int) -> VerifyCheck:
    grid = np.linspace(0.0, 8.0, 21)
    bad = strategyproofness_violations(Exponential(1.0), 3, profiles, grid, seed)
    return VerifyCheck("strategyproofness_grid", bad == 0,
                       f"{profiles} profiles x 3 buyers x 21 bids, {bad} violations")


def _check_credibility(samples: int, quantile_count: int, seed: int) -> VerifyCheck:
    dist = GeneralizedPareto(0.5)
    quantiles = 1.0 - np.geomspace(0.95, 0.0025, quantile_count)
    report = credibility_suite(dist, alpha=0.5, n=2, deviation_quantiles=quantiles,
                               samples=samples, seed=seed)
    return VerifyCheck("credibility_suite", report.all_pass,
                       f"{len(report.rows)} strategies, worst margin {report.worst_margin:.6g}")


def _check_reveal_dominance(samples: int, seed: int) -> VerifyCheck:
    dist = GeneralizedPareto(0.5)
    f_amount = collateral_level(dist, 2, 0.5)
    config = _auction_config(dist, 2, collateral=f_amount)

    def case(i, u):
        withhold = ShillBroadcast(false_bids=(float(dist.quantile(u)),),
                                  reveal_policy=WITHHOLD_IF_WINNING)
        diff = estimate_paired_difference(config, reveal_dominant_variant(withhold, f_amount),
                                          withhold, samples, derive_seed(seed, "dom", i))
        return withhold.describe(), diff.mean >= -3.0 * diff.std_error

    return _tally("reveal_dominance", itertools.starmap(case, enumerate(np.linspace(0.1, 0.99, 10))),
                  "strategies", "failures")


def _lift_strategies(dist: ValueDistribution):
    qs = (0.3, 0.6, 0.8, 0.95, 0.99)
    policies = (ALWAYS_REVEAL, WITHHOLD_IF_WINNING, ALWAYS_REVEAL,
                WITHHOLD_IF_WINNING, ALWAYS_REVEAL)
    shills = [ShillBroadcast(false_bids=(float(dist.quantile(u)),), reveal_policy=p)
              for u, p in zip(qs, policies)]
    return [Honest()] + shills


def _check_lift_equality(runs: int, seed: int) -> VerifyCheck:
    dist = GeneralizedPareto(0.5)
    config = _auction_config(dist, 2, collateral=collateral_level(dist, 2, 0.5))

    def case(strategy, j):
        run_seed = derive_seed(seed, "lift", strategy.describe(), j)
        buyers = [Truthful(v) for v in sample_values(dist, 2, run_seed)]
        cfg_b = replace(config, seed=run_seed)
        out_b, _ = run_auction(cfg_b, buyers, strategy)
        out_c, _ = run_auction(replace(cfg_b, mode="centralized"), buyers, Lifted(strategy))
        return f"{strategy.describe()}/run={j}", out_b == out_c

    return _tally("lift_equality", itertools.starmap(
        case, itertools.product(_lift_strategies(dist), range(runs))), "paired runs", "mismatches")


def _structural_deviations(dist: ValueDistribution):
    shill_bid = float(dist.quantile(0.9))
    return [
        ("honest", "broadcast", Honest()),
        ("shill_reveal", "broadcast", ShillBroadcast((shill_bid,), ALWAYS_REVEAL)),
        ("shill_withhold", "broadcast", ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING)),
        ("lifted_shill", "centralized", Lifted(ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING))),
        ("adaptive", "centralized", AdaptiveReserve(threshold=float(dist.quantile(0.8)))),
    ]


def _check_structural(runs: int, seed: int) -> VerifyCheck:
    dist = GeneralizedPareto(0.5)
    f_amount = 2.0
    violations = 0
    total = 0
    for name, mode, strategy in _structural_deviations(dist):
        config = _auction_config(dist, 2, mode=mode, collateral=f_amount)
        for j in range(runs):
            run_seed = derive_seed(seed, "struct", name, j)
            values = sample_values(dist, 2, run_seed)
            result = audit_run(replace(config, seed=run_seed),
                               [Truthful(v) for v in values], strategy)
            total += 1
            violations += len(result.violations)
        if name != "adaptive":
            # False-bid coupling applies to strategies whose false bids are
            # pinned before the commitment phase closes, not to the adaptive
            # deviation (whose false bid is the attack's point).
            if not coupling_matches(replace(config, seed=derive_seed(seed, "couple", name)),
                                    strategy,
                                    sample_values(dist, 2, derive_seed(seed, "vA", name)),
                                    sample_values(dist, 2, derive_seed(seed, "vB", name))):
                violations += 1
    return VerifyCheck("structural_invariants", violations == 0,
                       f"{total} audited runs, {violations} violations")


def _check_separation(samples: int, rel_tol: float, thresholds: Sequence[float],
                      seed: int) -> VerifyCheck:
    rows = attack_sweep(GeneralizedPareto(0.5), 2.0, thresholds, samples,
                        derive_seed(seed, "atk-gpa"))
    witnesses = [r for r in rows
                 if r.significant and r.oracle_rel_err is not None and r.oracle_rel_err <= rel_tol]
    exp_rows = attack_sweep(Exponential(1.0), 1.0, thresholds, samples,
                            derive_seed(seed, "atk-exp"))
    exp_ok = all(r.estimate.mean <= 3.0 * r.estimate.std_error for r in exp_rows)
    quad_ok = all(r.quadrature <= 0.0 for r in exp_rows)
    passed = bool(witnesses) and exp_ok and quad_ok
    detail = (f"{len(witnesses)} profitable thresholds for gpareto(0.5); "
              f"exponential contrast {'clean' if exp_ok and quad_ok else 'violated'}")
    return VerifyCheck("separation", passed, detail)


def _check_estimator_determinism(seed: int) -> VerifyCheck:
    dist = GeneralizedPareto(0.5)
    config = _auction_config(dist, 2, collateral=32.0)
    strategy = ShillBroadcast((float(dist.quantile(0.9)),), WITHHOLD_IF_WINNING)
    a = estimate_revenue(config, strategy, 70_000, seed)
    b = estimate_revenue(config, strategy, 70_000, seed)
    same = (a.mean == b.mean and a.std_error == b.std_error and a.samples == b.samples)
    return VerifyCheck("estimator_determinism", same, "bit-identical repeat" if same else "mismatch")


# Every budget a config's verify section may set: name -> (default, least value).
# mc_samples is the sample count of every Monte Carlo check without a budget of its
# own: conditional_bound, optimality, myerson_identity and reveal_dominance.
# attack_rel_tol, whose least value is a float, is a tolerance that must exceed it;
# the others are integer counts.
VERIFY_BUDGETS = {
    "mc_samples": (200_000, MIN_SAMPLES),
    "credibility_samples": (200_000, MIN_SAMPLES),
    "attack_samples": (1 << 22, MIN_SAMPLES),
    "credibility_quantiles": (12, 1),
    "sp_profiles": (50, 1),
    "lift_runs": (100, 1),
    "structural_runs": (200, 1),
    "attack_rel_tol": (0.05, 0.0),
}


def run_verification(setup) -> list:
    """Run every check with the config's verify budgets, defaults filled."""
    budget = setup.budgets
    mc = budget["mc_samples"]
    seed = setup.seed
    # checked before any check runs; gpareto(0.5) has the larger reserve of the
    # separation check's two families
    thresholds = setup.attack_thresholds(GeneralizedPareto(0.5))
    return [
        _check_reserve_and_alpha(),
        *_check_price_bounds(),
        _check_conditional_bounds(mc, seed),
        _check_optimality(mc, seed),
        _check_myerson_identity(mc, seed),
        _check_strategyproofness(budget["sp_profiles"], seed),
        _check_credibility(budget["credibility_samples"], budget["credibility_quantiles"], seed),
        _check_reveal_dominance(mc, seed),
        _check_lift_equality(budget["lift_runs"], seed),
        _check_structural(budget["structural_runs"], seed),
        _check_separation(budget["attack_samples"], budget["attack_rel_tol"], thresholds, seed),
        _check_estimator_determinism(seed),
    ]
