"""The invariant battery behind the `verify` subcommand, and run-audit helpers.

Each check returns a named pass/fail with a short deterministic detail string (no
timings, no environment), so a verify run is byte-identical for a fixed config.
Budgets are scaled by the config's verify section; the shipped defaults keep the
whole battery in the tens of seconds. Each check that the acceptance suite also
runs is a tally over a case generator, `_*_cases` or `_audited_runs`, which takes
its budget, a seed function of the case's parts and the case parameters (the
collateral, the quantiles, the runs per case); the acceptance criteria call the
same generators at their own sizes and seeds, so they run the bodies verify
prints from.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import replace
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

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
    cells = _strategyproofness_cells(dist, n, profiles, bid_grid, partial(derive_seed, seed, "sp"),
                                     collateral_level(dist, n, 1.0))
    return sum(not deviated <= truth for _, deviated, truth in cells)


def _strategyproofness_cells(dist: ValueDistribution, n: int, profiles: int,
                             bid_grid: Sequence[float], seed_of: Callable,
                             collateral: float):
    """((profile, buyer, bid), deviation's utility, truth's utility) for each cell of
    the honest broadcast auction at the given collateral: profile p drawn with seed
    seed_of(p), buyer i bidding each bid of bid_grid while the others bid truthfully."""
    config = _auction_config(dist, n, collateral=collateral)
    honest = Honest()
    for p in range(profiles):
        values = sample_values(dist, n, seed_of(p))
        truthful = [Truthful(v) for v in values]
        base, _ = run_auction(config, truthful, honest)
        for i in range(1, n + 1):
            truth_util = buyer_utility(base, i, values[i - 1])
            for bid in bid_grid:
                deviated = list(truthful)
                deviated[i - 1] = FixedBid(value=values[i - 1], bid_amount=float(bid))
                out, _ = run_auction(config, deviated, honest)
                yield (p, i, float(bid)), buyer_utility(out, i, values[i - 1]), truth_util


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------

_ALPHAS = (0.25, 0.5, 0.75)
_PRICE_MULTIPLES = (1.0, 2.0, 4.0, 8.0)


def _tally(name: str, cases: Iterable, passed: Callable, noun: str, fault: str) -> VerifyCheck:
    """A counted check from its (label, *measured) cases, each passing when
    passed(*measured): "N <noun>, M <fault>", and after a failure ": " and the
    failing cases' labels."""
    verdicts = [(label, passed(*measured)) for label, *measured in cases]
    failed = [label for label, ok in verdicts if not ok]
    detail = f"{len(verdicts)} {noun}, {len(failed)} {fault}"
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


def _price_bound_cases(check: Callable):
    """(label, BoundCheck) of check, the tail or the posted-price bound, at each of
    _bound_cases(_ALPHAS) and each price in _PRICE_MULTIPLES of the reserve."""
    for dist, alpha, r in _bound_cases(_ALPHAS):
        for mult in _PRICE_MULTIPLES:
            yield f"{dist!r}/alpha={alpha}/p={mult:g}r", check(dist, alpha, mult * r)


def _check_price_bounds() -> list:
    """The tail and posted-price inequality grids, one check each."""
    return [_tally(name, _price_bound_cases(check), operator.attrgetter("holds"),
                   "cases", "failures")
            for name, check in (("tail_bound", check_tail_bound),
                                ("posted_price_bound", check_posted_price_bound))]


def _conditional_bound_cases(samples: int, seed_of: Callable):
    """(label, BoundCheck) of the conditional bound at t = r and 2r of each of
    _bound_cases up to alpha = 1, case k (from 1) of dist seeded by seed_of(dist, k)."""
    grid = itertools.product(_bound_cases((0.25, 0.5, 0.75, 1.0)), (1.0, 2.0))
    for case, ((dist, alpha, r), mult) in enumerate(grid, 1):
        yield (f"{dist!r}/alpha={alpha}/t={mult:g}r",
               check_conditional_bound(dist, alpha, mult * r, samples, seed_of(dist, case)))


def _check_conditional_bounds(samples: int, seed: int) -> VerifyCheck:
    cases = _conditional_bound_cases(samples, lambda dist, case: derive_seed(seed, "cond", case))
    return _tally("conditional_bound", cases, operator.attrgetter("holds"), "cases", "failures")


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


def _optimality_cases(samples: int, seed_of: Callable, collateral: Optional[float]):
    """(label, honest revenue estimate, Rev(D^n)) for each of _mc_families at n = 1, 2,
    at the given collateral (None: _auction_config's), case k (from 1) seeded by
    seed_of(dist, n, k)."""
    for case, (dist, n) in enumerate(itertools.product(_mc_families(), (1, 2)), 1):
        est = estimate_revenue(_auction_config(dist, n, collateral=collateral), Honest(),
                               samples, seed_of(dist, n, case))
        yield f"{dist!r}/n={n}", est, optimal_revenue(dist, n).mean


def _check_optimality(samples: int, seed: int) -> VerifyCheck:
    cases = _optimality_cases(samples, lambda dist, n, case: derive_seed(seed, "opt", case), None)
    return _tally("optimality", cases, _within_3se, "cases", "failures")


def _myerson_cases(samples: int, seed_of: Callable, collateral: Optional[float]):
    """(label, Myerson gap estimate, 0) for each of _mc_families at n = 1, 2, 3, at the
    collateral and seeded as in _optimality_cases."""
    for case, (dist, n) in enumerate(itertools.product(_mc_families(), (1, 2, 3)), 1):
        yield (f"{dist!r}/n={n}", estimate_myerson_gap(
            _auction_config(dist, n, collateral=collateral), samples, seed_of(dist, n, case)), 0.0)


def _check_myerson_identity(samples: int, seed: int) -> VerifyCheck:
    cases = _myerson_cases(samples, lambda dist, n, case: derive_seed(seed, "mye", case), None)
    return _tally("myerson_identity", cases, _within_3se, "cases", "failures")


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


def _reveal_dominance_cases(samples: int, seed_of: Callable, collateral: float,
                            quantiles: Sequence[float]):
    """(strategy, estimate of its reveal-dominant variant's net less its own) for a
    withhold-if-winning shill bidding each of the quantiles of gpareto(0.5) at n = 2
    and the given collateral, shill i (from 0) seeded by seed_of(i)."""
    dist = GeneralizedPareto(0.5)
    config = _auction_config(dist, 2, collateral=collateral)
    for i, u in enumerate(quantiles):
        withhold = ShillBroadcast(false_bids=(float(dist.quantile(u)),),
                                  reveal_policy=WITHHOLD_IF_WINNING)
        yield withhold.describe(), estimate_paired_difference(
            config, reveal_dominant_variant(withhold, collateral), withhold, samples, seed_of(i))


def _check_reveal_dominance(samples: int, seed: int) -> VerifyCheck:
    cases = _reveal_dominance_cases(samples, partial(derive_seed, seed, "dom"),
                                    collateral_level(GeneralizedPareto(0.5), 2, 0.5),
                                    np.linspace(0.1, 0.99, 10))
    return _tally("reveal_dominance", cases, lambda diff: diff.mean >= -3.0 * diff.std_error,
                  "strategies", "failures")


def _lift_strategies(dist: ValueDistribution):
    qs = (0.3, 0.6, 0.8, 0.95, 0.99)
    policies = (ALWAYS_REVEAL, WITHHOLD_IF_WINNING, ALWAYS_REVEAL,
                WITHHOLD_IF_WINNING, ALWAYS_REVEAL)
    shills = [ShillBroadcast(false_bids=(float(dist.quantile(u)),), reveal_policy=p)
              for u, p in zip(qs, policies)]
    return [Honest()] + shills


def _lift_cases(runs: int, seed_of: Callable, collateral: float):
    """(label, broadcast outcome, outcome of its Lifted replay on the centralized
    channel) for `runs` runs of each of _lift_strategies on gpareto(0.5) at n = 2 and
    the given collateral, run j of a strategy seeded by seed_of(its describe(), j)."""
    dist = GeneralizedPareto(0.5)
    config = _auction_config(dist, 2, collateral=collateral)
    for strategy, j in itertools.product(_lift_strategies(dist), range(runs)):
        run_seed = seed_of(strategy.describe(), j)
        buyers = [Truthful(v) for v in sample_values(dist, 2, run_seed)]
        cfg_b = replace(config, seed=run_seed)
        out_b, _ = run_auction(cfg_b, buyers, strategy)
        out_c, _ = run_auction(replace(cfg_b, mode="centralized"), buyers, Lifted(strategy))
        yield f"{strategy.describe()}/run={j}", out_b, out_c


def _check_lift_equality(runs: int, seed: int) -> VerifyCheck:
    cases = _lift_cases(runs, partial(derive_seed, seed, "lift"),
                        collateral_level(GeneralizedPareto(0.5), 2, 0.5))
    return _tally("lift_equality", cases, operator.eq, "paired runs", "mismatches")


def _structural_deviations(dist: ValueDistribution):
    shill_bid = float(dist.quantile(0.9))
    return [
        ("honest", "broadcast", Honest()),
        ("shill_reveal", "broadcast", ShillBroadcast((shill_bid,), ALWAYS_REVEAL)),
        ("shill_withhold", "broadcast", ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING)),
        ("lifted_shill", "centralized", Lifted(ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING))),
        ("adaptive", "centralized", AdaptiveReserve(threshold=float(dist.quantile(0.8)))),
    ]


def _audited_runs(runs: int, seed_of: Callable, collateral: float):
    """(label, AuditResult) for `runs` audited runs of each of _structural_deviations
    on gpareto(0.5) at n = 2 and the given collateral, run j of deviation `name`
    seeded by seed_of(name, j)."""
    dist = GeneralizedPareto(0.5)
    for name, mode, strategy in _structural_deviations(dist):
        config = _auction_config(dist, 2, mode=mode, collateral=collateral)
        for j in range(runs):
            run_seed = seed_of(name, j)
            values = sample_values(dist, 2, run_seed)
            yield f"{name}/run={j}", audit_run(replace(config, seed=run_seed),
                                               [Truthful(v) for v in values], strategy)


def _check_structural(runs: int, seed: int) -> VerifyCheck:
    dist = GeneralizedPareto(0.5)
    f_amount = 2.0
    counts = [len(result.violations)
              for _, result in _audited_runs(runs, partial(derive_seed, seed, "struct"), f_amount)]
    violations = sum(counts)
    for name, mode, strategy in _structural_deviations(dist):
        # False-bid coupling applies to strategies whose false bids are pinned
        # before the commitment phase closes, not to the adaptive deviation
        # (whose false bid is the attack's point).
        config = _auction_config(dist, 2, mode=mode, collateral=f_amount)
        if name != "adaptive" and not coupling_matches(
                replace(config, seed=derive_seed(seed, "couple", name)), strategy,
                sample_values(dist, 2, derive_seed(seed, "vA", name)),
                sample_values(dist, 2, derive_seed(seed, "vB", name))):
            violations += 1
    return VerifyCheck("structural_invariants", violations == 0,
                       f"{len(counts)} audited runs, {violations} violations")


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
