"""The invariant battery behind the `verify` subcommand, and run-audit helpers.

Each check is self-contained and returns a named pass/fail with a short
deterministic detail string (no timings, no environment), so a verify run is
byte-identical for a fixed config. Budgets are scaled by the config's verify
section; the shipped defaults keep the whole battery in the tens of seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    Exponential,
    GeneralizedPareto,
    TwoPoint,
    Uniform,
    ValueDistribution,
    check_conditional_bound,
    check_posted_price_bound,
    check_tail_bound,
    collateral as collateral_level,
    optimal_revenue,
    reserve_price,
    strong_regularity_alpha,
)
from .estimators import (
    MIN_SAMPLES,
    attack_sweep,
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
    summary_is_consistent,
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


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Per-run structural audit
# ---------------------------------------------------------------------------

@record
class AuditResult:
    outcome: Outcome
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_run(config: AuctionConfig, buyers: Sequence, auctioneer) -> AuditResult:
    """Run one auction and check the per-run structural invariants: money
    conservation (conservation_residual, which the engine does not apply to its
    own runs) with a ledger that disposes of each committed id's deposit once,
    the single-candidate bound, allocation consistency for the candidate, and
    the per-buyer view-consistency verdicts (for revealing buyers). Each view is
    parsed once; the committed ids are those the views show, false buyers'
    included, and the bids are the openings they show.
    """
    outcome, transcript = run_auction(config, buyers, auctioneer)
    summaries = {i: view_summary(view, config) for i, view in transcript.buyer_views().items()}
    violations = []
    committed = set().union(*(s.commits for s in summaries.values()))
    try:
        residual = conservation_residual(outcome, depositors=committed,
                                         collateral_amount=config.collateral)
    except AssertionError as ledger_fault:  # a violation of the run, not a crash
        violations.append(str(ledger_fault))
        residual = conservation_residual(outcome)
    if abs(residual) > MONEY_TOL:
        violations.append(f"money conservation residual {residual}")
    if outcome.winner is not None:
        bids = {b: bid for s in summaries.values() for b, bid in s.revealed_bids.items()}
        if outcome.winner not in outcome.revealed:
            violations.append("winner outside the counted reveal set")
        elif not bids.get(outcome.winner, -1.0) > config.reserve:
            violations.append("sale at or below the reserve")
        else:
            runners = [bids[b] for b in outcome.revealed if b != outcome.winner]
            want = max([config.reserve] + runners)
            if abs(outcome.sale_price - want) > MONEY_TOL:
                violations.append(
                    f"price {outcome.sale_price} != max(reserve, runner-up) {want}")
    candidates = []
    for i, summary in summaries.items():
        # The resolution rule's candidate comes from revealed bids only, so a
        # buyer who withholds is never one, whatever it committed to.
        if buyers[i - 1].reveals():
            bid = float(buyers[i - 1].bid())
            if bid > summary.beta:
                candidates.append(i)
                notice = summary.notice
                if notice is None or notice.winner != i or abs(notice.price - summary.beta) > 1e-9:
                    violations.append(
                        f"buyer {i}: bid {bid} above beta {summary.beta} but notice {notice}"
                    )
        if not summary_is_consistent(summary, config, transcript.scheme):
            violations.append(f"buyer {i}: view fails consistency check")
    if len(candidates) > 1:
        violations.append(f"single-candidate violated: {candidates}")
    return AuditResult(outcome=outcome, violations=tuple(violations))


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
    """Count (profile, buyer, bid) cells where a unilateral deviation beats truth."""
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
                if buyer_utility(out, i, values[i - 1]) > truth_util:
                    bad += 1
    return bad


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------

_ALPHAS = (0.25, 0.5, 0.75)
_PRICE_MULTIPLES = (1.0, 2.0, 4.0, 8.0)


def _bound_families():
    out = [(Exponential(1.0), 1.0)]
    for shape in (0.25, 0.5, 0.75):
        out.append((GeneralizedPareto(shape), 1.0 - shape))
    return out


def _check_price_bounds() -> list:
    """The tail and posted-price inequality grids, one check each."""
    checks = []
    for name, check in (("tail_bound", check_tail_bound),
                        ("posted_price_bound", check_posted_price_bound)):
        cases = failures = 0
        for dist, alpha_max in _bound_families():
            r = reserve_price(dist)
            for alpha in _ALPHAS:
                if alpha > alpha_max + 1e-12:
                    continue
                for mult in _PRICE_MULTIPLES:
                    cases += 1
                    if not check(dist, alpha, mult * r).holds:
                        failures += 1
        checks.append(VerifyCheck(name, failures == 0, f"{cases} cases, {failures} failures"))
    return checks


def _check_conditional_bounds(samples: int, seed: int) -> VerifyCheck:
    cases = failures = 0
    for dist, alpha_max in _bound_families():
        r = reserve_price(dist)
        for alpha in (0.25, 0.5, 0.75, 1.0):
            if alpha > alpha_max + 1e-12:
                continue
            for mult in (1.0, 2.0):
                cases += 1
                res = check_conditional_bound(dist, alpha, mult * r, samples=samples,
                                              seed=derive_seed(seed, "cond", cases))
                if not res.holds:
                    failures += 1
    return VerifyCheck("conditional_bound", failures == 0, f"{cases} cases, {failures} failures")


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
    cases = failures = 0
    details = []
    for dist in _mc_families():
        for n in (1, 2):
            cases += 1
            config = _auction_config(dist, n)
            est = estimate_revenue(config, Honest(), samples, derive_seed(seed, "opt", cases))
            target = optimal_revenue(dist, n).mean
            if abs(est.mean - target) > 3.0 * est.std_error:
                failures += 1
                details.append(f"{dist.kind}/n={n}")
    return VerifyCheck("optimality", failures == 0,
                       f"{cases} cases, {failures} failures" + (": " + ",".join(details) if details else ""))


def _check_myerson_identity(samples: int, seed: int) -> VerifyCheck:
    cases = failures = 0
    for dist in _mc_families():
        for n in (1, 2, 3):
            cases += 1
            config = _auction_config(dist, n)
            gap = estimate_myerson_gap(config, samples, derive_seed(seed, "mye", cases))
            if abs(gap.mean) > 3.0 * gap.std_error:
                failures += 1
    return VerifyCheck("myerson_identity", failures == 0, f"{cases} cases, {failures} failures")


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
    quantiles = np.linspace(0.1, 0.99, 10)
    failures = 0
    for i, u in enumerate(quantiles):
        bid = float(dist.quantile(u))
        if bid > f_amount:
            continue
        withhold = ShillBroadcast(false_bids=(bid,), reveal_policy=WITHHOLD_IF_WINNING)
        reveal = ShillBroadcast(false_bids=(bid,), reveal_policy=ALWAYS_REVEAL)
        diff = estimate_paired_difference(config, reveal, withhold, samples,
                                          derive_seed(seed, "dom", i))
        if diff.mean < -3.0 * diff.std_error:
            failures += 1
    return VerifyCheck("reveal_dominance", failures == 0, f"10 strategies, {failures} failures")


def _lift_strategies(dist: ValueDistribution):
    qs = (0.3, 0.6, 0.8, 0.95, 0.99)
    policies = (ALWAYS_REVEAL, WITHHOLD_IF_WINNING, ALWAYS_REVEAL,
                WITHHOLD_IF_WINNING, ALWAYS_REVEAL)
    shills = [ShillBroadcast(false_bids=(float(dist.quantile(u)),), reveal_policy=p)
              for u, p in zip(qs, policies)]
    return [Honest()] + shills


def _check_lift_equality(runs: int, seed: int) -> VerifyCheck:
    dist = GeneralizedPareto(0.5)
    f_amount = collateral_level(dist, 2, 0.5)
    mismatches = 0
    total = 0
    for strategy in _lift_strategies(dist):
        for j in range(runs):
            run_seed = derive_seed(seed, "lift", strategy.describe(), j)
            values = sample_values(dist, 2, run_seed)
            buyers = [Truthful(v) for v in values]
            cfg_b = replace(_auction_config(dist, 2, collateral=f_amount), seed=run_seed)
            cfg_c = replace(cfg_b, mode="centralized")
            out_b, _ = run_auction(cfg_b, buyers, strategy)
            out_c, _ = run_auction(cfg_c, buyers, Lifted(strategy))
            total += 1
            if out_b != out_c:
                mismatches += 1
    return VerifyCheck("lift_equality", mismatches == 0, f"{total} paired runs, {mismatches} mismatches")


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
# A default of None takes the mc_samples budget. attack_rel_tol, whose least value
# is a float, is a tolerance that must exceed it; the others are integer counts.
VERIFY_BUDGETS = {
    "mc_samples": (200_000, MIN_SAMPLES),
    "optimality_samples": (None, MIN_SAMPLES),
    "dominance_samples": (None, MIN_SAMPLES),
    "credibility_samples": (200_000, MIN_SAMPLES),
    "attack_samples": (1 << 22, MIN_SAMPLES),
    "credibility_quantiles": (12, 1),
    "sp_profiles": (50, 1),
    "lift_runs": (100, 1),
    "structural_runs": (200, 1),
    "attack_rel_tol": (0.05, 0.0),
}


def run_verification(setup) -> list:
    """Run every check with budgets from the config's verify section."""
    opts = setup.verify_options
    budget = {name: opts.get(name, default) for name, (default, _) in VERIFY_BUDGETS.items()}
    mc = budget["mc_samples"]
    seed = setup.seed
    # checked before any check runs; gpareto(0.5) has the larger reserve of the
    # separation check's two families
    thresholds = setup.attack_thresholds(GeneralizedPareto(0.5))
    return [
        _check_reserve_and_alpha(),
        *_check_price_bounds(),
        _check_conditional_bounds(mc, seed),
        _check_optimality(budget["optimality_samples"] or mc, seed),
        _check_myerson_identity(mc, seed),
        _check_strategyproofness(budget["sp_profiles"], seed),
        _check_credibility(budget["credibility_samples"], budget["credibility_quantiles"], seed),
        _check_reveal_dominance(budget["dominance_samples"] or mc, seed),
        _check_lift_equality(budget["lift_runs"], seed),
        _check_structural(budget["structural_runs"], seed),
        _check_separation(budget["attack_samples"], budget["attack_rel_tol"], thresholds, seed),
        _check_estimator_determinism(seed),
    ]
