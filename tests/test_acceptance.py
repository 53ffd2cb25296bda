"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every numeric target here is a closed form derived in-line, a quadrature
oracle, or an exact structural property; statistical checks use 3 standard
errors. Budgets (sample counts, grid sizes, runtime ceilings) are pinned, not
tunable.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from drasim import (
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    AuctionConfig,
    Exponential,
    FixedBid,
    GeneralizedPareto,
    Honest,
    Lifted,
    ShillBroadcast,
    Truthful,
    adaptive_gain_quadrature,
    buyer_utility,
    check_conditional_bound,
    check_posted_price_bound,
    check_tail_bound,
    collateral,
    conservation_residual,
    credibility_suite,
    estimate_adaptive_gain,
    estimate_myerson_gap,
    estimate_paired_difference,
    estimate_revenue,
    optimal_revenue,
    reserve_price,
    reveal_dominant_variant,
    run_auction,
)
from drasim.cli import main as cli_main
from drasim.seeding import derive_seed
from drasim.strategies import commit_phase_payloads, false_commit_payloads
from drasim.verification import audit_run, sample_values

EXP = Exponential(1.0)
GPA25 = GeneralizedPareto(0.25)
GPA50 = GeneralizedPareto(0.5)

# 20-point false-bid grid (quantiles of D), top entries exceed the collateral 32
DEVIATION_QUANTILES = (0.05, 0.2, 0.4, 0.55, 0.68, 0.78, 0.85, 0.9, 0.93, 0.955,
                       0.97, 0.98, 0.9865, 0.991, 0.994, 0.996, 0.9975, 0.9985,
                       0.999, 0.9995)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _config(dist, n, collateral_amount, mode="broadcast", seed=0):
    return AuctionConfig(n=n, dist=dist, reserve=reserve_price(dist),
                         collateral=collateral_amount, mode=mode, seed=seed)


# ---------------------------------------------------------------------------
# 1. Strategyproofness under the honest auctioneer
# ---------------------------------------------------------------------------

def test_criterion_01_strategyproofness():
    t0 = time.time()
    n = 3
    config = _config(EXP, n, 1.0)
    bid_grid = np.linspace(0.0, 8.0, 21)
    honest = Honest()
    violations = 0
    cells = 0
    for p in range(200):
        values = sample_values(EXP, n, derive_seed(1001, "profile", p))
        truthful = [Truthful(v) for v in values]
        base, _ = run_auction(config, truthful, honest)
        base_utils = [buyer_utility(base, i, values[i - 1]) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            for bid in bid_grid:
                deviated = list(truthful)
                deviated[i - 1] = FixedBid(value=values[i - 1], bid_amount=float(bid))
                out, _ = run_auction(config, deviated, honest)
                cells += 1
                if buyer_utility(out, i, values[i - 1]) > base_utils[i - 1]:
                    violations += 1
    elapsed = time.time() - t0
    report(1, "strategyproofness", violations == 0 and elapsed < 5.0,
           f"{cells} deviation cells, {violations} profitable, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Optimality: honest revenue equals quadrature Rev(D^n)
# ---------------------------------------------------------------------------

def test_criterion_02_optimality():
    """Honest revenue against Rev(D^n) on three families at n = 1, 2.

    Each case is seeded by derive_seed(1002, dist.kind, n). Both gpareto families
    have kind "gpareto", so at each n gpareto(0.25) and gpareto(0.5) draw the same
    uniform stream: their cases are correlated, and the 6 cases hold 4 independent
    draws. The seeds are kept as they are; changing them is a change of its own."""
    t0 = time.time()
    # closed-form anchors derived independently
    assert optimal_revenue(EXP, 1).mean == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert optimal_revenue(GPA50, 1).mean == pytest.approx(0.5, abs=1e-8)
    worst_z = 0.0
    for dist in (EXP, GPA25, GPA50):
        for n in (1, 2):
            est = estimate_revenue(_config(dist, n, 2.0), Honest(), 1_000_000,
                                   derive_seed(1002, dist.kind, n))
            target = optimal_revenue(dist, n).mean
            worst_z = max(worst_z, abs(est.mean - target) / est.std_error)
    elapsed = time.time() - t0
    report(2, "optimality", worst_z <= 3.0 and elapsed < 60.0,
           f"6 cases at 1e6 samples, worst |z| = {worst_z:.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Myerson identity: payments vs allocated virtual value
# ---------------------------------------------------------------------------

def test_criterion_03_myerson_identity():
    """The Myerson gap (payments less allocated virtual value) is 0 on three families
    at n = 1, 2, 3.

    Each case is seeded by derive_seed(1003, dist.kind, n). Both gpareto families
    have kind "gpareto", so at each n gpareto(0.25) and gpareto(0.5) draw the same
    uniform stream: their cases are correlated, and the 9 cases hold 6 independent
    draws. The seeds are kept as they are; changing them is a change of its own."""
    t0 = time.time()
    worst_z = 0.0
    for dist in (EXP, GPA25, GPA50):
        for n in (1, 2, 3):
            gap = estimate_myerson_gap(_config(dist, n, 2.0), 1_000_000,
                                       derive_seed(1003, dist.kind, n))
            worst_z = max(worst_z, abs(gap.mean) / gap.std_error)
    elapsed = time.time() - t0
    report(3, "myerson_identity", worst_z <= 3.0 and elapsed < 60.0,
           f"9 cases at 1e6 samples, worst |z| = {worst_z:.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Credibility at alpha = 0.5 with the formula collateral
# ---------------------------------------------------------------------------

def test_criterion_04_credibility():
    t0 = time.time()
    f_amount = collateral(GPA50, 2, 0.5)
    assert f_amount == pytest.approx(32.0, abs=1e-6)
    record = credibility_suite(GPA50, alpha=0.5, n=2,
                               deviation_quantiles=DEVIATION_QUANTILES,
                               samples=1_000_000, seed=1004)
    elapsed = time.time() - t0
    shill_rows = len(record.rows) - 1
    report(4, "credibility", record.all_pass and shill_rows == 40 and elapsed < 600.0,
           f"{shill_rows} shill strategies + honest at 1e6 samples, "
           f"worst margin {record.worst_margin:.5f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Separation: the adaptive deviation profits iff tails are heavy
# ---------------------------------------------------------------------------

def test_criterion_05_separation():
    t0 = time.time()
    thresholds = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    witnesses = []
    for i, threshold in enumerate(thresholds):
        est = estimate_adaptive_gain(GPA50, threshold, 2.0, 1 << 25,
                                     derive_seed(1005, "gpa", i))
        quad = adaptive_gain_quadrature(GPA50, threshold, 2.0)
        rel = abs(est.mean - quad) / abs(quad)
        if est.mean > 3.0 * est.std_error and rel <= 0.01:
            witnesses.append((threshold, est.mean, rel))
    exp_clean = True
    for i, threshold in enumerate(thresholds):
        est = estimate_adaptive_gain(EXP, threshold, 1.0, 1 << 22,
                                     derive_seed(1005, "exp", i))
        quad = adaptive_gain_quadrature(EXP, threshold, 1.0)
        if est.mean > 3.0 * est.std_error or quad > 0.0:
            exp_clean = False
    elapsed = time.time() - t0
    detail = (f"{len(witnesses)} profitable thresholds for gpareto(0.5) at f=2 "
              f"(first: T={witnesses[0][0] if witnesses else None}), "
              f"exponential contrast {'clean' if exp_clean else 'violated'}, {elapsed:.1f}s")
    report(5, "separation", bool(witnesses) and exp_clean and elapsed < 300.0, detail)


# ---------------------------------------------------------------------------
# 6. Reveal dominance for covered false bids
# ---------------------------------------------------------------------------

def test_criterion_06_reveal_dominance():
    t0 = time.time()
    f_amount = 32.0
    config = _config(GPA50, 2, f_amount)
    quantiles = np.linspace(0.1, 0.99, 10)
    failures = 0
    for i, u in enumerate(quantiles):
        bid = float(GPA50.quantile(u))
        assert bid <= f_amount
        withhold = ShillBroadcast((bid,), WITHHOLD_IF_WINNING)
        reveal = reveal_dominant_variant(withhold, f_amount)
        diff = estimate_paired_difference(config, reveal, withhold, 1_000_000,
                                          derive_seed(1006, i))
        if diff.mean < -3.0 * diff.std_error:
            failures += 1
    elapsed = time.time() - t0
    report(6, "reveal_dominance", failures == 0 and elapsed < 120.0,
           f"10 paired strategies at 1e6 samples, {failures} dominated, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Lift equality: broadcast strategies replayed over private channels
# ---------------------------------------------------------------------------

def test_criterion_07_lift_equality():
    t0 = time.time()
    strategies = [Honest()]
    for u, policy in [(0.3, ALWAYS_REVEAL), (0.6, WITHHOLD_IF_WINNING),
                      (0.8, ALWAYS_REVEAL), (0.95, WITHHOLD_IF_WINNING),
                      (0.99, ALWAYS_REVEAL)]:
        strategies.append(ShillBroadcast((float(GPA50.quantile(u)),), policy))
    mismatches = 0
    pairs = 0
    for strategy in strategies:
        for j in range(1000):
            run_seed = derive_seed(1007, strategy.describe(), j)
            values = sample_values(GPA50, 2, run_seed)
            buyers = [Truthful(v) for v in values]
            cfg = _config(GPA50, 2, 32.0, seed=run_seed)
            out_b, _ = run_auction(cfg, buyers, strategy)
            out_c, _ = run_auction(replace(cfg, mode="centralized"), buyers, Lifted(strategy))
            pairs += 1
            if out_b != out_c:
                mismatches += 1
    elapsed = time.time() - t0
    report(7, "lift_equality", mismatches == 0 and elapsed < 30.0,
           f"{pairs} paired runs over 6 strategies, {mismatches} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Tail, conditional, and posted-price inequalities
# ---------------------------------------------------------------------------

def test_criterion_08_appendix_inequalities():
    t0 = time.time()
    families = [(EXP, 1.0), (GPA25, 0.75), (GPA50, 0.5), (GeneralizedPareto(0.75), 0.25)]
    tail_cases = posted_cases = cond_cases = failures = 0
    for dist, alpha_max in families:
        r = reserve_price(dist)
        for alpha in (0.25, 0.5, 0.75):
            if alpha > alpha_max + 1e-12:
                continue
            for mult in (1.0, 2.0, 4.0, 8.0):
                tail_cases += 1
                if not check_tail_bound(dist, alpha, mult * r).holds:
                    failures += 1
                posted_cases += 1
                if not check_posted_price_bound(dist, alpha, mult * r).holds:
                    failures += 1
        for alpha in (0.25, 0.5, 0.75, 1.0):
            if alpha > alpha_max + 1e-12:
                continue
            for mult in (1.0, 2.0):
                cond_cases += 1
                res = check_conditional_bound(dist, alpha, mult * r, samples=1_000_000,
                                              seed=derive_seed(1008, dist.kind, cond_cases))
                if not res.holds:
                    failures += 1
    elapsed = time.time() - t0
    report(8, "appendix_inequalities", failures == 0 and elapsed < 60.0,
           f"{tail_cases} tail + {posted_cases} posted + {cond_cases} conditional cases "
           f"(conditional at 1e6 samples), {failures} failures, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Structural invariants over sampled deviation runs, plus coupling
# ---------------------------------------------------------------------------

def test_criterion_09_structural_invariants():
    t0 = time.time()
    shill_bid = float(GPA50.quantile(0.9))
    deviations = [
        ("honest", "broadcast", Honest()),
        ("shill_reveal", "broadcast", ShillBroadcast((shill_bid,), ALWAYS_REVEAL)),
        ("shill_withhold", "broadcast", ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING)),
        ("lifted_shill", "centralized",
         Lifted(ShillBroadcast((shill_bid,), WITHHOLD_IF_WINNING))),
        ("adaptive", "centralized", AdaptiveReserve(threshold=float(GPA50.quantile(0.8)))),
    ]
    runs_per_deviation = 10_000
    violations = 0
    total = 0
    for name, mode, strategy in deviations:
        base = _config(GPA50, 2, 2.0, mode=mode)
        for j in range(runs_per_deviation):
            run_seed = derive_seed(1009, name, j)
            values = sample_values(GPA50, 2, run_seed)
            result = audit_run(replace(base, seed=run_seed),
                               [Truthful(v) for v in values], strategy)
            total += 1
            violations += len(result.violations)
            residual = conservation_residual(
                result.outcome, depositors=[e.depositor for e in result.outcome.ledger],
                collateral_amount=2.0)
            if abs(residual) > 1e-9:
                violations += 1
    # false-bid coupling: matched strategy seeds, different value profiles
    coupling_ok = True
    config = _config(GPA50, 2, 2.0, seed=424242)
    strategy = ShillBroadcast((shill_bid, 1.0), WITHHOLD_IF_WINNING)
    _, t_a = run_auction(config, [Truthful(5.0), Truthful(3.0)], strategy)
    _, t_b = run_auction(config, [Truthful(50.0), Truthful(0.1)], strategy)
    if false_commit_payloads(t_a) != false_commit_payloads(t_b):
        coupling_ok = False
    if commit_phase_payloads(t_a) != commit_phase_payloads(t_b):
        coupling_ok = False
    elapsed = time.time() - t0
    report(9, "structural_invariants", violations == 0 and coupling_ok,
           f"{total} audited runs across 5 deviations (conservation, single-candidate, "
           f"safe-allocation, view checks), {violations} violations, "
           f"coupling {'exact' if coupling_ok else 'BROKEN'}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. Verify determinism: same config, byte-identical output
# ---------------------------------------------------------------------------

def test_criterion_10_verify_determinism(tmp_path):
    t0 = time.time()
    cfg = "configs/verify_quick.json"
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    rc1 = cli_main(["verify", "--config", cfg, "--out", str(out1)])
    rc2 = cli_main(["verify", "--config", cfg, "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    elapsed = time.time() - t0
    report(10, "verify_determinism", rc1 == 0 and rc2 == 0 and same,
           f"two verify runs, exit codes ({rc1}, {rc2}), "
           f"outputs {'byte-identical' if same else 'DIFFER'}, {elapsed:.1f}s")
