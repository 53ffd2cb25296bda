"""Revenue estimation: vectorized Monte Carlo, a stratified rare-event estimator
for the adaptive attack, a deterministic quadrature oracle for it, and the Monte
Carlo check of the conditional tail bound.

Each strategy is priced by the path its class provides. Where the first class
of its MRO to define execute or vector_net defines vector_net, the vector engine
prices each chunk of profiles by that closed form; any other strategy, a custom
deviation whose execute overrides the one vector_net mirrors, runs the full
message-level auction per profile, the reference semantics. Both paths check the
strategy's config, vector_net once per estimate and execute on every run, so an
estimate outside a strategy's setting raises the same ValueError on either. The
test suite holds the two to per-profile equality, and each estimator to a
private reference that runs full auctions on every profile, so the fast path
carries the simulator's semantics, not a reimplementation of its own.

Every estimator, and check_conditional_bound, runs on one loop over chunked
counter-based streams (see seeding) that draws each profile once for all the
arrays it prices, and needs MIN_SAMPLES samples or more. An estimate is a
pure function of (config, strategy, samples, seed) however chunks are
scheduled, and strategies under one seed share identical value profiles
(paired comparisons by construction), so each row of a credibility suite equals
the estimate of its strategy alone.

The loop runs one function per estimate call on each chunk, (chunk, start),
which yields the chunk's arrays in the order of their accumulators; each array
is added before the next one is asked for, so the function may write one array
over the last. The one-function estimators yield one array, the conditional
bound two, and the credibility suite its grid: the honest net, then both reveal
policies of each false bid from one reveal mask, with every always row at or
below the reserve left out, as it is the honest net bit for bit.

The loop hands the function each chunk as one strategies.Chunk, which computes
the profiles' top two and the promised auction's net once for all the arrays and
keeps the work arrays that the kernels and the accumulator write into (see its
docstring). One Chunk carries an estimate from chunk to chunk, on the calling
thread, so the shill kernels and the accumulator (its squares go to "scratch")
allocate nothing chunk-sized per array, and a paired difference copies the
first net before it prices the baseline.

An estimate of several arrays (the credibility grid, the conditional bound's
two means) loads each chunk of more than 128 rows into the Chunk twice, as rows
[0, h) and [h, n) with h = estimate.pairwise_split(n), and runs its function on
each half, given the half's own start. The work arrays then hold half a chunk,
so the ones every row reads (top, second, the promised net) stay in a core's L2
cache from one array to the next instead of spilling out of it on each pass.
numpy's pairwise summation splits an array of n > 128 floats at that same h and
adds the halves' sums, as the accumulator joins a chunk's halves, so each chunk
sum keeps its bits. An estimate of one array keeps whole chunks: it reads each
array once, and splitting it costs more than it saves.

When an estimate has more than one chunk, its helper is the one worker of a
concurrent.futures.ThreadPoolExecutor that the call starts and joins. The call
submits each chunk to it, to be drawn with seeding.fill_uniforms into one of a
pool of three buffers, and prices next the first chunk the helper has drawn.
When none is drawn, a successful cancel() of the first chunk the helper has not
begun hands that chunk to the caller, which draws it itself; else the caller
waits for the helper's current chunk. Each buffer goes back to the helper with
the next chunk once its chunk is priced, so both threads draw when drawing is
the bottleneck. Each chunk holds the rows chunk_uniforms returns, and each part
is added with its start, so the order does not change an estimate. The helper
runs only fill_uniforms (numpy's fill releases the interpreter lock), which no
tracer layer wraps; a fill's failure comes back through its future, whose result
raises it on the caller. A one-chunk estimate starts no thread, and no setting
chooses the threads.

The adaptive attack needs tail resolution: profitable thresholds sit where
P[v_A >= T] is small. The estimator stratifies on v_A: the below-threshold
stratum coincides with honest play and contributes exactly zero, and the tail
stratum is sampled by conditional inverse-survival draws, weighted by the
closed-form tail probability.

The vector engine prices the attack on candidate profiles only. The deviation
pays nothing unless v_B > v_A, and whether that can hold is decided on the
uniforms before any value is computed: v_A comes from the survival probability
s = P[v >= v_A] = fl(fl(1 - u_A) sf(T)) and v_B from 1 - u_B, so a row with
1 - u_B > s (1 + _PRUNE_MARGIN) has v_B <= v_A and a zero net difference. The
test runs in two stages. Stage 1 reads the column u_B alone and keeps the rows
with 1 - u_B <= S = sf(T) (1 + _PRUNE_MARGIN), one scalar: as fl(1 - u_A) <= 1
and rounding is monotone, each row's own bound is at most S, so every row the
exact test keeps is among them. As uniforms are multiples of 2**-53, 1 - u_B is
exact, and stage 1 is one comparison, u_B >= 1 - floor(S 2**53) 2**-53. Stage 2
computes s on those rows only, about sf(T) of the stratum, and keeps the same
rows, in the same order, as the exact test on all rows. Only those, about
sf(T)/2 of the stratum, are mapped to v_A = isf(s), sample_tail's operations in
its order, and v_B = quantile(u_B), and priced by adaptive_net_delta, the
message engine's paired difference. The rest are exact zeros, in an array the
estimate owns (only the rows written last are cleared), so every estimate is
bit-identical to evaluating all rows, and it reads sf(T) once. This needs the
family's quantile and isf to be one non-increasing map of the survival
probability, up to float error far below the margin, as every family here is and
a new one must be.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    BoundCheck,
    ValueDistribution,
    _quad,
    _require_integer,
    _require_quantile_levels,
    _require_regular_finite_reserve,
    at_or_above_reserve,
    collateral as collateral_level,
    optimal_revenue,
    reserve_price,
    virtual_value,
)
from .estimate import ChunkAccumulator, Estimate, pairwise_split
from .protocol import AuctionConfig, run_auction
from .records import record
from .seeding import CHUNK_SAMPLES, chunk_bounds, chunk_uniforms, derive_seed, fill_uniforms
from .strategies import (  # noqa: F401 (perfbench's tracer finds _shill_net here)
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    Chunk,
    Honest,
    ShillBroadcast,
    Truthful,
    _bid_nets,
    _first_definer,
    _shill_net,
    adaptive_net_delta,
)

__all__ = [
    "estimate_revenue",
    "estimate_paired_difference",
    "estimate_myerson_gap",
    "check_conditional_bound",
    "estimate_adaptive_gain",
    "adaptive_gain_quadrature",
    "adaptive_net_delta",
    "credibility_suite",
    "CredibilityRow",
    "CredibilityReport",
    "attack_sweep",
    "AttackRow",
    "simulate_profile_net",
    "sample_values",
]

MIN_SAMPLES = 1_000
# Relative margin of the adaptive prune's candidate test. A relative gap of 1e-9
# between two survival probabilities is a gap of about 1e-9 between their
# logarithms, some 10^3 times the error of a computed log or log1p (a few ulp of
# at most 745). exp/expm1, products and quotients keep an order that wide, and
# Uniform's isf(s) is quantile(1 - s), where rounding keeps the order of the
# grid values 1 - u_B. So no pruned row could have had v_B > v_A.
_PRUNE_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# Revenue estimation: one loop over profile chunks, each strategy on its own path
# ---------------------------------------------------------------------------

def simulate_profile_net(config: AuctionConfig, strategy, values_row: Sequence[float],
                         run_seed: int) -> float:
    """Reference path: one full message-level run for one value profile."""
    buyers = [Truthful(float(v)) for v in values_row]
    run_config = replace(config, seed=run_seed)
    outcome, _ = run_auction(run_config, buyers, strategy)
    return outcome.auctioneer_net


def _value_stream_seed(seed: int) -> int:
    return derive_seed(seed, "values")


def sample_values(dist: ValueDistribution, n: int, seed: int) -> list:
    """The first value profile of the seed's stream (profile 0 of every estimate)."""
    _require_integer(n, "n")
    _require_integer(seed, "seed")
    u = chunk_uniforms(_value_stream_seed(seed), 0, 1, n)[0]
    return [float(v) for v in np.atleast_1d(dist.quantile(u))]


def _require_samples(samples: int) -> None:
    _require_integer(samples, "samples")
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")


def _estimate_each(seed: int, samples: int, cols: int, draw, count: int, nets) -> list:
    """The Monte Carlo loop: `count` Estimates, one per array that nets(chunk, start)
    yields for each chunk, in the order it yields them. Each chunk of the seed's
    stream is drawn whole and mapped to profiles by `draw` once, and each array is
    added to its own accumulator before the next one is asked for, so nets may write
    one array over the last. With count > 1, a chunk is priced as its two halves at
    pairwise_split, each added with its own start. The call's one Chunk carries the
    profiles and the work arrays from chunk to chunk. A helper thread draws chunks
    ahead, and the caller prices them as they come (see the module docstring)."""
    _require_samples(samples)
    _require_integer(seed, "seed")
    stream = _value_stream_seed(seed)
    accumulators = [ChunkAccumulator() for _ in range(count)]
    chunk = None

    def price(values, start):
        nonlocal chunk
        chunk = Chunk(values) if chunk is None else chunk.load(values)
        for acc, net in zip(accumulators, nets(chunk, start), strict=True):
            acc.add(net, start, square=chunk.work("scratch"))

    def price_halves(values, start):
        half = pairwise_split(len(values))
        if half is None:
            return price(values, start)
        price(values[:half], start)
        price(values[half:], start + half)

    consume = price if count == 1 else price_halves

    if samples <= CHUNK_SAMPLES:  # one chunk: no thread, and the uniforms die after draw
        consume(draw(chunk_uniforms(stream, 0, samples, cols)), 0)
        return [acc.result() for acc in accumulators]
    from concurrent.futures import ThreadPoolExecutor  # here: import drasim loads no logging

    helper, todo, pending = ThreadPoolExecutor(max_workers=1), chunk_bounds(samples), []

    def submit(buffer):
        """Hand the helper the next chunk nobody has taken, to draw into buffer."""
        for k, start, stop in islice(todo, 1):
            fill = partial(fill_uniforms, stream, k, buffer[:stop - start])
            pending.append((helper.submit(fill), fill, start, buffer))

    try:
        for _ in range(3):  # the pool both threads draw into
            submit(np.empty((CHUNK_SAMPLES, cols)))
        while pending:  # a drawn chunk, else one the helper has not begun, else its current one
            taken = (next((p for p in pending if p[0].done()), None)
                     or next((p for p in pending if p[0].cancel()), pending[0]))
            pending.remove(taken)
            future, fill, start, buffer = taken
            consume(draw(fill() if future.cancelled() else future.result()), start)
            submit(buffer)
    finally:  # cancels what the helper has not begun and joins it
        helper.shutdown(cancel_futures=True)
    return [acc.result() for acc in accumulators]


def _estimate(seed: int, samples: int, cols: int, draw, net) -> Estimate:
    """The Estimate of one function (chunk, start) -> array, on _estimate_each."""
    return _estimate_each(seed, samples, cols, draw, 1,
                          lambda chunk, start: (net(chunk, start),))[0]


def _auction_net(config: AuctionConfig, strategy, seed: int):
    """(chunk, start) -> net of `strategy` per profile by full message-level auctions,
    profile start + k run with seed derive_seed(seed, "run", start + k)."""
    def auctions(chunk, start):
        return np.array([simulate_profile_net(config, strategy, row,
                                              derive_seed(seed, "run", start + k))
                         for k, row in enumerate(chunk.values)])
    return auctions


def _pricing(config: AuctionConfig, strategy, seed: int):
    """(chunk, start) -> net of `strategy` per profile, by the path its class provides:
    its own vector_net, checked once for the estimate by check_config, where the first
    class of its MRO to define execute or vector_net defines vector_net; else
    _auction_net, as an execute overrides the one that vector_net mirrors."""
    if "vector_net" not in vars(_first_definer(type(strategy), "execute", "vector_net")):
        return _auction_net(config, strategy, seed)
    strategy.check_config(config)  # the ValueError that execute raises on the message engine
    return lambda chunk, start: strategy.vector_net(chunk, config)


def _difference(price, price_baseline):
    """(chunk, start) -> one pricing's net less the other's, per profile."""
    def paired(chunk, start):
        net = price(chunk, start).copy()  # pricing the baseline may write over the work arrays
        return np.subtract(net, price_baseline(chunk, start), out=net)
    return paired


def estimate_revenue(config: AuctionConfig, strategy, samples: int, seed: int) -> Estimate:
    """Mean auctioneer net over i.i.d. truthful value profiles, paired by seed."""
    return _estimate(seed, samples, config.n, config.dist.quantile,
                     _pricing(config, strategy, seed))


def estimate_paired_difference(config: AuctionConfig, strategy_a, strategy_b,
                               samples: int, seed: int) -> Estimate:
    """Mean of (net_a - net_b) over shared value profiles (common random numbers)."""
    diff = _difference(_pricing(config, strategy_a, seed), _pricing(config, strategy_b, seed))
    return _estimate(seed, samples, config.n, config.dist.quantile, diff)


def estimate_myerson_gap(config: AuctionConfig, samples: int, seed: int) -> Estimate:
    """Paired per-profile gap (payments minus allocated virtual value) under honesty.

    Myerson's identity makes the expectation zero for the truthful auction;
    the returned estimate carries the paired standard error for a 3-sigma test.
    """
    def gap(chunk, start):  # the honest auctioneer's net is the buyers' payments
        top, _ = chunk.top_two()
        _, sale = chunk.honest(config.reserve)
        welfare = np.where(sale, virtual_value(config.dist, top), 0.0)
        net = Honest().vector_net(chunk, config)
        return np.subtract(net, welfare, out=net)

    return _estimate(seed, samples, config.n, config.dist.quantile, gap)


def check_conditional_bound(dist: ValueDistribution, alpha: float, threshold: float,
                            samples: int, seed: int) -> BoundCheck:
    """Conditional mean bound E[v | v >= t] <= E[phi(v) | v >= t] / alpha + r(D).

    Monte Carlo on the one chunk loop: profile i is sample_tail(t, u_i) of the
    seed's value stream (a t with P[v >= t] = 0 is refused there). lhs is the
    mean of v, rhs adds the mean of the paired gap phi(v) / alpha + r - v, and
    the bound holds unless that gap is below zero by more than 3 standard errors.
    """
    if not alpha > 0.0:  # NaN too
        raise ValueError(f"alpha must be positive, got {alpha}")
    r = _require_regular_finite_reserve(dist)
    if not at_or_above_reserve(threshold, r):
        raise ValueError(f"threshold={threshold} below reserve {r}")

    def value_and_gap(chunk, start):
        v = chunk.values
        yield v
        yield virtual_value(dist, v) / alpha + r - v

    mean_v, mean_gap = _estimate_each(seed, samples, 1,
                                      lambda u: dist.sample_tail(threshold, u[:, 0]), 2,
                                      value_and_gap)
    slack = 3.0 * mean_gap.std_error
    return BoundCheck(lhs=mean_v.mean, rhs=mean_v.mean + mean_gap.mean,
                      holds=mean_gap.mean >= -slack, slack=slack)


# ---------------------------------------------------------------------------
# The adaptive attack: stratified estimator and quadrature oracle
# ---------------------------------------------------------------------------

def _attack_config(dist: ValueDistribution, threshold: float,
                   collateral: float) -> AuctionConfig:
    """The attack's two-buyer centralized auction, once its inputs are checked
    (AuctionConfig rejects a negative or non-finite collateral and an infinite
    reserve)."""
    config = AuctionConfig(n=2, dist=dist, reserve=reserve_price(dist), collateral=collateral,
                           mode="centralized", seed=0)
    AdaptiveReserve(threshold).check_config(config)  # refuses T below the reserve, or NaN
    return config


def _attack_profiles(dist: ValueDistribution, threshold: float, u: np.ndarray) -> np.ndarray:
    """(v_A, v_B) per row of uniforms, v_A conditioned on v_A >= T."""
    return np.column_stack([dist.sample_tail(threshold, u[:, 0]), dist.quantile(u[:, 1])])


def _stage_one_cut(bound: float) -> float:
    """The least multiple c of 2**-53 with 1 - c <= bound, or c <= 0 where bound >= 1: a
    uniform u on that grid, whose 1 - u is exact, has u >= c exactly where 1 - u <= bound."""
    return 1.0 - math.floor(bound * 2.0**53) * 2.0**-53


def _adaptive_rows(weight: float, u: np.ndarray) -> tuple:
    """(rows, s): the rows of u, in order, where v_B > v_A can hold for a stratum of this
    weight, and v_A's survival probability s = (1 - u_A) weight on each (see the module
    docstring). Stage 1 keeps the rows with u_B >= _stage_one_cut(S), on the column u_B
    alone, and stage 2 applies each kept row's own bound s (1 + _PRUNE_MARGIN) to them."""
    candidates = np.flatnonzero(u[:, 1] >= _stage_one_cut(weight * (1.0 + _PRUNE_MARGIN)))
    u = np.take(u, candidates, axis=0)
    s = np.subtract(1.0, u[:, 0])
    s *= weight
    kept = np.flatnonzero(1.0 - u[:, 1] <= s * (1.0 + _PRUNE_MARGIN))
    return np.take(candidates, kept), np.take(s, kept)


def _adaptive_gain_pruned(config: AuctionConfig, threshold: float, weight: float):
    """(chunk, start) -> adaptive_net_delta of the profiles _attack_profiles maps the
    chunk's uniforms to on the _adaptive_rows, and zero elsewhere, in one array of its own
    that stays zero between calls but on the rows written last, which are cleared."""
    delta, rows = np.zeros(0), []

    def pruned(chunk, start):
        nonlocal delta, rows
        u = chunk.values
        delta[rows] = 0.0
        if len(u) > len(delta):
            delta = np.zeros(len(u))
        rows, s = _adaptive_rows(weight, u)
        values = np.column_stack([config.dist.isf(s), config.dist.quantile(u[rows, 1])])
        delta[rows] = adaptive_net_delta(values, config.reserve, threshold, config.collateral)
        return delta[:len(u)]

    return pruned


def _stratified_gain(dist: ValueDistribution, threshold: float, collateral: float,
                     samples: int, seed: int, draw, gain) -> Estimate:
    """The tail stratum's Estimate, weighted by weight = P[v_A >= T]: `draw` maps the chunk's
    uniforms to what gain(config, weight) prices, (chunk, start) -> net difference per row.
    A stratum of weight 0 is exactly 0, not sampled, and still needs MIN_SAMPLES and an
    integer seed."""
    _require_samples(samples)  # an empty stratum too, which samples nothing
    _require_integer(seed, "seed")
    config = _attack_config(dist, threshold, collateral)
    weight = float(dist.sf(threshold))
    if weight == 0.0:  # an empty stratum: exactly zero, nothing sampled
        return Estimate(mean=0.0, std_error=0.0, samples=int(samples))
    cond = _estimate(seed, samples, 2, draw, gain(config, weight))
    return Estimate(mean=weight * cond.mean, std_error=weight * cond.std_error,
                    samples=cond.samples)


def estimate_adaptive_gain(dist: ValueDistribution, threshold: float, collateral: float,
                           samples: int, seed: int) -> Estimate:
    """E[adaptive net - honest net] for the two-buyer centralized deviation.

    Stratified on v_A: below the threshold the deviation coincides with honest
    play and contributes exactly zero (not sampled); the tail stratum draws
    v_A by conditional inverse-survival sampling and is weighted by the
    closed-form P[v_A >= T]. adaptive_net_delta prices the candidate profiles
    with v_B > v_A only, on the chunk's uniforms themselves; paired full auctions
    on every profile, _adaptive_gain_by_auctions, give the same bits. The plain
    estimate of the same gain, on unconditioned profiles, is
    estimate_paired_difference of AdaptiveReserve(T) against Honest() on the
    attack's centralized n = 2 config.
    """
    return _stratified_gain(dist, threshold, collateral, samples, seed, lambda u: u,
                            lambda config, weight: _adaptive_gain_pruned(config, threshold, weight))


def _adaptive_gain_by_auctions(dist: ValueDistribution, threshold: float, collateral: float,
                               samples: int, seed: int) -> Estimate:
    """estimate_adaptive_gain by paired full auctions of AdaptiveReserve(T) and Honest()
    on every profile of the stratum: the reference the tests hold it to."""
    def gain(config, weight):
        return _difference(_auction_net(config, AdaptiveReserve(threshold=threshold), seed),
                           _auction_net(config, Honest(), seed))

    return _stratified_gain(dist, threshold, collateral, samples, seed,
                            lambda u: _attack_profiles(dist, threshold, u), gain)


def adaptive_gain_quadrature(dist: ValueDistribution, threshold: float,
                             collateral: float) -> float:
    """Deterministic oracle for the adaptive gain.

    The double integral of the net difference over (v_A, v_B) on the stratum
    {v_A >= T} is taken in quantile space; for each v_A the inner v_B integral
    splits at the two analytic case boundaries (v_A and v_A + f), where the
    integrand is piecewise constant, leaving a smooth one-dimensional outer
    integral over the tail of v_A.
    """
    reserve = _attack_config(dist, threshold, collateral).reserve
    weight = float(dist.sf(threshold))
    if weight == 0.0:
        return 0.0

    def inner(s: float) -> float:
        a = float(dist.isf(s))
        lo = max(a, reserve)
        p_plus = float(dist.sf(a + collateral))
        p_minus = max(0.0, float(dist.sf(lo)) - p_plus)
        return collateral * (p_plus - p_minus)

    return _quad(inner, weight, epsabs=1e-9, epsrel=1e-10, limit=400)[0]


# ---------------------------------------------------------------------------
# Credibility experiment: a deviation grid against the optimal benchmark
# ---------------------------------------------------------------------------

@record
class CredibilityRow:
    """One strategy's revenue estimate against its bound Rev(D^n) + 3 SE; margin is
    the bound less the mean, and the row passes when it is not negative."""

    strategy: str
    estimate: Estimate
    bound: float
    margin: float
    passed: bool


@record
class CredibilityReport:
    """Per-deviation revenue estimates against Rev(D^n) + 3 SE."""

    collateral: float
    optimal_revenue: float
    rows: tuple
    worst_margin: float
    all_pass: bool
    violations: tuple


def _credibility_grid(chunk: Chunk, reserve: float, collateral: float, bids: Sequence[float]):
    """The credibility grid's nets on one chunk, in row order: the honest net, then
    each false bid's nets under the two stock policies from one reveal mask, by
    strategies._bid_nets, which leaves out the always net of a bid at or below the
    reserve (it is the honest net)."""
    yield chunk.honest(reserve)[0]
    yield from _bid_nets(chunk, reserve, collateral, bids)


def credibility_suite(dist: ValueDistribution, alpha: float, n: int,
                      deviation_quantiles: Sequence[float], samples: int, seed: int,
                      collateral_override: Optional[float] = None) -> CredibilityReport:
    """Estimate revenue for honest play and a grid of shill deviations.

    The grid crosses false-bid levels (quantiles of D, each in (0, 1)) with the
    two stock reveal policies. Each estimate is compared against the quadrature
    optimal revenue plus 3 standard errors; with the collateral formula in force
    all rows must pass, and with a deliberately reduced deposit the report flags
    the deviations that beat the benchmark (informational).

    The grid is priced in one pass per chunk, by _credibility_grid. An always row
    whose bid is at or below the reserve prices the honest net bit for bit, so it
    takes the honest row's estimate and is not priced again.
    """
    _require_quantile_levels(deviation_quantiles, "deviation_quantiles")
    _require_integer(seed, "seed")  # before the quadrature of Rev(D^n)
    f_amount = collateral_override if collateral_override is not None \
        else collateral_level(dist, n, alpha)
    config = AuctionConfig(n=n, dist=dist, reserve=reserve_price(dist), collateral=f_amount,
                           mode="broadcast", seed=0)
    rev = optimal_revenue(dist, n).mean
    bids = [float(dist.quantile(u)) for u in deviation_quantiles]
    strategies = [Honest()]
    for bid in bids:
        for policy in (ALWAYS_REVEAL, WITHHOLD_IF_WINNING):
            strategies.append(ShillBroadcast(false_bids=(bid,), reveal_policy=policy))
    ShillBroadcast(false_bids=tuple(bids)).check_config(config)  # every row's setting and bid
    reserve = config.reserve
    count = 1 + len(bids) + sum(bid > reserve for bid in bids)
    priced = iter(_estimate_each(
        seed, samples, n, dist.quantile, count,
        lambda chunk, start: _credibility_grid(chunk, reserve, f_amount, bids)))
    honest = next(priced)
    estimates = [honest]
    for bid in bids:
        estimates += [next(priced) if bid > reserve else honest, next(priced)]
    rows = []
    for strategy, est in zip(strategies, estimates):
        bound = rev + 3.0 * est.std_error
        margin = bound - est.mean
        rows.append(CredibilityRow(strategy=strategy.describe(), estimate=est,
                                   bound=bound, margin=margin, passed=margin >= 0.0))
    violations = tuple(row.strategy for row in rows if not row.passed)
    return CredibilityReport(collateral=f_amount, optimal_revenue=rev, rows=tuple(rows),
                             worst_margin=min(row.margin for row in rows),
                             all_pass=not violations,
                             violations=violations)


# ---------------------------------------------------------------------------
# Attack sweep over thresholds (estimator next to its oracle)
# ---------------------------------------------------------------------------

@record
class AttackRow:
    """One threshold of an attack sweep: the gain's estimate and quadrature value,
    and the estimate's relative error against it (None where the quadrature is 0)."""

    threshold: float
    estimate: Estimate
    quadrature: float
    significant: bool       # estimate > 0 at 3 SE
    oracle_rel_err: Optional[float]


def attack_sweep(dist: ValueDistribution, collateral: float,
                 thresholds: Sequence[float], samples: int, seed: int) -> list:
    """Stratified gain estimates and quadrature values over a threshold sweep."""
    rows = []
    for i, threshold in enumerate(thresholds):
        est = estimate_adaptive_gain(dist, threshold, collateral, samples,
                                     derive_seed(seed, "T", i))
        quad = adaptive_gain_quadrature(dist, threshold, collateral)
        rel = abs(est.mean - quad) / abs(quad) if quad != 0.0 else None
        rows.append(AttackRow(threshold=float(threshold), estimate=est, quadrature=quad,
                              significant=est.mean > 3.0 * est.std_error,
                              oracle_rel_err=rel))
    return rows
