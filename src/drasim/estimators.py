"""Revenue estimation: vectorized Monte Carlo, a stratified rare-event estimator
for the adaptive attack, a deterministic quadrature oracle for it, and the Monte
Carlo check of the conditional tail bound.

Two engines are provided and kept in exact agreement:

  * "simulate" runs the full message-level auction per sampled value profile.
    It is the reference semantics and is used directly by the structural and
    game-theoretic tests.
  * "vector" prices each profile by vector_net(chunk, config), the closed form
    that the strategy's class defines beside its execute; a class that
    overrides execute below that one must run on engine="simulate". The test
    suite asserts per-profile equality of the two engines, so the fast path
    carries the simulator's semantics, not a reimplementation of its own.

Only estimate_revenue and estimate_adaptive_gain take engine=, the tests'
reference hook: on every strategy a config builds the engines give the same bits.

Every estimator, and check_conditional_bound, runs on one loop over chunked
counter-based streams (see seeding) that draws each profile once for all the
functions it prices, and needs MIN_SAMPLES samples or more. An estimate is a
pure function of (config, strategy, samples, seed) however chunks are
scheduled, and strategies under one seed share identical value profiles
(paired comparisons by construction).

The loop hands each chunk to the functions it prices as one strategies.Chunk:
the profiles, their top two and the promised auction's net and sale mask, each
computed once per chunk for all the strategies, and work arrays that the
kernels and the accumulator write into (the Chunk docstring lists them). One
Chunk carries an estimate from chunk to chunk, so its work arrays are allocated
once per call, on the calling thread (twice when the short last chunk comes
first); the shill kernels and the accumulator allocate nothing chunk-sized per
strategy (the accumulator writes its squares into the work array "scratch",
where no kernel result lives). An array a kernel returns may be one of them and
holds only until the next kernel call on the chunk, so a paired difference
copies the first net before it prices the baseline.

When an estimate has more than one chunk, one helper thread, started and
joined by the call, draws whole chunks ahead of the caller with
seeding.fill_uniforms, into its two buffers, taking each chunk index from a
queue both threads share. The caller prices the chunks as they arrive and,
when none is waiting, draws the next one itself into a third buffer, so the
split follows the cost of the pricing. Each chunk holds the rows
chunk_uniforms returns, and ChunkAccumulator merges per-chunk sums with the
exact math.fsum, so the order does not change an estimate. The helper runs
only fill_uniforms (numpy's fill releases the interpreter lock), which no
tracer layer wraps; the caller raises its failures. A one-chunk estimate
starts no thread.

The adaptive attack needs tail resolution: profitable thresholds sit where
P[v_A >= T] is small. The estimator stratifies on v_A: the below-threshold
stratum coincides with honest play and contributes exactly zero, and the tail
stratum is sampled by conditional inverse-survival draws, weighted by the
closed-form tail probability.

The vector engine prices the attack on candidate profiles only. The deviation
pays nothing unless v_B > v_A, and whether that can hold is decided on the
uniforms before any value is computed: v_A comes from the survival probability
s = P[v >= v_A] = sf(T) (1 - u_A) and v_B from 1 - u_B, so a row with
1 - u_B > s (1 + _PRUNE_MARGIN) has v_B <= v_A and a zero net difference. The
test runs in two stages. Stage 1 reads the column u_B alone and keeps the rows
with 1 - u_B <= S = sf(T) (1 + _PRUNE_MARGIN), one scalar: as fl(1 - u_A) <= 1
and rounding is monotone, each row's own bound fl(fl(fl(1 - u_A) sf(T)) (1 +
_PRUNE_MARGIN)) is at most S, so every row the exact test keeps is among them.
Stage 2 applies the exact test to those rows only, about sf(T) of the stratum,
and keeps the same rows, in the same order, as the exact test on all rows. Only
those, about sf(T)/2 of the stratum, are mapped through sample_tail/quantile and
adaptive_net_delta, the message engine's paired difference; the rest are exact
zeros, so the accumulated arrays, and every estimate, are bit-identical to
evaluating all rows. This needs the family's quantile and isf to be one
non-increasing map of the survival probability, up to float error far below
the margin, as every family here is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from queue import Empty, SimpleQueue
from threading import Thread
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    BoundCheck,
    ValueDistribution,
    _quad,
    _require_regular_finite_reserve,
    at_or_above_reserve,
    collateral as collateral_level,
    optimal_revenue,
    reserve_price,
    virtual_value,
)
from .estimate import ChunkAccumulator, Estimate
from .protocol import AuctionConfig, run_auction
from .seeding import CHUNK_SAMPLES, chunk_bounds, chunk_uniforms, derive_seed, fill_uniforms
from .strategies import (  # noqa: F401 (perfbench's tracer finds _shill_net here)
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    Chunk,
    Honest,
    ShillBroadcast,
    Truthful,
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
    "ENGINES",
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
# Revenue estimation: one loop over profile chunks and one engine switch
# ---------------------------------------------------------------------------

def _vector_net(config: AuctionConfig, strategy):
    """strategy.vector_net, checked once for an estimate: refused where an execute
    overrides the one it mirrors (the first class of the MRO to define either
    method must define vector_net), and where check_config refuses the config."""
    if "vector_net" not in vars(_first_definer(type(strategy), "execute", "vector_net")):
        raise ValueError(f"no vector path for {type(strategy).__name__}; use engine='simulate'")
    strategy.check_config(config)  # the ValueError that execute raises on the message engine
    return strategy.vector_net


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
    u = chunk_uniforms(_value_stream_seed(seed), 0, 1, n)[0]
    return [float(v) for v in np.atleast_1d(dist.quantile(u))]


def _require_samples(samples: int) -> None:
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")


def _estimate_each(seed: int, samples: int, cols: int, draw, per_profile) -> list:
    """The Monte Carlo loop: one Estimate per function (chunk, start) -> array. Each
    chunk of the seed's stream is drawn whole and mapped to profiles by `draw` once,
    and each function's array for it goes to its own accumulator. The call's one
    Chunk carries the profiles and the work arrays from chunk to chunk. A helper
    thread draws chunks ahead, and the caller prices them in the order they come
    (see the module docstring)."""
    _require_samples(samples)
    stream = _value_stream_seed(seed)
    chunks = list(chunk_bounds(samples))
    accumulators = [ChunkAccumulator() for _ in per_profile]
    chunk = None

    def consume(values, start):
        nonlocal chunk
        chunk = Chunk(values) if chunk is None else chunk.load(values)
        for net, acc in zip(per_profile, accumulators):
            acc.add(net(chunk, start), square=chunk.work("scratch"))

    if len(chunks) == 1:  # nothing to overlap: no thread, and the uniforms die after draw
        consume(draw(chunk_uniforms(stream, 0, samples, cols)), 0)
        return [acc.result() for acc in accumulators]
    todo, free, ready = SimpleQueue(), SimpleQueue(), SimpleQueue()
    for bounds in chunks:
        todo.put(bounds)
    own = np.empty((CHUNK_SAMPLES, cols))  # the caller's buffer; the helper's two are in free
    for _ in range(2):
        free.put(np.empty((CHUNK_SAMPLES, cols)))

    def take(buffer):
        """(buffer, start, stop) with the next chunk nobody has taken drawn into
        buffer, or None when every chunk is taken."""
        try:
            k, start, stop = todo.get_nowait()
        except Empty:
            return None
        fill_uniforms(stream, k, buffer[:stop - start])
        return buffer, start, stop

    def draw_ahead():
        """The helper: draw chunks into free buffers and queue them, until every
        chunk is taken or it takes None from free. A failure is queued for the
        caller, which raises it."""
        try:
            while (buffer := free.get()) is not None and (drawn := take(buffer)) is not None:
                ready.put(drawn)
        except BaseException as exc:
            ready.put(exc)

    helper = Thread(target=draw_ahead)
    helper.start()
    try:
        for _ in chunks:
            try:  # a chunk the helper queued, else one drawn here, else the helper's next
                drawn = ready.get_nowait()
            except Empty:
                drawn = take(own) or ready.get()
            if isinstance(drawn, BaseException):
                raise drawn
            buffer, start, stop = drawn
            consume(draw(buffer[:stop - start]), start)
            if buffer is not own:
                free.put(buffer)
    finally:  # the helper stops at the None, after at most its two buffers
        free.put(None)
        helper.join()
    return [acc.result() for acc in accumulators]


def _vectorized(config: AuctionConfig, strategy, seed: int, baseline):
    kernel = _vector_net(config, strategy)
    if baseline is None:
        return lambda chunk, start: kernel(chunk, config)
    baseline_kernel = _vector_net(config, baseline)

    def paired(chunk, start):
        net = kernel(chunk, config).copy()  # pricing the baseline may write over the work arrays
        return np.subtract(net, baseline_kernel(chunk, config), out=net)
    return paired


def _simulated(config: AuctionConfig, strategy, seed: int, baseline):
    def simulated(chunk, start):
        nets = []
        for k, row in enumerate(chunk.values):
            run_seed = derive_seed(seed, "run", start + k)
            net = simulate_profile_net(config, strategy, row, run_seed)
            if baseline is not None:
                net -= simulate_profile_net(config, baseline, row, run_seed)
            nets.append(net)
        return np.asarray(nets)
    return simulated


# the engines by name, each a builder of _net_function's per-chunk functions
ENGINES = {"vector": _vectorized, "simulate": _simulated}


def _net_function(config: AuctionConfig, strategy, seed: int, engine: str,
                  baseline=None):
    """The engine switch: (chunk, start) -> net of `strategy` (less `baseline`'s) per
    profile, by the closed form that _vector_net checks once, or by full auctions
    where profile start + k runs with seed derive_seed(seed, "run", start + k)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    return ENGINES[engine](config, strategy, seed, baseline)


def estimate_revenue(config: AuctionConfig, strategy, samples: int, seed: int,
                     engine: str = "vector") -> Estimate:
    """Mean auctioneer net over i.i.d. truthful value profiles, paired by seed."""
    net = _net_function(config, strategy, seed, engine)
    return _estimate_each(seed, samples, config.n, config.dist.quantile, [net])[0]


def estimate_paired_difference(config: AuctionConfig, strategy_a, strategy_b,
                               samples: int, seed: int) -> Estimate:
    """Mean of (net_a - net_b) over shared value profiles (common random numbers)."""
    diff = _net_function(config, strategy_a, seed, "vector", baseline=strategy_b)
    return _estimate_each(seed, samples, config.n, config.dist.quantile, [diff])[0]


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

    return _estimate_each(seed, samples, config.n, config.dist.quantile, [gap])[0]


def check_conditional_bound(dist: ValueDistribution, alpha: float, threshold: float,
                            samples: int = 1_000_000, seed: int = 0) -> BoundCheck:
    """Conditional mean bound E[v | v >= t] <= E[phi(v) | v >= t] / alpha + r(D).

    Monte Carlo on the one chunk loop: profile i is sample_tail(t, u_i) of the
    seed's value stream (a t with P[v >= t] = 0 is refused there). lhs is the
    mean of v, rhs adds the mean of the paired gap phi(v) / alpha + r - v, and
    the bound holds unless that gap is below zero by more than 3 standard errors.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    r = _require_regular_finite_reserve(dist)
    if not at_or_above_reserve(threshold, r):
        raise ValueError(f"threshold={threshold} below reserve {r}")

    def gap(chunk, start):
        v = chunk.values
        return virtual_value(dist, v) / alpha + r - v

    mean_v, mean_gap = _estimate_each(seed, samples, 1,
                                      lambda u: dist.sample_tail(threshold, u[:, 0]),
                                      [lambda chunk, start: chunk.values, gap])
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


def _adaptive_rows(sf: float, u: np.ndarray) -> np.ndarray:
    """The rows of u, in order, where v_B > v_A can hold for a stratum of weight sf
    (see the module docstring): stage 1 keeps the rows with 1 - u_B <= S, on the
    column u_B alone, and stage 2 applies each kept row's own bound to them."""
    candidates = np.flatnonzero(1.0 - u[:, 1] <= sf * (1.0 + _PRUNE_MARGIN))
    u = np.take(u, candidates, axis=0)
    s = 1.0 - u[:, 0]  # in place from here
    s *= sf
    s *= 1.0 + _PRUNE_MARGIN
    return np.take(candidates, np.flatnonzero(1.0 - u[:, 1] <= s))


def _adaptive_gain_pruned(dist: ValueDistribution, threshold: float, collateral: float,
                          chunk: Chunk) -> np.ndarray:
    """adaptive_net_delta of the profiles _attack_profiles maps the chunk's uniforms
    to on the _adaptive_rows, and zero elsewhere, in the chunk's work array "net"."""
    u = chunk.values
    rows = _adaptive_rows(float(dist.sf(threshold)), u)
    delta = chunk.work("net")
    delta.fill(0.0)
    delta[rows] = adaptive_net_delta(_attack_profiles(dist, threshold, np.take(u, rows, axis=0)),
                                     reserve_price(dist), threshold, collateral)
    return delta


def estimate_adaptive_gain(dist: ValueDistribution, threshold: float, collateral: float,
                           samples: int, seed: int, engine: str = "vector") -> Estimate:
    """E[adaptive net - honest net] for the two-buyer centralized deviation.

    Stratified on v_A: below the threshold the deviation coincides with honest
    play and contributes exactly zero (not sampled); the tail stratum draws
    v_A by conditional inverse-survival sampling and is weighted by the
    closed-form P[v_A >= T]. The vector engine prices adaptive_net_delta on the
    candidate profiles with v_B > v_A only; engine="simulate" runs paired full
    auctions on every profile and gives the same bits. The plain estimate of the
    same gain, on unconditioned profiles, is estimate_paired_difference of
    AdaptiveReserve(T) against Honest() on the attack's centralized n = 2 config.
    """
    _require_samples(samples)  # an empty stratum too, which samples nothing
    config = _attack_config(dist, threshold, collateral)
    weight = float(dist.sf(threshold))
    if weight == 0.0:  # an empty stratum: exactly zero, nothing sampled
        return Estimate(mean=0.0, std_error=0.0, samples=int(samples))
    if engine == "vector":  # the kernel takes the chunk's uniforms themselves
        def draw(u):
            return u

        def gain(chunk, start):
            return _adaptive_gain_pruned(dist, threshold, collateral, chunk)
    else:
        def draw(u):
            return _attack_profiles(dist, threshold, u)

        gain = _net_function(config, AdaptiveReserve(threshold=threshold), seed, engine,
                             baseline=Honest())
    cond = _estimate_each(seed, samples, 2, draw, [gain])[0]
    return Estimate(mean=weight * cond.mean, std_error=weight * cond.std_error,
                    samples=cond.samples)


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

@dataclass(frozen=True)
class CredibilityRow:
    strategy: str
    estimate: Estimate
    bound: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class CredibilityReport:
    """Per-deviation revenue estimates against Rev(D^n) + 3 SE."""

    collateral: float
    optimal_revenue: float
    rows: tuple
    worst_margin: float
    all_pass: bool
    violations: tuple

    def flagged(self) -> bool:
        return len(self.violations) > 0


def credibility_suite(dist: ValueDistribution, alpha: float, n: int,
                      deviation_quantiles: Sequence[float], samples: int, seed: int,
                      collateral_override: Optional[float] = None) -> CredibilityReport:
    """Estimate revenue for honest play and a grid of shill deviations.

    The grid crosses false-bid levels (quantiles of D) with the two stock
    reveal policies. Each estimate is compared against the quadrature optimal
    revenue plus 3 standard errors; with the collateral formula in force all
    rows must pass, and with a deliberately reduced deposit the report flags
    the deviations that beat the benchmark (informational).
    """
    f_amount = collateral_override if collateral_override is not None \
        else collateral_level(dist, n, alpha)
    config = AuctionConfig(n=n, dist=dist, reserve=reserve_price(dist), collateral=f_amount,
                           mode="broadcast", seed=0)
    rev = optimal_revenue(dist, n).mean
    strategies = [Honest()]
    for u in deviation_quantiles:
        bid = float(dist.quantile(u))
        for policy in (ALWAYS_REVEAL, WITHHOLD_IF_WINNING):
            strategies.append(ShillBroadcast(false_bids=(bid,), reveal_policy=policy))
    nets = [_net_function(config, strategy, seed, "vector") for strategy in strategies]
    estimates = _estimate_each(seed, samples, n, dist.quantile, nets)
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

@dataclass(frozen=True)
class AttackRow:
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
