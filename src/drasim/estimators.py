"""Revenue estimation: vectorized Monte Carlo, a stratified rare-event estimator
for the adaptive attack, and a deterministic quadrature oracle for it.

Two engines are provided and kept in exact agreement:

  * "simulate" runs the full message-level auction per sampled value profile.
    It is the reference semantics and is used directly by the structural and
    game-theoretic tests.
  * "vector" prices each profile by vector_net(chunk, config), the closed form
    that the strategy's class defines beside its execute; a class that
    overrides execute below that one must run on engine="simulate". The test
    suite asserts per-profile equality of the two engines, so the fast path
    carries the simulator's semantics, not a reimplementation of its own.

Every estimator runs on one loop over chunked counter-based streams (see
seeding) that draws each profile once for all the strategies it prices, and
needs MIN_SAMPLES samples or more. An estimate is a pure function of (config,
strategy, samples, seed) however chunks are scheduled, and strategies under
one seed share identical value profiles (paired comparisons by construction).

The loop hands each chunk to the functions it prices as one strategies.Chunk:
the profiles, their top two and the promised auction's price and sale mask,
each computed once per chunk for all the strategies, and work arrays that the
kernels and the accumulator write into. One Chunk carries an estimate from
chunk to chunk, so its work arrays are allocated once per call, on the calling
thread. An array a kernel returns may be one of them and holds only until the
next kernel call on the chunk, so a paired difference copies the first net
before it prices the baseline.

The loop prices the chunks in order on the calling thread. When an estimate
has more than one chunk, one helper thread, started and joined by the call,
shares each chunk's draw with the caller: a chunk is split into slices of
SLICE_ROWS rows, which both threads take from one iterator and draw with
seeding.fill_uniforms into one of two alternating buffers. The helper starts
on chunk k + 1 while the caller prices chunk k; the caller then draws the
slices of chunk k + 1 that nobody has started and joins the helper, so the
split follows the cost of the pricing. The helper runs only fill_uniforms
(numpy's fill releases the interpreter lock), no function the benchmark's
tracer wraps, and each slice holds the rows chunk_uniforms would return, so
the estimates do not depend on it. A one-chunk estimate starts no thread.

The adaptive attack needs tail resolution: profitable thresholds sit where
P[v_A >= T] is small. The estimator stratifies on v_A: the below-threshold
stratum coincides with honest play and contributes exactly zero, and the tail
stratum is sampled by conditional inverse-survival draws, weighted by the
closed-form tail probability.

The vector engine prices the attack on candidate profiles only. The deviation
pays nothing unless v_B > v_A, and whether that can hold is decided on the
uniforms before any value is computed: v_A comes from the survival probability
s = P[v >= v_A] (s = sf(T) (1 - u_A) in the stratum, 1 - u_A without it) and
v_B from 1 - u_B, so a row with 1 - u_B > s (1 + _PRUNE_MARGIN) has v_B <= v_A
and a zero net difference. Only the other rows, about sf(T)/2 of the stratum
(half of the rows without it), are mapped through sample_tail/quantile and
adaptive_net_delta; the rest are exact zeros, so the accumulated arrays, and every estimate, are bit-identical
to evaluating all rows. This needs the family's quantile and isf to be one
non-increasing map of the survival probability, up to float error far below
the margin, as every family here is.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    QUAD_ABS_TOL,
    ValueDistribution,
    _quad,
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
# rows of one share of a chunk's fill, 8 per full chunk; a multiple of 4, so every
# slice starts where fill_uniforms can start
SLICE_ROWS = 8_192
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


def _fill_slices(stream: int, chunk_index: int, u: np.ndarray, firsts, lock) -> None:
    """Draw the chunk's rows [first, first + SLICE_ROWS) into u for each first that
    this thread takes from the iterator it shares with the other thread. The lock
    hands each first out once: an iterator shared by threads may not, on a Python
    without the interpreter lock."""
    while True:
        with lock:
            first = next(firsts, None)
        if first is None:
            return
        fill_uniforms(stream, chunk_index, u[first:first + SLICE_ROWS], first)


def _estimate_each(seed: int, samples: int, cols: int, draw, per_profile) -> list:
    """The Monte Carlo loop: one Estimate per function (chunk, start) -> array. Each
    chunk of the seed's stream is drawn and mapped to profiles by `draw` once, and
    each function's array for it goes to its own accumulator in turn, in chunk
    order. The call's one Chunk carries the profiles and the work arrays from
    chunk to chunk. The caller and a helper thread share each chunk's fill, slice
    by slice, and the helper starts on the next chunk while the caller prices this
    one (see the module docstring)."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    stream = _value_stream_seed(seed)
    chunks = list(chunk_bounds(samples))
    accumulators = [ChunkAccumulator() for _ in per_profile]
    chunk = None

    def consume(values, start):
        nonlocal chunk
        chunk = Chunk(values) if chunk is None else chunk.load(values)
        for net, acc in zip(per_profile, accumulators):
            acc.add(net(chunk, start), square=chunk.work("square"))

    if len(chunks) == 1:  # nothing to overlap: no thread, and the uniforms die after draw
        consume(draw(chunk_uniforms(stream, 0, samples, cols)), 0)
        return [acc.result() for acc in accumulators]
    # imported here: concurrent.futures loads logging, which `import drasim`,
    # the message engine and one-chunk estimates have no use for
    from concurrent.futures import ThreadPoolExecutor

    buffers = (np.empty((CHUNK_SAMPLES, cols)), np.empty((CHUNK_SAMPLES, cols)))
    lock = threading.Lock()
    with ThreadPoolExecutor(max_workers=1) as helper:
        def begin(k):
            """Start the helper on chunk k's slices, into buffers[k % 2]. The function
            returned draws the slices nobody has started, joins the helper and gives
            the chunk's uniforms."""
            _, start, stop = chunks[k]
            u = buffers[k % 2][:stop - start]
            firsts = iter(range(0, stop - start, SLICE_ROWS))
            pending = helper.submit(_fill_slices, stream, k, u, firsts, lock)

            def finish():
                _fill_slices(stream, k, u, firsts, lock)
                pending.result()
                return u
            return finish

        finish = begin(0)
        for k, start, _ in chunks[:-1]:
            u = finish()
            finish = begin(k + 1)  # into the buffer that chunk k - 1 was priced from
            consume(draw(u), start)
        u = finish()
    consume(draw(u), chunks[-1][1])
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


def _attack_profiles(dist: ValueDistribution, threshold: float, stratified: bool,
                     u: np.ndarray) -> np.ndarray:
    """(v_A, v_B) per row of uniforms: v_A conditioned on v_A >= T when stratified."""
    v_a = dist.sample_tail(threshold, u[:, 0]) if stratified else dist.quantile(u[:, 0])
    return np.column_stack([v_a, dist.quantile(u[:, 1])])


def _adaptive_gain_pruned(dist: ValueDistribution, threshold: float, collateral: float,
                          stratified: bool, u: np.ndarray) -> np.ndarray:
    """adaptive_net_delta of the profiles _attack_profiles maps u to, evaluated only
    on the rows where v_B > v_A can hold (see the module docstring); zero elsewhere."""
    s = 1.0 - u[:, 0]  # in place from here: no second chunk-sized temporary
    s *= float(dist.sf(threshold)) if stratified else 1.0
    s *= 1.0 + _PRUNE_MARGIN
    rows = np.flatnonzero(1.0 - u[:, 1] <= s)
    del s
    delta = np.zeros(len(u))
    delta[rows] = adaptive_net_delta(_attack_profiles(dist, threshold, stratified, u[rows]),
                                     reserve_price(dist), threshold, collateral)
    return delta


def estimate_adaptive_gain(dist: ValueDistribution, threshold: float, collateral: float,
                           samples: int, seed: int, engine: str = "vector",
                           stratified: bool = True) -> Estimate:
    """E[adaptive net - honest net] for the two-buyer centralized deviation.

    Stratified on v_A: below the threshold the deviation coincides with honest
    play and contributes exactly zero (not sampled); the tail stratum draws
    v_A by conditional inverse-survival sampling and is weighted by the
    closed-form P[v_A >= T]. The vector engine evaluates the case arithmetic
    on the candidate profiles with v_B > v_A only; engine="simulate" runs
    paired full auctions on every profile instead.
    """
    config = _attack_config(dist, threshold, collateral)
    weight = float(dist.sf(threshold)) if stratified else 1.0
    if stratified and weight == 0.0:  # an empty stratum: exactly zero, nothing sampled
        return Estimate(mean=0.0, std_error=0.0, samples=int(samples))
    if engine == "vector":  # the kernel takes the chunk's uniforms themselves
        def draw(u):
            return u

        def gain(chunk, start):
            return _adaptive_gain_pruned(dist, threshold, collateral, stratified, chunk.values)
    else:
        def draw(u):
            return _attack_profiles(dist, threshold, stratified, u)

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

    return _quad(inner, weight, epsabs=QUAD_ABS_TOL * 0.1, epsrel=1e-10, limit=400)[0]


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
                      collateral_override: Optional[float] = None,
                      engine: str = "vector") -> CredibilityReport:
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
    nets = [_net_function(config, strategy, seed, engine) for strategy in strategies]
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
                 thresholds: Sequence[float], samples: int, seed: int,
                 engine: str = "vector") -> list:
    """Stratified gain estimates and quadrature values over a threshold sweep."""
    rows = []
    for i, threshold in enumerate(thresholds):
        est = estimate_adaptive_gain(dist, threshold, collateral, samples,
                                     derive_seed(seed, "T", i), engine=engine)
        quad = adaptive_gain_quadrature(dist, threshold, collateral)
        rel = abs(est.mean - quad) / abs(quad) if quad != 0.0 else None
        rows.append(AttackRow(threshold=float(threshold), estimate=est, quadrature=quad,
                              significant=est.mean > 3.0 * est.std_error,
                              oracle_rel_err=rel))
    return rows
