"""Property-based checks of the message-level engine: every generated run of an
implemented deviation passes its structural audit, conserves money, and leaves
each buyer a view that the consistency checker accepts. Also the vector
engine's top-two kernel against a sort, the shill kernel's 0/1-mask products
against the selects they replace, each auctioneer family's closed form against
the message engine on every profile, and the pruned adaptive-attack kernel
against the case arithmetic on every row."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    NoReveal,
    ShillBroadcast,
    Truthful,
    Uniform,
    adaptive_net_delta,
    check_view_consistency,
    conservation_residual,
    reserve_price,
    run_auction,
)
from drasim.estimators import _adaptive_gain_pruned, _vector_net, simulate_profile_net
from drasim.protocol import MONEY_TOL
from drasim.strategies import Chunk, _shill_net, _top_two
from drasim.verification import audit_run

GPA = GeneralizedPareto(0.5)
R = reserve_price(GPA)

amounts = st.floats(min_value=0.0, max_value=64.0)
buyer = st.one_of(
    st.builds(Truthful, amounts),
    st.builds(FixedBid, amounts, amounts),
    st.builds(NoReveal, amounts),
)


@st.composite
def runs(draw):
    """(config, buyers, auctioneer) over the five deviation families in their modes."""
    family = draw(st.sampled_from(
        ("honest", "shill_reveal", "shill_withhold", "lifted_shill", "adaptive")))
    n = 2 if family == "adaptive" else draw(st.integers(1, 3))
    false_bid = draw(amounts)
    auctioneer, mode = {
        "honest": (Honest(), "broadcast"),
        "shill_reveal": (ShillBroadcast((false_bid,), ALWAYS_REVEAL), "broadcast"),
        "shill_withhold": (ShillBroadcast((false_bid,), WITHHOLD_IF_WINNING), "broadcast"),
        "lifted_shill": (Lifted(ShillBroadcast((false_bid,), WITHHOLD_IF_WINNING)),
                         "centralized"),
        "adaptive": (AdaptiveReserve(draw(st.floats(min_value=R, max_value=64.0))),
                     "centralized"),
    }[family]
    collateral = draw(st.floats(min_value=0.0, max_value=32.0, exclude_min=True))
    config = AuctionConfig(n=n, dist=GPA, reserve=R, collateral=collateral, mode=mode,
                           seed=draw(st.integers(0, 2**63 - 1)))
    return config, draw(st.lists(buyer, min_size=n, max_size=n)), auctioneer


@settings(max_examples=300, derandomize=True, deadline=None)
@given(runs())
def test_generated_runs_audit_clean(run):
    config, buyers, auctioneer = run
    result = audit_run(config, buyers, auctioneer)
    assert result.violations == ()
    assert abs(conservation_residual(result.outcome)) <= MONEY_TOL
    _, transcript = run_auction(config, buyers, auctioneer)
    for view in transcript.buyer_views().values():
        assert check_view_consistency(view, config, transcript.scheme)


# few distinct values, so that ties and repeats within a profile are common
value = st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                  st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
profiles = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=16))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(profiles)
def test_top_two_matches_sort(rows):
    values = np.array(rows, dtype=float)
    top, second = _top_two(values)
    ordered = np.sort(values, axis=1)
    assert np.array_equal(top, ordered[:, -1])
    if values.shape[1] == 1:
        assert np.array_equal(second, np.zeros(len(values)))
    else:
        assert np.array_equal(second, ordered[:, -2])


def shill_net_by_selects(values, reserve, collateral, false_bids, withhold_winning):
    """_shill_net's arithmetic with np.where selects, as the kernel had it before it
    multiplied by 0/1 masks."""
    top, second = _top_two(values)
    price, sale = np.maximum(reserve, second), top > reserve
    if not false_bids:
        return np.where(sale, price, 0.0)
    fb = np.asarray(false_bids, dtype=float)
    if not withhold_winning:
        return np.where((top >= fb.max()) & sale, np.maximum(price, fb.max()), 0.0)
    shill_price, withheld = price, np.zeros(len(values))
    for bid in fb:
        withheld = withheld + (bid > top)
        shill_price = np.where(bid > top, shill_price, np.maximum(shill_price, bid))
    return np.where(sale, shill_price, 0.0) - collateral * withheld


# reserves, values and false bids from one pool, so that bids tie the top and second
# values and the reserve; false bids may also be zero or negative
reserves = st.sampled_from((R, 1.0, 3.0))
shill_values = st.one_of(st.sampled_from((0.0, R, 1.0, 3.0, 5.0)), amounts)
shill_bids = st.one_of(shill_values, st.sampled_from((-0.0, -1.0, -R)))


@st.composite
def shill_chunks(draw):
    """(values, reserve, collateral, schedules): one chunk and the shill schedules
    priced on it in turn, each up to three false bids under either policy."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(shill_values, min_size=n, max_size=n), min_size=1,
                         max_size=16))
    schedules = draw(st.lists(st.tuples(st.lists(shill_bids, max_size=3), st.booleans()),
                              min_size=1, max_size=3))
    collateral = draw(st.floats(min_value=0.0, max_value=32.0, exclude_min=True))
    return np.array(rows, dtype=float), draw(reserves), collateral, schedules


@settings(max_examples=300, derandomize=True, deadline=None)
@given(shill_chunks())
def test_shill_kernel_products_equal_the_selects(case):
    # bit for bit, signed zeros included; the chunk's work arrays carry over from
    # one schedule to the next, as in a credibility suite
    values, reserve, collateral, schedules = case
    chunk = Chunk(values)
    for bids, withhold in schedules:
        net = _shill_net(chunk, reserve, collateral, bids, withhold)
        expected = shill_net_by_selects(values, reserve, collateral, bids, withhold)
        assert [x.hex() for x in net.tolist()] == [x.hex() for x in expected.tolist()]


# bids drawn from one small pool, so that real bids tie each other, the false bids,
# the threshold and the reserve; 0.0 and R are at or below the reserve
pool = st.one_of(st.sampled_from([0.0, R, 3.0, 5.0, 40.0]), amounts)


@st.composite
def priced_profiles(draw):
    """(config, auctioneer, value rows, run seed) over the four auctioneer families
    with a vector path, each in its setting."""
    family = draw(st.sampled_from(("honest", "shill", "lifted", "adaptive")))
    n = 2 if family == "adaptive" else draw(st.integers(1, 3))
    shill = ShillBroadcast(tuple(draw(st.lists(pool, max_size=3))),
                           draw(st.sampled_from((ALWAYS_REVEAL, WITHHOLD_IF_WINNING))))
    auctioneer, mode = {
        "honest": (Honest(), draw(st.sampled_from(("broadcast", "centralized")))),
        "shill": (shill, "broadcast"),
        "lifted": (Lifted(draw(st.sampled_from((Honest(), shill)))), "centralized"),
        "adaptive": (AdaptiveReserve(draw(st.one_of(
            st.sampled_from((R, 3.0, 5.0, math.inf)), st.floats(min_value=R, max_value=64.0)))),
            "centralized"),
    }[family]
    collateral = draw(st.floats(min_value=0.0, max_value=32.0, exclude_min=True))
    config = AuctionConfig(n=n, dist=GPA, reserve=R, collateral=collateral, mode=mode, seed=0)
    rows = draw(st.lists(st.lists(pool, min_size=n, max_size=n), min_size=1, max_size=4))
    return config, auctioneer, np.array(rows, dtype=float), draw(st.integers(0, 2**62))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(priced_profiles())
def test_vector_engine_matches_message_engine_per_profile(case):
    config, auctioneer, values, seed = case
    simulated = [simulate_profile_net(config, auctioneer, row, seed + k)
                 for k, row in enumerate(values)]
    assert np.array_equal(_vector_net(Chunk(values), config, auctioneer), np.array(simulated))


# Families with a finite reserve, where the attack is defined (two_point has none).
attack_families = st.one_of(
    st.builds(GeneralizedPareto, st.sampled_from((0.05, 0.25, 0.5, 0.75, 0.95))),
    st.builds(Exponential, st.sampled_from((0.1, 1.0, 7.0))),
    st.sampled_from((Uniform(0.0, 1.0), Uniform(1.0, 5.0))),
)
GRID = 2.0 ** -53  # chunk uniforms are multiples of GRID in [0, 1)


@st.composite
def attack_chunks(draw):
    """(dist, threshold, collateral, stratified, uniforms): rows whose 1 - u_B lies a
    few grid steps from v_A's survival probability s or from the prune's cut
    s (1 + 1e-9), mixed with unrelated rows."""
    dist = draw(attack_families)
    reserve = reserve_price(dist)
    tail = float(dist.sf(reserve)) * draw(st.floats(min_value=1e-6, max_value=1.0))
    threshold = max(reserve, float(dist.isf(tail)))
    stratified = draw(st.booleans())
    s_thr = float(dist.sf(threshold)) if stratified else 1.0
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        u_a = draw(st.integers(0, 2**53 - 1)) * GRID
        if draw(st.booleans()):
            target = s_thr * (1.0 - u_a) * draw(st.sampled_from((1.0, 1.0 + 1e-9)))
            k = round((1.0 - target) / GRID) + draw(st.integers(-4, 4))
        else:
            k = draw(st.integers(0, 2**53 - 1))
        rows.append((u_a, min(max(k, 0), 2**53 - 1) * GRID))
    collateral = draw(st.floats(min_value=0.0, max_value=32.0, exclude_min=True))
    return dist, threshold, collateral, stratified, np.array(rows)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(attack_chunks())
def test_pruned_adaptive_kernel_matches_every_row(chunk):
    dist, threshold, collateral, stratified, u = chunk
    v_a = dist.sample_tail(threshold, u[:, 0]) if stratified else dist.quantile(u[:, 0])
    values = np.column_stack([v_a, dist.quantile(u[:, 1])])
    dense = adaptive_net_delta(values, reserve_price(dist), threshold, collateral)
    pruned = _adaptive_gain_pruned(dist, threshold, collateral, stratified, u)
    assert np.array_equal(pruned, dense)
