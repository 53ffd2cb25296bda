"""Property-based checks of the message-level engine: every generated run of an
implemented deviation passes its structural audit, conserves money, and leaves
each buyer a view that the consistency checker accepts. The views the channel
keeps as it delivers are the view rule applied to the full log, a send that
breaks the phase grammar is refused and leaves log and views as they were, and
every record of a run is frozen. Also the vector
engine's top-two kernel against a sort, the shill kernel's 0/1-mask products
against the selects they replace, each auctioneer family's closed form against
the message engine on every profile, the adaptive attack's net difference
against the message engine's paired difference on every profile, the pruned
adaptive-attack kernel against the unpruned one on every row, and its
two-stage row test against the one-stage test it replaces."""

import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drasim import (
    ALWAYS_REVEAL,
    AUCTIONEER,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    AuctionConfig,
    AuctionGame,
    CommitMsg,
    EndReveal,
    Exponential,
    FixedBid,
    GeneralizedPareto,
    Honest,
    Lifted,
    NoReveal,
    ProtocolViolation,
    ShillBroadcast,
    Truthful,
    Uniform,
    View,
    adaptive_net_delta,
    check_view_consistency,
    conservation_residual,
    reserve_price,
    run_auction,
)
from drasim.channels import view_members
from drasim.distributions import ROOT_TOL
from drasim.estimators import (
    _PRUNE_MARGIN,
    _adaptive_gain_pruned,
    _adaptive_rows,
    _vector_net,
    simulate_profile_net,
)
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


def assert_frozen(record) -> None:
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(runs())
def test_channel_kept_views_are_the_view_rule_over_the_log(run):
    config, buyers, auctioneer = run
    game = AuctionGame(config, buyers)
    outcome = auctioneer.execute(game)
    transcript = game.transcript()
    everyone = range(1, config.n + 1)
    views = transcript.buyer_views()
    assert list(views) == list(everyone)
    for i, view in views.items():
        # the view rule, written out: every broadcast, and what i was sent or sent
        seen = tuple(e for e in transcript.events
                     if e.recipient is None or i in (e.recipient, e.sender))
        assert seen == tuple(e for e in transcript.events if i in view_members(e, everyone))
        assert view == View(i, seen) == transcript.view(i)

    # every view is done: a commitment or an end of revelation is out of phase in
    # the first view it reaches, and the channel keeps neither
    channel, logged = game.channel, len(game.channel.events)
    first = 1 if config.mode == "broadcast" else config.n
    for payload in (CommitMsg(1, game.commitments[1]), EndReveal()):
        with pytest.raises(ProtocolViolation,
                           match=f"^{type(payload).__name__} out of phase in view {first}$"):
            if config.mode == "broadcast":
                channel.broadcast(AUCTIONEER, payload)
            else:
                channel.private_send(AUCTIONEER, first, payload)
    assert len(channel.events) == logged and game.transcript().views == transcript.views

    assert_frozen(transcript)
    assert_frozen(outcome)
    for entry in outcome.ledger:
        assert_frozen(entry)
    for view in views.values():
        assert_frozen(view)
    for event in transcript.events:
        assert_frozen(event)
        assert_frozen(event.payload)
        for inner in ("commitment", "opening"):
            if hasattr(event.payload, inner):
                assert_frozen(getattr(event.payload, inner))


# few distinct values, so that ties and repeats within a profile are common
value = st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                  st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
profiles = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=16))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(profiles)
def test_top_two_matches_sort(rows):
    # alone, in a new chunk's work arrays, and in the work arrays of a chunk reused
    # with load after it priced 16 other profiles of another width
    values = np.array(rows, dtype=float)
    reused = Chunk(np.full((16, 9 - values.shape[1]), 3.0))
    reused.top_two()
    ordered = np.sort(values, axis=1)
    for top, second in (_top_two(values), Chunk(values).top_two(),
                        reused.load(values).top_two()):
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


# Bids and thresholds in [R - ROOT_TOL, R), which check_config admits: the shipped
# threshold 2.0 on gpareto(0.5), whose bisected reserve R is 2.000000000482171.
BELOW_R = (R - ROOT_TOL, 2.0, float(np.nextafter(R, 0.0)))
# bids drawn from one small pool, so that real bids tie each other, the false bids,
# the threshold and the reserve; 0.0, BELOW_R and R are at or below the reserve
pool = st.one_of(st.sampled_from([0.0, *BELOW_R, R, 3.0, 5.0, 40.0]), amounts)
# the thresholds check_config admits on GPA, and the collaterals AuctionConfig does
adaptive_thresholds = st.one_of(st.sampled_from((*BELOW_R, R, 3.0, 5.0, math.inf)),
                                st.floats(min_value=R - ROOT_TOL, max_value=64.0))
collaterals = st.floats(min_value=0.0, max_value=32.0, exclude_min=True)


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
        "adaptive": (AdaptiveReserve(draw(adaptive_thresholds)), "centralized"),
    }[family]
    collateral = draw(collaterals)
    config = AuctionConfig(n=n, dist=GPA, reserve=R, collateral=collateral, mode=mode, seed=0)
    rows = draw(st.lists(st.lists(pool, min_size=n, max_size=n), min_size=1, max_size=4))
    return config, auctioneer, np.array(rows, dtype=float), draw(st.integers(0, 2**62))


def adaptive_case(threshold, collateral, rows):
    config = AuctionConfig(n=2, dist=GPA, reserve=R, collateral=collateral, mode="centralized",
                           seed=0)
    return config, AdaptiveReserve(threshold), np.array(rows), 7


# b_A in [T, R): B outbidding the false bid pays max(R, b_A + f), where honest play
# charges R, and where B stays at or below R nothing sells (f below ROOT_TOL); at
# f = 4.2, R + ((2.0 + f) - R) rounds away from 2.0 + f
@example(adaptive_case(2.0, 2.0, [[2.0, 5.0], [2.0, 3.0], [R - ROOT_TOL, 40.0], [R, 40.0]]))
@example(adaptive_case(R - ROOT_TOL, 1e-12, [[2.0, R], [R - ROOT_TOL, 2.0], [2.0, 3.0]]))
@example(adaptive_case(2.0, 4.2, [[2.0, 40.0], [float(np.nextafter(R, 0.0)), 40.0]]))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(priced_profiles())
def test_vector_engine_matches_message_engine_per_profile(case):
    config, auctioneer, values, seed = case
    simulated = [simulate_profile_net(config, auctioneer, row, seed + k)
                 for k, row in enumerate(values)]
    vector = _vector_net(config, auctioneer)(Chunk(values), config)
    assert np.array_equal(vector, np.array(simulated))


# Rows where v_A + f or max(R, v_A) - f rounds: f = 0.1 at v_A = 3, and f below
# ROOT_TOL at and just below R
@example(R, 0.1, [[3.0, 3.05], [3.0, 3.2], [5.0, 40.0]], 0)
@example(R - ROOT_TOL, 5e-10, [[R - ROOT_TOL, R], [R, 40.0], [2.0, 2.0 + 5e-10]], 0)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(adaptive_thresholds, collaterals,
       st.lists(st.lists(pool, min_size=2, max_size=2), min_size=1, max_size=4),
       st.integers(0, 2**62))
def test_adaptive_net_delta_is_the_message_engines_paired_difference(threshold, collateral,
                                                                     rows, seed):
    config = AuctionConfig(n=2, dist=GPA, reserve=R, collateral=collateral, mode="centralized",
                           seed=0)
    values = np.array(rows, dtype=float)
    simulated = [simulate_profile_net(config, AdaptiveReserve(threshold), row, seed + k)
                 - simulate_profile_net(config, Honest(), row, seed + k)
                 for k, row in enumerate(values)]
    delta = adaptive_net_delta(values, R, threshold, collateral)
    assert np.array_equal(delta, np.array(simulated))


# Families with a finite reserve, where the attack is defined (two_point has none).
attack_families = st.one_of(
    st.builds(GeneralizedPareto, st.sampled_from((0.05, 0.25, 0.5, 0.75, 0.95))),
    st.builds(Exponential, st.sampled_from((0.1, 1.0, 7.0))),
    st.sampled_from((Uniform(0.0, 1.0), Uniform(1.0, 5.0))),
)
GRID = 2.0 ** -53  # chunk uniforms are multiples of GRID in [0, 1)


@st.composite
def attack_chunks(draw):
    """(dist, threshold, collateral, uniforms): rows whose 1 - u_B lies a few grid
    steps from v_A's survival probability s or from the prune's cut s (1 + 1e-9),
    mixed with unrelated rows."""
    dist = draw(attack_families)
    reserve = reserve_price(dist)
    tail = float(dist.sf(reserve)) * draw(st.floats(min_value=1e-6, max_value=1.0))
    threshold = max(reserve, float(dist.isf(tail)))
    s_thr = float(dist.sf(threshold))
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
    return dist, threshold, collateral, np.array(rows)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(attack_chunks())
def test_pruned_adaptive_kernel_matches_every_row(chunk):
    dist, threshold, collateral, u = chunk
    values = np.column_stack([dist.sample_tail(threshold, u[:, 0]), dist.quantile(u[:, 1])])
    dense = adaptive_net_delta(values, reserve_price(dist), threshold, collateral)
    pruned = _adaptive_gain_pruned(dist, threshold, collateral, Chunk(u))
    assert np.array_equal(pruned, dense)


def one_stage_rows(sf, u):
    """The prune's exact test on every row, in one stage: the reference."""
    s = 1.0 - u[:, 0]
    s *= sf
    s *= 1.0 + _PRUNE_MARGIN
    return np.flatnonzero(1.0 - u[:, 1] <= s)


def boundary_uniforms(sf, u_as):
    """For each u_A, rows whose 1 - u_B lies at, and one grid step either side of,
    the grid value at or below S = sf (1 + margin) and at or below the row's own
    bound (1 - u_A) sf (1 + margin): the bound itself where it lies on the grid."""
    rows = []
    for u_a in u_as:
        for bound in (sf * (1.0 + _PRUNE_MARGIN), (1.0 - u_a) * sf * (1.0 + _PRUNE_MARGIN)):
            k = math.floor(bound / GRID)
            rows += [(u_a, 1.0 - min(max(j, 0), 2**53) * GRID) for j in (k - 1, k, k + 1)]
    return np.array(rows)


def sf_with_cut_at(cut):
    """A stratum weight sf whose stage-1 cut sf (1 + margin) is exactly `cut`."""
    sf = cut / (1.0 + _PRUNE_MARGIN)
    for _ in range(8):
        if sf * (1.0 + _PRUNE_MARGIN) == cut:
            return sf
        sf = math.nextafter(sf, cut if sf * (1.0 + _PRUNE_MARGIN) < cut else 0.0)
    raise AssertionError(f"no sf gives the cut {cut}")


@st.composite
def stratum_weights(draw):
    """sf(T) of a family in attack_families at a threshold at or above its reserve."""
    dist = draw(attack_families)
    reserve = reserve_price(dist)
    tail = float(dist.sf(reserve)) * draw(st.floats(min_value=1e-6, max_value=1.0))
    return float(dist.sf(max(reserve, float(dist.isf(tail)))))


# Cuts on the grid of 1 - u_B, which the rows then meet exactly (u_A = 0.5 and 0.75
# halve and quarter the bound exactly); sf = 1, uniform(2, 3) at its reserve 2, and
# just below it; exponential(1) at T = 100, where sf is 3.7e-44.
@example(sf_with_cut_at(0.25), [])
@example(sf_with_cut_at(2.0 ** -20), [])
@example(float(Uniform(2.0, 3.0).sf(2.0)), [])
@example(float(Uniform(2.0, 3.0).sf(2.0 + 2.0 ** -30)), [])
@example(float(Exponential(1.0).sf(100.0)), [])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(stratum_weights(), st.lists(st.integers(0, 2**53 - 1), max_size=6))
def test_stage_one_keeps_every_row_the_exact_test_keeps(sf, grid_points):
    # row for row, in order: the two stages against the exact test on every row
    u = boundary_uniforms(sf, [0.0, 0.5, 0.75] + [k * GRID for k in grid_points])
    assert np.array_equal(_adaptive_rows(sf, u), one_stage_rows(sf, u))
