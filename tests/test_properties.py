"""Property-based checks of the message-level engine: every generated run of an
implemented deviation passes its structural audit, conserves money, and leaves
each buyer a view that the consistency checker accepts. Also the vector
engine's top-two kernel against a sort."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drasim import (
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    AuctionConfig,
    FixedBid,
    GeneralizedPareto,
    Honest,
    Lifted,
    NoReveal,
    ShillBroadcast,
    Truthful,
    check_view_consistency,
    conservation_residual,
    reserve_price,
    run_auction,
)
from drasim.estimators import _top_two
from drasim.protocol import MONEY_TOL
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
