"""drasim: a deterministic lab for deferred revelation auctions.

Two-round commit/reveal auctions with collateral, run over a public broadcast
channel or over auctioneer-mediated private channels, plus the Myerson
machinery (virtual values, reserve prices, strong-regularity classification,
optimal revenue) and seeded Monte Carlo estimators needed to measure whether
deviating from the promised auction ever pays.
"""

from .commitments import Commitment, HashScheme, IdealScheme, Opening, make_scheme
from .channels import (
    AUCTIONEER,
    BURN,
    Channel,
    CollateralNotice,
    CommitMsg,
    EndCommit,
    EndReveal,
    ModeError,
    OutcomeNotice,
    ProtocolViolation,
    RevealMsg,
    SpoofingError,
    Transcript,
    View,
)
from .distributions import (
    BoundCheck,
    EqualRevenue,
    Exponential,
    GeneralizedPareto,
    InfiniteReserveError,
    NonRegularError,
    QuadratureError,
    RegularityReport,
    TwoPoint,
    UndefinedDensityError,
    Uniform,
    ValueDistribution,
    check_posted_price_bound,
    check_tail_bound,
    collateral,
    make_distribution,
    optimal_revenue,
    reserve_price,
    strong_regularity_alpha,
    virtual_value,
)
from .estimate import Estimate
from .estimators import (
    adaptive_gain_quadrature,
    adaptive_net_delta,
    attack_sweep,
    check_conditional_bound,
    credibility_suite,
    estimate_adaptive_gain,
    estimate_myerson_gap,
    estimate_paired_difference,
    estimate_revenue,
)
from .protocol import (
    AuctionConfig,
    AuctionGame,
    LedgerEntry,
    Outcome,
    buyer_utility,
    conservation_residual,
    resolve,
    run_auction,
)
from .strategies import (
    ALWAYS_REVEAL,
    WITHHOLD_IF_WINNING,
    AdaptiveReserve,
    FixedBid,
    Honest,
    Lifted,
    NoReveal,
    RevealPolicy,
    ShillBroadcast,
    Truthful,
    check_view_consistency,
    reveal_dominant_variant,
    view_summary,
)

__version__ = "0.1.0"
