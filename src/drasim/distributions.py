"""Buyer value distributions and the Myerson-theoretic quantities built on them.

Conventions
-----------
A distribution D with CDF F and density f has virtual value

    phi(x) = x - (1 - F(x)) / f(x)

and is alpha-strongly regular if phi(x') - phi(x) >= alpha * (x' - x) for all
x' >= x. alpha = 0 is "regular"; alpha = 1 is the monotone hazard rate (MHR)
class. The reserve price is the infimum convention

    r(D) = inf{x : phi(x) >= 0},

which equals +inf when phi never reaches zero (the equal-revenue family).

Each family exposes cdf/pdf/quantile plus the survival function sf and its
inverse isf. The survival pair is what makes conditional tail sampling exact
for heavy tails: a draw conditioned on v >= t is isf(sf(t) * (1 - u)), which
never suffers the 1 - u cancellation that the quantile form has near u = 1.

Sampling is inverse-CDF by construction: sample(rng) == quantile(rng.random()).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimate import Estimate, estimate_from_samples

__all__ = [
    "ValueDistribution",
    "Exponential",
    "GeneralizedPareto",
    "Uniform",
    "EqualRevenue",
    "TwoPoint",
    "RegularityReport",
    "BoundCheck",
    "UndefinedDensityError",
    "NonRegularError",
    "InfiniteReserveError",
    "make_distribution",
    "virtual_value",
    "plus_virtual_value",
    "reserve_price",
    "at_or_above_reserve",
    "strong_regularity_alpha",
    "optimal_revenue",
    "collateral",
    "check_tail_bound",
    "check_conditional_bound",
    "check_posted_price_bound",
    "posted_price_revenue_quadrature",
]

ROOT_TOL = 1e-9          # reserve-price bisection, absolute
INEQUALITY_SLACK = 1e-12  # closed-form inequality comparisons
REGULARITY_TOL = 1e-6     # alpha-hat classification margin
_BISECT_MAX_ITER = 200
_TAIL_BRACKET_U = 1.0 - 1e-12
QUAD_ABS_TOL = 1e-8       # largest error estimate a quadrature result may carry


class UndefinedDensityError(ValueError):
    """Virtual value requested where no positive density exists."""


class NonRegularError(ValueError):
    """Operation requires a regular distribution (non-decreasing phi)."""


class InfiniteReserveError(ValueError):
    """Operation requires a finite reserve price."""


class ValueDistribution:
    """Base class: CDF/PDF/quantile/survival bundle over support [lo, hi].

    Subclasses implement the closed forms; all accept scalars or ndarrays.
    """

    kind: str = "abstract"
    discrete: bool = False

    @property
    def params(self) -> dict:
        return {}

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def sf(self, x):
        """Survival function 1 - F(x), computed without cancellation."""
        return 1.0 - self.cdf(x)

    def isf(self, s):
        """Inverse survival: x with sf(x) = s."""
        return self.quantile(1.0 - np.asarray(s, dtype=float))

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF sampling; couples the rng's uniform stream to quantile."""
        return self.quantile(rng.random(size=size))

    def sample_tail(self, threshold: float, u):
        """Value of v | v >= threshold at conditional quantile u in [0, 1)."""
        s_thr = float(self.sf(threshold))
        if s_thr <= 0.0:
            raise ValueError(f"event {{v >= {threshold}}} has zero probability")
        return self.isf(s_thr * (1.0 - np.asarray(u, dtype=float)))

    def spec(self) -> dict:
        return {"family": self.kind, "params": self.params}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


@dataclass(frozen=True, repr=False)
class Exponential(ValueDistribution):
    """Exponential(rate): F(x) = 1 - exp(-rate * x) on x >= 0. MHR."""

    rate: float = 1.0
    kind = "exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def params(self) -> dict:
        return {"rate": self.rate}

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u) / self.rate

    def isf(self, s):
        s = np.asarray(s, dtype=float)
        return -np.log(s) / self.rate


@dataclass(frozen=True, repr=False)
class GeneralizedPareto(ValueDistribution):
    """Generalized Pareto with shape k in (0, 1): F(x) = 1 - (1 + k x)^(-1/k).

    Polynomial tail of index 1/k; virtual value (1 - k) x - 1, so the family
    is exactly (1 - k)-strongly regular with reserve 1 / (1 - k).
    """

    shape: float
    kind = "gpareto"

    def __post_init__(self):
        if not 0.0 < self.shape < 1.0:
            raise ValueError(f"shape must lie in (0, 1), got {self.shape}")

    @property
    def params(self) -> dict:
        return {"shape": self.shape}

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0)
        return np.where(x < 0.0, 0.0, -np.expm1(-np.log1p(self.shape * z) / self.shape))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0)
        val = np.exp(-(1.0 / self.shape + 1.0) * np.log1p(self.shape * z))
        return np.where(x < 0.0, 0.0, val)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0)
        return np.where(x < 0.0, 1.0, np.exp(-np.log1p(self.shape * z) / self.shape))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.expm1(-self.shape * np.log1p(-u)) / self.shape

    def isf(self, s):
        s = np.asarray(s, dtype=float)
        return np.expm1(-self.shape * np.log(s)) / self.shape


@dataclass(frozen=True, repr=False)
class Uniform(ValueDistribution):
    """Uniform(low, high); virtual value 2x - high, reserve high / 2 (if >= low)."""

    low: float = 0.0
    high: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError(f"need high > low, got [{self.low}, {self.high}]")

    @property
    def params(self) -> dict:
        return {"low": self.low, "high": self.high}

    @property
    def support(self) -> tuple[float, float]:
        return (self.low, self.high)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.low + u * (self.high - self.low)


@dataclass(frozen=True, repr=False)
class EqualRevenue(ValueDistribution):
    """Density 1 / (1 + x)^2 on x >= 0: every posted price yields revenue 1.

    Virtual value is identically -1, so the family is regular but not MHR and
    the reserve price is infinite. Admitted for classification and phi
    evaluation; auction-running operations reject it.
    """

    kind = "equal_revenue"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0)
        return np.where(x < 0.0, 0.0, z / (1.0 + z))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0)
        return np.where(x < 0.0, 0.0, 1.0 / (1.0 + z) ** 2)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0)
        return np.where(x < 0.0, 1.0, 1.0 / (1.0 + z))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return u / (1.0 - u)

    def isf(self, s):
        s = np.asarray(s, dtype=float)
        return (1.0 - s) / s


@dataclass(frozen=True, repr=False)
class TwoPoint(ValueDistribution):
    """Atoms of mass 1/2 at 0 and at 1 (all-or-nothing liquidation value).

    Discrete, with no density between the atoms; not regular. Virtual values
    are undefined at the atoms, so density-based operations raise.
    """

    kind = "two_point"
    discrete = True

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, np.where(x < 1.0, 0.5, 1.0))

    def pdf(self, x):
        raise UndefinedDensityError("two_point has point masses, no density")

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 0.5, 0.0, 1.0)


_FAMILIES = {
    "exponential": (Exponential, {"rate"}),
    "gpareto": (GeneralizedPareto, {"shape"}),
    "uniform": (Uniform, {"low", "high"}),
    "equal_revenue": (EqualRevenue, set()),
    "two_point": (TwoPoint, set()),
}


def make_distribution(spec: dict) -> ValueDistribution:
    """Build a distribution from {"family": ..., "params": {...}}."""
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - {"family", "params"}
    if unknown:
        raise ValueError(f"unknown distribution spec keys: {sorted(unknown)}")
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    cls, allowed = _FAMILIES[family]
    params = spec.get("params", {}) or {}
    bad = set(params) - allowed
    if bad:
        raise ValueError(f"unknown params for {family}: {sorted(bad)}")
    return cls(**{k: float(v) for k, v in params.items()})


# ---------------------------------------------------------------------------
# Virtual values and the reserve price
# ---------------------------------------------------------------------------

def virtual_value(dist: ValueDistribution, x):
    """phi(x) = x - sf(x) / f(x). Raises where no positive density exists."""
    if dist.discrete:
        raise UndefinedDensityError(f"{dist.kind} has no density; phi is undefined")
    x_arr = np.asarray(x, dtype=float)
    dens = np.asarray(dist.pdf(x_arr), dtype=float)
    if np.any(dens <= 0.0):
        raise UndefinedDensityError(f"pdf is zero at some evaluation points for {dist.kind}")
    phi = x_arr - np.asarray(dist.sf(x_arr), dtype=float) / dens
    return float(phi) if np.isscalar(x) or np.ndim(x) == 0 else phi


def plus_virtual_value(dist: ValueDistribution, x):
    """max{0, phi(x)} elementwise."""
    return np.maximum(0.0, virtual_value(dist, x))


@functools.lru_cache(maxsize=None)
def reserve_price(dist: ValueDistribution) -> float:
    """inf{x : phi(x) >= 0} by bisection to 1e-9; +inf when phi stays negative.

    Bracket is [support.lo, quantile(1 - 1e-12)], derivative-free so heavy
    tails are handled uniformly. Cached per (frozen) distribution instance.
    """
    if dist.discrete:
        raise NonRegularError(f"{dist.kind} is not regular; reserve price undefined")
    lo, hi = dist.support
    hi_bracket = float(dist.quantile(_TAIL_BRACKET_U)) if math.isinf(hi) else hi
    phi_lo = virtual_value(dist, lo) if float(dist.pdf(lo)) > 0.0 else -math.inf
    if phi_lo >= 0.0:
        return float(lo)
    if virtual_value(dist, hi_bracket) < 0.0:
        return math.inf
    a, b = float(lo), float(hi_bracket)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (a + b)
        if virtual_value(dist, mid) >= 0.0:
            b = mid
        else:
            a = mid
        if b - a <= ROOT_TOL:
            break
    return b


def at_or_above_reserve(x: float, reserve: float) -> bool:
    """Whether a price or threshold x lies at or above the reserve, up to the
    reserve's own bisection tolerance. False for NaN, so every caller refuses it."""
    return x >= reserve - ROOT_TOL


# ---------------------------------------------------------------------------
# Strong-regularity classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Estimated strong-regularity level of a distribution.

    alpha_hat is the smallest difference quotient of phi over the grid;
    is_regular means alpha_hat >= 0 and is_mhr means alpha_hat >= 1, both up
    to the classification tolerance.
    """

    alpha_hat: float
    is_regular: bool
    is_mhr: bool
    grid: tuple


def _default_alpha_grid(dist: ValueDistribution) -> np.ndarray:
    # Tail-dense abscissae: 1 - u log-spaced so heavy tails are probed.
    u = 1.0 - np.geomspace(0.999, 0.001, 512)
    return np.asarray(dist.quantile(u), dtype=float)


def strong_regularity_alpha(dist: ValueDistribution, grid=None, tol: float = REGULARITY_TOL) -> RegularityReport:
    """Infimum difference quotient of phi over a grid, and the verdicts it implies.

    Discrete families are classified by the two-atom argument directly: the
    difference quotient between an atom and the gap right of it diverges to
    -inf, so they are reported non-regular without a density evaluation.
    """
    if dist.discrete:
        return RegularityReport(alpha_hat=-math.inf, is_regular=False, is_mhr=False,
                                grid=(0.0, 0.5, 1.0))
    if grid is None:
        xs = _default_alpha_grid(dist)
    else:
        xs = np.asarray(grid, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0.0):
            raise ValueError("grid must contain >= 2 strictly increasing points")
    phi = virtual_value(dist, xs)
    quotients = np.diff(phi) / np.diff(xs)
    # A chord over any (i, j) pair is a convex combination of adjacent chords,
    # so the minimum over adjacent pairs is the minimum over all pairs.
    alpha_hat = float(np.min(quotients))
    return RegularityReport(
        alpha_hat=alpha_hat,
        is_regular=alpha_hat >= -tol,
        is_mhr=alpha_hat >= 1.0 - tol,
        grid=tuple(xs.tolist()),
    )


def _require_regular_finite_reserve(dist: ValueDistribution) -> float:
    if dist.discrete:
        raise NonRegularError(f"{dist.kind} is not regular")
    r = reserve_price(dist)
    if math.isinf(r):
        raise InfiniteReserveError(f"{dist.kind} has an infinite reserve price")
    return r


# ---------------------------------------------------------------------------
# Optimal revenue and the collateral level
# ---------------------------------------------------------------------------

def _quad(integrand, upper: float, **options) -> tuple:
    """(integral of integrand over [0, upper], quad's error estimate); RuntimeError
    when the estimate exceeds QUAD_ABS_TOL. scipy.integrate is imported on first
    use: it takes most of the time `import drasim` would otherwise take."""
    from scipy import integrate

    val, err = integrate.quad(integrand, 0.0, upper, **options)
    if not err <= QUAD_ABS_TOL:  # NaN too
        raise RuntimeError(f"quadrature tolerance not reached: error estimate {err}")
    return float(val), float(err)


@functools.lru_cache(maxsize=None)
def _optimal_revenue_quadrature(dist: ValueDistribution, n: int) -> Estimate:
    """optimal_revenue's quadrature for a regular dist with a finite reserve."""
    def integrand(s):
        x = dist.isf(s)
        return virtual_value(dist, x) * n * (1.0 - s) ** (n - 1)

    val, err = _quad(integrand, float(dist.sf(reserve_price(dist))),
                     epsabs=1e-10, epsrel=1e-10, limit=200)
    return Estimate(mean=val, std_error=err, samples=0)


def optimal_revenue(dist: ValueDistribution, n: int, method: str = "auto",
                    samples: int = 200_000, seed: int = 0) -> Estimate:
    """Rev(D^n) = E[max_i phi+(v_i)] for n i.i.d. buyers.

    Adaptive quadrature over the quantile domain for n <= 4 (the max of n
    i.i.d. uniforms has density n u^(n-1), and phi(quantile(u)) is smooth past
    the reserve), with quad's error estimate as the standard error; Monte Carlo
    with a standard error otherwise. The quadrature is cached per (frozen)
    distribution and n, so repeated calls return the first call's Estimate; a
    quadrature that _quad refuses raises its RuntimeError each time.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return Estimate(mean=0.0, std_error=0.0, samples=0)
    _require_regular_finite_reserve(dist)
    if method not in ("auto", "quadrature", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quadrature" or (method == "auto" and n <= 4):
        return _optimal_revenue_quadrature(dist, n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((int(samples), n))
    values = dist.quantile(u)
    best = np.max(np.maximum(0.0, virtual_value(dist, values)), axis=1)
    return estimate_from_samples(best)


def collateral(dist: ValueDistribution, n: int, alpha: float) -> float:
    """Deposit level that makes the broadcast auction deterrent at level alpha.

    For alpha in (0, 1):

        f(n, D) = r(D) * (n / alpha)^((1 - alpha) / alpha)
                       * (1 / (1 - alpha))^(1 / alpha)

    The exponents blow up at alpha = 1; for alpha >= 1 any f >= r(D) works,
    so the reserve itself is returned.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = _require_regular_finite_reserve(dist)
    if alpha >= 1.0:
        return r
    return r * (n / alpha) ** ((1.0 - alpha) / alpha) * (1.0 / (1.0 - alpha)) ** (1.0 / alpha)


# ---------------------------------------------------------------------------
# Inequality checks for alpha-strongly regular tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: lhs <= rhs up to the stated slack."""

    lhs: float
    rhs: float
    holds: bool
    slack: float

    def __iter__(self):
        return iter((self.lhs, self.rhs, self.holds))


def _tail_factor(alpha: float, r: float, p: float) -> float:
    return (1.0 / (1.0 - alpha)) ** (1.0 / (1.0 - alpha)) * (r / p) ** (alpha / (1.0 - alpha))


def check_tail_bound(dist: ValueDistribution, alpha: float, p: float) -> BoundCheck:
    """Posted-price tail bound for an alpha-strongly regular D, alpha in (0,1):

        p * P[v >= p] <= r * P[v >= r] * (1/(1-alpha))^(1/(1-alpha)) * (r/p)^(alpha/(1-alpha))

    Closed-form on both sides.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    r = _require_regular_finite_reserve(dist)
    if not at_or_above_reserve(p, r):
        raise ValueError(f"p={p} below reserve {r}")
    lhs = p * float(dist.sf(p))
    rhs = r * float(dist.sf(r)) * _tail_factor(alpha, r, p)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + INEQUALITY_SLACK,
                      slack=INEQUALITY_SLACK)


def check_conditional_bound(dist: ValueDistribution, alpha: float, threshold: float,
                            samples: int = 1_000_000, seed: int = 0) -> BoundCheck:
    """Conditional mean bound E[v | v >= t] <= E[phi(v) | v >= t] / alpha + r(D).

    Monte Carlo over the conditional tail (exact inverse-survival sampling);
    the pass verdict uses the paired-sample standard error at 3 sigma.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    r = _require_regular_finite_reserve(dist)
    if not at_or_above_reserve(threshold, r):
        raise ValueError(f"threshold={threshold} below reserve {r}")
    if float(dist.sf(threshold)) <= 0.0:
        raise ValueError(f"event {{v >= {threshold}}} has zero probability")
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = dist.sample_tail(threshold, rng.random(int(samples)))
    phi = virtual_value(dist, v)
    gap = phi / alpha + r - v
    est = estimate_from_samples(gap)
    lhs = float(np.mean(v))
    rhs = lhs + est.mean
    slack = 3.0 * est.std_error
    return BoundCheck(lhs=lhs, rhs=rhs, holds=est.mean >= -slack, slack=slack)


def posted_price_revenue_quadrature(dist: ValueDistribution, p: float) -> float:
    """E[phi(v) * 1{v >= p}] by quadrature over the survival domain."""
    s_p = float(dist.sf(p))
    if s_p == 0.0:
        return 0.0
    return _quad(lambda s: virtual_value(dist, dist.isf(s)), s_p,
                 epsabs=1e-11, epsrel=1e-11, limit=200)[0]


def check_posted_price_bound(dist: ValueDistribution, alpha: float, p: float,
                             slack: float = 1e-9) -> BoundCheck:
    """Virtual-value tail bound, the expectation form of the posted-price bound:

        E[phi(v) 1{v >= p}] <= E[phi(v) 1{v >= r}] * tail factor(alpha, r, p)

    Both sides by quadrature; Myerson's identity E[phi(v) 1{v >= p}] = p P[v >= p]
    ties this to check_tail_bound and is tested separately.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    r = _require_regular_finite_reserve(dist)
    if not at_or_above_reserve(p, r):
        raise ValueError(f"p={p} below reserve {r}")
    lhs = posted_price_revenue_quadrature(dist, p)
    rhs = posted_price_revenue_quadrature(dist, r) * _tail_factor(alpha, r, p)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + slack, slack=slack)
