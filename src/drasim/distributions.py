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
A family defines the transforms as _quantile_into and _isf_into, which compute
in one array: quantile, isf and sample_tail each allocate the array of the
result and nothing else, and give a float64 for a scalar input. Exponential and
GeneralizedPareto share one base, _LogSurvival, that writes cdf, sf and both
transforms once from each family's log survival (-rate z and -log1p(k z) / k at
z = max(x, 0)) and its inverse _from_log_survival; each keeps its own pdf.

Nothing here draws: a value is quantile(u) or sample_tail(t, u) of a uniform u
that the caller takes from seeding's streams. The Monte Carlo checks, the
conditional tail bound among them, live in estimators.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from .estimate import Estimate
from .records import record

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
    "QuadratureError",
    "make_distribution",
    "virtual_value",
    "reserve_price",
    "at_or_above_reserve",
    "strong_regularity_alpha",
    "optimal_revenue",
    "collateral",
    "check_tail_bound",
    "check_posted_price_bound",
    "posted_price_revenue_quadrature",
]

ROOT_TOL = 1e-9          # reserve-price bisection, absolute
INEQUALITY_SLACK = 1e-12  # closed-form inequality comparisons
QUADRATURE_SLACK = 1e-9   # quadrature inequality comparisons
REGULARITY_TOL = 1e-6     # alpha-hat classification margin
_BISECT_MAX_ITER = 200
_TAIL_BRACKET_U = 1.0 - 1e-12
QUAD_REL_TOL = 1e-5       # largest error estimate a quadrature result may carry, per unit value


class UndefinedDensityError(ValueError):
    """Virtual value requested where no positive density exists."""


class NonRegularError(ValueError):
    """Operation requires a regular distribution (non-decreasing phi)."""


class InfiniteReserveError(ValueError):
    """Operation requires a finite reserve price."""


class QuadratureError(RuntimeError):
    """A quadrature refused: QUADPACK did not reach its tolerance."""


class ValueDistribution:
    """Base class: CDF/PDF/quantile/survival bundle over support [lo, hi], the
    half-line [0, inf) unless a family bounds it.

    Subclasses implement the closed forms; all accept scalars or ndarrays.
    """

    kind: str = "abstract"
    discrete: bool = False

    @property
    def params(self) -> dict:
        """The family's parameters, its dataclass fields, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        """x with F(x) = u."""
        u = np.asarray(u, dtype=float)
        return self._quantile_into(u, _output(u))

    def sf(self, x):
        """Survival function 1 - F(x), computed without cancellation."""
        return 1.0 - self.cdf(x)

    def isf(self, s):
        """Inverse survival: x with sf(x) = s."""
        s = np.asarray(s, dtype=float)
        return self._isf_into(s, _output(s))

    def sample_tail(self, threshold: float, u):
        """Value of v | v >= threshold at conditional quantile u in [0, 1)."""
        s_thr = float(self.sf(threshold))
        if s_thr <= 0.0:
            raise ValueError(f"event {{v >= {threshold}}} has zero probability")
        u = np.asarray(u, dtype=float)
        out = _output(u)
        s = np.subtract(1.0, u, out=out)
        s *= s_thr
        return self._isf_into(s, out)

    def _quantile_into(self, u, out):
        """quantile(u), computed in out and returned: out is a new array of u's shape,
        or u itself where the default _isf_into calls it. With out None (u is 0-d),
        each step returns a new float64; the steps past the first that take a Python
        float are augmented assignments, in place on out and numpy's fast scalar
        operators on a float64."""
        raise NotImplementedError

    def _isf_into(self, s, out):
        """isf(s), computed in out as _quantile_into computes quantile(u), where out may
        also be s itself: quantile(1 - s), unless a family has a closed form."""
        return self._quantile_into(np.subtract(1.0, s, out=out), out)

    def spec(self) -> dict:
        return {"family": self.kind, "params": self.params}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


def _output(x: np.ndarray):
    """The one new array that a transform of x computes in, or None for a 0-d x (a
    scalar input), where numpy's ufuncs return a float64 at each step."""
    return np.empty_like(x) if x.ndim else None


class _LogSurvival(ValueDistribution):
    """A family on the half-line by its log survival: sf(x) is exp(_log_survival(z))
    at z = max(x, 0), and each transform is _from_log_survival(log_s, out), the x of
    the log survival probability log_s (log1p(-u) for quantile(u), log s for isf(s)),
    computed in out, which may be log_s."""

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.expm1(self._log_survival(np.maximum(x, 0.0))))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 1.0, np.exp(self._log_survival(np.maximum(x, 0.0))))

    def _quantile_into(self, u, out):
        return self._from_log_survival(np.log1p(np.negative(u, out=out), out=out), out)

    def _isf_into(self, s, out):
        return self._from_log_survival(np.log(s, out=out), out)


@record
class Exponential(_LogSurvival):
    """Exponential(rate): F(x) = 1 - exp(-rate * x) on x >= 0. MHR."""

    rate: float = 1.0
    kind = "exponential"

    def _validate(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if -math.log1p(-_TAIL_BRACKET_U) / self.rate == math.inf:  # reserve_price's bracket
            raise ValueError(f"rate {self.rate} is too small: quantile(1 - 1e-12) overflows")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def _log_survival(self, z):  # -rate z
        return -self.rate * z

    def _from_log_survival(self, log_s, out):
        """-log s / rate, in out, of the log survival probabilities log_s."""
        x = np.negative(log_s, out=out)
        x /= self.rate
        return x


@record
class GeneralizedPareto(_LogSurvival):
    """Generalized Pareto with shape k in (0, 1): F(x) = 1 - (1 + k x)^(-1/k).

    Polynomial tail of index 1/k; virtual value (1 - k) x - 1, so the family
    is exactly (1 - k)-strongly regular with reserve 1 / (1 - k).
    """

    shape: float
    kind = "gpareto"

    def _validate(self):
        if not 0.0 < self.shape < 1.0:
            raise ValueError(f"shape must lie in (0, 1), got {self.shape}")
        if 1.0 / self.shape == math.inf:  # pdf's exponent
            raise ValueError(f"shape {self.shape} is too small: 1 / shape overflows")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0)
        val = np.exp(-(1.0 / self.shape + 1.0) * np.log1p(self.shape * z))
        return np.where(x < 0.0, 0.0, val)

    def _log_survival(self, z):  # -log1p(k z) / k
        return -np.log1p(self.shape * z) / self.shape

    def _from_log_survival(self, log_s, out):
        """expm1(-k log s) / k, in out, of the log survival probabilities log_s."""
        log_s *= -self.shape
        x = np.expm1(log_s, out=out)
        x /= self.shape
        return x


@record
class Uniform(ValueDistribution):
    """Uniform(low, high); virtual value 2x - high, reserve high / 2 (if >= low)."""

    low: float = 0.0
    high: float = 1.0
    kind = "uniform"

    def _validate(self):
        if not self.high > self.low:
            raise ValueError(f"need high > low, got [{self.low}, {self.high}]")

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

    def _quantile_into(self, u, out):  # low + u (high - low)
        x = np.multiply(u, self.high - self.low, out=out)
        x += self.low
        return x


@record
class EqualRevenue(ValueDistribution):
    """Density 1 / (1 + x)^2 on x >= 0: every posted price yields revenue 1.

    Virtual value is identically -1, so the family is regular but not MHR and
    the reserve price is infinite. Admitted for classification and phi
    evaluation; auction-running operations reject it.
    """

    kind = "equal_revenue"

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

    def _quantile_into(self, u, out):  # u / (1 - u); out is not u, as isf is its own
        return np.divide(u, np.subtract(1.0, u, out=out), out=out)

    def _isf_into(self, s, out):  # (1 - s) / s, where out may be s
        return np.divide(np.subtract(1.0, s), s, out=out)


@record
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

    def _quantile_into(self, u, out):  # 0 at u <= 1/2, else 1 (NaN too)
        return np.subtract(1.0, np.less_equal(u, 0.5, out=out), out=out)


_FAMILIES = {cls.kind: cls for cls in (Exponential, GeneralizedPareto, Uniform, EqualRevenue,
                                       TwoPoint)}


def make_distribution(spec: dict) -> ValueDistribution:
    """Build a distribution from {"family": ..., "params": {...}}, whose parameter
    names are the family's dataclass fields; a field without a default is required."""
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - {"family", "params"}
    if unknown:
        raise ValueError(f"unknown distribution spec keys: {sorted(unknown)}")
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    cls = _FAMILIES[family]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"params must be a dict, got {type(params).__name__}")
    bad = set(params).difference(f.name for f in fields(cls))
    if bad:
        raise ValueError(f"unknown params for {family}: {sorted(bad)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in params]
    if missing:
        raise ValueError(f"missing params for {family}: {missing}")
    return cls(**{k: float(v) for k, v in params.items()})


def _require_quantile_levels(levels, where: str) -> None:
    """Raise ValueError unless every level lies in the open interval (0, 1), where
    a quantile is a value of the support's interior (NaN lies nowhere)."""
    for i, u in enumerate(levels):
        if not 0.0 < u < 1.0:
            raise ValueError(f"{where}[{i}] must lie in (0, 1), got {u}")


# ---------------------------------------------------------------------------
# Virtual values and the reserve price
# ---------------------------------------------------------------------------

def virtual_value(dist: ValueDistribution, x):
    """phi(x) = x - sf(x) / f(x). Raises where the density is not a positive finite
    float: zero, or too large for one, as on a support narrower than a float resolves."""
    if dist.discrete:
        raise UndefinedDensityError(f"{dist.kind} has no density; phi is undefined")
    x_arr = np.asarray(x, dtype=float)
    dens = np.asarray(dist.pdf(x_arr), dtype=float)
    if not np.all((dens > 0.0) & (dens < math.inf)):  # NaN too
        raise UndefinedDensityError(
            f"pdf is not a positive finite float at some evaluation points for {dist.kind}")
    phi = x_arr - np.asarray(dist.sf(x_arr), dtype=float) / dens
    return float(phi) if np.isscalar(x) or np.ndim(x) == 0 else phi


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

@record
class RegularityReport:
    """Estimated strong-regularity level of a distribution.

    alpha_hat is the smallest difference quotient of phi over the grid;
    is_regular means alpha_hat >= 0 and is_mhr means alpha_hat >= 1, both up
    to the classification tolerance.
    """

    alpha_hat: float
    is_regular: bool
    is_mhr: bool


def _alpha_grid(dist: ValueDistribution) -> np.ndarray:
    # Tail-dense abscissae: 1 - u log-spaced so heavy tails are probed.
    u = 1.0 - np.geomspace(0.999, 0.001, 512)
    return np.asarray(dist.quantile(u), dtype=float)


def strong_regularity_alpha(dist: ValueDistribution) -> RegularityReport:
    """Infimum difference quotient of phi over a tail-dense grid, and the verdicts
    it implies.

    Discrete families are classified by the two-atom argument directly: the
    difference quotient between an atom and the gap right of it diverges to
    -inf, so they are reported non-regular without a density evaluation.
    """
    if dist.discrete:
        return RegularityReport(alpha_hat=-math.inf, is_regular=False, is_mhr=False)
    xs = _alpha_grid(dist)
    phi = virtual_value(dist, xs)
    quotients = np.diff(phi) / np.diff(xs)
    # A chord over any (i, j) pair is a convex combination of adjacent chords,
    # so the minimum over adjacent pairs is the minimum over all pairs.
    alpha_hat = float(np.min(quotients))
    return RegularityReport(
        alpha_hat=alpha_hat,
        is_regular=alpha_hat >= -REGULARITY_TOL,
        is_mhr=alpha_hat >= 1.0 - REGULARITY_TOL,
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

@functools.cache
def _quadpack():
    """scipy's compiled QUADPACK extension, scipy/integrate/_quadpack, loaded from its
    file on first use. It is kept out of sys.modules and scipy/integrate/__init__.py
    never runs: importing the package would also load the ODE solvers, sparse, linalg,
    special and optimize, about 46 MB that no quadrature here runs."""
    name = "scipy.integrate._quadpack"
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("quadrature needs scipy, which is not installed")
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    for location in scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(os.path.join(location, "integrate"), loaders)
        spec = finder.find_spec(name)
        if spec is not None:
            imported = name in sys.modules  # by an earlier import of scipy.integrate
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if not imported:  # an extension of one-phase init enters itself on creation
                sys.modules.pop(name, None)
            return module
    raise ModuleNotFoundError(f"scipy has no compiled {name} extension")


def _quad(integrand, upper: float, epsabs: float, epsrel: float, limit: int,
          points=None) -> tuple:
    """(integral of integrand over [0, upper], its error estimate), by QUADPACK's QAGS
    (_qagse), or QAGP (_qagpe) with the breakpoints `points`: the call that
    scipy.integrate.quad makes for a finite interval, made the same way, so each value
    and error estimate has quad's bits. QuadratureError for a nonzero QUADPACK return
    code (quad only warns of codes 1-5 and 7, and code 6, invalid input, comes back
    as 0 with error 0, which the gate alone would pass), and when the estimate
    exceeds QUAD_REL_TOL of the value's magnitude, which means the same for values
    of 1 and 1e-88. A run that QUADPACK ends on epsabs alone, with an estimate the gate
    refuses, runs once more with epsabs = 0, to epsrel alone, and that run is gated."""
    if upper == 0.0:  # quad's shortcut for an empty interval
        return 0.0, 0.0
    if points is not None:
        # inside breakpoints, sorted, and two zeros appended, as quad passes them
        inner = np.unique(points)
        inner = inner[(0.0 < inner) & (inner < upper)]
        breaks = np.concatenate((inner, (0.0, 0.0)))

    def run(epsabs):
        if points is None:
            return _quadpack()._qagse(integrand, 0.0, upper, (), 0, epsabs, epsrel, limit)
        return _quadpack()._qagpe(integrand, 0.0, upper, breaks, (), 0, epsabs, epsrel, limit)

    val, err, ier = run(epsabs)
    if ier == 0 and not err <= QUAD_REL_TOL * abs(val):
        val, err, ier = run(0.0)
    if ier != 0:
        raise QuadratureError(f"quadrature tolerance not reached: QUADPACK return code {ier} "
                              f"for {val} +- {err}")
    if not err <= QUAD_REL_TOL * abs(val):  # NaN too
        raise QuadratureError(f"quadrature tolerance not reached: error estimate {err} for {val}")
    return float(val), float(err)


def _phi_integral(dist: ValueDistribution, n: int, p: float) -> tuple:
    """E[phi(v) 1{v >= p}] for v the largest of n i.i.d. values, with QUADPACK's
    error estimate: phi(isf(s)) against n (1 - s)^(n-1), the density of the largest
    value's survival probability s, over [0, sf(p)].

    The weight is a spike of width about 1/n at s = 0, below about n e^-63 past
    64/n. Once 64/n < sf(p), QAGP gets 64/n as a breakpoint, without which QAGS
    misses the spike at large n and reports a tiny value with a tiny error
    estimate; and the weight is taken through log1p, as the power turns the
    rounding of 1 - s into a relative error of n 1.1e-16, enough to throw off
    the extrapolation at gpareto(0.9)'s singular end beyond its estimate."""
    upper = float(dist.sf(p))
    spike = 64.0 / n
    points = (spike,) if spike < upper else None

    def integrand(s):
        decay = math.exp((n - 1) * math.log1p(-s)) if points else (1.0 - s) ** (n - 1)
        return virtual_value(dist, dist.isf(s)) * n * decay

    return _quad(integrand, upper, epsabs=1e-10, epsrel=1e-10, limit=200, points=points)


@functools.lru_cache(maxsize=None)
def optimal_revenue(dist: ValueDistribution, n: int) -> Estimate:
    """Rev(D^n) = E[max_i phi+(v_i)] for n i.i.d. buyers, by quadrature at every n.

    phi is non-decreasing on a regular D, so max_i phi+(v_i) is phi of the largest
    value when it is at least r(D): Rev(D^n) is _phi_integral at p = r(D), with
    QUADPACK's error estimate as the standard error. It is cached per (frozen)
    distribution and n, so a repeated call returns the first call's Estimate; a
    quadrature that _quad refuses raises its QuadratureError each time.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return Estimate(mean=0.0, std_error=0.0, samples=0)
    val, err = _phi_integral(dist, n, _require_regular_finite_reserve(dist))
    return Estimate(mean=val, std_error=err, samples=0)


def collateral(dist: ValueDistribution, n: int, alpha: float) -> float:
    """Deposit level that makes the broadcast auction deterrent at level alpha.

    For alpha in (0, 1):

        f(n, D) = r(D) * (n / alpha)^((1 - alpha) / alpha)
                       * (1 / (1 - alpha))^(1 / alpha)

    The exponents blow up at alpha = 1; for alpha >= 1 any f >= r(D) works,
    so the reserve itself is returned. A distribution that cannot run auctions
    is refused (NonRegularError, InfiniteReserveError) before alpha and n are
    checked, so a level measured on it, such as equal_revenue's alpha_hat of
    about -3e-14, reports the distribution and not the level.
    """
    r = _require_regular_finite_reserve(dist)
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if alpha >= 1.0:
        return r
    try:  # a float power that overflows raises; a product that does is inf
        level = r * (n / alpha) ** ((1.0 - alpha) / alpha) * (1.0 / (1.0 - alpha)) ** (1.0 / alpha)
    except OverflowError:
        level = math.inf
    if not math.isfinite(level):
        raise ValueError(f"the collateral level at alpha={alpha}, n={n} is not a finite float")
    return level


# ---------------------------------------------------------------------------
# Inequality checks for alpha-strongly regular tails
# ---------------------------------------------------------------------------

@record
class BoundCheck:
    """One evaluated inequality: lhs <= rhs up to the stated slack."""

    lhs: float
    rhs: float
    holds: bool
    slack: float


def _tail_factor(alpha: float, r: float, p: float) -> float:
    return (1.0 / (1.0 - alpha)) ** (1.0 / (1.0 - alpha)) * (r / p) ** (alpha / (1.0 - alpha))


def _bound_reserve(dist: ValueDistribution, alpha: float, p: float) -> float:
    """The reserve r of a tail bound's inputs, which are refused unless alpha lies in
    (0, 1), dist is regular with a finite r, and p is at or above r."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    r = _require_regular_finite_reserve(dist)
    if not at_or_above_reserve(p, r):
        raise ValueError(f"p={p} below reserve {r}")
    return r


def check_tail_bound(dist: ValueDistribution, alpha: float, p: float) -> BoundCheck:
    """Posted-price tail bound for an alpha-strongly regular D, alpha in (0,1):

        p * P[v >= p] <= r * P[v >= r] * (1/(1-alpha))^(1/(1-alpha)) * (r/p)^(alpha/(1-alpha))

    Closed-form on both sides.
    """
    r = _bound_reserve(dist, alpha, p)
    lhs = p * float(dist.sf(p))
    rhs = r * float(dist.sf(r)) * _tail_factor(alpha, r, p)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + INEQUALITY_SLACK,
                      slack=INEQUALITY_SLACK)


def posted_price_revenue_quadrature(dist: ValueDistribution, p: float) -> float:
    """E[phi(v) * 1{v >= p}] by quadrature over the survival domain: Rev's
    integral at n = 1."""
    return _phi_integral(dist, 1, p)[0]


def check_posted_price_bound(dist: ValueDistribution, alpha: float, p: float) -> BoundCheck:
    """Virtual-value tail bound, the expectation form of the posted-price bound:

        E[phi(v) 1{v >= p}] <= E[phi(v) 1{v >= r}] * tail factor(alpha, r, p)

    Both sides by quadrature; Myerson's identity E[phi(v) 1{v >= p}] = p P[v >= p]
    ties this to check_tail_bound and is tested separately.
    """
    r = _bound_reserve(dist, alpha, p)
    lhs = posted_price_revenue_quadrature(dist, p)
    rhs = posted_price_revenue_quadrature(dist, r) * _tail_factor(alpha, r, p)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + QUADRATURE_SLACK,
                      slack=QUADRATURE_SLACK)
