"""Distribution-layer tests: every expected value is either a closed form
derived independently in this file or produced by a stated oracle (finite
differences, quadrature, direct arithmetic) before being asserted."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import drasim
from drasim import (
    EqualRevenue,
    Exponential,
    GeneralizedPareto,
    InfiniteReserveError,
    NonRegularError,
    TwoPoint,
    UndefinedDensityError,
    Uniform,
    adaptive_gain_quadrature,
    check_conditional_bound,
    check_posted_price_bound,
    check_tail_bound,
    collateral,
    make_distribution,
    optimal_revenue,
    plus_virtual_value,
    reserve_price,
    strong_regularity_alpha,
    virtual_value,
)
from drasim.distributions import (
    QUAD_ABS_TOL,
    _optimal_revenue_quadrature,
    posted_price_revenue_quadrature,
)

CONTINUOUS = [Exponential(1.0), GeneralizedPareto(0.25), GeneralizedPareto(0.5),
              GeneralizedPareto(0.75), Uniform(0.0, 1.0), EqualRevenue()]


def fd_virtual_value(dist, x, h=1e-6):
    """Oracle: phi from numerically differentiated CDF."""
    dens = (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h)
    return x - (1.0 - dist.cdf(x)) / dens


# ---------------------------------------------------------------------------
# CDF/quantile/sampling structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_cdf_quantile_roundtrip(dist):
    u = np.linspace(0.01, 0.99, 99)
    x = dist.quantile(u)
    assert np.all(np.diff(x) > 0)
    assert np.allclose(dist.cdf(x), u, atol=1e-12)
    assert np.max(np.abs(dist.quantile(dist.cdf(x)) - x) / np.maximum(1.0, np.abs(x))) < 1e-9


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_cdf_monotone_with_limits(dist):
    lo, hi = dist.support
    assert float(dist.cdf(lo)) == 0.0
    far = dist.quantile(1.0 - 1e-9) if math.isinf(hi) else hi
    assert float(dist.cdf(far)) > 1.0 - 1e-6
    xs = np.linspace(lo, float(far), 200)
    assert np.all(np.diff(dist.cdf(xs)) >= 0.0)
    assert np.all(dist.pdf(xs[1:-1]) > 0.0)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_sampling_is_inverse_cdf_coupled(dist):
    class Recorder:
        def __init__(self):
            self.u = np.random.default_rng(7).random(50)

        def random(self, size=None):
            return self.u if size else self.u[0]

    rec = Recorder()
    drawn = dist.sample(rec, size=50)
    assert np.array_equal(drawn, dist.quantile(rec.u))


@pytest.mark.parametrize("dist", [Exponential(1.0), GeneralizedPareto(0.5), EqualRevenue()],
                         ids=lambda d: repr(d))
def test_tail_sampling_matches_conditional_quantile(dist):
    t = float(dist.quantile(0.9))
    u = np.linspace(0.0, 0.999, 50)
    v = dist.sample_tail(t, u)
    assert np.all(v >= t - 1e-12)
    # agrees with the naive conditional quantile where that is numerically safe
    naive = dist.quantile(dist.cdf(t) + u * (1.0 - dist.cdf(t)))
    assert np.allclose(v, naive, rtol=1e-7)


def test_two_point_shape():
    d = TwoPoint()
    assert float(d.cdf(-0.5)) == 0.0
    assert float(d.cdf(0.0)) == 0.5
    assert float(d.cdf(0.7)) == 0.5
    assert float(d.cdf(1.0)) == 1.0
    assert float(d.quantile(0.3)) == 0.0 and float(d.quantile(0.8)) == 1.0
    with pytest.raises(UndefinedDensityError):
        d.pdf(0.5)


def test_make_distribution_spec_roundtrip():
    d = make_distribution({"family": "gpareto", "params": {"shape": 0.5}})
    assert isinstance(d, GeneralizedPareto) and d.shape == 0.5
    assert make_distribution(d.spec()) == d
    with pytest.raises(ValueError):
        make_distribution({"family": "gauss"})
    with pytest.raises(ValueError):
        make_distribution({"family": "gpareto", "params": {"shape": 0.5}, "mean": 1})
    with pytest.raises(ValueError):
        make_distribution({"family": "uniform", "params": {"low": 0, "hi": 1}})


# ---------------------------------------------------------------------------
# Virtual values
# ---------------------------------------------------------------------------

def test_virtual_value_closed_forms():
    # Exponential(1): phi(x) = x - 1 (from F = 1 - e^-x)
    assert virtual_value(Exponential(1.0), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert virtual_value(Exponential(1.0), 3.5) == pytest.approx(2.5, abs=1e-12)
    # Equal-revenue: phi = x - (1 + x) = -1 everywhere
    assert virtual_value(EqualRevenue(), 3.0) == pytest.approx(-1.0, abs=1e-12)
    assert virtual_value(EqualRevenue(), 17.0) == pytest.approx(-1.0, abs=1e-9)
    # Generalized Pareto: phi(x) = (1 - k) x - 1
    assert virtual_value(GeneralizedPareto(0.5), 2.0) == pytest.approx(0.0, abs=1e-12)
    assert virtual_value(GeneralizedPareto(0.25), 4.0) == pytest.approx(2.0, abs=1e-12)
    # Uniform(0,1): phi(x) = 2x - 1; at the top of support 1 - F = 0
    assert virtual_value(Uniform(0.0, 1.0), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert virtual_value(Uniform(0.0, 1.0), 0.25) == pytest.approx(-0.5, abs=1e-12)
    assert plus_virtual_value(EqualRevenue(), 3.0) == 0.0
    assert plus_virtual_value(Exponential(1.0), 3.0) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_virtual_value_matches_finite_difference(dist):
    # 200 interior grid points per family, |closed - finite difference| <= 1e-5
    u = np.linspace(0.02, 0.98, 200)
    xs = np.asarray(dist.quantile(u), dtype=float)
    closed = virtual_value(dist, xs)
    fd = np.array([fd_virtual_value(dist, float(x)) for x in xs])
    assert np.max(np.abs(closed - fd)) < 1e-5


def test_virtual_value_rejects_undefined_density():
    with pytest.raises(UndefinedDensityError):
        virtual_value(TwoPoint(), 0.5)
    with pytest.raises(UndefinedDensityError):
        virtual_value(Exponential(1.0), -1.0)
    with pytest.raises(UndefinedDensityError):
        virtual_value(Uniform(0.0, 1.0), 1.5)


# ---------------------------------------------------------------------------
# Reserve price
# ---------------------------------------------------------------------------

def test_reserve_closed_forms():
    # roots of x - 1, (1-k)x - 1, 2x - 1 respectively
    assert reserve_price(Exponential(1.0)) == pytest.approx(1.0, abs=1e-6)
    assert reserve_price(GeneralizedPareto(0.5)) == pytest.approx(2.0, abs=1e-6)
    assert reserve_price(GeneralizedPareto(0.25)) == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert reserve_price(Uniform(0.0, 1.0)) == pytest.approx(0.5, abs=1e-6)
    assert math.isinf(reserve_price(EqualRevenue()))
    with pytest.raises(NonRegularError):
        reserve_price(TwoPoint())


@pytest.mark.parametrize("dist", [Exponential(1.0), GeneralizedPareto(0.25),
                                  GeneralizedPareto(0.5), Uniform(0.0, 1.0)],
                         ids=lambda d: repr(d))
def test_reserve_infimum_convention(dist):
    r = reserve_price(dist)
    eps = 1e-6
    assert virtual_value(dist, r - eps) < 0.0
    assert virtual_value(dist, r + eps) >= 0.0


# ---------------------------------------------------------------------------
# Strong regularity classification
# ---------------------------------------------------------------------------

def test_alpha_estimates():
    assert strong_regularity_alpha(Exponential(1.0)).alpha_hat == pytest.approx(1.0, abs=1e-6)
    rep = strong_regularity_alpha(GeneralizedPareto(0.25))
    assert rep.alpha_hat == pytest.approx(0.75, abs=1e-6)
    assert rep.is_regular and not rep.is_mhr
    for k in np.arange(0.1, 0.95, 0.1):
        rep = strong_regularity_alpha(GeneralizedPareto(float(k)))
        assert rep.alpha_hat == pytest.approx(1.0 - k, abs=1e-6)
    er = strong_regularity_alpha(EqualRevenue())
    assert er.alpha_hat == pytest.approx(0.0, abs=1e-6)
    assert er.is_regular and not er.is_mhr
    tp = strong_regularity_alpha(TwoPoint())
    assert not tp.is_regular and not tp.is_mhr
    uni = strong_regularity_alpha(Uniform(0.0, 1.0))
    assert uni.is_mhr and uni.is_regular  # phi' = 2


def test_mhr_implies_regular_and_grid_validation():
    for dist in CONTINUOUS:
        rep = strong_regularity_alpha(dist)
        if rep.is_mhr:
            assert rep.is_regular
    with pytest.raises(ValueError):
        strong_regularity_alpha(Exponential(1.0), grid=[1.0])
    with pytest.raises(ValueError):
        strong_regularity_alpha(Exponential(1.0), grid=[2.0, 1.0])


# ---------------------------------------------------------------------------
# Optimal revenue
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def fresh_optimal_revenue():
    """Each test computes Rev(D^n) afresh: none sees another's cached quadrature."""
    _optimal_revenue_quadrature.cache_clear()
    yield
    _optimal_revenue_quadrature.cache_clear()


def test_optimal_revenue_anchors():
    # Exponential(1), n=1: E[(v-1)+] = 1/e; equals r * P[v >= r]
    assert optimal_revenue(Exponential(1.0), 1).mean == pytest.approx(math.exp(-1.0), abs=1e-8)
    # GPareto(0.5), n=1: r * P[v >= r] = 2 * (1 + 0.5*2)^-2 = 0.5
    assert optimal_revenue(GeneralizedPareto(0.5), 1).mean == pytest.approx(0.5, abs=1e-8)
    # GPareto(0.25), n=1: (4/3) * (4/3)^-4 = (4/3)^-3 = 27/64
    assert optimal_revenue(GeneralizedPareto(0.25), 1).mean == pytest.approx(27.0 / 64.0, abs=1e-8)
    # GPareto(0.5), n=2: direct integral gives 23/24
    assert optimal_revenue(GeneralizedPareto(0.5), 2).mean == pytest.approx(23.0 / 24.0, abs=1e-8)
    assert optimal_revenue(Exponential(1.0), 0).mean == 0.0


def test_quadrature_reports_and_refuses_its_error_estimate(monkeypatch):
    est = optimal_revenue(GeneralizedPareto(0.5), 2)
    assert 0.0 < est.std_error <= QUAD_ABS_TOL  # quad's own error estimate
    import scipy.integrate
    monkeypatch.setattr(scipy.integrate, "quad", lambda f, a, b, **options: (0.5, 1e-3))
    _optimal_revenue_quadrature.cache_clear()  # the call above cached Rev(D^2)
    with pytest.raises(RuntimeError, match="error estimate"):
        optimal_revenue(GeneralizedPareto(0.5), 2)
    with pytest.raises(RuntimeError, match="error estimate"):
        posted_price_revenue_quadrature(GeneralizedPareto(0.5), 4.0)
    with pytest.raises(RuntimeError, match="error estimate"):
        adaptive_gain_quadrature(GeneralizedPareto(0.5), 5.0, 2.0)


def test_cached_optimal_revenue_equals_a_fresh_quadrature():
    for dist, n in ((GeneralizedPareto(0.5), 2), (Exponential(1.0), 3), (Uniform(1.0, 5.0), 1)):
        first = optimal_revenue(dist, n)
        cached = optimal_revenue(type(dist)(**dist.params), n)  # an equal, new instance
        _optimal_revenue_quadrature.cache_clear()
        fresh = optimal_revenue(dist, n)
        assert cached is first  # served from the cache
        assert (fresh.mean.hex(), fresh.std_error.hex(), fresh.samples) \
            == (first.mean.hex(), first.std_error.hex(), 0)


def test_a_refused_quadrature_is_not_cached(monkeypatch):
    import scipy.integrate
    quad = scipy.integrate.quad
    monkeypatch.setattr(scipy.integrate, "quad", lambda f, a, b, **options: (0.5, 1e-3))
    for _ in range(2):  # refused each time, never served from the cache
        with pytest.raises(RuntimeError, match="error estimate"):
            optimal_revenue(GeneralizedPareto(0.5), 2)
    assert _optimal_revenue_quadrature.cache_info().currsize == 0
    monkeypatch.setattr(scipy.integrate, "quad", quad)
    est = optimal_revenue(GeneralizedPareto(0.5), 2)
    assert est.mean == pytest.approx(23.0 / 24.0, abs=1e-8)
    assert 0.0 < est.std_error <= QUAD_ABS_TOL


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is imported by the first quadrature, not by `import drasim`
    src = os.path.dirname(os.path.dirname(drasim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, drasim; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_optimal_revenue_monte_carlo_branch():
    est = optimal_revenue(Exponential(1.0), 5, method="monte-carlo", samples=200_000, seed=3)
    quad = optimal_revenue(Exponential(1.0), 5, method="quadrature").mean
    assert abs(est.mean - quad) <= 3.0 * est.std_error
    assert est.std_error > 0.0 and est.samples == 200_000


def test_optimal_revenue_monotone_in_n():
    for dist in (Exponential(1.0), GeneralizedPareto(0.5)):
        revs = [optimal_revenue(dist, n).mean for n in (1, 2, 3, 4)]
        assert all(b >= a - 1e-9 for a, b in zip(revs, revs[1:]))


def test_optimal_revenue_rejections():
    with pytest.raises(InfiniteReserveError):
        optimal_revenue(EqualRevenue(), 2)
    with pytest.raises(NonRegularError):
        optimal_revenue(TwoPoint(), 2)
    with pytest.raises(ValueError):
        optimal_revenue(Exponential(1.0), -1)


# ---------------------------------------------------------------------------
# Collateral formula
# ---------------------------------------------------------------------------

def test_collateral_values():
    # independent arithmetic: r * (n/alpha)^((1-a)/a) * (1/(1-a))^(1/a)
    assert collateral(GeneralizedPareto(0.5), 2, 0.5) == pytest.approx(
        2.0 * (2.0 / 0.5) ** 1.0 * 2.0 ** 2.0, rel=1e-8)  # = 32
    expected = (4.0 / 3.0) * (2.0 / 0.75) ** (0.25 / 0.75) * 4.0 ** (1.0 / 0.75)
    assert collateral(GeneralizedPareto(0.25), 2, 0.75) == pytest.approx(expected, rel=1e-8)
    assert expected == pytest.approx(11.74, abs=5e-3)
    # alpha >= 1 branch returns the reserve itself
    assert collateral(Exponential(1.0), 5, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert collateral(Exponential(1.0), 3, 1.7) == pytest.approx(1.0, abs=1e-6)
    assert collateral(GeneralizedPareto(0.5), 1, 0.5) == pytest.approx(
        2.0 * 2.0 ** 1.0 * 4.0, rel=1e-8)
    with pytest.raises(ValueError):
        collateral(Exponential(1.0), 2, 0.0)
    with pytest.raises(ValueError):
        collateral(Exponential(1.0), 0, 0.5)
    with pytest.raises(InfiniteReserveError):
        collateral(EqualRevenue(), 2, 0.5)


def test_collateral_dominates_reserve():
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5):
        for n in (1, 2, 5):
            d = GeneralizedPareto(0.5)
            assert collateral(d, n, alpha) >= reserve_price(d) - 1e-9


# ---------------------------------------------------------------------------
# Tail / conditional / posted-price bounds
# ---------------------------------------------------------------------------

def test_tail_bound_worked_example():
    # gpareto(0.5), alpha=0.5, p=4: lhs = 4 * (1+2)^-2 = 4/9; rhs = 0.5 * 4 * 0.5 = 1
    res = check_tail_bound(GeneralizedPareto(0.5), 0.5, 4.0)
    assert res.lhs == pytest.approx(4.0 / 9.0, rel=1e-9)
    assert res.rhs == pytest.approx(1.0, rel=1e-6)
    assert res.holds


def test_tail_bound_at_reserve_factor():
    # p = r: rhs/lhs = (1/(1-a))^(1/(1-a)) >= 1
    for alpha in (0.25, 0.5, 0.75):
        d = GeneralizedPareto(1.0 - alpha)
        r = reserve_price(d)
        res = check_tail_bound(d, alpha, r)
        factor = (1.0 / (1.0 - alpha)) ** (1.0 / (1.0 - alpha))
        assert res.rhs / res.lhs == pytest.approx(factor, rel=1e-6)
        assert res.holds


def test_tail_bound_grid():
    cases = 0
    for dist, amax in [(Exponential(1.0), 1.0), (GeneralizedPareto(0.25), 0.75),
                       (GeneralizedPareto(0.5), 0.5), (GeneralizedPareto(0.75), 0.25)]:
        r = reserve_price(dist)
        for alpha in (0.25, 0.5, 0.75):
            if alpha > amax + 1e-12:
                continue
            for mult in (1.0, 2.0, 4.0, 8.0):
                assert check_tail_bound(dist, alpha, mult * r).holds
                cases += 1
    assert cases >= 20
    with pytest.raises(ValueError):
        check_tail_bound(Exponential(1.0), 0.5, 0.5)  # p below reserve
    with pytest.raises(ValueError):
        check_tail_bound(Exponential(1.0), 1.0, 2.0)  # alpha outside (0,1)


def test_conditional_bound_exponential_tightness():
    # alpha = 1, threshold = r = 1: memorylessness gives E[v | v>=1] = 2 and the
    # bound E[v-1 | v>=1] + 1 = 2; the paired gap is identically zero.
    res = check_conditional_bound(Exponential(1.0), 1.0, 1.0, samples=50_000, seed=0)
    assert res.lhs == pytest.approx(res.rhs, abs=1e-9)
    assert res.holds
    assert res.lhs == pytest.approx(2.0, abs=0.02)


def test_conditional_bound_grid():
    res = check_conditional_bound(GeneralizedPareto(0.5), 0.5, 2.0, samples=200_000, seed=1)
    assert res.holds
    res = check_conditional_bound(GeneralizedPareto(0.5), 0.5, 4.0, samples=200_000, seed=2)
    assert res.holds
    res = check_conditional_bound(GeneralizedPareto(0.25), 0.75, 4.0 / 3.0,
                                  samples=200_000, seed=3)
    assert res.holds
    with pytest.raises(ValueError):
        check_conditional_bound(Exponential(1.0), 0.5, 0.2)


def test_posted_price_identity_and_bound():
    # Myerson identity for posted prices: p * P[v >= p] = E[phi(v) 1{v >= p}]
    for dist in (Exponential(1.0), GeneralizedPareto(0.25), GeneralizedPareto(0.5)):
        r = reserve_price(dist)
        for p in (r, 2.0 * r):
            quad = posted_price_revenue_quadrature(dist, p)
            assert quad == pytest.approx(p * float(dist.sf(p)), abs=1e-8)
    res = check_posted_price_bound(GeneralizedPareto(0.5), 0.5, 4.0)
    assert res.holds
    assert res.lhs == pytest.approx(4.0 / 9.0, abs=1e-8)
    for alpha, dist in [(0.25, GeneralizedPareto(0.75)), (0.75, GeneralizedPareto(0.25))]:
        r = reserve_price(dist)
        for mult in (1.0, 2.0, 4.0, 8.0):
            assert check_posted_price_bound(dist, alpha, mult * r).holds
