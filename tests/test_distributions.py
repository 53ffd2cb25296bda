"""Distribution-layer tests: every expected value is either a closed form
derived independently in this file or produced by a stated oracle (finite
differences, quadrature, direct arithmetic) before being asserted."""

import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

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
    reserve_price,
    strong_regularity_alpha,
    virtual_value,
)
from drasim import distributions
from drasim.distributions import posted_price_revenue_quadrature
from drasim.estimators import sample_values
from drasim.seeding import chunk_uniforms, derive_seed

FIXTURES = Path(__file__).parent / "fixtures"

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
    # a value is drawn as the quantile of a uniform of the seed's value stream
    u = chunk_uniforms(derive_seed(7, "values"), 0, 1, 50)[0]
    assert np.array_equal(sample_values(dist, 50, 7), dist.quantile(u))


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


def _family_bits() -> dict:
    """Each transform of each closed-form family on a fixed grid: for every call, the
    result's type, its shape and the float.hex of each of its values. The arguments
    are arrays, Python floats and 0-d arrays, and the x grid reaches below 0 (-0.0
    included)."""
    xs = [-1.0, -0.0, 0.0, 1e-300, 1e-9, 0.3, 1.0, 2.5, 17.0, 1e3, 1e12]
    us = [0.0, 1e-17, 1e-9, 0.1, 0.5, 0.9, 0.999999, 1.0 - 1e-12]
    ss = [1.0, 0.999, 0.5, 1e-3, 1e-12, 1e-300]
    args = {"x": [np.array(xs), -0.5, 0.0, 0.7, np.array(4.0)],
            "u": [np.array(us), 0.0, 0.25, np.array(0.75)],
            "s": [np.array(ss), 1.0, 0.25, np.array(1e-6)]}
    calls = [("cdf", "x"), ("pdf", "x"), ("sf", "x"), ("quantile", "u"), ("isf", "s")]

    def bits(value):
        return [type(value).__name__, list(np.shape(value)),
                [float(v).hex() for v in np.ravel(value)]]

    families = [Exponential(1.0), Exponential(0.37), GeneralizedPareto(0.25),
                GeneralizedPareto(0.5), GeneralizedPareto(0.9), EqualRevenue()]
    record = {}
    for dist in families:
        calls_of = record[repr(dist)] = {}
        for name, arg in calls:
            calls_of[name] = [bits(getattr(dist, name)(a)) for a in args[arg]]
        calls_of["sample_tail"] = [bits(dist.sample_tail(t, u))
                                   for t in (0.0, 3.0) for u in args["u"]]
    return record


def test_family_transforms_match_the_pinned_bits():
    pinned = json.loads((FIXTURES / "family_bits.json").read_text())
    record = _family_bits()
    assert sorted(pinned) == sorted(record)
    for family, calls in record.items():
        assert calls == pinned[family], family


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


def test_make_distribution_names_a_missing_parameter():
    # a field without a default is required: refused by name, not by the family's
    # __init__ raising TypeError
    for spec in ({"family": "gpareto", "params": {}}, {"family": "gpareto"}):
        with pytest.raises(ValueError, match=r"missing params for gpareto: \['shape'\]"):
            make_distribution(spec)
    assert make_distribution({"family": "uniform"}) == Uniform(0.0, 1.0)


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


def test_mhr_implies_regular():
    for dist in CONTINUOUS:
        rep = strong_regularity_alpha(dist)
        if rep.is_mhr:
            assert rep.is_regular


# ---------------------------------------------------------------------------
# Optimal revenue
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def fresh_optimal_revenue():
    """Each test computes Rev(D^n) afresh: none sees another's cached quadrature."""
    optimal_revenue.cache_clear()
    yield
    optimal_revenue.cache_clear()


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


def fake_quadpack(monkeypatch, qagse=None, qagpe=None):
    """Make _quad's QUADPACK routines the given fakes, each called as the real one is;
    a routine not given is the real one."""
    real = distributions._quadpack()
    faked = types.SimpleNamespace(_qagse=qagse or real._qagse, _qagpe=qagpe or real._qagpe)
    monkeypatch.setattr(distributions, "_quadpack", lambda: faked)


def test_quadrature_reports_and_refuses_its_error_estimate(monkeypatch):
    est = optimal_revenue(GeneralizedPareto(0.5), 2)
    assert 0.0 < est.std_error <= 1e-8  # QUADPACK's own error estimate
    optimal_revenue.cache_clear()  # the call above cached Rev(D^2)
    # a large error estimate, and a small one that is large for its value: 1e-9
    # is below an absolute gate of 1e-8 but 1e-3 of the value 1e-6
    for faked in ((0.5, 1e-3), (1e-6, 1e-9)):
        fake_quadpack(monkeypatch, qagse=lambda *call: (*faked, 0))
        with pytest.raises(RuntimeError, match="error estimate"):
            optimal_revenue(GeneralizedPareto(0.5), 2)
        with pytest.raises(RuntimeError, match="error estimate"):
            posted_price_revenue_quadrature(GeneralizedPareto(0.5), 4.0)
        with pytest.raises(RuntimeError, match="error estimate"):
            adaptive_gain_quadrature(GeneralizedPareto(0.5), 5.0, 2.0)


def test_an_estimate_that_meets_only_epsabs_runs_once_more_to_epsrel(monkeypatch):
    # the attack oracle asks for epsabs = 1e-9, and on this sweep's T = 20 QUADPACK
    # stops there with an estimate of 1e-5 of the value -3.3e-05, which the relative
    # gate refuses; the run to epsrel alone passes it
    from drasim.config import build_setup

    setup = build_setup({"distribution": {"family": "gpareto",
                                          "params": {"shape": 0.3749808279764962}},
                         "n": 2, "seed": 615, "mode": "centralized"})
    collateral_amount = setup.auction_config().collateral
    value = adaptive_gain_quadrature(setup.dist, 20.0, collateral_amount)
    assert value == pytest.approx(-3.339191176462079e-05, rel=1e-9)
    real, tolerances = distributions._quadpack()._qagse, []

    def recording(f, a, b, args, full, epsabs, epsrel, limit):
        tolerances.append((epsabs, epsrel, limit))
        return real(f, a, b, args, full, epsabs, epsrel, limit)

    fake_quadpack(monkeypatch, qagse=recording)
    assert adaptive_gain_quadrature(setup.dist, 20.0, collateral_amount) == value
    assert tolerances == [(1e-9, 1e-10, 400), (0.0, 1e-10, 400)]
    tolerances.clear()
    adaptive_gain_quadrature(setup.dist, 10.0, collateral_amount)  # passed at epsabs
    assert tolerances == [(1e-9, 1e-10, 400)]


def test_cached_optimal_revenue_equals_a_fresh_quadrature():
    for dist, n in ((GeneralizedPareto(0.5), 2), (Exponential(1.0), 3), (Uniform(1.0, 5.0), 1)):
        first = optimal_revenue(dist, n)
        cached = optimal_revenue(type(dist)(**dist.params), n)  # an equal, new instance
        optimal_revenue.cache_clear()
        fresh = optimal_revenue(dist, n)
        assert cached is first  # served from the cache
        assert (fresh.mean.hex(), fresh.std_error.hex(), fresh.samples) \
            == (first.mean.hex(), first.std_error.hex(), 0)


def test_a_refused_quadrature_is_not_cached(monkeypatch):
    fake_quadpack(monkeypatch, qagse=lambda *call: (0.5, 1e-3, 0))
    for _ in range(2):  # refused each time, never served from the cache
        with pytest.raises(RuntimeError, match="error estimate"):
            optimal_revenue(GeneralizedPareto(0.5), 2)
    assert optimal_revenue.cache_info().currsize == 0
    monkeypatch.undo()
    est = optimal_revenue(GeneralizedPareto(0.5), 2)
    assert est.mean == pytest.approx(23.0 / 24.0, abs=1e-8)
    assert 0.0 < est.std_error <= 1e-8


@pytest.mark.parametrize("routine", ["qagse", "qagpe"])
def test_quadpack_return_codes_are_refused(monkeypatch, routine):
    # quad only warns of a nonzero return code, and ier = 6 (invalid input) comes back
    # as 0 with error 0, which the relative gate alone would pass
    for faked in ((0.0, 0.0, 6), (0.5, 1e-12, 2)):
        fake_quadpack(monkeypatch, **{routine: lambda *call: faked})
        if routine == "qagse":
            with pytest.raises(RuntimeError, match="return code"):
                optimal_revenue(GeneralizedPareto(0.5), 2)
            with pytest.raises(RuntimeError, match="return code"):
                posted_price_revenue_quadrature(GeneralizedPareto(0.5), 4.0)
            with pytest.raises(RuntimeError, match="return code"):
                adaptive_gain_quadrature(GeneralizedPareto(0.5), 5.0, 2.0)
        else:  # 64/300 < 1/2 = sf(r): Rev(D^300) takes the breakpoint path
            with pytest.raises(RuntimeError, match="return code"):
                optimal_revenue(Uniform(0.0, 1.0), 300)
        assert optimal_revenue.cache_info().currsize == 0


def quadratures_of(monkeypatch, compute):
    """(integrand, upper, options, result) of every _quad call that compute() makes."""
    from drasim import estimators

    calls = []
    real = distributions._quad

    def recording(integrand, upper, **options):
        calls.append((integrand, upper, options, real(integrand, upper, **options)))
        return calls[-1][-1]

    monkeypatch.setattr(distributions, "_quad", recording)
    monkeypatch.setattr(estimators, "_quad", recording)
    compute()
    monkeypatch.undo()
    return calls


def test_quadrature_has_the_bits_of_scipy_integrate_quad(monkeypatch):
    # the reference is scipy.integrate.quad on the same integrand with the same options:
    # QUADPACK called directly must return its value and error estimate bit for bit
    from scipy.integrate import quad

    def compute():
        for dist in (Exponential(1.0), GeneralizedPareto(0.25), GeneralizedPareto(0.5),
                     GeneralizedPareto(0.9), Uniform(0.0, 1.0)):
            r = reserve_price(dist)
            below = math.floor(64.0 / float(dist.sf(r)))  # the largest n without a breakpoint
            if isinstance(dist, Uniform):
                assert below == 128
            for n in (below, below + 1, 1_000, 670_005):
                distributions._phi_integral(dist, n, r)
            for p in (r, 4.0 * r):
                posted_price_revenue_quadrature(dist, p)
        for dist, collateral in ((GeneralizedPareto(0.5), 2.0), (Exponential(1.0), 1.0)):
            for threshold in (2.0, 20.0, 100.0):
                adaptive_gain_quadrature(dist, threshold, collateral)

    calls = quadratures_of(monkeypatch, compute)
    assert len(calls) == 5 * 6 + 6
    assert sum(options.get("points") is not None for _, _, options, _ in calls) == 5 * 3
    for integrand, upper, options, (val, err) in calls:
        ref = quad(integrand, 0.0, upper, **options)
        assert (val.hex(), err.hex()) == (ref[0].hex(), ref[1].hex()), (upper, options)


def test_quadrature_drops_breakpoints_outside_the_interval():
    # quad keeps only the breakpoints inside (0, upper), as _quad does: QAGP given
    # 2.0 on [0, 1], or an end point, returns code 6 (invalid input)
    from scipy.integrate import quad

    def integrand(s):
        return math.exp(-3.0 * s)

    for points in ((2.0,), (0.0, 1.0), (0.5, 2.0, -1.0)):
        val, err = distributions._quad(integrand, 1.0, epsabs=1e-10, epsrel=1e-10, limit=50,
                                       points=points)
        ref = quad(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=50, points=points)
        assert (val.hex(), err.hex()) == (ref[0].hex(), ref[1].hex()), points


def test_at_or_above_reserve_admits_one_root_tol_below_and_no_more():
    # the rule admits a threshold up to the reserve's bisection tolerance below it,
    # directly and where the adaptive strategy checks its threshold
    from drasim import AdaptiveReserve, AuctionConfig
    from drasim.distributions import ROOT_TOL

    dist = GeneralizedPareto(0.5)
    r = reserve_price(dist)
    config = AuctionConfig(n=2, dist=dist, reserve=r, collateral=2.0, mode="centralized", seed=0)
    inside, outside = r - 0.5 * ROOT_TOL, r - 1.5 * ROOT_TOL
    assert distributions.at_or_above_reserve(inside, r)
    assert not distributions.at_or_above_reserve(outside, r)
    AdaptiveReserve(inside).check_config(config)
    with pytest.raises(ValueError, match="below reserve"):
        AdaptiveReserve(outside).check_config(config)


def test_import_leaves_scipy_integrate_unloaded():
    # neither `import drasim` nor a quadrature imports scipy.integrate: the oracles
    # load only its compiled QUADPACK extension, kept out of sys.modules too;
    # Rev(D^300) on uniform runs QAGP
    src = os.path.dirname(os.path.dirname(drasim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    imports = "import sys, drasim; print('scipy.integrate' in sys.modules)"
    oracles = ("import sys\n"
               "from drasim import (Exponential, GeneralizedPareto, Uniform,\n"
               "                    adaptive_gain_quadrature, optimal_revenue)\n"
               "optimal_revenue(GeneralizedPareto(0.5), 2)\n"
               "optimal_revenue(Uniform(0.0, 1.0), 300)\n"
               "adaptive_gain_quadrature(Exponential(1.0), 20.0, 1.0)\n"
               "print('scipy.integrate' in sys.modules\n"
               "      or 'scipy.integrate._quadpack' in sys.modules)")
    for code in (imports, oracles):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"


def test_optimal_revenue_uniform_closed_form():
    # Uniform(0, 1): phi(v) = 2v - 1 and the largest of n values has density n v^(n-1),
    # so Rev = int_{1/2}^1 (2v - 1) n v^(n-1) dv = 2n/(n+1) (1 - 2^-(n+1)) - (1 - 2^-n).
    # The log-spaced n reach past 64/n < 1/2, where quad gets the weight's spike as a
    # breakpoint.
    def closed_form(n):
        return 2.0 * n / (n + 1) * (1.0 - 2.0 ** -(n + 1)) - (1.0 - 2.0 ** -n)

    assert closed_form(5) == 0.671875
    log_spaced = np.unique(np.round(np.geomspace(65, 2e6, 40)).astype(int))
    for n in [*range(1, 65), *log_spaced.tolist()]:
        rev = optimal_revenue(Uniform(0.0, 1.0), n).mean
        assert rev == pytest.approx(closed_form(n), rel=1e-9, abs=0.0), n


def test_optimal_revenue_gpareto_closed_form_at_large_n():
    # GPareto(k): phi(isf(s)) = ((1 - k) s^-k - 1) / k, so Rev(D^n) is (1 - k) / k times
    # n int_0^sf(r) s^-k (1 - s)^(n-1) ds minus (1 - (1 - sf(r))^n) / k. From n = 1000 on,
    # (1 - sf(r))^n < e^-79, so the integral may run to 1: n B(1 - k, n), which is
    # Gamma(1 - k) Gamma(n + 1) / Gamma(n + 1 - k). n = 670,005 on gpareto(0.9) is where
    # the weight as the plain power (1 - s)^(n-1) leaves quad 1.2e-8 off.
    from scipy import special

    for k in (0.25, 0.5, 0.9):
        for n in (1_000, 10_000, 670_005, 2_000_000):
            closed_form = (1 - k) / k * math.gamma(1 - k) * special.poch(n + 1 - k, k) - 1 / k
            rev = optimal_revenue(GeneralizedPareto(k), n).mean
            assert rev == pytest.approx(closed_form, rel=1e-9, abs=0.0), (k, n)


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


def test_collateral_refuses_the_distribution_before_the_level():
    # equal_revenue's virtual value is exactly -1, so its measured alpha_hat is a
    # hair below zero: the infinite reserve is the reason to refuse, not the level
    alpha_hat = strong_regularity_alpha(EqualRevenue()).alpha_hat
    assert alpha_hat <= 0.0
    with pytest.raises(InfiniteReserveError):
        collateral(EqualRevenue(), 2, alpha_hat)
    with pytest.raises(NonRegularError):
        collateral(TwoPoint(), 0, -1.0)


def test_collateral_refuses_a_level_that_is_not_a_finite_float():
    # at alpha = 1e-9 a power of the formula overflows; at alpha = 0.00777 each power
    # is finite (the first 6.8e307), and their product with r rounds to inf
    for alpha in (1e-9, 0.00777):
        with pytest.raises(ValueError, match=f"alpha={alpha}, n=2 is not a finite float"):
            collateral(GeneralizedPareto(0.5), 2, alpha)
    assert math.isfinite(collateral(GeneralizedPareto(0.5), 2, 0.01))


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


def test_bound_checks_refuse_the_same_inputs():
    # alpha outside (0, 1) first, then a distribution without a finite reserve, then
    # a p below the reserve (NaN too), each with one message for both checks
    r = reserve_price(Exponential(1.0))
    cases = [(Exponential(1.0), 1.0, 0.5, ValueError, r"alpha must lie in \(0, 1\), got 1.0"),
             (EqualRevenue(), 0.0, 2.0, ValueError, r"alpha must lie in \(0, 1\), got 0.0"),
             (EqualRevenue(), 0.5, 2.0, InfiniteReserveError,
              "equal_revenue has an infinite reserve price"),
             (TwoPoint(), 0.5, 2.0, NonRegularError, "two_point is not regular"),
             (Exponential(1.0), 0.5, 0.5, ValueError, f"p=0.5 below reserve {r}"),
             (Exponential(1.0), 0.5, math.nan, ValueError, f"p=nan below reserve {r}")]
    for dist, alpha, p, error, message in cases:
        for check in (check_tail_bound, check_posted_price_bound):
            with pytest.raises(error, match=f"^{message}$"):
                check(dist, alpha, p)


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
        check_conditional_bound(Exponential(1.0), 0.5, 0.2, samples=1_000_000, seed=0)


def test_posted_price_identity_and_bound():
    # Myerson identity for posted prices: p * P[v >= p] = E[phi(v) 1{v >= p}]
    for dist in (Exponential(1.0), GeneralizedPareto(0.25), GeneralizedPareto(0.5)):
        r = reserve_price(dist)
        for p in (r, 2.0 * r):
            quad = posted_price_revenue_quadrature(dist, p)
            assert quad == pytest.approx(p * float(dist.sf(p)), abs=1e-8)
    # the posted price is Rev's integral at n = 1: at the reserve, Rev(D^1) to the bit
    for dist in (Exponential(1.0), GeneralizedPareto(0.25), GeneralizedPareto(0.5),
                 GeneralizedPareto(0.75), Uniform(0.0, 1.0)):
        assert optimal_revenue(dist, 1).mean \
            == posted_price_revenue_quadrature(dist, reserve_price(dist))
    res = check_posted_price_bound(GeneralizedPareto(0.5), 0.5, 4.0)
    assert res.holds
    assert res.lhs == pytest.approx(4.0 / 9.0, abs=1e-8)
    for alpha, dist in [(0.25, GeneralizedPareto(0.75)), (0.75, GeneralizedPareto(0.25))]:
        r = reserve_price(dist)
        for mult in (1.0, 2.0, 4.0, 8.0):
            assert check_posted_price_bound(dist, alpha, mult * r).holds
