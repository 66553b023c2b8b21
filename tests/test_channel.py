"""Tests for the V-type damping channel and its decoherence amplitudes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qutrit_eur.channel import (
    LEVEL_ORDERS,
    ChannelParams,
    KrausSet,
    apply_channel,
    apply_product_channel,
    decoherence_factor,
    decoherence_factor_ode,
    decoherence_factors,
    decoherence_factors_ode,
    derive_params,
    dressed_kraus,
    kraus_set,
    kraus_tensor,
    require_complete,
)
from qutrit_eur.experiment import oracle_grid
from qutrit_eur.entropy import negativity
from qutrit_eur.states_obs import isotropic_state

from conftest import random_density_matrix

SYMMETRIC_NO_SGI = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=0.001)
SYMMETRIC_FULL_SGI = ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=0.001)

GROUND = np.diag([0.0, 0.0, 1.0]).astype(complex)
EXCITED_1 = np.diag([1.0, 0.0, 0.0]).astype(complex)


def random_params(rng):
    return ChannelParams(
        gamma1=rng.uniform(0.1, 3.0),
        gamma2=rng.uniform(0.1, 3.0),
        theta=rng.uniform(-1.0, 1.0),
        lam=10.0 ** rng.uniform(-3.0, 3.0),
    )


# ---------------------------------------------------------------------------
# derived parameters
# ---------------------------------------------------------------------------


def test_derive_params_maximal_sgi():
    d = derive_params(ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=1.0))
    assert d.q == pytest.approx(2.0, abs=1e-14)
    assert d.gamma_plus == pytest.approx(2.0, abs=1e-14)
    assert d.gamma_minus == pytest.approx(0.0, abs=1e-14)
    assert d.a == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert d.b == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_derive_params_degenerate_no_sgi():
    d = derive_params(ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1.0))
    assert d.q == 0.0
    assert d.gamma_plus == pytest.approx(1.0, abs=1e-14)
    assert d.gamma_minus == pytest.approx(1.0, abs=1e-14)
    assert d.a == d.b == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_derive_params_asymmetric():
    d = derive_params(ChannelParams(gamma1=2.0, gamma2=1.0, theta=0.5, lam=1.0))
    q = math.sqrt(3.0)
    assert d.q == pytest.approx(q, abs=1e-12)
    assert d.gamma_plus == pytest.approx((3.0 + q) / 2, abs=1e-12)
    assert d.gamma_minus == pytest.approx((3.0 - q) / 2, abs=1e-12)
    assert d.a**2 == pytest.approx((q + 1.0) / (2 * q), abs=1e-12)


def test_derive_params_no_sgi_unequal_rates():
    # q = |gamma1 - gamma2| rounds so that q - gamma1 + gamma2 is about -3e-17
    d = derive_params(ChannelParams(gamma1=2.0, gamma2=0.1, theta=0.0, lam=1.0))
    assert d.a == pytest.approx(1.0, abs=1e-14)
    assert d.b <= 1e-7
    assert d.gamma_plus == pytest.approx(2.0, abs=1e-14)
    assert d.gamma_minus == pytest.approx(0.1, abs=1e-14)


def test_derive_params_minus_rate_without_cancellation():
    # (gamma1 + gamma2 - q)/2 cancels when one rate dwarfs the other: at
    # theta = 1 it read -2 here (true 0), and the minus branch's G grew
    # until G*G overflowed in a sweep to t = 486
    gamma1, gamma2 = 5.0, 2.9433575681425316e16
    for theta in (1.0, -0.5, 0.0, 0.999):
        d = derive_params(ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=2.0))
        with mpmath.workdps(50):
            g1, g2, th = mpmath.mpf(gamma1), mpmath.mpf(gamma2), mpmath.mpf(theta)
            want = (g1 + g2 - mpmath.sqrt((g1 - g2) ** 2 + 4 * g1 * g2 * th**2)) / 2
        # at theta = 1 the true rate is 0, and this asks for exactly 0
        assert d.gamma_minus == pytest.approx(float(want), rel=1e-15, abs=0.0)


def test_derive_params_invariants_random():
    rng = np.random.default_rng(53)
    for _ in range(200):
        p = random_params(rng)
        d = derive_params(p)
        assert d.q >= 0
        assert d.a**2 + d.b**2 == pytest.approx(1.0, abs=1e-12)
        assert d.gamma_plus + d.gamma_minus == pytest.approx(p.gamma1 + p.gamma2, abs=1e-12)


def mixing_mpmath(gamma1, gamma2, theta):
    """Nonnegative plus-branch eigenvector of the decay matrix at 50 digits."""
    with mpmath.workdps(50):
        c = mpmath.sqrt(mpmath.mpf(gamma1) * mpmath.mpf(gamma2)) * abs(mpmath.mpf(theta))
        values, vectors = mpmath.eigsy(mpmath.matrix([[gamma1, c], [c, gamma2]]))
        i = 0 if values[0] > values[1] else 1
        a, b = vectors[0, i], vectors[1, i]
        return (float(a), float(b)) if a + b > 0 else (float(-a), float(-b))


def test_mixing_amplitudes_match_mpmath_eigenvector():
    rng = np.random.default_rng(107)
    cases = [(2.0, 1.0, 0.5), (2.0, 0.1, 0.0), (0.1, 2.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, -0.3)]
    # small |theta| against unequal rates, where b is tiny and easily lost
    cases += [(2.0, 1.0, s * 10.0**e) for e in range(-15, -2) for s in (1.0, -1.0)]
    cases += [(2.0, 1.0, 6e-10), (1.0, 2.0, 6e-10)]
    cases += [(*rng.uniform(0.1, 3.0, 2), rng.uniform(-1.0, 1.0)) for _ in range(100)]
    for gamma1, gamma2, theta in cases:
        d = derive_params(ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=1.0))
        a, b = mixing_mpmath(gamma1, gamma2, theta)
        assert abs(d.a - a) <= 1e-15 and abs(d.b - b) <= 1e-15, (gamma1, gamma2, theta)


@settings(max_examples=200, deadline=None)
@given(
    gamma1=st.floats(1e-3, 1e3),
    gamma2=st.floats(1e-3, 1e3),
    theta=st.floats(-1.0, 1.0),
)
def test_mixing_amplitudes_unit_norm(gamma1, gamma2, theta):
    d = derive_params(ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=1.0))
    assert d.a >= 0 and d.b >= 0
    assert abs(d.a * d.a + d.b * d.b - 1.0) <= 1e-15


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(gamma1=0.0, gamma2=1.0, theta=0.0, lam=1.0), "gamma1"),
        (dict(gamma1=1.0, gamma2=-2.0, theta=0.0, lam=1.0), "gamma2"),
        (dict(gamma1=1.0, gamma2=1.0, theta=1.5, lam=1.0), "theta"),
        (dict(gamma1=1.0, gamma2=1.0, theta=0.0, lam=0.0), "lam"),
        (dict(gamma1=math.inf, gamma2=1.0, theta=0.0, lam=1.0), "gamma1"),
        (dict(gamma1=1.0, gamma2=math.inf, theta=0.0, lam=1.0), "gamma2"),
        (dict(gamma1=1.0, gamma2=1.0, theta=math.nan, lam=1.0), "theta"),
        (dict(gamma1=1.0, gamma2=1.0, theta=0.0, lam=math.inf), "lam"),
        (dict(gamma1=1.0, gamma2=1.0, theta=0.0, lam=math.nan), "lam"),
    ],
)
def test_channel_params_validation(kwargs, field):
    with pytest.raises(ValueError, match=field):
        ChannelParams(**kwargs)


# ---------------------------------------------------------------------------
# decoherence amplitudes
# ---------------------------------------------------------------------------


def test_g_is_one_at_t0():
    rng = np.random.default_rng(59)
    for _ in range(20):
        p = random_params(rng)
        for branch in ("plus", "minus"):
            assert decoherence_factor(p, branch, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_g_decoherence_free_branch():
    # maximal SGI with equal rates leaves the minus branch undamped
    for lam in (0.001, 1.0, 1000.0):
        p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=lam)
        for t in (0.0, 0.5, 7.0, 140.0, 600.0):
            assert decoherence_factor(p, "minus", t) == pytest.approx(1.0, abs=1e-12)


def test_g_matches_ode_oracle():
    rng = np.random.default_rng(61)
    for _ in range(25):
        p = random_params(rng)
        branch = "plus" if rng.uniform() < 0.5 else "minus"
        t = rng.uniform(0.0, min(20.0, 50.0 / p.lam))
        closed = decoherence_factor(p, branch, t)
        integrated = decoherence_factor_ode(p, branch, t)
        assert closed == pytest.approx(integrated, abs=1e-8)


def test_g_ode_initial_condition():
    p = SYMMETRIC_NO_SGI
    assert decoherence_factor_ode(p, "plus", 0.0) == 1.0


def test_g_matches_ode_near_first_zero():
    # slow-reservoir amplitude close to its first zero crossing
    closed = decoherence_factor(SYMMETRIC_NO_SGI, "plus", 70.2)
    integrated = decoherence_factor_ode(SYMMETRIC_NO_SGI, "plus", 70.2)
    assert closed == pytest.approx(integrated, abs=1e-8)


def test_g_ode_markovian_envelope():
    # for lam >> rate the amplitude follows exp(-rate*t/2) within 1%
    p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1000.0)
    for t in (1.0, 3.0, 5.0):
        g = decoherence_factor_ode(p, "plus", t)
        assert g / math.exp(-t / 2.0) == pytest.approx(1.0, abs=0.01)


def test_g_continuous_across_critical_width():
    # lam = 2*rate is the boundary between monotone and oscillatory decay
    for rate_pair in ((1.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
        g1, g2, theta = rate_pair
        rate = derive_params(ChannelParams(g1, g2, theta, 1.0)).gamma_plus
        lam_c = 2.0 * rate
        for t in (0.5, 2.0, 10.0):
            below = decoherence_factor(ChannelParams(g1, g2, theta, lam_c * (1 - 1e-6)), "plus", t)
            above = decoherence_factor(ChannelParams(g1, g2, theta, lam_c * (1 + 1e-6)), "plus", t)
            at = decoherence_factor(ChannelParams(g1, g2, theta, lam_c), "plus", t)
            assert abs(below - above) <= 1e-5
            assert abs(at - below) <= 1e-5


def test_g_markovian_monotone_decay():
    p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1000.0)
    values = [decoherence_factor(p, "plus", t) for t in np.linspace(0.0, 5.0, 200)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_g_stays_in_unit_interval():
    rng = np.random.default_rng(67)
    for _ in range(200):
        p = random_params(rng)
        t = rng.uniform(0.0, 100.0)
        g = decoherence_factor(p, "plus" if rng.uniform() < 0.5 else "minus", t)
        assert -1.0 - 1e-12 <= g <= 1.0 + 1e-12


def g_mpmath(lam, rate, t):
    """G(t) at 50 digits from the two-exponential textbook form, its d -> 0 limit at d = 0."""
    with mpmath.workdps(50):
        lam, rate, t = mpmath.mpf(lam), mpmath.mpf(rate), mpmath.mpf(t)
        d = mpmath.sqrt(lam * (lam - 2 * rate))  # imaginary below critical damping
        if d == 0:
            return float(mpmath.exp(-lam * t / 2) * (1 + lam * t / 2))
        g = mpmath.exp(-lam * t / 2) * (mpmath.cosh(d * t / 2) + lam / d * mpmath.sinh(d * t / 2))
        return float(mpmath.re(g))


def test_g_matches_mpmath_near_critical_damping_and_markov_limit():
    # equal rates without SGI make both branch rates exactly `rate`
    points = []
    for rate in (0.3, 1.0, 2.7):
        for eps in [0.0] + [s * e for e in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 3e-16) for s in (1, -1)]:
            lam = 2.0 * rate * (1.0 + eps)
            points += [(rate, lam, lt / lam) for lt in np.concatenate([[0.0], np.logspace(-3, 3, 29)])]
    for lam in 10.0 ** np.arange(3, 21):
        points += [(1.0, lam, t) for t in np.linspace(0.0, 10.0, 26)]
    rates, lams, ts = np.array(points).T
    params = [ChannelParams(gamma1=r, gamma2=r, theta=0.0, lam=lam) for r, lam in zip(rates, lams)]
    got = decoherence_factors(params, ["plus"] * len(params), ts)
    want = np.array([g_mpmath(*point) for point in zip(lams, rates, ts)])
    assert np.max(np.abs(got - want)) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0),
    log_lam=st.floats(-3.0, 3.0),
    branch=st.sampled_from(["plus", "minus"]),
    t_frac=st.floats(0.0, 1.0),
)
def test_g_properties(gamma1, gamma2, theta, log_lam, branch, t_frac):
    p = ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam)
    t = t_frac * min(20.0, 50.0 / p.lam)
    assert decoherence_factor(p, branch, 0.0) == 1.0
    g = decoherence_factor(p, branch, t)
    # |G| <= 1 up to the last bit of the rounded result
    assert abs(g) <= 1.0 + 2.0**-52
    assert abs(g - decoherence_factor_ode(p, branch, t)) <= 1e-8


def test_g_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        decoherence_factor(SYMMETRIC_NO_SGI, "plus", -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        decoherence_factor_ode(SYMMETRIC_NO_SGI, "plus", -0.1)


def test_g_overflow_raises_value_error_naming_inputs():
    # d + lam overflows to inf, so the closed form yields NaN already at t = 0
    p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1e308)
    with pytest.raises(ValueError, match=r"not finite and real.*lam=1e\+308.* at t=0$"):
        decoherence_factor(p, "plus", 0.0)
    with pytest.raises(ValueError, match=r"t must be finite and nonnegative.* at t=inf$"):
        kraus_set(SYMMETRIC_NO_SGI, math.inf)


def g_mpmath_wide(lam, rate, t):
    """G(t) at 50 digits for any exponent range, away from d = 0.

    The two-exponential form with d - lam = -2*lam*rate/(d + lam) and
    1 - lam/d = (d - lam)/d, so no digits cancel between d and lam.
    """
    with mpmath.workdps(50):
        lam, rate, t = mpmath.mpf(lam), mpmath.mpf(rate), mpmath.mpf(t)
        d = mpmath.sqrt(lam) * mpmath.sqrt(lam - 2 * rate)
        shrink = -2 * lam * rate / (d + lam)
        g = ((1 + lam / d) * mpmath.exp(shrink * t / 2) + shrink / d * mpmath.exp(-(d + lam) * t / 2)) / 2
        return float(mpmath.re(g))


def test_g_tiny_width_matches_mpmath():
    # lam*(lam - 2*rate) underflows for every point here; as one product it
    # read d = 0 and gave G = exp(-lam*t/2)*(1 + lam*t/2), e.g. 6 at lam = 1e-170,
    # rate 0, t = 1e171. Equal rates without SGI make both branch rates r; full
    # SGI on equal rates makes the minus branch rate exactly 0.
    points = []
    for lam in (1e-170, 1e-200, 1e-300):
        branches = [(ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=lam), "minus")]
        branches += [(ChannelParams(gamma1=r, gamma2=r, theta=0.0, lam=lam), "plus") for r in (1e-3 * lam, 0.45 * lam)]
        for p, branch in branches:
            points += [(p, branch, x / lam) for x in (0.0, 0.5, 3.0, 10.0, 40.0)]
    params, branches, ts = zip(*points)
    got = decoherence_factors(params, branches, ts)
    rates = [getattr(derive_params(p), f"gamma_{branch}") for p, branch in zip(params, branches)]
    assert rates[0] == 0.0
    want = np.array([g_mpmath_wide(p.lam, rate, t) for p, rate, t in zip(params, rates, ts)])
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.all(got[np.array(rates) == 0.0] == 1.0)


def test_g_huge_width_matches_mpmath():
    # lam*(lam - 2*rate) overflows for every point here, which once bounded
    # the widths near 1e154; d = sqrt(lam)*sqrt(lam - 2*rate) does not, and
    # G tends to the Markov limit exp(-rate*t/2)
    points = [
        (ChannelParams(gamma1=rate, gamma2=rate, theta=0.0, lam=lam), "plus", t)
        for lam in (1e154, 1e200, 1e300, 5e307)
        for rate in (0.5, 1.0, 2.0)
        for t in (1e-300, 0.1, 1.0, 10.0)
    ]
    params, branches, ts = zip(*points)
    got = decoherence_factors(params, branches, ts)
    want = np.array([g_mpmath_wide(p.lam, p.gamma1, t) for p, t in zip(params, ts)])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert abs(decoherence_factor(params[-1], "plus", 10.0) - math.exp(-10.0)) <= 1e-15


def stepped_rk4(p, branch, t):
    """The oracle as an explicit four-stage RK4 loop, with the oracle's step rule."""
    lam = p.lam
    rate = getattr(derive_params(p), f"gamma_{branch}")
    h_max = min(0.01 / lam, 0.01 / rate if rate > 0 else math.inf, max(t / 1000.0, math.ulp(0.0)))
    n = max(1, math.ceil(t / h_max))
    h = t / n
    c = 0.5 * lam * rate
    g, v = 1.0, 0.0
    for _ in range(n):
        k1g, k1v = v, -lam * v - c * g
        k2g = v + h / 2 * k1v
        k2v = -lam * k2g - c * (g + h / 2 * k1g)
        k3g = v + h / 2 * k2v
        k3v = -lam * k3g - c * (g + h / 2 * k2g)
        k4g = v + h * k3v
        k4v = -lam * k4g - c * (g + h * k3g)
        g += h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
        v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return g


def test_rk4_propagator_matches_stepped_loop_on_oracle_grid():
    params, branches, ts = zip(*oracle_grid(100))
    powered = decoherence_factors_ode(params, branches, ts)
    stepped = [stepped_rk4(*point) for point in zip(params, branches, ts)]
    assert np.max(np.abs(powered - stepped)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0),
    log_lam=st.floats(-3.0, 3.0),
    branch=st.sampled_from(["plus", "minus"]),
    t_frac=st.floats(0.0, 1.0),
)
# t = 1e-322, where t/1000 underflows to 0 in the step rule
@example(gamma1=1.0, gamma2=1.0, theta=0.0, log_lam=0.0, branch="plus", t_frac=5e-324)
def test_rk4_propagator_matches_stepped_loop(gamma1, gamma2, theta, log_lam, branch, t_frac):
    p = ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam)
    t = t_frac * min(20.0, 50.0 / p.lam)
    assert abs(decoherence_factor_ode(p, branch, t) - stepped_rk4(p, branch, t)) <= 1e-12


def test_g_ode_rejects_unbounded_step_counts():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        decoherence_factor_ode(SYMMETRIC_NO_SGI, "plus", math.inf)
    with pytest.raises(ValueError, match=r"RK4 oracle needs 1\.000e\+302 steps.* at t=1$"):
        decoherence_factor_ode(ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1e300), "plus", 1.0)


def test_g_rejects_bad_branch():
    with pytest.raises(ValueError, match="branch"):
        decoherence_factor(SYMMETRIC_NO_SGI, "both", 1.0)


# ---------------------------------------------------------------------------
# Kraus operators
# ---------------------------------------------------------------------------


def test_kraus_identity_at_t0():
    ks = kraus_set(SYMMETRIC_FULL_SGI, 0.0)
    assert_allclose(ks.k1, np.eye(3), atol=1e-14)
    assert_allclose(ks.k2, 0, atol=1e-14)
    assert_allclose(ks.k3, 0, atol=1e-14)


def test_kraus_symmetric_no_sgi_is_diagonal():
    p = SYMMETRIC_NO_SGI
    t = 35.0
    g = decoherence_factor(p, "plus", t)
    ks = kraus_set(p, t)
    assert ks.k1[0, 1] == 0
    assert ks.k1[1, 0] == 0
    assert_allclose(np.diagonal(ks.k1), [g, g, 1.0], atol=1e-14)


def test_kraus_completeness_random():
    rng = np.random.default_rng(71)
    for _ in range(100):
        ks = kraus_set(random_params(rng), rng.uniform(0.0, 20.0))
        acc = sum(k.conj().T @ k for k in ks.ops)
        assert_allclose(acc, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("levels", [(0, 1, 2), (1, 2, 0)])
def test_kraus_tensor_per_draw_params_match_scalar_calls(levels):
    rng = np.random.default_rng(103)
    params = [random_params(rng) for _ in range(40)]
    # include exact degeneracy (q = 0) and exact critical damping (d = 0)
    params += [SYMMETRIC_NO_SGI, ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=2.0)]
    ts = rng.uniform(0.0, 50.0, len(params))
    kraus, g_plus, g_minus = kraus_tensor(params, ts, levels)
    for i, (p, t) in enumerate(zip(params, ts)):
        k, gp, gm = kraus_tensor(p, ts[i:i + 1], levels)
        assert np.max(np.abs(kraus[i] - k[0])) <= 1e-15
        assert abs(g_plus[i] - gp[0]) <= 1e-15 and abs(g_minus[i] - gm[0]) <= 1e-15


@pytest.mark.parametrize("basis", list(LEVEL_ORDERS))
def test_dressed_kraus_rotates_into_kraus_tensor(basis):
    rng = np.random.default_rng(109)
    params = [random_params(rng) for _ in range(30)] + [SYMMETRIC_NO_SGI, SYMMETRIC_FULL_SGI]
    ts = rng.uniform(0.0, 50.0, len(params))
    dressed, frame, g_plus, g_minus = dressed_kraus(params, ts, LEVEL_ORDERS[basis])
    assert dressed.dtype == frame.dtype == np.float64
    # K_1 = diag(G+, G-, 1), K_2 = W+|g><+|, K_3 = W-|g><-|: five entries per time
    assert np.all(np.count_nonzero(dressed, axis=(1, 2, 3)) <= 5)
    assert np.array_equal(dressed[:, 0], np.array([np.diag([gp, gm, 1.0]) for gp, gm in zip(g_plus, g_minus)]))
    require_complete(dressed, ts)
    assert np.max(np.abs(frame @ frame.swapaxes(1, 2) - np.eye(3))) <= 1e-15
    kraus = kraus_tensor(params, ts, LEVEL_ORDERS[basis])[0]
    rotated = frame[:, None] @ dressed @ frame[:, None].swapaxes(-1, -2)
    assert kraus.dtype == np.float64
    assert np.max(np.abs(kraus - rotated)) <= 1e-15
    # the ground level of the basis convention is the third column of O
    assert np.all(frame[:, LEVEL_ORDERS[basis][2], 2] == 1.0)


def test_kraus_set_rejects_incomplete_triple():
    with pytest.raises(ValueError, match="completeness"):
        KrausSet(k1=np.eye(3, dtype=complex) * 0.9, k2=np.zeros((3, 3)), k3=np.zeros((3, 3)), t=0.0)


def test_degenerate_mixing_choice_does_not_change_channel():
    # at q = 0 both branch amplitudes coincide, so any orthonormal (a, b)
    # pair yields the same map; compare the canonical choice with (1, 0)
    p = SYMMETRIC_NO_SGI
    t = 50.0
    g = decoherence_factor(p, "plus", t)
    w = math.sqrt(1.0 - g * g)
    ks = kraus_set(p, t)
    alt = KrausSet(
        k1=ks.k1,
        k2=w * np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex),
        k3=w * np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=complex),
        t=t,
    )
    rng = np.random.default_rng(73)
    for _ in range(5):
        rho = random_density_matrix(rng, 3)
        assert_allclose(apply_channel(rho, ks), apply_channel(rho, alt), atol=1e-12)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------


def test_apply_channel_identity_at_t0():
    rng = np.random.default_rng(79)
    rho = random_density_matrix(rng, 3)
    out = apply_channel(rho, kraus_set(SYMMETRIC_FULL_SGI, 0.0))
    assert_allclose(out, rho, atol=1e-12)


def test_apply_channel_ground_state_fixed_point():
    rng = np.random.default_rng(83)
    for _ in range(10):
        ks = kraus_set(random_params(rng), rng.uniform(0.0, 50.0))
        assert_allclose(apply_channel(GROUND, ks), GROUND, atol=1e-12)


def test_apply_channel_population_transfer_matches_oracle():
    # an initially excited level decays to the ground level as G(t)^2
    p = SYMMETRIC_NO_SGI
    t = 140.0
    g = decoherence_factor_ode(p, "plus", t)
    out = apply_channel(EXCITED_1, kraus_set(p, t))
    expected = g * g * EXCITED_1 + (1.0 - g * g) * GROUND
    assert_allclose(out, expected, atol=1e-8)


def test_apply_channel_rejects_invalid_state():
    ks = kraus_set(SYMMETRIC_NO_SGI, 1.0)
    with pytest.raises(ValueError, match="trace"):
        apply_channel(np.eye(3, dtype=complex), ks)
    with pytest.raises(ValueError, match="eigenvalue"):
        apply_channel(np.diag([1.5, -0.5, 0.0]).astype(complex), ks)


def test_apply_channel_preserves_state_validity():
    rng = np.random.default_rng(89)
    for _ in range(50):
        ks = kraus_set(random_params(rng), rng.uniform(0.0, 20.0))
        out = apply_channel(random_density_matrix(rng, 3), ks)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-10


def test_apply_product_channel_identity_at_t0():
    rho = isotropic_state(0.7)
    out = apply_product_channel(rho, kraus_set(SYMMETRIC_FULL_SGI, 0.0))
    assert_allclose(out, rho, atol=1e-12)


def test_apply_product_channel_factorizes_products():
    rng = np.random.default_rng(97)
    ks = kraus_set(random_params(rng), 3.0)
    rho = random_density_matrix(rng, 3)
    sigma = random_density_matrix(rng, 3)
    joint = apply_product_channel(np.kron(rho, sigma), ks)
    assert_allclose(joint, np.kron(apply_channel(rho, ks), apply_channel(sigma, ks)), atol=1e-12)


def test_apply_product_channel_trace_and_hermiticity():
    rng = np.random.default_rng(101)
    for _ in range(20):
        ks = kraus_set(random_params(rng), rng.uniform(0.0, 20.0))
        out = apply_product_channel(random_density_matrix(rng, 9), ks)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def test_entanglement_death_at_amplitude_zero_and_revival():
    # entanglement of the maximally entangled state vanishes where the
    # branch amplitude crosses zero (everything sits in the ground state)
    # and partially recovers afterwards
    p = SYMMETRIC_NO_SGI
    rho0 = isotropic_state(1.0)

    def neg_at(t):
        return negativity(apply_product_channel(rho0, kraus_set(p, t)))

    lo, hi = 65.0, 80.0
    assert decoherence_factor(p, "plus", lo) > 0 > decoherence_factor(p, "plus", hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if decoherence_factor(p, "plus", mid) > 0:
            lo = mid
        else:
            hi = mid
    t_zero = (lo + hi) / 2
    assert neg_at(t_zero) <= 1e-9
    assert neg_at(t_zero - 40.0) > 0.1
    assert neg_at(t_zero + 50.0) > 0.1
