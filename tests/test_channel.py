"""Tests for the V-type damping channel and its decoherence amplitudes."""

import dataclasses
import fractions
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qutrit_eur.channel import (
    ChannelParams,
    _derive,
    decoherence_factors_ode,
    dressed_amplitudes,
    dressed_channel,
    require_completeness,
)
from qutrit_eur.entropy import evolved_isotropic_columns
from qutrit_eur.experiment import BASIS_CONVENTIONS, BASIS_ROWS, SweepConfig, _cptp_draws, oracle_grid
from qutrit_eur.linalg import SampleError, require_density_stack
from qutrit_eur.states_obs import require_mixing

from conftest import (
    REFERENCE_LEVELS,
    as_fields,
    computational_kraus,
    derived,
    random_density_matrix,
    random_params,
    reference_evolved,
    reference_isotropic,
)

SYMMETRIC_NO_SGI = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=0.001)
SYMMETRIC_FULL_SGI = ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=0.001)

GROUND = np.diag([0.0, 0.0, 1.0]).astype(complex)
EXCITED_1 = np.diag([1.0, 0.0, 0.0]).astype(complex)


# ---------------------------------------------------------------------------
# derived parameters
# ---------------------------------------------------------------------------


def derive_row(gamma1, gamma2, theta):
    """gamma_plus, gamma_minus, a, b of one row of fields as floats, from channel._derive; the width plays no part."""
    (gamma_plus,), (gamma_minus,), (a,), (b,) = _derive(np.array([[gamma1, gamma2, theta, 1.0]]))
    return gamma_plus, gamma_minus, a, b


def test_derive_params_maximal_sgi():
    gamma_plus, gamma_minus, a, b = derive_row(1.0, 1.0, 1.0)
    # the splitting q = gamma_plus - gamma_minus
    assert gamma_plus - gamma_minus == pytest.approx(2.0, abs=1e-14)
    assert gamma_plus == pytest.approx(2.0, abs=1e-14)
    assert gamma_minus == pytest.approx(0.0, abs=1e-14)
    assert a == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert b == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_derive_params_degenerate_no_sgi():
    gamma_plus, gamma_minus, a, b = derive_row(1.0, 1.0, 0.0)
    # q = 0: the two rates coincide exactly
    assert gamma_plus == gamma_minus
    assert gamma_plus == pytest.approx(1.0, abs=1e-14)
    assert a == b == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_derive_params_asymmetric():
    gamma_plus, gamma_minus, a, _ = derive_row(2.0, 1.0, 0.5)
    q = math.sqrt(3.0)
    assert gamma_plus - gamma_minus == pytest.approx(q, abs=1e-12)
    assert gamma_plus == pytest.approx((3.0 + q) / 2, abs=1e-12)
    assert gamma_minus == pytest.approx((3.0 - q) / 2, abs=1e-12)
    assert a**2 == pytest.approx((q + 1.0) / (2 * q), abs=1e-12)


def test_derive_params_no_sgi_unequal_rates():
    # q = |gamma1 - gamma2| rounds so that q - gamma1 + gamma2 is about -3e-17
    gamma_plus, gamma_minus, a, b = derive_row(2.0, 0.1, 0.0)
    assert a == pytest.approx(1.0, abs=1e-14)
    assert b <= 1e-7
    assert gamma_plus == pytest.approx(2.0, abs=1e-14)
    assert gamma_minus == pytest.approx(0.1, abs=1e-14)


def test_derive_params_minus_rate_without_cancellation():
    # (gamma1 + gamma2 - q)/2 cancels when one rate dwarfs the other: at
    # theta = 1 it read -2 here (true 0), and the minus branch's G grew
    # until G*G overflowed in a sweep to t = 486
    gamma1, gamma2 = 5.0, 2.9433575681425316e16
    for theta in (1.0, -0.5, 0.0, 0.999):
        gamma_minus = derive_row(gamma1, gamma2, theta)[1]
        with mpmath.workdps(50):
            g1, g2, th = mpmath.mpf(gamma1), mpmath.mpf(gamma2), mpmath.mpf(theta)
            want = (g1 + g2 - mpmath.sqrt((g1 - g2) ** 2 + 4 * g1 * g2 * th**2)) / 2
        # at theta = 1 the true rate is 0, and this asks for exactly 0
        assert gamma_minus == pytest.approx(float(want), rel=1e-15, abs=0.0)


# (gamma1, gamma2, theta) where (gamma1 - gamma2)**2 and gamma1*gamma2*theta**2
# would overflow (above about 1.3e154), and so would gamma1 + gamma2 + q (near 9e307)
HUGE_RATES = [(6.3e169, 0.99999, 0.99999), (1e300, 1e300, 1.0), (1e300, 1e-300, 0.5), (1e-300, 1e300, -0.7),
              (1e308, 1e308, 0.5), (1.7e308, 1.0, 0.0), (1e300, 3e299, 0.0)]


def test_derive_params_huge_rates_match_mpmath():
    rng = np.random.default_rng(59)
    cases = list(HUGE_RATES)
    cases += [(10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300), rng.uniform(-1, 1)) for _ in range(100)]
    cases += [(10.0 ** e, rng.uniform(0.1, 3.0), rng.uniform(-1, 1)) for e in rng.uniform(150, 300, 50)]
    for gamma1, gamma2, theta in cases:
        gamma_plus, gamma_minus, got_a, got_b = derive_row(gamma1, gamma2, theta)
        with mpmath.workdps(50):
            g1, g2, th = mpmath.mpf(gamma1), mpmath.mpf(gamma2), mpmath.mpf(theta)
            q = mpmath.sqrt((g1 - g2) ** 2 + 4 * g1 * g2 * th**2)
            plus = (g1 + g2 + q) / 2
            # the determinant over plus: (g1 + g2 - q)/2 would cancel even at 50 digits
            want = (plus, g1 * g2 * (1 - th**2) / plus)
        got = (gamma_plus, gamma_minus)
        assert got == pytest.approx(tuple(map(float, want)), rel=1e-15, abs=0.0), (gamma1, gamma2, theta)
        a, b = mixing_mpmath(gamma1, gamma2, theta)
        # relative on both, as for ordinary rates: b reaches 1.3e-85 at (6.3e169, 0.99999, 0.99999)
        assert got_a == pytest.approx(a, rel=4e-16, abs=0.0), (gamma1, gamma2, theta)
        assert got_b == pytest.approx(b, rel=4e-16, abs=0.0), (gamma1, gamma2, theta)


def test_derive_params_names_an_unrepresentable_rate():
    bad = ChannelParams(gamma1=1e308, gamma2=1e308, theta=1.0, lam=1.0)
    match = r"gamma_plus .* gamma1=1e\+308, gamma2=1e\+308, theta=1.0$"
    with pytest.raises(ValueError, match=match):
        _derive(bad.row())
    # among valid draws, the one pass over a batch names it too
    for kernel in (dressed_amplitudes, decoherence_factors_ode):
        with pytest.raises(ValueError, match=match):
            kernel(as_fields([SYMMETRIC_NO_SGI, bad, SYMMETRIC_FULL_SGI]), [0.0, 1.0, 2.0])


def test_derive_params_invariants_random():
    rng = np.random.default_rng(53)
    for _ in range(200):
        p = random_params(rng)
        (gamma_plus,), (gamma_minus,), (a,), (b,) = _derive(p.row())
        # the splitting q = gamma_plus - gamma_minus
        assert gamma_plus >= gamma_minus
        assert a**2 + b**2 == pytest.approx(1.0, abs=1e-12)
        assert gamma_plus + gamma_minus == pytest.approx(p.gamma1 + p.gamma2, abs=1e-12)


def mixing_mpmath(gamma1, gamma2, theta):
    """Nonnegative plus-branch eigenvector of the decay matrix at 50 + |log10(gamma1/gamma2)| digits.

    The smaller amplitude can be as small as the ratio of the rates, which
    50 digits alone would round to 0.
    """
    with mpmath.workdps(50 + math.ceil(abs(math.log10(gamma1) - math.log10(gamma2)))):
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
    cases += [(2.0, 1.0, 6e-10), (1.0, 2.0, 6e-10), (2.0, 1.0, 1e-17), (1.0, 2.0, -1e-17)]
    # very unequal rates: the smaller amplitude is about 5e-4
    cases += [(1e6, 1.0, 0.5), (1.0, 1e6, 0.5)]
    cases += [(*rng.uniform(0.1, 3.0, 2), rng.uniform(-1.0, 1.0)) for _ in range(100)]
    for gamma1, gamma2, theta in cases:
        got_a, got_b = derive_row(gamma1, gamma2, theta)[2:]
        a, b = mixing_mpmath(gamma1, gamma2, theta)
        # relative on both: a small amplitude keeps its digits too
        assert got_a == pytest.approx(a, rel=4e-16, abs=0.0), (gamma1, gamma2, theta)
        assert got_b == pytest.approx(b, rel=4e-16, abs=0.0), (gamma1, gamma2, theta)


@settings(max_examples=200, deadline=None)
@given(
    gamma1=st.floats(1e-3, 1e3),
    gamma2=st.floats(1e-3, 1e3),
    theta=st.floats(-1.0, 1.0),
)
def test_mixing_amplitudes_unit_norm(gamma1, gamma2, theta):
    a, b = derive_row(gamma1, gamma2, theta)[2:]
    assert a >= 0 and b >= 0
    assert abs(a * a + b * b - 1.0) <= 1e-15


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
        (dict(gamma1="1", gamma2=1.0, theta=0.0, lam=1.0), "gamma1"),
        (dict(gamma1=1.0, gamma2=None, theta=0.0, lam=1.0), "gamma2"),
        (dict(gamma1=1.0, gamma2=1.0, theta=None, lam=1.0), "theta"),
        (dict(gamma1=1.0, gamma2=1.0, theta=0.0, lam=np.array([1.0, 2.0])), "lam"),
        (dict(gamma1=np.array([0.5]), gamma2=1.0, theta=0.0, lam=1.0), "gamma1"),
        (dict(gamma1=1.0, gamma2=1.0, theta=0.5 + 0j, lam=1.0), "theta"),
        (dict(gamma1=1.0, gamma2=1.0, theta=0.0, lam=np.complex128(1.0)), "lam"),
        # integers beyond the float range, which float() cannot convert
        (dict(gamma1=10**400, gamma2=1, theta=0, lam=1), "gamma1"),
        (dict(gamma1=1, gamma2=1, theta=0, lam=10**400), "lam"),
    ],
)
def test_channel_params_validation(kwargs, field):
    with pytest.raises(ValueError, match=field) as single:
        ChannelParams(**kwargs)
    row = list(kwargs.values())
    if all(type(value) is float for value in row):
        rule = "lie in [-1, 1]" if field == "theta" else "be positive and finite"
        assert str(single.value) == f"{field} must {rule}, got {kwargs[field]}"
        # the same row in a batch: the same message, and the row's index for the suites to name the draw
        rows = np.array([[1.0, 1.0, 0.0, 1.0], row, [1.0, 1.0, 0.0, 1.0]])
        for kernel in (dressed_amplitudes, decoherence_factors_ode):
            with pytest.raises(SampleError) as batch:
                kernel(rows, [0.0, 1.0, 2.0])
            assert str(batch.value) == str(single.value) and batch.value.index == 1


def test_channel_params_accept_numpy_real_scalars():
    p = ChannelParams(gamma1=np.float32(1.5), gamma2=np.int64(1), theta=np.float64(0.5), lam=2)
    assert derived(p) == derived(ChannelParams(gamma1=1.5, gamma2=1.0, theta=0.5, lam=2.0))
    # every field is stored as a Python float
    assert all(type(getattr(p, f.name)) is float for f in dataclasses.fields(p))
    # an integer rate that once reached the derivation as an int and overflowed there
    assert derived(ChannelParams(gamma1=10**300, gamma2=1, theta=0, lam=1)).gamma_plus == 1e300


def test_real_fields_reject_bools_and_long_doubles_beyond_the_float_range():
    # a bool is no rate, as a bool is no count or seed for the check suites
    with pytest.raises(ValueError) as info:
        ChannelParams(gamma1=True, gamma2=1.0, theta=0.0, lam=1.0)
    assert str(info.value) == "gamma1 must be a real number (an int or a float), got True"
    with pytest.raises(ValueError, match=r"^k must be a real number \(an int or a float\), got False$"):
        SweepConfig(ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1.0), k=False, t_max=1.0, steps=2)
    if np.finfo(np.longdouble).maxexp <= np.finfo(float).maxexp:
        pytest.skip("np.longdouble is float64 on this platform")
    # finite inputs that float() would turn into inf or 0
    for value in (np.longdouble("1e4000"), np.longdouble("1e-4000")):
        with pytest.raises(ValueError) as info:
            ChannelParams(gamma1=1.0, gamma2=value, theta=0.0, lam=1.0)
        assert str(info.value) == f"gamma2 must lie in the float range, got {value!r}"
    with pytest.raises(ValueError, match=r"^t_max must lie in the float range, got np\.longdouble\('1e\+4000'\)$"):
        SweepConfig(
            ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1.0), k=0.5, t_max=np.longdouble("1e4000"), steps=2
        )
    # within the float range a long double passes, rounded to a float
    assert ChannelParams(gamma1=np.longdouble("0.1"), gamma2=1.0, theta=0.0, lam=1.0).gamma1 == 0.1


# ---------------------------------------------------------------------------
# decoherence amplitudes
# ---------------------------------------------------------------------------


def test_g_is_one_at_t0():
    rng = np.random.default_rng(59)
    for _ in range(20):
        p = random_params(rng)
        for g in dressed_amplitudes(p, [0.0])[1:]:
            assert g[0] == pytest.approx(1.0, abs=1e-14)


def test_g_decoherence_free_branch():
    # maximal SGI with equal rates leaves the minus branch undamped
    for lam in (0.001, 1.0, 1000.0):
        p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=lam)
        g_minus = dressed_amplitudes(p, [0.0, 0.5, 7.0, 140.0, 600.0])[2]
        assert np.max(np.abs(g_minus - 1.0)) <= 1e-12


def test_g_matches_ode_oracle():
    rng = np.random.default_rng(61)
    for _ in range(25):
        p = random_params(rng)
        t = rng.uniform(0.0, min(20.0, 50.0 / p.lam))
        closed, integrated = dressed_amplitudes(p, [t])[1:], decoherence_factors_ode(p, [t])
        assert np.max(np.abs(np.subtract(closed, integrated))) <= 1e-8


def test_g_ode_initial_condition():
    assert all(g[0] == 1.0 for g in decoherence_factors_ode(SYMMETRIC_NO_SGI, [0.0]))


def test_g_matches_ode_near_first_zero():
    # slow-reservoir amplitude close to its first zero crossing
    closed = dressed_amplitudes(SYMMETRIC_NO_SGI, [70.2])[1:]
    integrated = decoherence_factors_ode(SYMMETRIC_NO_SGI, [70.2])
    assert np.max(np.abs(np.subtract(closed, integrated))) <= 1e-8


def test_g_ode_markovian_envelope():
    # for lam >> rate the amplitude follows exp(-rate*t/2) within 1%
    p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1000.0)
    ts = np.array([1.0, 3.0, 5.0])
    for g in decoherence_factors_ode(p, ts):
        assert np.max(np.abs(g / np.exp(-ts / 2.0) - 1.0)) <= 0.01


def test_g_continuous_across_critical_width():
    # lam = 2*rate is the boundary between monotone and oscillatory decay
    for rate_pair in ((1.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
        g1, g2, theta = rate_pair
        rate = derived(ChannelParams(g1, g2, theta, 1.0)).gamma_plus
        lam_c = 2.0 * rate
        below, above, at = (
            dressed_amplitudes(ChannelParams(g1, g2, theta, lam), [0.5, 2.0, 10.0])[1]
            for lam in (lam_c * (1 - 1e-6), lam_c * (1 + 1e-6), lam_c)
        )
        assert np.max(np.abs(below - above)) <= 1e-5
        assert np.max(np.abs(at - below)) <= 1e-5


def test_g_markovian_monotone_decay():
    p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1000.0)
    for values in dressed_amplitudes(p, np.linspace(0.0, 5.0, 200))[1:]:
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_g_stays_in_unit_interval():
    rng = np.random.default_rng(67)
    params, ts = zip(*[(random_params(rng), rng.uniform(0.0, 100.0)) for _ in range(200)])
    for g in dressed_amplitudes(as_fields(params), ts)[1:]:
        assert np.all(np.abs(g) <= 1.0 + 1e-12)


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
    params = as_fields([ChannelParams(gamma1=r, gamma2=r, theta=0.0, lam=lam) for r, lam in zip(rates, lams)])
    # both branches, each at rate `rate`
    got = np.array(dressed_amplitudes(params, ts)[1:])
    want = np.array([g_mpmath(*point) for point in zip(lams, rates, ts)])
    assert np.max(np.abs(got - want)) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0),
    log_lam=st.floats(-3.0, 3.0),
    t_frac=st.floats(0.0, 1.0),
)
def test_g_properties(gamma1, gamma2, theta, log_lam, t_frac):
    p = ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam)
    t = t_frac * min(20.0, 50.0 / p.lam)
    assert all(g[0] == 1.0 for g in dressed_amplitudes(p, [0.0])[1:])
    g = np.array(dressed_amplitudes(p, [t])[1:])
    # |G| <= 1 up to the last bit of the rounded result
    assert np.all(np.abs(g) <= 1.0 + 2.0**-52)
    assert np.max(np.abs(g - decoherence_factors_ode(p, [t]))) <= 1e-8


def test_g_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        dressed_amplitudes(SYMMETRIC_NO_SGI, [-0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        decoherence_factors_ode(SYMMETRIC_NO_SGI, [-0.1])


# numpy reads each of these as a number unless told not to: a string or a
# bool converts, a complex number loses its imaginary part with only a
# ComplexWarning, and None becomes a NaN
@pytest.mark.parametrize(
    "value", ["0.5", True, 0.5 + 0j, None, fractions.Fraction(1, 2)],
    ids=["str", "bool", "complex", "none", "fraction"],
)
def test_times_and_k_must_be_ints_or_floats(value):
    # alone, in a list, after a float in a list and as an array: the complex
    # array, and the object arrays of None and of a Fraction. numpy reads
    # [0.5, True] and [0.5, np.array(True)] as the floats [0.5, 1.0]
    for ts in ([value], [0.5, value], [0.5, np.array(value)], np.array([value])):
        for factors in (dressed_amplitudes, decoherence_factors_ode):
            with pytest.raises(ValueError, match=r"^ts must be real \(ints or floats\), got dtype "):
                factors(SYMMETRIC_NO_SGI, ts)
    for k in (value, [0.5, value], np.array([value, value])):
        with pytest.raises(ValueError, match=r"^k must be real \(ints or floats\), got dtype "):
            require_mixing(k)


def test_times_and_k_take_python_and_numpy_ints_and_floats():
    ts = np.array([0.0, 0.5, 2.0])
    want = dressed_amplitudes(SYMMETRIC_NO_SGI, ts)[1:]
    got = dressed_amplitudes(SYMMETRIC_NO_SGI, [0, np.float32(0.5), np.int64(2)])[1:]
    assert np.array_equal(np.array(got), np.array(want))
    frame, g_plus, g_minus = dressed_amplitudes(SYMMETRIC_NO_SGI, ts)
    for k, same in ((np.float32(0.5), 0.5), (1, 1.0), (np.int64(0), 0.0)):
        got, want = (np.array(evolved_isotropic_columns(g_plus, g_minus, value, frame, ts)) for value in (k, same))
        assert np.array_equal(got, want)


def test_g_overflow_raises_value_error_naming_inputs():
    # d + lam overflows to inf, so the closed form yields NaN already at t = 0
    p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1e308)
    with pytest.raises(ValueError, match=r"not finite and real.*lam=1e\+308.* at t=0$"):
        dressed_amplitudes(p, [0.0])
    with pytest.raises(ValueError, match=r"t must be finite and nonnegative.* at t=inf$"):
        dressed_amplitudes(SYMMETRIC_NO_SGI, [math.inf])


def test_both_branches_are_checked_at_once_naming_the_first_failing_t():
    # one row per time: fine, then the minus branch alone failing (a subnormal
    # d), then the plus branch alone (lam - 2*rate overflows), then both. The
    # first failing t is named over both branches, the plus branch where both fail
    rows = np.array([[1.0, 1.0, 0.5, 1.0], [1.0, 5e-324, 0.0, 1e-310], [1e308, 1.0, 0.0, 1.0], [1e308, 5e-324, 0.0, 1e-310]])
    ts = np.array([0.0, 1.0, 2.0, 3.0])
    for start, branch in ((1, "lam=1e-310 (branch rate 5e-324) at t=1"), (2, "lam=1.0 (branch rate 1e+308) at t=2"),
                          (3, "lam=1e-310 (branch rate 1e+308) at t=3")):
        with pytest.raises(SampleError) as info:
            dressed_amplitudes(rows[[0, start]], ts[[0, start]])
        assert str(info.value) == f"branch amplitude not finite and real: (nan+nanj) for {branch}"
        assert info.value.index == 1
    with pytest.raises(SampleError, match=r"\(branch rate 5e-324\) at t=1$"):
        dressed_amplitudes(rows, ts)


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
    # rate 0, t = 1e171. The minus branch is checked: equal rates without SGI
    # make both branch rates r, full SGI on equal rates makes the minus
    # branch rate exactly 0.
    points = []
    for lam in (1e-170, 1e-200, 1e-300):
        params = [ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=lam)]
        params += [ChannelParams(gamma1=r, gamma2=r, theta=0.0, lam=lam) for r in (1e-3 * lam, 0.45 * lam)]
        points += [(p, x / lam) for p in params for x in (0.0, 0.5, 3.0, 10.0, 40.0)]
    params, ts = zip(*points)
    got = dressed_amplitudes(as_fields(params), ts)[2]
    rates = [derived(p).gamma_minus for p in params]
    assert rates[0] == 0.0
    want = np.array([g_mpmath_wide(p.lam, rate, t) for p, rate, t in zip(params, rates, ts)])
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.all(got[np.array(rates) == 0.0] == 1.0)


def test_g_huge_width_matches_mpmath():
    # lam*(lam - 2*rate) overflows for every point here, which once bounded
    # the widths near 1e154; d = sqrt(lam)*sqrt(lam - 2*rate) does not, and
    # G tends to the Markov limit exp(-rate*t/2)
    points = [
        (ChannelParams(gamma1=rate, gamma2=rate, theta=0.0, lam=lam), t)
        for lam in (1e154, 1e200, 1e300, 5e307)
        for rate in (0.5, 1.0, 2.0)
        for t in (1e-300, 0.1, 1.0, 10.0)
    ]
    params, ts = zip(*points)
    # both branches, each at rate gamma1
    got = np.array(dressed_amplitudes(as_fields(params), ts)[1:])
    want = np.array([g_mpmath_wide(p.lam, p.gamma1, t) for p, t in zip(params, ts)])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(np.array(dressed_amplitudes(params[-1], [10.0])[1:]) - math.exp(-10.0))) <= 1e-15


def stepped_rk4(lam, rate, t):
    """The oracle as an explicit four-stage RK4 loop, with the oracle's step rule."""
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
    fields, ts = oracle_grid(100)
    assert fields.shape == (100, 4) and ts.shape == (100,)
    assert fields.dtype == ts.dtype == np.float64
    powered = np.array(decoherence_factors_ode(fields, ts))
    params = [ChannelParams(*row) for row in fields.tolist()]
    stepped = [[stepped_rk4(p.lam, rate, t) for rate in derived(p)[:2]] for p, t in zip(params, ts.tolist())]
    assert np.max(np.abs(powered.T - stepped)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0),
    log_lam=st.floats(-3.0, 3.0),
    t_frac=st.floats(0.0, 1.0),
)
# t = 1e-322, where t/1000 underflows to 0 in the step rule
@example(gamma1=1.0, gamma2=1.0, theta=0.0, log_lam=0.0, t_frac=5e-324)
def test_rk4_propagator_matches_stepped_loop(gamma1, gamma2, theta, log_lam, t_frac):
    p = ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam)
    t = t_frac * min(20.0, 50.0 / p.lam)
    for g, rate in zip(decoherence_factors_ode(p, [t]), derived(p)[:2]):
        assert abs(g[0] - stepped_rk4(p.lam, rate, t)) <= 1e-12


def test_g_ode_rejects_unbounded_step_counts():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        decoherence_factors_ode(SYMMETRIC_NO_SGI, [math.inf])
    with pytest.raises(ValueError, match=r"RK4 oracle needs 1\.000e\+302 steps.* at t=1$"):
        decoherence_factors_ode(ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1e300), [1.0])


@pytest.mark.parametrize("factors", [decoherence_factors_ode, dressed_amplitudes])
def test_g_rejects_mismatched_lengths(factors):
    three_times = np.array([1.0, 2.0, 3.0])
    for n in (0, 1, 2, 4):
        with pytest.raises(ValueError, match=f"got {n} params for 3 times"):
            factors(as_fields([SYMMETRIC_NO_SGI] * n), three_times)
    # a batch is one real (T, 4) array: not a list of ChannelParams, nor (T, 3), nor complex
    rows = as_fields([SYMMETRIC_NO_SGI] * 3)
    for bad in ([SYMMETRIC_NO_SGI] * 3, rows[:, :3], rows + 0j):
        with pytest.raises(ValueError, match=r"^params must be one ChannelParams or a real \(T, 4\) array of rows"):
            factors(bad, three_times)
    # one bad row is named by its field, and carries its index
    rows[1, 2] = 1.5
    with pytest.raises(SampleError, match=r"^theta must lie in \[-1, 1\], got 1.5$") as info:
        factors(rows, three_times)
    assert info.value.index == 1
    # the first bad row fails first, by its first bad field, whatever the fields of later rows
    rows = as_fields([SYMMETRIC_NO_SGI] * 200)
    rows[5, 3], rows[5, 1], rows[130, 0] = -1.0, 0.0, 0.0
    with pytest.raises(SampleError, match=r"^gamma2 must be positive and finite, got 0.0$") as info:
        factors(rows, np.ones(200))
    assert info.value.index == 5
    # a time axis is one-dimensional, for one ChannelParams and for an array of rows
    for ts in (-1.0, 1.0, np.array([[1.0]])):
        for p in (SYMMETRIC_NO_SGI, as_fields([SYMMETRIC_NO_SGI])):
            with pytest.raises(ValueError, match=rf"one-dimensional.*got shape {re.escape(str(np.shape(ts)))}$"):
                factors(p, ts)
    # one ChannelParams covers any time axis
    assert len(factors(SYMMETRIC_NO_SGI, three_times)[-1]) == 3


# ---------------------------------------------------------------------------
# the channel map
# ---------------------------------------------------------------------------
# dressed_channel applies the map to states in the dressed frame (plus
# branch, minus branch, ground); the tests hold it to the Kraus sum of the
# dense reference's triple. The ground level is index 2 in the dressed
# frame as in computational indices.


def kraus_sum(ops, rho):
    """sum_i K_i rho K_i^dagger over a (3, 3, 3) triple, one term at a time."""
    return sum(k @ rho @ k.conj().T for k in ops)


def in_frame(frame, rho, g_plus, g_minus):
    """The channel on a stack of states in computational indices: O Phi(O^T rho O) O^T."""
    return frame @ dressed_channel(frame.swapaxes(-1, -2) @ rho @ frame, g_plus, g_minus) @ frame.swapaxes(-1, -2)


def random_draws(seed, n, t_max):
    """The generator, then n random times in [0, t_max) with the frames and amplitudes of n random ChannelParams."""
    rng = np.random.default_rng(seed)
    params, ts = zip(*[(random_params(rng), rng.uniform(0.0, t_max)) for _ in range(n)])
    return rng, ts, *dressed_amplitudes(as_fields(params), ts)


def test_kraus_identity_at_t0():
    _, g_plus, g_minus = dressed_amplitudes(SYMMETRIC_FULL_SGI, [0.0])
    assert g_plus[0] == g_minus[0] == 1.0
    rho = random_density_matrix(np.random.default_rng(67), 3)[None]
    assert np.array_equal(dressed_channel(rho, g_plus, g_minus), rho)


def test_kraus_symmetric_no_sgi_is_diagonal():
    # equal rates without SGI: both branches decay alike, so K_1 = diag(g, g, 1)
    # scales the excited block by g^2 in every frame of the excited levels
    _, g_plus, g_minus = dressed_amplitudes(SYMMETRIC_NO_SGI, [35.0])
    g = g_plus[0]
    assert g_minus[0] == g
    rho = random_density_matrix(np.random.default_rng(61), 3)[None]
    out = dressed_channel(rho, g_plus, g_minus)
    assert np.array_equal(out[:, :2, :2], g * rho[:, :2, :2] * g)
    assert np.array_equal(out[:, :2, 2], g * rho[:, :2, 2])


def test_kraus_completeness_random():
    # sum K^dag K = I holds when tr Phi(|i><j|) = delta_ij for every matrix unit
    _, ts, frames, g_plus, g_minus = random_draws(71, 100, 20.0)
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    for i in range(len(ts)):
        g = np.full(9, g_plus[i]), np.full(9, g_minus[i])
        # in the dressed frame, and in computational indices through O
        for image in (dressed_channel(units, *g), in_frame(frames[i], units, *g)):
            traces = np.trace(image, axis1=-2, axis2=-1).reshape(3, 3)
            assert_allclose(traces, np.eye(3), atol=1e-10)


def test_dressed_amplitudes_per_draw_params_match_single_calls():
    rng = np.random.default_rng(103)
    params = [random_params(rng) for _ in range(40)]
    # include exact degeneracy (q = 0) and exact critical damping (d = 0)
    params += [SYMMETRIC_NO_SGI, ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=2.0)]
    # the mpmath-checked huge rates; above about 4.5e307 a rate overflows lam - 2*rate in G
    fits = [max(g1, g2) <= 1e300 for g1, g2, _ in HUGE_RATES]
    params += [ChannelParams(g1, g2, theta, 1.0) for (g1, g2, theta), ok in zip(HUGE_RATES, fits) if ok]
    ts = rng.uniform(0.0, 50.0, len(params))
    frames, g_plus, g_minus = dressed_amplitudes(as_fields(params), ts)
    for i, (p, t) in enumerate(zip(params, ts)):
        frame, gp, gm = dressed_amplitudes(p, ts[i:i + 1])
        assert np.max(np.abs(frames[i] - frame)) <= 1e-15
        assert abs(g_plus[i] - gp[0]) <= 1e-15 and abs(g_minus[i] - gm[0]) <= 1e-15
    # there both paths fail naming the same derived rate
    for g1, g2, theta in (case for case, ok in zip(HUGE_RATES, fits) if not ok):
        p = ChannelParams(g1, g2, theta, 1.0)
        with pytest.raises(ValueError, match="branch rate") as single:
            dressed_amplitudes(p, ts[:1])
        with pytest.raises(ValueError) as batch:
            dressed_amplitudes(as_fields([*params, p]), np.append(ts, ts[0]))
        assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("basis", BASIS_CONVENTIONS)
def test_dressed_channel_rotates_into_the_computational_triple(basis):
    rng = np.random.default_rng(109)
    params = [random_params(rng) for _ in range(30)] + [SYMMETRIC_NO_SGI, SYMMETRIC_FULL_SGI]
    ts = rng.uniform(0.0, 50.0, len(params))
    frame, g_plus, g_minus = dressed_amplitudes(as_fields(params), ts)
    assert frame.dtype == g_plus.dtype == g_minus.dtype == np.float64
    require_completeness(g_plus, g_minus, ts)
    assert np.max(np.abs(frame @ frame.swapaxes(1, 2) - np.eye(3))) <= 1e-15
    a, b = np.array([derived(p)[2:] for p in params]).T
    triples = computational_kraus(a, b, g_plus, g_minus, REFERENCE_LEVELS[basis])
    # the basis as the sweep applies it, a row order of the kraus-order frame
    frame = frame[:, BASIS_ROWS[basis]]
    rho = np.array([random_density_matrix(rng, 3) for _ in params])
    want = np.array([kraus_sum(ops, r) for ops, r in zip(triples, rho)])
    assert np.max(np.abs(in_frame(frame, rho, g_plus, g_minus) - want)) <= 1e-15


def test_degenerate_mixing_choice_does_not_change_channel():
    # at q = 0 both branch amplitudes coincide, so any orthonormal (a, b)
    # pair yields the same map; compare the canonical choice, the map seen
    # through its frame, with (1, 0), the dressed map itself
    (frame,), g_plus, g_minus = dressed_amplitudes(SYMMETRIC_NO_SGI, [50.0])
    (gamma_plus,), (gamma_minus,), _, _ = _derive(SYMMETRIC_NO_SGI.row())
    assert gamma_plus == gamma_minus
    rng = np.random.default_rng(73)
    for _ in range(5):
        rho = random_density_matrix(rng, 3)[None]
        assert_allclose(in_frame(frame, rho, g_plus, g_minus), dressed_channel(rho, g_plus, g_minus), atol=1e-12)


@pytest.mark.parametrize("seed", [20240811, 1, 2, 3])
def test_dressed_channel_is_the_kraus_sum_of_the_dressed_triple(seed):
    # on the CPTP suite's draws, bit for bit: the einsum of the reference triple
    # at a = 1, b = 0 (K_1 = diag(G+, G-, 1), K_2 = W+|g><+|, K_3 = W-|g><-|)
    fields, ts, factors = _cptp_draws(seed, 1000)
    frames, g_plus, g_minus = dressed_amplitudes(fields, ts)
    rho = factors @ factors.conj().swapaxes(-1, -2)
    rho = frames.swapaxes(1, 2) @ (rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]) @ frames
    triples = computational_kraus(1.0, 0.0, g_plus, g_minus)
    want = np.einsum("...iab,...bc,...idc->...ad", triples, rho, triples.conj())
    assert np.array_equal(dressed_channel(rho, g_plus, g_minus), want)
    # and the completeness rule is that triple's max|sum K^dag K - I|
    acc = (triples.conj().swapaxes(-1, -2) @ triples).sum(axis=1)
    assert np.array_equal(require_completeness(g_plus, g_minus, ts), np.abs(acc - np.eye(3)).max(axis=(-2, -1)))


def test_apply_channel_identity_at_t0():
    rng = np.random.default_rng(79)
    rho = random_density_matrix(rng, 3)[None]
    _, g_plus, g_minus = dressed_amplitudes(SYMMETRIC_FULL_SGI, [0.0])
    assert_allclose(dressed_channel(rho, g_plus, g_minus), rho, atol=1e-12)


def test_apply_channel_ground_state_fixed_point():
    _, ts, _, g_plus, g_minus = random_draws(83, 10, 50.0)
    ground = np.broadcast_to(GROUND, (len(ts), 3, 3))
    assert_allclose(dressed_channel(ground, g_plus, g_minus), ground, atol=1e-12)


def test_apply_channel_population_transfer_matches_oracle():
    # the plus branch of the dressed frame decays to the ground level as G(t)^2
    p = SYMMETRIC_NO_SGI
    t = 140.0
    g = decoherence_factors_ode(p, [t])[0][0]
    out = dressed_channel(EXCITED_1[None], *dressed_amplitudes(p, [t])[1:])
    expected = g * g * EXCITED_1 + (1.0 - g * g) * GROUND
    assert_allclose(out[0], expected, atol=1e-8)


def test_apply_channel_rejects_invalid_state():
    # the check the CPTP suite runs on its inputs
    with pytest.raises(ValueError, match="trace"):
        require_density_stack(np.eye(3, dtype=complex)[None])
    with pytest.raises(ValueError, match="eigenvalue"):
        require_density_stack(np.diag([1.5, -0.5, 0.0]).astype(complex)[None])


def test_apply_channel_preserves_state_validity():
    rng, ts, _, g_plus, g_minus = random_draws(89, 50, 20.0)
    out = dressed_channel(np.array([random_density_matrix(rng, 3) for _ in ts]), g_plus, g_minus)
    for state in out:
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh((state + state.conj().T) / 2)[0] >= -1e-10


def test_apply_product_channel_identity_at_t0():
    # the dense reference's product channel, with the amplitudes and mixing of the package
    d = derived(SYMMETRIC_FULL_SGI)
    _, (g_plus,), (g_minus,) = dressed_amplitudes(SYMMETRIC_FULL_SGI, [0.0])
    out = reference_evolved(0.7, d.a, d.b, g_plus, g_minus)
    assert_allclose(out, reference_isotropic(0.7), atol=1e-12)


def product_channel(rho, g_plus, g_minus):
    """The product map on a 9x9 state in the dressed frames: dressed_channel on qutrit A, then on qutrit B."""
    g = np.full(9, g_plus), np.full(9, g_minus)
    # rho[a, b, a', b']: a (3, 3) block over (a, a') for each (b, b'), then over (b, b') for each (a, a')
    blocks = dressed_channel(rho.reshape(3, 3, 3, 3).transpose(1, 3, 0, 2).reshape(9, 3, 3), *g)
    blocks = dressed_channel(blocks.reshape(3, 3, 3, 3).transpose(2, 3, 0, 1).reshape(9, 3, 3), *g)
    return blocks.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)


def test_apply_product_channel_trace_and_hermiticity():
    rng, _, _, g_plus, g_minus = random_draws(101, 20, 20.0)
    for gp, gm in zip(g_plus, g_minus):
        out = product_channel(random_density_matrix(rng, 9), gp, gm)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def test_entanglement_death_at_amplitude_zero_and_revival():
    # entanglement of the maximally entangled state vanishes where the
    # branch amplitude crosses zero (everything sits in the ground state)
    # and partially recovers afterwards
    p = SYMMETRIC_NO_SGI

    def neg_at(t):
        frame, g_plus, g_minus = dressed_amplitudes(p, [t])
        return evolved_isotropic_columns(g_plus, g_minus, 1.0, frame, np.array([t])).negativity[0]

    def g_at(t):
        return dressed_amplitudes(p, [t])[1][0]

    lo, hi = 65.0, 80.0
    assert g_at(lo) > 0 > g_at(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if g_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    t_zero = (lo + hi) / 2
    assert neg_at(t_zero) <= 1e-9
    assert neg_at(t_zero - 40.0) > 0.1
    assert neg_at(t_zero + 50.0) > 0.1
