"""Tests for entropies, the uncertainty relation, and negativity."""

import numpy as np
import pytest

from qutrit_eur.channel import ChannelParams, apply_product_channel, kraus_set
from qutrit_eur.entropy import (
    EurSample,
    conditional_entropy,
    eur_columns,
    eur_left,
    eur_right,
    eur_sample,
    negativity,
    vn_entropy,
)
from qutrit_eur.states_obs import isotropic_state, measure_post_state, spin1_observable

from conftest import random_density_matrix, random_unitary

I9 = np.eye(9, dtype=complex)
LOG2_3 = np.log2(3.0)

# measured uncertainty of the k = 0.6 isotropic state at t = 0, frozen from
# the analytic post-measurement spectrum {(1-k)/9 x6, (1-k)/9 + k/3 x3}
U_L_ISOTROPIC_06 = 2.2066148172156677


def isotropic_u_l_analytic(k):
    a = (1.0 - k) / 9.0
    b = (1.0 - k) / 9.0 + k / 3.0
    s_measured = 0.0
    for w, mult in ((a, 6), (b, 3)):
        if w > 0:
            s_measured -= mult * w * np.log2(w)
    return 2.0 * (s_measured - LOG2_3)


# ---------------------------------------------------------------------------
# von Neumann entropy
# ---------------------------------------------------------------------------


def test_vn_pure_state_is_zero():
    rng = np.random.default_rng(113)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    v /= np.linalg.norm(v)
    assert vn_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)


def test_vn_maximally_mixed():
    assert vn_entropy(I9 / 9) == pytest.approx(np.log2(9.0), abs=1e-12)


def test_vn_isotropic_from_spectrum():
    k = 0.4
    a, b = (1 - k) / 9, (1 - k) / 9 + k
    expected = -(8 * a * np.log2(a) + b * np.log2(b))
    assert vn_entropy(isotropic_state(k)) == pytest.approx(expected, abs=1e-12)


def test_vn_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        vn_entropy(np.diag([1.2, -0.2, 0.0]).astype(complex))


def test_vn_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        vn_entropy(np.diag([1.0, 1.0, 0.0]).astype(complex))


def test_vn_unitarily_invariant():
    rng = np.random.default_rng(127)
    for _ in range(10):
        rho = random_density_matrix(rng, 9)
        v = random_unitary(rng, 9)
        assert vn_entropy(v @ rho @ v.conj().T) == pytest.approx(vn_entropy(rho), abs=1e-10)


def test_measurement_never_decreases_entropy():
    rng = np.random.default_rng(131)
    for axis in ("x", "z"):
        for _ in range(10):
            rho = random_density_matrix(rng, 9)
            measured = measure_post_state(rho, spin1_observable(axis))
            assert vn_entropy(measured) >= vn_entropy(rho) - 1e-10


# ---------------------------------------------------------------------------
# conditional entropy
# ---------------------------------------------------------------------------


def test_conditional_max_entangled():
    assert conditional_entropy(isotropic_state(1.0)) == pytest.approx(-LOG2_3, abs=1e-10)


def test_conditional_maximally_mixed():
    assert conditional_entropy(I9 / 9) == pytest.approx(LOG2_3, abs=1e-12)


def test_conditional_product_additivity():
    rng = np.random.default_rng(137)
    rho = random_density_matrix(rng, 3)
    sigma = random_density_matrix(rng, 3)
    got = conditional_entropy(np.kron(rho, sigma))
    assert got == pytest.approx(vn_entropy(rho), abs=1e-10)


# ---------------------------------------------------------------------------
# uncertainty relation
# ---------------------------------------------------------------------------


def test_eur_left_max_entangled_is_zero():
    parts = eur_left(isotropic_state(1.0))
    assert parts.u_l == pytest.approx(0.0, abs=1e-9)


def test_eur_left_maximally_mixed():
    parts = eur_left(isotropic_state(0.0))
    assert parts.u_l == pytest.approx(2 * LOG2_3, abs=1e-10)
    assert parts.s_xb == pytest.approx(LOG2_3, abs=1e-10)
    assert parts.s_zb == pytest.approx(LOG2_3, abs=1e-10)


def test_eur_left_isotropic_regression_anchor():
    parts = eur_left(isotropic_state(0.6))
    assert parts.u_l == pytest.approx(U_L_ISOTROPIC_06, abs=1e-9)
    assert parts.u_l == pytest.approx(isotropic_u_l_analytic(0.6), abs=1e-9)
    assert parts.u_l >= eur_right(isotropic_state(0.6), 0.5) - 1e-9


def test_eur_left_matches_analytic_on_k_grid():
    for k in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts = eur_left(isotropic_state(k))
        assert parts.u_l == pytest.approx(isotropic_u_l_analytic(k), abs=1e-9)


def test_eur_right_values():
    assert eur_right(isotropic_state(1.0), 0.5) == pytest.approx(1.0 - LOG2_3, abs=1e-10)
    assert eur_right(isotropic_state(0.0), 0.5) == pytest.approx(1.0 + LOG2_3, abs=1e-12)


def test_eur_right_pure_product():
    rng = np.random.default_rng(139)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    rho = np.kron(np.outer(v, v.conj()), random_density_matrix(rng, 3))
    assert eur_right(rho, 0.5) == pytest.approx(1.0, abs=1e-10)


def test_eur_right_rejects_bad_overlap():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="c must"):
            eur_right(I9 / 9, bad)


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------


def test_negativity_isotropic_formula():
    for k in np.linspace(0.0, 1.0, 11):
        expected = max(0.0, (4 * k - 1) / 3)
        assert negativity(isotropic_state(k)) == pytest.approx(expected, abs=1e-10)


def test_negativity_selected_anchors():
    assert negativity(isotropic_state(1.0)) == pytest.approx(1.0, abs=1e-10)
    assert negativity(isotropic_state(0.4)) == pytest.approx(0.2, abs=1e-10)
    assert negativity(isotropic_state(0.25)) == pytest.approx(0.0, abs=1e-10)


def test_negativity_product_states_vanish():
    rng = np.random.default_rng(149)
    for _ in range(5):
        rho = np.kron(random_density_matrix(rng, 3), random_density_matrix(rng, 3))
        assert negativity(rho) == pytest.approx(0.0, abs=1e-12)


def max_entangled_overshoot(eps):
    """(1+eps)|psi+><psi+| - eps/8 (I - |psi+><psi+|): unit trace, eigenvalue -eps/8, negativity 1 + 1.5*eps."""
    pure = isotropic_state(1.0)
    return (1.0 + eps) * pure - eps / 8.0 * (np.eye(9) - pure)


def test_negativity_clamped_to_one():
    # the k = 1 isotropic state reads 1 + O(1e-15) before the clamp
    assert negativity(isotropic_state(1.0)) <= 1.0
    ts = np.array([0.0, 1.0])
    cols = eur_columns(np.array([isotropic_state(1.0), max_entangled_overshoot(2e-13)]), 0.5, ts)
    assert np.array_equal(cols.negativity, [1.0, 1.0])


def test_negativity_above_one_names_the_sample():
    ts = np.array([0.0, 2.5, 5.0])
    stack = np.array([isotropic_state(1.0), isotropic_state(1.0), max_entangled_overshoot(4e-10)])
    with pytest.raises(ValueError, match=r"above the two-qutrit maximum 1.* at t=5$"):
        eur_columns(stack, 0.5, ts)
    with pytest.raises(ValueError, match="above the two-qutrit maximum"):
        negativity(max_entangled_overshoot(4e-10))


# ---------------------------------------------------------------------------
# combined samples
# ---------------------------------------------------------------------------


def test_eur_sample_terms_sum_exactly():
    s = eur_sample(isotropic_state(0.3), 0.5)
    assert s.u_l == s.s_xb + s.s_zb


def test_eur_sample_rejects_bound_violation():
    with pytest.raises(ValueError, match="lower bound"):
        EurSample(u_l=0.0, u_b=1.0, s_xb=0.0, s_zb=0.0, negativity=0.0)


def test_bound_holds_on_random_evolved_states():
    rng = np.random.default_rng(151)
    for _ in range(100):
        params = ChannelParams(
            gamma1=rng.uniform(0.1, 3.0),
            gamma2=rng.uniform(0.1, 3.0),
            theta=rng.uniform(-1.0, 1.0),
            lam=10.0 ** rng.uniform(-3.0, 3.0),
        )
        rho = apply_product_channel(
            isotropic_state(rng.uniform(0.0, 1.0)),
            kraus_set(params, rng.uniform(0.0, 300.0)),
        )
        s = eur_sample(rho, 0.5)
        assert s.u_l >= s.u_b - 1e-9
        assert s.u_l == s.s_xb + s.s_zb


def test_u_l_of_maximally_mixed_is_channel_independent_at_t0():
    for theta in (0.0, 0.5, 1.0):
        for lam in (0.001, 1.0, 1000.0):
            params = ChannelParams(gamma1=1.0, gamma2=1.0, theta=theta, lam=lam)
            rho = apply_product_channel(isotropic_state(0.0), kraus_set(params, 0.0))
            assert eur_left(rho).u_l == pytest.approx(2 * LOG2_3, abs=1e-10)
