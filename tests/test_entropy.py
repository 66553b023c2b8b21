"""Tests for entropies, the uncertainty relation, and negativity.

eur_sample is the single-state evaluation: the conditional entropy
S(A|B) is read as u_b - BOUND_OFFSET, and a dense reference written
with full spectra and kron projectors (conftest.reference_eur) checks all
five fields.
"""

import re

import numpy as np
import pytest

from qutrit_eur.channel import ChannelParams, apply_product_channel, kraus_set
from qutrit_eur.entropy import BOUND_OFFSET, eur_columns, eur_sample
from qutrit_eur.states_obs import conditional_blocks, isotropic_state, spin1_observable

from conftest import random_density_matrix, random_unitary, reference_entropy, reference_eur

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


def conditional(rho):
    """S(A|B) = S(rho_AB) - S(rho_B), read off the bound of eur_sample."""
    return eur_sample(rho).u_b - BOUND_OFFSET


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# entropies of the state and its marginal
# ---------------------------------------------------------------------------


def test_vn_pure_state_is_zero():
    # S(rho_AB) = 0, so S(A|B) = -S(rho_B)
    rho = random_pure_state(np.random.default_rng(113), 9)
    rho_b = rho.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2)
    assert conditional(rho) == pytest.approx(-reference_entropy(rho_b), abs=1e-12)


def test_vn_maximally_mixed():
    assert conditional(I9 / 9) + LOG2_3 == pytest.approx(np.log2(9.0), abs=1e-12)


def test_vn_isotropic_from_spectrum():
    # the marginal of an isotropic state is maximally mixed, S(rho_B) = log2(3)
    k = 0.4
    a, b = (1 - k) / 9, (1 - k) / 9 + k
    expected = -(8 * a * np.log2(a) + b * np.log2(b))
    assert conditional(isotropic_state(k)) + LOG2_3 == pytest.approx(expected, abs=1e-12)


def test_vn_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        eur_sample(np.diag([1.2, -0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex))


def test_vn_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        eur_sample(np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex))


def test_vn_unitarily_invariant():
    # local unitaries keep S(rho_AB) and S(rho_B); one on B alone keeps the measured entropies too
    rng = np.random.default_rng(127)
    for _ in range(10):
        rho = random_density_matrix(rng, 9)
        v = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
        assert conditional(v @ rho @ v.conj().T) == pytest.approx(conditional(rho), abs=1e-10)
        w = np.kron(np.eye(3), random_unitary(rng, 3))
        moved, s = eur_sample(w @ rho @ w.conj().T), eur_sample(rho)
        assert (moved.u_l, moved.s_xb, moved.s_zb) == pytest.approx((s.u_l, s.s_xb, s.s_zb), abs=1e-10)


def test_measurement_never_decreases_entropy():
    # the measured state is block diagonal in the measurement basis, so its
    # spectrum is the union of the conditional-block spectra
    rng = np.random.default_rng(131)
    for basis in (spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis, random_unitary(rng, 3)):
        for _ in range(10):
            rho = random_density_matrix(rng, 9)
            w = np.linalg.eigvalsh(conditional_blocks(rho, basis)).ravel()
            assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
            w = w[w > 0.0]
            assert -np.sum(w * np.log2(w)) >= reference_entropy(rho) - 1e-10


# ---------------------------------------------------------------------------
# conditional entropy
# ---------------------------------------------------------------------------


def test_conditional_max_entangled():
    assert conditional(isotropic_state(1.0)) == pytest.approx(-LOG2_3, abs=1e-10)


def test_conditional_maximally_mixed():
    assert conditional(I9 / 9) == pytest.approx(LOG2_3, abs=1e-12)


def test_conditional_product_additivity():
    rng = np.random.default_rng(137)
    rho = random_density_matrix(rng, 3)
    sigma = random_density_matrix(rng, 3)
    got = conditional(np.kron(rho, sigma))
    assert got == pytest.approx(reference_entropy(rho), abs=1e-10)


# ---------------------------------------------------------------------------
# uncertainty relation
# ---------------------------------------------------------------------------


def test_eur_left_max_entangled_is_zero():
    parts = eur_sample(isotropic_state(1.0))
    assert parts.u_l == pytest.approx(0.0, abs=1e-9)


def test_eur_left_maximally_mixed():
    parts = eur_sample(isotropic_state(0.0))
    assert parts.u_l == pytest.approx(2 * LOG2_3, abs=1e-10)
    assert parts.s_xb == pytest.approx(LOG2_3, abs=1e-10)
    assert parts.s_zb == pytest.approx(LOG2_3, abs=1e-10)


def test_eur_left_isotropic_regression_anchor():
    parts = eur_sample(isotropic_state(0.6))
    assert parts.u_l == pytest.approx(U_L_ISOTROPIC_06, abs=1e-9)
    assert parts.u_l == pytest.approx(isotropic_u_l_analytic(0.6), abs=1e-9)
    assert parts.u_l >= parts.u_b - 1e-9


def test_eur_left_matches_analytic_on_k_grid():
    for k in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts = eur_sample(isotropic_state(k))
        assert parts.u_l == pytest.approx(isotropic_u_l_analytic(k), abs=1e-9)


def test_eur_right_values():
    assert eur_sample(isotropic_state(1.0)).u_b == pytest.approx(1.0 - LOG2_3, abs=1e-10)
    assert eur_sample(isotropic_state(0.0)).u_b == pytest.approx(1.0 + LOG2_3, abs=1e-12)


def test_eur_right_pure_product():
    rng = np.random.default_rng(139)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    rho = np.kron(np.outer(v, v.conj()), random_density_matrix(rng, 3))
    assert eur_sample(rho).u_b == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------


def test_negativity_isotropic_formula():
    for k in np.linspace(0.0, 1.0, 11):
        expected = max(0.0, (4 * k - 1) / 3)
        assert eur_sample(isotropic_state(k)).negativity == pytest.approx(expected, abs=1e-10)


def test_negativity_selected_anchors():
    assert eur_sample(isotropic_state(1.0)).negativity == pytest.approx(1.0, abs=1e-10)
    assert eur_sample(isotropic_state(0.4)).negativity == pytest.approx(0.2, abs=1e-10)
    assert eur_sample(isotropic_state(0.25)).negativity == pytest.approx(0.0, abs=1e-10)


def test_negativity_product_states_vanish():
    rng = np.random.default_rng(149)
    for _ in range(5):
        rho = np.kron(random_density_matrix(rng, 3), random_density_matrix(rng, 3))
        assert eur_sample(rho).negativity == pytest.approx(0.0, abs=1e-12)


def max_entangled_overshoot(eps):
    """(1+eps)|psi+><psi+| - eps/8 (I - |psi+><psi+|): unit trace, eigenvalue -eps/8, negativity 1 + 1.5*eps."""
    pure = isotropic_state(1.0)
    return (1.0 + eps) * pure - eps / 8.0 * (np.eye(9) - pure)


def test_negativity_clamped_to_one():
    # the k = 1 isotropic state reads 1 + O(1e-15) before the clamp
    assert eur_sample(isotropic_state(1.0)).negativity <= 1.0
    ts = np.array([0.0, 1.0])
    cols = eur_columns(np.array([isotropic_state(1.0), max_entangled_overshoot(2e-13)]), ts)
    assert np.array_equal(cols.negativity, [1.0, 1.0])


def test_negativity_above_one_names_the_sample():
    ts = np.array([0.0, 2.5, 5.0])
    stack = np.array([isotropic_state(1.0), isotropic_state(1.0), max_entangled_overshoot(4e-10)])
    with pytest.raises(ValueError, match=r"above the two-qutrit maximum 1.* at t=5$"):
        eur_columns(stack, ts)
    with pytest.raises(ValueError, match="above the two-qutrit maximum"):
        eur_sample(max_entangled_overshoot(4e-10))


@pytest.mark.parametrize(
    "rho_ab, ts, message",
    [
        # the second state fails its spectrum check, whose time the short ts lacks
        (np.stack([I9 / 9, np.diag([1.5] + [-0.5 / 8] * 8)]), [0.0], r"one per state: got shape \(1,\) for \(2, 9, 9\)$"),
        (I9[None] / 9, [[0.0]], r"ts must be a one-dimensional array of times, .*got shape \(1, 1\) for \(1, 9, 9\)$"),
        (np.stack([np.eye(4) / 4] * 2), [0.0, 1.0], r"rho_ab must be a \(T, 9, 9\) stack .*, got shape \(2, 4, 4\)$"),
    ],
    ids=["short-ts", "2d-ts", "4x4-stack"],
)
def test_eur_columns_checks_its_inputs(rho_ab, ts, message):
    with pytest.raises(ValueError, match=message):
        eur_columns(rho_ab, ts)


# ---------------------------------------------------------------------------
# combined samples
# ---------------------------------------------------------------------------


def test_eur_sample_is_the_record_of_eur_columns_in_floats():
    rho = isotropic_state(0.3)
    s, cols = eur_sample(rho), eur_columns(rho[None])
    assert type(s) is type(cols)
    assert all(type(value) is float for value in s)
    assert s == tuple(float(col[0]) for col in cols)


@pytest.mark.parametrize("shape", [(3, 3), (1, 9, 9), (9,)])
def test_eur_sample_rejects_a_non_9x9_state(shape):
    with pytest.raises(ValueError, match=rf"^expected a 9x9 two-qutrit state, got shape {re.escape(str(shape))}$"):
        eur_sample(np.zeros(shape))


def test_eur_sample_terms_sum_exactly():
    s = eur_sample(isotropic_state(0.3))
    assert s.u_l == s.s_xb + s.s_zb


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
        s = eur_sample(rho)
        assert s.u_l >= s.u_b - 1e-9
        assert s.u_l == s.s_xb + s.s_zb


def test_u_l_of_maximally_mixed_is_channel_independent_at_t0():
    for theta in (0.0, 0.5, 1.0):
        for lam in (0.001, 1.0, 1000.0):
            params = ChannelParams(gamma1=1.0, gamma2=1.0, theta=theta, lam=lam)
            rho = apply_product_channel(isotropic_state(0.0), kraus_set(params, 0.0))
            assert eur_sample(rho).u_l == pytest.approx(2 * LOG2_3, abs=1e-10)


@pytest.mark.parametrize("kind", ["full-rank", "pure", "product"])
def test_eur_sample_matches_dense_reference(kind):
    rng = np.random.default_rng({"full-rank": 157, "pure": 163, "product": 167}[kind])
    for _ in range(20):
        if kind == "full-rank":
            rho = random_density_matrix(rng, 9)
        elif kind == "pure":
            rho = random_pure_state(rng, 9)
        else:
            rho = np.kron(random_density_matrix(rng, 3), random_density_matrix(rng, 3))
        s = eur_sample(rho)
        got = (s.u_l, s.u_b, s.s_xb, s.s_zb, s.negativity)
        assert got == pytest.approx(reference_eur(rho), abs=1e-12, rel=0.0)
