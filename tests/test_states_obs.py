"""Tests for initial states, spin-1 observables, and projective measurement."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qutrit_eur.linalg import partial_trace_a
from qutrit_eur.states_obs import (
    isotropic_spectrum,
    isotropic_state,
    max_overlap_c,
    measure_post_state,
    observable_from_matrix,
    spin1_observable,
)

from conftest import random_density_matrix, random_hermitian

I9 = np.eye(9, dtype=complex)


# ---------------------------------------------------------------------------
# isotropic states
# ---------------------------------------------------------------------------


def test_isotropic_fully_mixed():
    assert_allclose(isotropic_state(0.0), I9 / 9, atol=0)


def test_isotropic_maximally_entangled_is_pure():
    rho = isotropic_state(1.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_isotropic_spectrum():
    # one eigenvalue (1-k)/9 + k along the entangled direction, (1-k)/9
    # on the eight orthogonal ones
    k = 0.4
    w = np.sort(np.linalg.eigvalsh(isotropic_state(k)))
    assert_allclose(w[:8], np.full(8, (1 - k) / 9), atol=1e-12)
    assert w[8] == pytest.approx((1 - k) / 9 + k, abs=1e-12)


def test_isotropic_closed_form_spectrum_matches_eigvalsh():
    ks = np.linspace(0.0, 1.0, 101)
    want = np.linalg.eigvalsh(isotropic_state(ks))
    got = np.sort(isotropic_spectrum(ks), axis=-1)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(isotropic_spectrum(0.4), isotropic_spectrum(np.array([0.4]))[0])
    with pytest.raises(ValueError, match="k must"):
        isotropic_spectrum(1.5)


def test_isotropic_state_is_real():
    assert isotropic_state(0.4).dtype == np.float64
    assert isotropic_state(np.array([0.0, 1.0])).dtype == np.float64


def test_isotropic_rejects_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match="k must"):
            isotropic_state(bad)


def test_isotropic_stack_matches_single_states():
    ks = np.array([0.0, 0.25, 0.6, 1.0])
    stack = isotropic_state(ks)
    assert stack.shape == (4, 9, 9)
    for k, rho in zip(ks, stack):
        assert np.array_equal(rho, isotropic_state(float(k)))
    with pytest.raises(ValueError, match="k must"):
        isotropic_state(np.array([0.5, 1.1]))


# ---------------------------------------------------------------------------
# spin-1 observables
# ---------------------------------------------------------------------------


def test_spin1_z_matrix_and_spectrum():
    obs = spin1_observable("z")
    assert_allclose(obs.matrix, np.diag([1.0, 0.0, -1.0]), atol=0)
    assert_allclose(obs.eigenvalues, [1.0, 0.0, -1.0], atol=1e-14)


def test_spin1_x_spectrum():
    obs = spin1_observable("x")
    assert_allclose(obs.eigenvalues, [1.0, 0.0, -1.0], atol=1e-14)


def test_spin1_x_null_vector():
    obs = spin1_observable("x")
    v = obs.eigenbasis[:, 1]
    assert_allclose(v, [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)], atol=1e-12)


def test_spin1_eigenpairs_and_phase_convention():
    for axis in ("x", "z"):
        obs = spin1_observable(axis)
        for i in range(3):
            v = obs.eigenbasis[:, i]
            assert_allclose(obs.matrix @ v, obs.eigenvalues[i] * v, atol=1e-10)
            first = v[np.abs(v) > 1e-8][0]
            assert first.real > 0
            assert abs(first.imag) <= 1e-12


def test_spin1_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        spin1_observable("y")


def test_observable_rejects_degenerate_matrix():
    with pytest.raises(ValueError, match="degenerate"):
        observable_from_matrix(np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# complementarity constant
# ---------------------------------------------------------------------------


def test_max_overlap_x_z():
    c = max_overlap_c(spin1_observable("x"), spin1_observable("z"))
    assert c == pytest.approx(0.5, abs=1e-12)
    assert np.log2(1 / c) == pytest.approx(1.0, abs=1e-12)


def test_max_overlap_identical_bases():
    obs = spin1_observable("z")
    assert max_overlap_c(obs, obs) == pytest.approx(1.0, abs=1e-12)


def test_max_overlap_mutually_unbiased_bases():
    # Fourier basis is mutually unbiased with the computational one:
    # every overlap is exactly 1/3
    omega = np.exp(2j * np.pi / 3)
    fourier = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    m = fourier @ np.diag([1.0, 0.0, -1.0]) @ fourier.conj().T
    obs = observable_from_matrix(m)
    assert max_overlap_c(obs, spin1_observable("z")) == pytest.approx(1 / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# projective measurement
# ---------------------------------------------------------------------------


def test_measure_leaves_diagonal_state_unchanged():
    rho = np.diag([0.3, 0.1, 0.05, 0.15, 0.05, 0.05, 0.1, 0.1, 0.1]).astype(complex)
    out = measure_post_state(rho, spin1_observable("z"))
    assert_allclose(out, rho, atol=1e-14)


def test_measure_max_entangled_in_z_gives_classical_correlations():
    expected = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        expected[3 * i + i, 3 * i + i] = 1.0 / 3.0
    out = measure_post_state(isotropic_state(1.0), spin1_observable("z"))
    assert_allclose(out, expected, atol=1e-14)


def test_measure_maximally_mixed_fixed_point():
    for axis in ("x", "z"):
        assert_allclose(measure_post_state(I9 / 9, spin1_observable(axis)), I9 / 9, atol=1e-14)


def test_measure_idempotent():
    rng = np.random.default_rng(103)
    for axis in ("x", "z"):
        obs = spin1_observable(axis)
        rho = random_density_matrix(rng, 9)
        once = measure_post_state(rho, obs)
        twice = measure_post_state(once, obs)
        assert_allclose(twice, once, atol=1e-12)


def test_measure_preserves_trace_and_b_marginal():
    rng = np.random.default_rng(107)
    for _ in range(10):
        rho = random_density_matrix(rng, 9)
        obs = observable_from_matrix(random_hermitian(rng, 3))
        out = measure_post_state(rho, obs)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert_allclose(partial_trace_a(out), partial_trace_a(rho), atol=1e-12)


def test_measure_block_diagonal_in_measurement_basis():
    rng = np.random.default_rng(109)
    obs = spin1_observable("x")
    rho = random_density_matrix(rng, 9)
    out = measure_post_state(rho, obs)
    # off-diagonal blocks between distinct eigenprojectors vanish
    basis_a = np.kron(obs.eigenbasis, np.eye(3))
    in_basis = basis_a.conj().T @ out @ basis_a
    for i in range(3):
        for j in range(3):
            if i != j:
                block = in_basis[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                assert np.max(np.abs(block)) <= 1e-12


def test_measure_rejects_invalid_state():
    with pytest.raises(ValueError, match="trace"):
        measure_post_state(I9, spin1_observable("z"))
