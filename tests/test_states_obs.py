"""Tests for initial states, spin-1 observables, and the conditional blocks of a measurement."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qutrit_eur.linalg import partial_trace_a
from qutrit_eur.states_obs import (
    Observable,
    conditional_blocks,
    isotropic_state,
    max_overlap_c,
    spin1_observable,
)

from conftest import random_density_matrix, random_unitary

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
    # (1-k)/9 on the eight directions orthogonal to psi+ and (1+8k)/9 along
    # it: a state for every accepted k, which is why the engine does not
    # check it again
    ks = np.linspace(0.0, 1.0, 101)[:, None]
    closed_form = np.hstack([np.repeat((1.0 - ks) / 9.0, 8, axis=1), (1.0 + 8.0 * ks) / 9.0])
    assert np.max(np.abs(closed_form - np.linalg.eigvalsh(isotropic_state(ks[:, 0])))) <= 1e-15
    assert closed_form.min() >= 0.0
    assert np.max(np.abs(closed_form.sum(axis=1) - 1.0)) <= 1e-15


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


def test_spin1_constants_are_read_only():
    # every call shares one Observable per axis, so a write would corrupt all later callers
    for axis in ("x", "z"):
        obs = spin1_observable(axis)
        assert spin1_observable(axis) is obs
        for array in (obs.matrix, obs.eigenvalues, obs.eigenbasis):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0.0
    assert_allclose(spin1_observable("z").eigenbasis, np.eye(3), atol=0)
    assert_allclose(spin1_observable("x").eigenvalues, [1.0, 0.0, -1.0], atol=0)
    assert max_overlap_c(spin1_observable("x"), spin1_observable("z")) == pytest.approx(0.5, abs=1e-12)


def test_spin1_rejects_unknown_axis():
    # a list is unhashable: a ValueError, not the TypeError of a dict or cache lookup
    for axis in ("y", ["x"], None, 1):
        with pytest.raises(ValueError, match=r"^axis must be 'x' or 'z', got "):
            spin1_observable(axis)


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
    eigenvalues = np.array([1.0, 0.0, -1.0])
    obs = Observable(matrix=fourier @ np.diag(eigenvalues) @ fourier.conj().T, eigenvalues=eigenvalues, eigenbasis=fourier)
    assert max_overlap_c(obs, spin1_observable("z")) == pytest.approx(1 / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# projective measurement: the conditional states of B
# ---------------------------------------------------------------------------


def kron_blocks(rho, basis):
    """(<v_i| (x) I) rho (|v_i> (x) I) for every column v_i, from an explicit np.kron projector."""
    blocks = []
    for i in range(basis.shape[1]):
        p = np.kron(basis[:, [i]], np.eye(3))  # the 9x3 map |v_i> (x) I
        blocks.append(p.conj().T @ rho @ p)
    return np.array(blocks)


def measurement_bases(rng):
    """The spin-1 x and z eigenbases and three random complex orthonormal bases."""
    return [spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis] + [
        random_unitary(rng, 3) for _ in range(3)
    ]


def test_measure_leaves_diagonal_state_unchanged():
    # measuring z on a diagonal state: the blocks are its diagonal 3x3 blocks
    rho = np.diag([0.3, 0.1, 0.05, 0.15, 0.05, 0.05, 0.1, 0.1, 0.1]).astype(complex)
    blocks = conditional_blocks(rho, spin1_observable("z").eigenbasis)
    assert_allclose(blocks, [rho[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] for i in range(3)], atol=1e-15)


def test_measure_max_entangled_in_z_gives_classical_correlations():
    # outcome i leaves B in |i><i| with probability 1/3
    blocks = conditional_blocks(isotropic_state(1.0), spin1_observable("z").eigenbasis)
    assert_allclose(blocks, [np.diag(np.eye(3)[i]) / 3.0 for i in range(3)], atol=1e-15)


def test_measure_maximally_mixed_fixed_point():
    for axis in ("x", "z"):
        blocks = conditional_blocks(I9 / 9, spin1_observable(axis).eigenbasis)
        assert_allclose(blocks, np.broadcast_to(np.eye(3) / 9, (3, 3, 3)), atol=1e-15)


def test_measure_idempotent():
    # the measured state sum_i |v_i><v_i| (x) block_i gives the same blocks again
    rng = np.random.default_rng(103)
    for basis in measurement_bases(rng):
        blocks = conditional_blocks(random_density_matrix(rng, 9), basis)
        measured = sum(np.kron(np.outer(v, v.conj()), b) for v, b in zip(basis.T, blocks))
        assert_allclose(conditional_blocks(measured, basis), blocks, atol=1e-15)


def test_measure_preserves_trace_and_b_marginal():
    rng = np.random.default_rng(107)
    for _ in range(4):
        for basis in measurement_bases(rng):
            rho = random_density_matrix(rng, 9)
            total = conditional_blocks(rho, basis).sum(axis=0)
            assert_allclose(total, partial_trace_a(rho), atol=1e-15)
            assert np.trace(total).real == pytest.approx(1.0, abs=1e-14)


def test_measure_block_diagonal_in_measurement_basis():
    # block i is the diagonal block (i, i) of rho written in the basis v_i (x) e_b
    rng = np.random.default_rng(109)
    for basis in measurement_bases(rng):
        stack = np.array([random_density_matrix(rng, 9) for _ in range(4)])
        got = conditional_blocks(stack, basis)
        assert got.shape == (4, 3, 3, 3)
        for rho, blocks in zip(stack, got):
            assert_allclose(blocks, kron_blocks(rho, basis), atol=1e-15)

