"""Tests for the mixing check, the spin-1 observables, and the dense reference's isotropic input and measurement.

The isotropic state and the measured states are built only in conftest's
dense reference, which the engine is compared against; the tests here
anchor that reference.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qutrit_eur.channel import dressed_amplitudes
from qutrit_eur.entropy import BOUND_OFFSET, evolved_isotropic_columns
from qutrit_eur.states_obs import require_mixing, spin1_observable

from conftest import (
    random_density_matrix,
    random_unitary,
    reference_blocks,
    reference_dephased,
    reference_isotropic,
    reference_max_overlap,
    reference_partial_trace_a,
)

I9 = np.eye(9, dtype=complex)


# ---------------------------------------------------------------------------
# isotropic states
# ---------------------------------------------------------------------------


def test_isotropic_fully_mixed():
    assert_allclose(reference_isotropic(0.0), I9 / 9, atol=0)


def test_isotropic_maximally_entangled_is_pure():
    rho = reference_isotropic(1.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_isotropic_spectrum():
    # one eigenvalue (1-k)/9 + k along the entangled direction, (1-k)/9
    # on the eight orthogonal ones
    k = 0.4
    w = np.sort(np.linalg.eigvalsh(reference_isotropic(k)))
    assert_allclose(w[:8], np.full(8, (1 - k) / 9), atol=1e-12)
    assert w[8] == pytest.approx((1 - k) / 9 + k, abs=1e-12)


def test_isotropic_closed_form_spectrum_matches_eigvalsh():
    # (1-k)/9 on the eight directions orthogonal to psi+ and (1+8k)/9 along
    # it: a state for every accepted k, which is why the engine does not
    # check it again
    ks = np.linspace(0.0, 1.0, 101)[:, None]
    closed_form = np.hstack([np.repeat((1.0 - ks) / 9.0, 8, axis=1), (1.0 + 8.0 * ks) / 9.0])
    spectra = np.linalg.eigvalsh([reference_isotropic(k) for k in ks[:, 0]])
    assert np.max(np.abs(closed_form - spectra)) <= 1e-15
    assert closed_form.min() >= 0.0
    assert np.max(np.abs(closed_form.sum(axis=1) - 1.0)) <= 1e-15


def test_isotropic_rejects_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match="k must"):
            require_mixing(bad)


def test_isotropic_stack_matches_single_states():
    # one k per time, as the inequality suite passes them, against one scalar k for all times
    ks = np.array([0.0, 0.25, 0.6, 1.0])
    ts = np.array([0.0, 10.0, 70.2, 300.0])
    frame, g_plus, g_minus = dressed_amplitudes(np.tile([1.5, 0.5, 0.5, 0.05], (len(ts), 1)), ts)
    stack = np.array(evolved_isotropic_columns(g_plus, g_minus, ks, frame, ts))
    for i, k in enumerate(ks.tolist()):
        one = np.array(evolved_isotropic_columns(g_plus, g_minus, k, frame, ts))
        assert np.array_equal(one[:, i], stack[:, i])
    with pytest.raises(ValueError, match="k must"):
        require_mixing(np.array([0.5, 1.1]))


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
    assert reference_max_overlap(spin1_observable("x").eigenbasis, np.eye(3)) == pytest.approx(0.5, abs=1e-12)


def test_spin1_rejects_unknown_axis():
    # a list is unhashable: a ValueError, not the TypeError of a dict or cache lookup
    for axis in ("y", ["x"], None, 1):
        with pytest.raises(ValueError, match=r"^axis must be 'x' or 'z', got "):
            spin1_observable(axis)


# ---------------------------------------------------------------------------
# complementarity constant
# ---------------------------------------------------------------------------


# the engine's bound offset is the constant log2(1/c) = 1; the overlap c is
# derived here from the eigenbases, by the reference's max_ij |<r_i|s_j>|^2


def test_max_overlap_x_z():
    c = reference_max_overlap(spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis)
    assert c == pytest.approx(0.5, abs=1e-12)
    assert BOUND_OFFSET == 1.0 == np.log2(1 / (1 / 2))


def test_max_overlap_identical_bases():
    basis = spin1_observable("z").eigenbasis
    assert reference_max_overlap(basis, basis) == pytest.approx(1.0, abs=1e-12)


def test_max_overlap_mutually_unbiased_bases():
    # Fourier basis is mutually unbiased with the computational one:
    # every overlap is exactly 1/3
    omega = np.exp(2j * np.pi / 3)
    fourier = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    assert reference_max_overlap(fourier, spin1_observable("z").eigenbasis) == pytest.approx(1 / 3, abs=1e-12)


# ---------------------------------------------------------------------------
# projective measurement: the conditional states of B
# ---------------------------------------------------------------------------


def measurement_bases(rng):
    """The spin-1 x and z eigenbases and three random complex orthonormal bases."""
    return [spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis] + [
        random_unitary(rng, 3) for _ in range(3)
    ]


def test_measure_leaves_diagonal_state_unchanged():
    # measuring z on a diagonal state: the blocks are its diagonal 3x3 blocks, and the state is unchanged
    rho = np.diag([0.3, 0.1, 0.05, 0.15, 0.05, 0.05, 0.1, 0.1, 0.1]).astype(complex)
    blocks = reference_blocks(rho, spin1_observable("z").eigenbasis)
    assert_allclose(blocks, [rho[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] for i in range(3)], atol=1e-15)
    assert_allclose(reference_dephased(rho, spin1_observable("z").eigenbasis), rho, atol=1e-15)


def test_measure_max_entangled_in_z_gives_classical_correlations():
    # outcome i leaves B in |i><i| with probability 1/3
    blocks = reference_blocks(reference_isotropic(1.0), spin1_observable("z").eigenbasis)
    assert_allclose(blocks, [np.diag(np.eye(3)[i]) / 3.0 for i in range(3)], atol=1e-15)


def test_measure_maximally_mixed_fixed_point():
    for axis in ("x", "z"):
        basis = spin1_observable(axis).eigenbasis
        assert_allclose(reference_blocks(I9 / 9, basis), np.broadcast_to(np.eye(3) / 9, (3, 3, 3)), atol=1e-15)
        assert_allclose(reference_dephased(I9 / 9, basis), I9 / 9, atol=1e-15)


def test_measure_idempotent():
    # the measured state sum_i |v_i><v_i| (x) block_i gives the same blocks again
    rng = np.random.default_rng(103)
    for basis in measurement_bases(rng):
        rho = random_density_matrix(rng, 9)
        measured = reference_dephased(rho, basis)
        assert_allclose(reference_blocks(measured, basis), reference_blocks(rho, basis), atol=1e-15)
        assert_allclose(reference_dephased(measured, basis), measured, atol=1e-15)


def test_measure_preserves_trace_and_b_marginal():
    rng = np.random.default_rng(107)
    for _ in range(4):
        for basis in measurement_bases(rng):
            rho = random_density_matrix(rng, 9)
            total = reference_blocks(rho, basis).sum(axis=0)
            assert_allclose(total, reference_partial_trace_a(rho), atol=1e-15)
            assert_allclose(reference_partial_trace_a(reference_dephased(rho, basis)), total, atol=1e-15)
            assert np.trace(total).real == pytest.approx(1.0, abs=1e-14)


def test_measure_block_diagonal_in_measurement_basis():
    # the measured state in the basis v_i (x) e_b: block (i, i) is block i of rho, every other block 0
    rng = np.random.default_rng(109)
    for basis in measurement_bases(rng):
        rho = random_density_matrix(rng, 9)
        both = np.kron(basis, np.eye(3))
        measured = (both.conj().T @ reference_dephased(rho, basis) @ both).reshape(3, 3, 3, 3)
        blocks = reference_blocks(rho, basis)
        for i in range(3):
            for j in range(3):
                assert_allclose(measured[i, :, j], blocks[i] if i == j else 0.0, atol=1e-15)
