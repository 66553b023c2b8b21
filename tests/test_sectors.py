"""Sector structure of evolved isotropic states, real arithmetic, and sweep properties.

In the dressed frame O of the damping channel (plus branch, minus branch,
ground) each local map is covariant under one U(1) phase per branch, and
the isotropic input is invariant under O (x) O. So rho_AB is one 3x3
sector {++, --, gg} plus six diagonal entries, its partial transpose
three diagonal entries plus three 2x2 blocks, and rho_B is diagonal. The
sweep and the inequality suite evolve in that frame and measure along
u = O^T v. In computational indices O mixes the two excited levels and
only the common excitation phase survives: rho_AB splits into sectors of
sizes 5, 2 and 2, its partial transpose 1, 4 and 4.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_eur.channel import (
    LEVEL_ORDERS,
    ChannelParams,
    derive_params,
    dressed_kraus,
    evolve_product,
)
from qutrit_eur.entropy import eur_columns
from qutrit_eur.experiment import BASIS_CONVENTIONS, SweepConfig, check_uncertainty_inequality, run_sweep
from qutrit_eur.linalg import _sectors, partial_trace_a, partial_transpose_a, sector_spectra
from qutrit_eur.states_obs import conditional_blocks, isotropic_state, spin1_observable

from conftest import computational_kraus, random_density_matrix

# unequal rates with partial SGI: both mixing amplitudes are nonzero and a != b
MIXED = ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05)
TS = np.linspace(0.0, 600.0, 128)


def sector_sizes(stack):
    """Sorted sector sizes of the zero pattern of a (T, n, n) stack, taken as the union over T."""
    nonzero = (stack != 0).any(axis=0)
    nonzero |= nonzero.T
    return sorted(idx.shape[1] for idx in _sectors(nonzero.tobytes(), len(nonzero)) for _ in idx)


def evolved(kraus, k=0.6):
    return evolve_product(isotropic_state(k), kraus)


def computational_block(levels=LEVEL_ORDERS["kraus-order"]):
    """The Kraus triple of MIXED at every time of TS in computational indices, from its closed form."""
    _, _, g_plus, g_minus = dressed_kraus(MIXED, TS)
    d = derive_params(MIXED)
    return computational_kraus(d.a, d.b, g_plus, g_minus, levels)


@pytest.mark.parametrize("basis", BASIS_CONVENTIONS)
def test_dressed_frame_block_sectors(basis):
    dressed, frame, _, _ = dressed_kraus(MIXED, TS, LEVEL_ORDERS[basis])
    rho_d = evolved(dressed)
    assert sector_sizes(rho_d) == [1] * 6 + [3]
    assert sector_sizes(partial_transpose_a(rho_d)) == [1] * 3 + [2] * 3
    assert sector_sizes(partial_trace_a(rho_d)) == [1] * 3
    # the dressed block is the computational one seen in the frame O (x) O
    rho = evolved(computational_block(LEVEL_ORDERS[basis]))
    both = np.kron(frame, frame)
    assert np.max(np.abs(both @ rho_d @ both.T - rho)) <= 1e-15
    for dressed_stack, stack in ((rho_d, rho), (partial_transpose_a(rho_d), partial_transpose_a(rho))):
        w = np.sort(sector_spectra(dressed_stack), axis=1)
        assert np.max(np.abs(w - np.linalg.eigvalsh(stack))) <= 1e-13


@pytest.mark.parametrize("basis", BASIS_CONVENTIONS)
def test_computational_block_sectors(basis):
    rho = evolved(computational_block(LEVEL_ORDERS[basis]))
    assert sector_sizes(rho) == [2, 2, 5]
    assert sector_sizes(partial_transpose_a(rho)) == [1, 4, 4]
    assert sector_sizes(partial_trace_a(rho)) == [1, 2]
    # at t = 0 the state is the isotropic input itself: {00, 11, 22} and six 1x1
    assert sector_sizes(rho[:1]) == [1] * 6 + [3]


def test_sweep_kernels_stay_real():
    dressed, frame, _, _ = dressed_kraus(MIXED, TS)
    rho = evolved(dressed)
    basis = frame.T @ np.hstack([spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis])
    for array in (dressed, rho, partial_transpose_a(rho), conditional_blocks(rho, basis)):
        assert array.dtype == np.float64
    assert all(col.dtype == np.float64 for col in eur_columns(rho, TS, frame))


def test_complex_state_keeps_complex_arithmetic():
    rho = evolved(computational_block()).astype(complex)
    assert partial_transpose_a(rho).dtype == partial_trace_a(rho).dtype == np.complex128
    real = eur_columns(rho.real, TS)
    cplx = eur_columns(rho, TS)
    for a, b in zip(real, cplx):
        assert np.max(np.abs(a - b)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0).filter(lambda x: x != 0.0),
    log_lam=st.floats(-3.0, 3.0),
    k=st.floats(0.05, 1.0),
    basis=st.sampled_from(BASIS_CONVENTIONS),
)
def test_dressed_frame_sector_sizes(gamma1, gamma2, theta, log_lam, k, basis):
    # the sizes come from the physics, not from an index table in the engine
    p = ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam)
    rho = evolved(dressed_kraus(p, TS, LEVEL_ORDERS[basis])[0], k)
    assert sector_sizes(rho) == [1] * 6 + [3]
    assert sector_sizes(partial_transpose_a(rho)) == [1] * 3 + [2] * 3
    rho_b = partial_trace_a(rho)
    assert np.array_equal(rho_b, np.diagonal(rho_b, axis1=1, axis2=2)[:, :, None] * np.eye(3))


@pytest.mark.parametrize("run", [
    lambda: run_sweep(SweepConfig(MIXED, k=0.8, t_max=600.0, steps=300, basis="ground-first")),
    lambda: check_uncertainty_inequality(n_draws=200),
], ids=["sweep", "inequality"])
def test_engine_solves_no_matrix_above_3x3(monkeypatch, run):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    run()
    assert sizes and max(sizes) <= 3


def rotated_back(rho, frame):
    """(O (x) O) rho (O (x) O)^T for one (3, 3) frame or a (T, 3, 3) stack."""
    both = np.einsum("...ij,...kl->...ikjl", frame, frame).reshape(frame.shape[:-2] + (9, 9))
    return both @ rho @ both.swapaxes(-1, -2)


def test_eur_columns_in_one_frame_match_the_rotated_back_state():
    dressed, frame, _, _ = dressed_kraus(MIXED, TS, LEVEL_ORDERS["ground-first"])
    rho = evolved(dressed)
    got, want = eur_columns(rho, TS, frame), eur_columns(rotated_back(rho, frame), TS)
    assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-13


def test_eur_columns_with_one_frame_per_state_match_the_rotated_back_states():
    # generic real states and frames: the evolved isotropic states are symmetric
    # under sign flips of the dressed levels, which hides a frame used as O for O^T
    rng = np.random.default_rng(17)
    ts = np.linspace(0.0, 1.0, 64)
    rho = np.array([random_density_matrix(rng, 9).real for _ in ts])
    frames = np.linalg.qr(rng.normal(size=(64, 3, 3)))[0]
    got, want = eur_columns(rho, ts, frames), eur_columns(rotated_back(rho, frames), ts)
    assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-13


def records_array(cfg):
    return np.array([dataclasses.astuple(r) for r in run_sweep(cfg)])


@settings(max_examples=40, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0),
    log_lam=st.floats(-3.0, 3.0),
    k=st.floats(0.0, 1.0),
    basis=st.sampled_from(BASIS_CONVENTIONS),
    t_max=st.floats(0.1, 600.0),
    steps=st.integers(2, 64),
)
def test_sweep_bound_and_negativity_range(gamma1, gamma2, theta, log_lam, k, basis, t_max, steps):
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam),
        k=k, t_max=t_max, steps=steps, basis=basis,
    )
    rows = records_array(cfg)
    assert np.all(np.isfinite(rows))
    _, u_l, u_b, _, _, neg = rows[:, :6].T
    assert np.all(u_l >= u_b - 1e-9)
    assert np.all((0.0 <= neg) & (neg <= 1.0))


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0),
    log_lam=st.floats(-3.0, 3.0),
    k=st.floats(0.0, 1.0),
    t_max=st.floats(0.1, 600.0),
    steps=st.integers(2, 64),
)
def test_sweep_basis_invariant_for_equal_rates(rate, theta, log_lam, k, t_max, steps):
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=rate, gamma2=rate, theta=theta, lam=10.0**log_lam),
        k=k, t_max=t_max, steps=steps,
    )
    ground_first = dataclasses.replace(cfg, basis="ground-first")
    assert np.max(np.abs(records_array(cfg) - records_array(ground_first))) <= 1e-12
