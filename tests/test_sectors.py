"""Closed-form structure of evolved isotropic states, real arithmetic, and sweep properties.

In the dressed frame O of the damping channel (plus branch, minus branch,
ground) the local map is Phi(X) = K1 X K1 + (W+^2 X_++ + W-^2 X_--) |g><g|
with K1 = diag(g), g = (G+, G-, 1), and the isotropic input is invariant
under O (x) O. So the evolved state has the populations
D[a, b] = (1-k)/9 n_a n_b + k/3 (P^T P)[a, b] on its diagonal, with P the
images of the diagonal units and n = Phi(I), and its only coherences are
C[i, j] = (k/3) g_i^2 g_j^2 between |ii> and |jj>. Every other entry is an
exact 0. The sweep and the inequality suite read every spectrum off D and
C (entropy.evolved_isotropic_columns) and measure along u = O^T v.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_eur.channel import ChannelParams, dressed_amplitudes
from qutrit_eur import entropy, experiment
from qutrit_eur.entropy import _MEASURED_BASES, evolved_isotropic_columns
from qutrit_eur.experiment import (
    BASIS_CONVENTIONS,
    BASIS_ROWS,
    PRESET_NAMES,
    SweepConfig,
    check_uncertainty_inequality,
    figure_preset,
    run_self_check,
    run_sweep,
)

from conftest import REFERENCE_LEVELS, as_fields, derived, reference_blocks, reference_evolved

# unequal rates with partial SGI: both mixing amplitudes are nonzero and a != b
MIXED = ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05)
TS = np.linspace(0.0, 600.0, 128)
# rows (a, b) and columns (a', b') of the entries D and C may occupy
_A, _B, _A2, _B2 = np.indices((3, 3, 3, 3))
SUPPORT = (((_A == _A2) & (_B == _B2)) | ((_A == _B) & (_A2 == _B2))).reshape(9, 9)


def evolved(g_plus, g_minus, k=0.6, a=1.0, b=0.0, levels=REFERENCE_LEVELS["kraus-order"]):
    """The reference evolved state at each pair of amplitudes: in the dressed frame, or at mixing (a, b) and levels."""
    return np.array([reference_evolved(k, a, b, gp, gm, levels) for gp, gm in zip(g_plus, g_minus)])


def closed_form(g_plus, g_minus, k):
    """The (T, 9, 9) evolved isotropic state in the dressed frame, written from D and C alone."""
    g2 = np.stack([g_plus**2, g_minus**2, np.ones_like(g_plus)], axis=1)
    # P[i, a]: population a of Phi(|i><i|); each excited branch i feeds 1 - G_i^2 to ground
    images = np.zeros(g2.shape + (3,))
    for i in range(3):
        images[:, i, i] = g2[:, i]
    images[:, :2, 2] += 1.0 - g2[:, :2]
    n = images.sum(axis=1)
    pops = (1.0 - k) / 9.0 * np.einsum("ta,tb->tab", n, n) + k / 3.0 * np.einsum("tia,tib->tab", images, images)
    rho = np.zeros((len(g2), 9, 9))
    for a in range(3):
        for b in range(3):
            rho[:, 3 * a + b, 3 * a + b] = pops[:, a, b]
            if a != b:
                rho[:, 4 * a, 4 * b] = k / 3.0 * g2[:, a] * g2[:, b]
    return rho


def assert_closed_form(rho, g_plus, g_minus, k):
    """rho equals the closed form entry by entry, and is an exact 0 off the support of D and C."""
    assert np.max(np.abs(rho - closed_form(g_plus, g_minus, k))) <= 1e-15
    assert np.all(rho[:, ~SUPPORT] == 0.0)


@pytest.mark.parametrize("basis", BASIS_CONVENTIONS)
def test_dressed_frame_block_sectors(basis):
    # one ChannelParams gives a stack of one frame
    (frame,), g_plus, g_minus = dressed_amplitudes(MIXED, TS)
    rho_d = evolved(g_plus, g_minus)
    assert_closed_form(rho_d, g_plus, g_minus, 0.6)
    # the dressed block is the computational one seen in the frame O (x) O,
    # its rows in the basis's order as the sweep takes them
    d = derived(MIXED)
    rho = evolved(g_plus, g_minus, a=d.a, b=d.b, levels=REFERENCE_LEVELS[basis])
    both = np.kron(frame[BASIS_ROWS[basis]], frame[BASIS_ROWS[basis]])
    assert np.max(np.abs(both @ rho_d @ both.T - rho)) <= 1e-15


def test_sweep_kernels_stay_real():
    (frame,), g_plus, g_minus = dressed_amplitudes(MIXED, TS)
    for array in (frame, g_plus, g_minus):
        assert array.dtype == np.float64
    assert all(col.dtype == np.float64 for col in evolved_isotropic_columns(g_plus, g_minus, 0.6, frame, TS))


@settings(max_examples=40, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0).filter(lambda x: x != 0.0),
    log_lam=st.floats(-3.0, 3.0),
    k=st.floats(0.05, 1.0),
)
def test_dressed_frame_sector_sizes(gamma1, gamma2, theta, log_lam, k):
    # the structure comes from the physics, not from an index table in the
    # engine; the dressed tensor has no basis convention, only its frame does
    p = ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam)
    _, g_plus, g_minus = dressed_amplitudes(p, TS[::8])
    assert_closed_form(evolved(g_plus, g_minus, k), g_plus, g_minus, k)


@settings(max_examples=60, deadline=None)
@given(
    draws=st.lists(
        st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(-1.0, 1.0)), min_size=1, max_size=8
    ),
    basis=st.sampled_from(BASIS_CONVENTIONS),
)
def test_z_rows_never_mix_ground_and_excited(draws, basis):
    # u = O^T e_j is a row of O, and O never mixes the ground level with the
    # excited ones, so each z block is a 2x2 block plus one diagonal entry
    params = [ChannelParams(gamma1=g1, gamma2=g2, theta=theta, lam=1.0) for g1, g2, theta in draws]
    frames = dressed_amplitudes(as_fields(params), np.zeros(len(params)))[0]
    one = dressed_amplitudes(params[0], np.zeros(1))[0]
    for frame in (frames[:, BASIS_ROWS[basis]], one[:, BASIS_ROWS[basis]]):
        z_rows = (_MEASURED_BASES.T @ frame)[..., 3:, :]
        assert np.all(z_rows[..., 2:] * z_rows[..., :2] == 0.0)


@pytest.mark.parametrize("basis", BASIS_CONVENTIONS)
def test_sweep_frame_rows_follow_the_basis_convention(monkeypatch, basis):
    # the sweep measures in the channel's kraus-order frame with its rows
    # reordered: level j of (excited 1, excited 2, ground) sits in row
    # REFERENCE_LEVELS[basis][j], bit for bit
    frames = []
    kernel = experiment.evolved_isotropic_columns

    def recording(g_plus, g_minus, k, frame, ts):
        frames.append(frame)
        return kernel(g_plus, g_minus, k, frame, ts)

    monkeypatch.setattr(experiment, "evolved_isotropic_columns", recording)
    monkeypatch.setattr(experiment, "_BLOCK", 64)
    run_sweep(SweepConfig(MIXED, k=0.8, t_max=600.0, steps=100, basis=basis))
    channel_frame = dressed_amplitudes(MIXED, TS[:1])[0]
    levels = list(REFERENCE_LEVELS[basis])
    assert len(frames) == 2
    for frame in frames:
        assert np.array_equal(frame[:, levels], channel_frame)
        # the ground level of the basis convention is the third column of O
        assert np.all(frame[:, levels[2], 2] == 1.0)


@pytest.mark.parametrize("k", [math.nan, 1.5, -0.25])
def test_evolved_isotropic_columns_checks_k(k):
    # not a failed eigensolve or a negative eigenvalue further in: the
    # message of SweepConfig, and the first failing t when k is per time
    frame, g_plus, g_minus = dressed_amplitudes(MIXED, TS)
    with pytest.raises(ValueError) as sweep_config:
        SweepConfig(MIXED, k=k, t_max=600.0, steps=2)
    with pytest.raises(ValueError, match=f"^{re.escape(str(sweep_config.value))}$"):
        evolved_isotropic_columns(g_plus, g_minus, k, frame, TS)
    ks = np.full(len(TS), 0.5)
    ks[7:] = k
    with pytest.raises(ValueError, match=f"^{re.escape(str(sweep_config.value))} at t={TS[7]:.12g}$"):
        evolved_isotropic_columns(g_plus, g_minus, ks, frame, TS)
    with pytest.raises(ValueError, match=r"^k must be real \(ints or floats\), got dtype "):
        evolved_isotropic_columns(g_plus, g_minus, str(k), frame, TS)


@pytest.mark.parametrize(
    "g_plus, g_minus, k, ts, message",
    [
        # g_plus broadcast against one time, then failed at its second entry, which has no t
        ([0.5, 0.4], [0.5], 0.5, [1.0], r"g_plus .*got shape \(2,\) for ts of shape \(1,\)"),
        ([0.5, 1.5], [0.5], 0.5, [1.0], r"g_plus .*got shape \(2,\) for ts of shape \(1,\)"),
        ([0.5, 0.4], [0.5, 0.4, 0.3], 0.5, [1.0, 2.0], r"g_minus .*got shape \(3,\) for ts of shape \(2,\)"),
        ([0.5, 0.4], [0.5, 0.4], [0.5, 0.5, 0.5], [1.0, 2.0], r"k .*got shape \(3,\) for ts of shape \(2,\)"),
    ],
    ids=["broadcast", "fails-past-ts", "g-minus-3-for-2", "k-3-for-2"],
)
def test_evolved_isotropic_columns_checks_lengths(g_plus, g_minus, k, ts, message):
    frame = dressed_amplitudes(MIXED, ts)[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        evolved_isotropic_columns(np.array(g_plus), np.array(g_minus), k, frame, np.array(ts))


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 2)], ids=["3-frames-for-2", "not-3x3"])
def test_evolved_isotropic_columns_checks_frame_stack(shape):
    # three frames for two times were numpy's unnamed broadcast error
    ts = np.array([1.0, 2.0])
    _, g_plus, g_minus = dressed_amplitudes(MIXED, ts)
    message = rf"^frame must be one \(3, 3\) frame .*got shape {re.escape(str(shape))} for ts of shape \(2,\)$"
    with pytest.raises(ValueError, match=message):
        evolved_isotropic_columns(g_plus, g_minus, 0.5, np.ones(shape), ts)


def plus_zero(lam, rate):
    """The first zero of the branch amplitude G of an oscillatory branch: w t/2 = pi - atan(w/lam), w = |d|."""
    w = np.sqrt(lam * (2.0 * rate - lam))
    return 2.0 * (np.pi - np.arctan(w / lam)) / w


# (params, k, times): rank-1 blocks (k = 1 at t = 0), a zero of G+ at
# lam = 0.001 (the fig3 channel, gamma_plus = 2), k = 0, lam = 1000, and one
# frame per draw
GRID = np.linspace(0.0, 600.0, 25)
Z_CASES = [
    (MIXED, 1.0, GRID),
    (ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=0.001), 0.6, np.append(GRID, plus_zero(0.001, 2.0))),
    (MIXED, 0.0, GRID),
    (dataclasses.replace(MIXED, lam=1000.0), 0.6, GRID),
    (
        as_fields([ChannelParams(gamma1=g, gamma2=2.0 - g, theta=g - 1.0, lam=10.0 ** (6 * g - 6))
                   for g in (GRID / 600.0 + 0.5).tolist()]),
        0.4, GRID,
    ),
]


@pytest.mark.parametrize("basis", BASIS_CONVENTIONS)
@pytest.mark.parametrize("params,k,ts", Z_CASES, ids=["rank-1", "g-plus-zero", "k0", "lam1000", "per-draw"])
def test_closed_form_z_spectra_match_eigvalsh(monkeypatch, basis, params, k, ts):
    frame, g_plus, g_minus = dressed_amplitudes(params, ts)
    frame = frame[:, BASIS_ROWS[basis]]
    spectra = []
    checked = entropy._checked_columns

    def recording(w_ab, w_b, w_xz, w_pt, ts):
        spectra.append(w_xz[:, 1])
        return checked(w_ab, w_b, w_xz, w_pt, ts)

    monkeypatch.setattr(entropy, "_checked_columns", recording)
    evolved_isotropic_columns(g_plus, g_minus, k, frame, ts)
    # the full 3x3 z blocks of the evolved state along u = O^T e_j
    rho = closed_form(g_plus, g_minus, k)
    frames = np.broadcast_to(frame, (len(ts), 3, 3))
    blocks = np.array([reference_blocks(state, o.T) for state, o in zip(rho, frames)])
    want = np.sort(np.linalg.eigvalsh(blocks).reshape(len(ts), 9), axis=1)
    assert np.max(np.abs(np.sort(spectra[0], axis=1) - want)) <= 1e-15


@pytest.mark.parametrize("run,samples", [
    (lambda: run_sweep(SweepConfig(MIXED, k=0.8, t_max=600.0, steps=300, basis="ground-first")), 300),
    (lambda: check_uncertainty_inequality(n_draws=200), 200),
], ids=["sweep", "inequality"])
def test_engine_solves_no_matrix_above_3x3(monkeypatch, run, samples):
    # per sample: the 3x3 sector of rho_AB and the three x blocks, by the
    # Jacobi kernel; the z blocks are read off in closed form. Per block: one
    # kernel call for all four, and no LAPACK eigensolve at all.
    lapack_calls, kernel_calls, matrices = 0, 0, 0
    eigvalsh, kernel = np.linalg.eigvalsh, entropy.symmetric_eigvals3

    def counting_eigvalsh(*args, **kwargs):
        nonlocal lapack_calls
        lapack_calls += 1
        return eigvalsh(*args, **kwargs)

    def counting_kernel(diag, off, *args, **kwargs):
        nonlocal kernel_calls, matrices
        kernel_calls += 1
        matrices += int(np.prod(np.shape(diag)[:-1]))
        return kernel(diag, off, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(entropy, "symmetric_eigvals3", counting_kernel)
    monkeypatch.setattr(experiment, "_BLOCK", 64)
    run()
    assert lapack_calls == 0
    assert matrices == 4 * samples
    assert kernel_calls == math.ceil(samples / 64)


def test_self_check_makes_no_lapack_eigensolve(monkeypatch, capsys):
    # the CPTP suite's spectra come from hermitian_eigvals3, the other suites' from closed forms and Jacobi
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg eigensolver called")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run_self_check()
    assert capsys.readouterr().out.count("[PASS]") == 3


def records_array(cfg):
    return np.array(run_sweep(cfg).tolist())


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


def test_isotropic_separability_threshold_on_preset_channels():
    """No negativity at any t for k <= 1/4; above it, N(0) = (4k - 1)/3.

    A two-qutrit isotropic state is separable exactly when k <= 1/(d+1) = 1/4
    (M. Horodecki & P. Horodecki, PRA 59, 4206 (1999)), and a product of local
    channels keeps a separable state separable, so its negativity stays 0 at
    every t. Above the threshold the input's partial transpose has the
    eigenvalue (1 - 4k)/9 three times, so N(0) = (4k - 1)/3. The preset grids
    are shortened to 1200 samples.
    """
    for name in PRESET_NAMES:
        preset = figure_preset(name)
        for k in (0.0, 0.1, 0.25):
            rows = run_sweep(dataclasses.replace(preset, k=k, steps=1200))
            assert max(r.negativity for r in rows) <= 1e-15, (name, k)
        for k in (0.26, 0.5, 1.0):
            first = run_sweep(dataclasses.replace(preset, k=k, steps=2))[0]
            assert abs(first.negativity - (4.0 * k - 1.0) / 3.0) <= 1e-15, (name, k)
