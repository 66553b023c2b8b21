"""The batched sweep engine against the dense per-sample reference of conftest.

The reference (conftest.reference_g, computational_kraus, reference_evolved
and reference_eur) is the original per-sample algorithm written out with
np.kron: scalar closed-form G(t), the Kraus triple written entry by entry
at explicit level indices for each basis convention, the product channel
as a nine-term sum over K_i (x) K_j, then measurement by 9x9 projectors
and full 9x9 spectra for every entropy. It shares no kernel with the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_eur import channel, entropy, experiment
from qutrit_eur.channel import (
    ChannelParams,
    dressed_amplitudes,
    dressed_channel,
    require_completeness,
)
from qutrit_eur.entropy import evolved_isotropic_columns
from qutrit_eur.experiment import BASIS_ROWS, SweepConfig, check_uncertainty_inequality, run_sweep
from qutrit_eur.linalg import require_density_stack

from conftest import REFERENCE_LEVELS, derived, random_density_matrix, reference_eur, reference_evolved, reference_g

COLUMNS = ("t_gamma", "u_l", "u_b", "s_xb", "s_zb", "negativity", "g_plus", "g_minus")
MONOTONE_LAM, OSCILLATORY_LAM = 5.0, 0.01


def reference_row(cfg, t):
    p = cfg.channel
    d = derived(p)
    gp = reference_g(p.lam, d.gamma_plus, t)
    gm = reference_g(p.lam, d.gamma_minus, t)
    rho = reference_evolved(cfg.k, d.a, d.b, gp, gm, REFERENCE_LEVELS[cfg.basis])
    return (t, *reference_eur(rho), gp, gm)


def assert_sweep_matches_reference(cfg):
    records = run_sweep(cfg)
    assert len(records) == cfg.steps
    for i, r in enumerate(records):
        t = i * cfg.t_max / (cfg.steps - 1)
        for col, want in zip(COLUMNS, reference_row(cfg, t)):
            got = getattr(r, col)
            assert abs(got - want) <= 1e-12, f"{cfg} t={t} {col}: {got!r} vs reference {want!r}"


@pytest.mark.parametrize("gammas", [(1.0, 1.0), (1.5, 0.5)])
@pytest.mark.parametrize("lam", [MONOTONE_LAM, OSCILLATORY_LAM])
@pytest.mark.parametrize("basis", ["kraus-order", "ground-first"])
def test_sweep_matches_dense_reference(basis, lam, gammas):
    for theta in (0.0, 0.5, 1.0):
        for k in (0.0, 0.6, 1.0):
            cfg = SweepConfig(
                channel=ChannelParams(gamma1=gammas[0], gamma2=gammas[1], theta=theta, lam=lam),
                k=k, t_max=150.0, steps=9, basis=basis,
            )
            assert_sweep_matches_reference(cfg)


def test_sweep_with_ragged_last_block_matches_dense_reference(monkeypatch):
    # 300 samples in blocks of 128 leave a short last block after the full ones
    monkeypatch.setattr(experiment, "_BLOCK", 128)
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05),
        k=0.8, t_max=600.0, steps=300, basis="ground-first",
    )
    assert_sweep_matches_reference(cfg)


def test_scalar_functions_reproduce_sweep_rows():
    # the per-sample reference, fed the engine's own amplitudes: the engine
    # evolves in the dressed frame and the reference in computational
    # indices, so the two agree at round-off, not bit for bit
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=OSCILLATORY_LAM),
        k=0.6, t_max=600.0, steps=300,
    )
    records = run_sweep(cfg)
    d = derived(cfg.channel)
    for i in (0, 1, 127, 128, 200, 299):
        r = records[i]
        _, (g_plus,), (g_minus,) = dressed_amplitudes(cfg.channel, [r.t_gamma])
        want = reference_eur(reference_evolved(cfg.k, d.a, d.b, g_plus, g_minus))
        got = np.array([r.u_l, r.u_b, r.s_xb, r.s_zb, r.negativity])
        assert np.max(np.abs(got - want)) <= 1e-13


# ---------------------------------------------------------------------------
# batched checks name the failing sample
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    gamma1=st.floats(0.1, 3.0),
    gamma2=st.floats(0.1, 3.0),
    theta=st.floats(-1.0, 1.0),
    log_lam=st.floats(-3.0, 3.0),
    k=st.floats(0.0, 1.0),
    t=st.floats(0.0, 300.0),
    basis=st.sampled_from(tuple(REFERENCE_LEVELS)),
)
def test_closed_form_kernel_matches_dense_reference(gamma1, gamma2, theta, log_lam, k, t, basis):
    p = ChannelParams(gamma1=gamma1, gamma2=gamma2, theta=theta, lam=10.0**log_lam)
    ts = np.array([t])
    frame, g_plus, g_minus = dressed_amplitudes(p, ts)
    # the basis as the sweep applies it, a row order of the kraus-order frame
    got = evolved_isotropic_columns(g_plus, g_minus, k, frame[:, BASIS_ROWS[basis]], ts)
    # the reference with the same amplitudes, its levels at the basis's computational indices
    d = derived(p)
    want = reference_eur(reference_evolved(k, d.a, d.b, g_plus[0], g_minus[0], REFERENCE_LEVELS[basis]))
    assert np.max(np.abs(np.ravel(got) - want)) <= 1e-12


MIXED = ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05)


def evolved_stack(ts):
    """A random qutrit state through the channel of MIXED, in its dressed frame, one (3, 3) state per time of ts."""
    _, g_plus, g_minus = dressed_amplitudes(MIXED, ts)
    rho = random_density_matrix(np.random.default_rng(43), 3)
    return dressed_channel(np.broadcast_to(rho, (len(ts), 3, 3)), g_plus, g_minus)


def not_hermitian(rho):
    rho[0, 1] += 1e-6


def wrong_trace(rho):
    rho *= 1.5


def negative_eigenvalue(rho):
    rho[:] = np.diag([1.2, -0.2, 0])


@pytest.mark.parametrize(
    "corrupt,message",
    [(not_hermitian, "not Hermitian"), (wrong_trace, "unit trace"), (negative_eigenvalue, "negative eigenvalue")],
)
def test_batched_state_checks_name_the_corrupted_sample(corrupt, message):
    # the check the CPTP suite runs on its input states, on a (T, 3, 3) stack
    ts = np.linspace(0.0, 60.0, 7)
    rho = evolved_stack(ts)
    require_density_stack(rho, ts)
    corrupt(rho[4])
    with pytest.raises(ValueError, match=f"{message}.* at t=40$"):
        require_density_stack(rho, ts)


def test_batched_state_checks_name_a_nan_entry_and_a_wrong_shape():
    ts = np.linspace(0.0, 60.0, 7)
    rho = evolved_stack(ts)
    rho[4, 2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^rho has an entry that is not finite at t=40$"):
        require_density_stack(rho, ts)
    for shape in [(7, 9, 9), (7, 3, 2), (3, 3)]:
        with pytest.raises(ValueError) as info:
            require_density_stack(np.zeros(shape, dtype=complex), ts)
        assert str(info.value) == f"rho must be a (T, 3, 3) stack of density matrices, got shape {shape}"


def test_batched_bound_check_names_the_first_sample(monkeypatch):
    ts = np.linspace(0.0, 60.0, 7)
    frame, g_plus, g_minus = dressed_amplitudes(MIXED, ts)
    # the offset of an overlap c = 0.01 raises the bound above every sample
    monkeypatch.setattr(entropy, "BOUND_OFFSET", float(np.log2(1.0 / 0.01)))
    with pytest.raises(ValueError, match="below its lower bound.* at t=0$"):
        evolved_isotropic_columns(g_plus, g_minus, 0.8, frame, ts)


def test_batched_completeness_check_names_the_corrupted_sample():
    ts = np.linspace(0.0, 60.0, 7)
    _, g_plus, g_minus = dressed_amplitudes(MIXED, ts)
    require_completeness(g_plus, g_minus, ts)
    # G+ = 1 + 2e-9, where W clamps to 0: a deviation G+^2 - 1 of 4e-9
    g_plus[2] = 1.0 + 2e-9
    with pytest.raises(ValueError, match=r"completeness violated: max\|sum K\^dag K - I\| = 4\.000e-09 at t=20$"):
        require_completeness(g_plus, g_minus, ts)


def test_sweep_failure_names_time_and_parameters():
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1e308), k=1.0, t_max=10.0, steps=4,
    )
    with pytest.raises(ValueError, match=r"at t=0 \(sweep gamma1=1 gamma2=1 theta=0 lambda=1e\+308 k=1"):
        run_sweep(cfg)


def amplitude_above_one(monkeypatch):
    """Make every branch amplitude 1 + 1e-9 at position 5 of each block: G^2 - 1 = 2e-9."""
    g_closed = channel._g_closed

    def bumped(lam, rate, ts):
        g = g_closed(lam, rate, ts)
        g[5] = 1.0 + 1e-9
        return g

    monkeypatch.setattr(channel, "_g_closed", bumped)


def test_sweep_completeness_check_names_time_and_parameters(monkeypatch):
    amplitude_above_one(monkeypatch)
    cfg = SweepConfig(channel=ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05), k=0.8, t_max=80.0, steps=9)
    with pytest.raises(ValueError, match=r"^Kraus completeness violated: max\|sum K\^dag K - I\| = 2\.000e-09 "
                                         r"at t=50 \(sweep gamma1=1\.5 gamma2=0\.5"):
        run_sweep(cfg)


def test_inequality_suite_completeness_check_names_the_draw(monkeypatch):
    amplitude_above_one(monkeypatch)
    with pytest.raises(ValueError, match=r"^Kraus completeness violated: max\|sum K\^dag K - I\| = 2\.000e-09 "
                                         r"at t=[^ ]+ \(draw 5: ChannelParams\(gamma1="):
        check_uncertainty_inequality(n_draws=20)
