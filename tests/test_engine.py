"""The batched sweep engine against a dense per-sample reference.

The reference below is the original per-sample algorithm written out with
np.kron: scalar closed-form G(t), the Kraus triple written entry by entry
(conftest.computational_kraus) at explicit level indices for each basis
convention, the product channel as a nine-term sum
over K_i (x) K_j, then conftest.reference_eur: measurement by 9x9
projectors and full 9x9 spectra for every entropy. It shares no kernel
with the engine.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_eur import channel, entropy
from qutrit_eur.channel import (
    LEVEL_ORDERS,
    ChannelParams,
    apply_product_channel,
    derive_params,
    dressed_amplitudes,
    dressed_kraus,
    kraus_set,
    require_complete,
)
from qutrit_eur.entropy import eur_columns, eur_sample, evolved_isotropic_columns
from qutrit_eur.experiment import SweepConfig, check_uncertainty_inequality, run_sweep
from qutrit_eur.states_obs import isotropic_state

from conftest import computational_kraus, reference_eur

COLUMNS = ("t_gamma", "u_l", "u_b", "s_xb", "s_zb", "negativity", "g_plus", "g_minus")
# computational indices of (excited 1, excited 2, ground) per basis convention
REFERENCE_LEVELS = {"kraus-order": (0, 1, 2), "ground-first": (1, 2, 0)}
MONOTONE_LAM, OSCILLATORY_LAM = 5.0, 0.01


def reference_g(lam, rate, t):
    d = cmath.sqrt(lam * lam - 2.0 * lam * rate)
    if abs(d) < 1e-12 * lam:
        return math.exp(-lam * t / 2.0) * (1.0 + lam * t / 2.0)
    return (0.5 * (
        (1.0 + lam / d) * cmath.exp((d - lam) * t / 2.0)
        + (1.0 - lam / d) * cmath.exp(-(d + lam) * t / 2.0)
    )).real


def reference_row(cfg, t):
    p = cfg.channel
    d = derive_params(p)
    gp = reference_g(p.lam, d.gamma_plus, t)
    gm = reference_g(p.lam, d.gamma_minus, t)
    ops = computational_kraus(d.a, d.b, gp, gm, REFERENCE_LEVELS[cfg.basis])
    rho0 = isotropic_state(cfg.k)
    rho = np.zeros((9, 9), dtype=complex)
    for ki in ops:
        for kj in ops:
            kij = np.kron(ki, kj)
            rho += kij @ rho0 @ kij.conj().T
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


def test_sweep_with_ragged_last_block_matches_dense_reference():
    # 300 samples leave a short last block after the full ones
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05),
        k=0.8, t_max=600.0, steps=300, basis="ground-first",
    )
    assert_sweep_matches_reference(cfg)


def test_scalar_functions_reproduce_sweep_rows():
    # the sweep evolves in the dressed frame and eur_sample in computational
    # indices, so the two agree at round-off, not bit for bit
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=OSCILLATORY_LAM),
        k=0.6, t_max=600.0, steps=300,
    )
    records = run_sweep(cfg)
    rho0 = isotropic_state(cfg.k)
    for i in (0, 1, 127, 128, 200, 299):
        r = records[i]
        s = eur_sample(apply_product_channel(rho0, kraus_set(cfg.channel, r.t_gamma)))
        got = np.array([s.u_l, s.u_b, s.s_xb, s.s_zb, s.negativity])
        assert np.max(np.abs(got - [r.u_l, r.u_b, r.s_xb, r.s_zb, r.negativity])) <= 1e-13


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
    frame, g_plus, g_minus = dressed_amplitudes(p, ts, LEVEL_ORDERS[basis])
    got = evolved_isotropic_columns(g_plus, g_minus, k, frame, ts)
    # kraus_set is in kraus-order indices: entry i of the basis reads kraus-order index source[i]
    source = np.argsort(REFERENCE_LEVELS[basis])
    ops = kraus_set(p, t)[:, source][:, :, source]
    want = reference_eur(apply_product_channel(isotropic_state(k), ops))
    assert np.max(np.abs(np.ravel(got) - want)) <= 1e-12


def evolved_block(ts):
    dressed = dressed_kraus(ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05), ts)[0]
    return dressed, np.array([apply_product_channel(isotropic_state(0.8), ops) for ops in dressed])


def not_hermitian(rho):
    rho[0, 1] += 1e-6


def wrong_trace(rho):
    rho *= 1.5


def negative_eigenvalue(rho):
    rho[:] = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0, 0])


@pytest.mark.parametrize(
    "corrupt,message",
    [(not_hermitian, "not Hermitian"), (wrong_trace, "unit trace"), (negative_eigenvalue, "negative eigenvalue")],
)
def test_batched_state_checks_name_the_corrupted_sample(corrupt, message):
    ts = np.linspace(0.0, 60.0, 7)
    _, rho = evolved_block(ts)
    eur_columns(rho, ts)
    corrupt(rho[4])
    with pytest.raises(ValueError, match=f"{message}.* at t=40$"):
        eur_columns(rho, ts)


def test_batched_bound_check_names_the_first_sample(monkeypatch):
    ts = np.linspace(0.0, 60.0, 7)
    _, rho = evolved_block(ts)
    # the offset of an overlap c = 0.01 raises the bound above every sample
    monkeypatch.setattr(entropy, "BOUND_OFFSET", float(np.log2(1.0 / 0.01)))
    with pytest.raises(ValueError, match="below its lower bound.* at t=0$"):
        eur_columns(rho, ts)


def test_batched_completeness_check_names_the_corrupted_sample():
    ts = np.linspace(0.0, 60.0, 7)
    kraus, _ = evolved_block(ts)
    require_complete(kraus, ts)
    kraus[2, 1] *= 0.5
    with pytest.raises(ValueError, match="completeness.* at t=20$"):
        require_complete(kraus, ts)


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
