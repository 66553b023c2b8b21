"""The batched sweep engine against a dense per-sample reference.

The reference below is the original per-sample algorithm written out with
np.kron: scalar closed-form G(t), the Kraus triple permuted by an explicit
matrix for the ground-first basis, the product channel as a nine-term sum
over K_i (x) K_j, measurement by 9x9 projectors and full 9x9 spectra for
every entropy. It shares no kernel with the engine.
"""

import cmath
import math

import numpy as np
import pytest

from qutrit_eur.channel import (
    ChannelParams,
    apply_product_channel,
    derive_params,
    evolve_product,
    kraus_set,
    kraus_tensor,
    pair_indices,
    require_complete,
    superoperator,
)
from qutrit_eur.entropy import eur_columns, eur_sample
from qutrit_eur.experiment import SweepConfig, run_sweep
from qutrit_eur.states_obs import isotropic_state, max_overlap_c, spin1_observable

COLUMNS = ("t_gamma", "u_l", "u_b", "s_xb", "s_zb", "negativity", "g_plus", "g_minus")
GROUND_FIRST = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)
MONOTONE_LAM, OSCILLATORY_LAM = 5.0, 0.01


def reference_g(lam, rate, t):
    d = cmath.sqrt(lam * lam - 2.0 * lam * rate)
    if abs(d) < 1e-12 * lam:
        return math.exp(-lam * t / 2.0) * (1.0 + lam * t / 2.0)
    return (0.5 * (
        (1.0 + lam / d) * cmath.exp((d - lam) * t / 2.0)
        + (1.0 - lam / d) * cmath.exp(-(d + lam) * t / 2.0)
    )).real


def reference_entropy(rho):
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def reference_dephased(rho, basis):
    out = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        proj = np.kron(np.outer(basis[:, i], basis[:, i].conj()), np.eye(3))
        out += proj @ rho @ proj
    return out


def reference_row(cfg, t):
    p = cfg.channel
    d = derive_params(p)
    gp = reference_g(p.lam, d.gamma_plus, t)
    gm = reference_g(p.lam, d.gamma_minus, t)
    a, b = d.a, d.b
    off = (gm - gp) * a * b
    k1 = np.array([[gp * a * a + gm * b * b, off, 0], [off, gp * b * b + gm * a * a, 0], [0, 0, 1]], dtype=complex)
    k2 = math.sqrt(max(0.0, 1.0 - gp * gp)) * np.array([[0, 0, 0], [0, 0, 0], [a, -b, 0]], dtype=complex)
    k3 = math.sqrt(max(0.0, 1.0 - gm * gm)) * np.array([[0, 0, 0], [0, 0, 0], [b, a, 0]], dtype=complex)
    ops = [k1, k2, k3]
    if cfg.basis == "ground-first":
        ops = [GROUND_FIRST @ k @ GROUND_FIRST.T for k in ops]
    rho0 = isotropic_state(cfg.k)
    rho = np.zeros((9, 9), dtype=complex)
    for ki in ops:
        for kj in ops:
            kij = np.kron(ki, kj)
            rho += kij @ rho0 @ kij.conj().T
    x_basis = np.linalg.eigh(SX)[1]
    z_basis = np.eye(3, dtype=complex)
    c = float(np.max(np.abs(x_basis.conj().T @ z_basis) ** 2))
    s_b = reference_entropy(rho.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2))
    s_xb = reference_entropy(reference_dephased(rho, x_basis)) - s_b
    s_zb = reference_entropy(reference_dephased(rho, z_basis)) - s_b
    u_b = math.log2(1.0 / c) + reference_entropy(rho) - s_b
    pt = rho.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
    neg = max(0.0, (float(np.sum(np.abs(np.linalg.eigvalsh(pt)))) - 1.0) / 2.0)
    return (t, s_xb + s_zb, u_b, s_xb, s_zb, neg, gp, gm)


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
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=OSCILLATORY_LAM),
        k=0.6, t_max=600.0, steps=300,
    )
    records = run_sweep(cfg)
    rho0 = isotropic_state(cfg.k)
    c = max_overlap_c(spin1_observable("x"), spin1_observable("z"))
    for i in (0, 1, 127, 128, 200, 299):
        r = records[i]
        s = eur_sample(apply_product_channel(rho0, kraus_set(cfg.channel, r.t_gamma)), c)
        assert (s.u_l, s.u_b, s.s_xb, s.s_zb, s.negativity) == (r.u_l, r.u_b, r.s_xb, r.s_zb, r.negativity)


# ---------------------------------------------------------------------------
# batched checks name the failing sample
# ---------------------------------------------------------------------------


def evolved_block(ts):
    kraus, _, _ = kraus_tensor(ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05), ts)
    return kraus, evolve_product(pair_indices(isotropic_state(0.8)), superoperator(kraus))


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
    eur_columns(rho, 0.5, ts)
    corrupt(rho[4])
    with pytest.raises(ValueError, match=f"{message}.* at t=40$"):
        eur_columns(rho, 0.5, ts)


def test_batched_bound_check_names_the_first_sample():
    ts = np.linspace(0.0, 60.0, 7)
    _, rho = evolved_block(ts)
    # a wrong overlap constant raises the bound above every sample
    with pytest.raises(ValueError, match="below its lower bound.* at t=0$"):
        eur_columns(rho, 0.01, ts)


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
