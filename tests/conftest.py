"""Shared fixtures, random-matrix helpers, the batch form of ChannelParams, scalar suite draws, and the dense reference.

The reference shares no kernel with the package: the branch amplitude
from its two-exponential form, the Kraus triple written entry by entry,
the evolved isotropic state as the nine-term sum over K_i (x) K_j with
np.kron, and every entropy from full 9x9 and 3x3 spectra with kron
projectors for the measured states.
"""

import cmath
import math
import time

import numpy as np
import pytest

from qutrit_eur.channel import ChannelParams
from qutrit_eur.experiment import PRESET_NAMES, figure_preset, run_sweep


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def random_density_matrix(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_params(rng):
    """One random ChannelParams by four scalar draws: gamma1, gamma2, theta, then the exponent of lam."""
    return ChannelParams(
        gamma1=rng.uniform(0.1, 3.0),
        gamma2=rng.uniform(0.1, 3.0),
        theta=rng.uniform(-1.0, 1.0),
        lam=10.0 ** rng.uniform(-3.0, 3.0),
    )


def as_fields(params):
    """The (T, 4) rows (gamma1, gamma2, theta, lam) of a list of ChannelParams, the batch form of the channel kernels."""
    return np.array([(p.gamma1, p.gamma2, p.theta, p.lam) for p in params], dtype=float).reshape(-1, 4)


def reference_uniform(rng, low=0.0, high=1.0):
    """One uniform in [low, high) from a random.Random by its own 8-byte call: the top 53 bits, times 2**-53."""
    return low + (high - low) * ((int.from_bytes(rng.randbytes(8), "little") >> 11) * 2.0**-53)


def reference_params(rng):
    """One ChannelParams by four scalar reference_uniform calls: gamma1, gamma2, theta, then the exponent of lam."""
    return ChannelParams(
        gamma1=reference_uniform(rng, 0.1, 3.0),
        gamma2=reference_uniform(rng, 0.1, 3.0),
        theta=reference_uniform(rng, -1.0, 1.0),
        lam=10.0 ** reference_uniform(rng, -3.0, 3.0),
    )


def reference_cptp_draws(rng, n):
    """The CPTP suite's n draws (params, t, X) from a random.Random, one scalar call per number.

    Per draw: the parameters, t, then 9 radii and 9 phases that a scalar
    math Box-Muller turns into the real and imaginary parts of the 3x3
    factor X of the input state, entry by entry.
    """
    draws = []
    for _ in range(n):
        params, t = reference_params(rng), reference_uniform(rng, 0.0, 20.0)
        radii = [math.sqrt(-2.0 * math.log1p(-reference_uniform(rng))) for _ in range(9)]
        phases = [2.0 * math.pi * reference_uniform(rng) for _ in range(9)]
        x = [complex(r * math.cos(p), r * math.sin(p)) for r, p in zip(radii, phases)]
        draws.append((params, t, np.array(x).reshape(3, 3)))
    return draws


def reference_inequality_draws(rng, n):
    """The inequality suite's n draws (params, t, k) from a random.Random, one scalar call per number: the parameters, k, then t."""
    draws = []
    for _ in range(n):
        params, k = reference_params(rng), reference_uniform(rng)
        draws.append((params, reference_uniform(rng, 0.0, 300.0), k))
    return draws


# computational indices of (excited 1, excited 2, ground) per basis convention:
# the reference for the sweep's frame row order, experiment.BASIS_ROWS
REFERENCE_LEVELS = {"kraus-order": (0, 1, 2), "ground-first": (1, 2, 0)}


def computational_kraus(a, b, g_plus, g_minus, levels=REFERENCE_LEVELS["kraus-order"]):
    """The Kraus triple in computational indices, written entry by entry from its closed form.

    K_1 carries G+ a^2 + G- b^2, G+ b^2 + G- a^2 and (G- - G+) a b on the
    excited levels and 1 on the ground level; K_2 and K_3 carry the ground
    rows W+ (a, -b) and W- (b, a), W = sqrt(1 - G^2). levels gives the
    computational indices of (excited 1, excited 2, ground). No frame
    rotation is involved, so every entry the map leaves empty is an exact 0.
    Scalar amplitudes give one (3, 3, 3) triple, arrays a (T, 3, 3, 3) stack.
    """
    g_plus, g_minus = np.asarray(g_plus, dtype=float), np.asarray(g_minus, dtype=float)
    w_plus, w_minus = (np.sqrt(np.maximum(0.0, 1.0 - g * g)) for g in (g_plus, g_minus))
    e1, e2, g = levels
    kraus = np.zeros(g_plus.shape + (3, 3, 3))
    kraus[..., 0, e1, e1] = g_plus * a * a + g_minus * b * b
    kraus[..., 0, e2, e2] = g_plus * b * b + g_minus * a * a
    kraus[..., 0, e1, e2] = kraus[..., 0, e2, e1] = (g_minus - g_plus) * a * b
    kraus[..., 0, g, g] = 1.0
    kraus[..., 1, g, e1], kraus[..., 1, g, e2] = w_plus * a, -w_plus * b
    kraus[..., 2, g, e1], kraus[..., 2, g, e2] = w_minus * b, w_minus * a
    return kraus


def reference_g(lam, rate, t):
    """Branch amplitude G(t) from the two-exponential textbook form, its d -> 0 limit near critical damping."""
    d = cmath.sqrt(lam * lam - 2.0 * lam * rate)
    if abs(d) < 1e-12 * lam:
        return math.exp(-lam * t / 2.0) * (1.0 + lam * t / 2.0)
    return (0.5 * (
        (1.0 + lam / d) * cmath.exp((d - lam) * t / 2.0)
        + (1.0 - lam / d) * cmath.exp(-(d + lam) * t / 2.0)
    )).real


def reference_isotropic(k):
    """The isotropic state (1-k)/9 I + k |psi+><psi+|, psi+ = (|00> + |11> + |22>)/sqrt(3)."""
    psi = np.zeros(9)
    psi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    return (1.0 - k) / 9.0 * np.eye(9) + k * np.outer(psi, psi)


def reference_evolved(k, a, b, g_plus, g_minus, levels=REFERENCE_LEVELS["kraus-order"]):
    """The isotropic state of mixing k through the product channel, as the nine-term sum over K_i (x) K_j.

    The local triple is computational_kraus(a, b, g_plus, g_minus, levels)
    at scalar amplitudes. a = 1, b = 0 gives the triple of the dressed
    frame (plus branch, minus branch, ground), and G+- = 1 the input itself.
    """
    ops = computational_kraus(a, b, g_plus, g_minus, levels)
    rho0 = reference_isotropic(k)
    rho = np.zeros((9, 9), dtype=complex)
    for ki in ops:
        for kj in ops:
            kij = np.kron(ki, kj)
            rho += kij @ rho0 @ kij.conj().T
    return rho


SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)


def reference_entropy(rho):
    """Von Neumann entropy in bits from the full spectrum of the Hermitian part."""
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def reference_partial_trace_a(rho):
    """Trace out qutrit A, the left factor of r = 3*a + b, from a 9x9 operator."""
    return rho.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2)


def reference_partial_transpose_a(rho):
    """Transpose the qutrit-A indices of a 9x9 operator: out[3i+k, 3j+l] = rho[3j+k, 3i+l]."""
    return rho.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)


def reference_blocks(rho, basis):
    """(<v_i| (x) I) rho (|v_i> (x) I) for every column v_i of basis: the unnormalised states of B after outcome i."""
    blocks = []
    for i in range(basis.shape[1]):
        p = np.kron(basis[:, [i]], np.eye(3))  # the 9x3 map |v_i> (x) I
        blocks.append(p.conj().T @ rho @ p)
    return np.array(blocks)


def reference_dephased(rho, basis):
    """The two-qutrit state after measuring A in the columns of basis, from 9x9 kron projectors."""
    out = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        proj = np.kron(np.outer(basis[:, i], basis[:, i].conj()), np.eye(3))
        out += proj @ rho @ proj
    return out


def reference_eur(rho):
    """(u_l, u_b, s_xb, s_zb, negativity) of a 9x9 state by dense arithmetic.

    Full 9x9 and 3x3 spectra for every entropy, the spin-1 x basis from
    eigh of S_x, kron projectors for the measured states, c from the two
    bases, and the full spectrum of the partial transpose.
    """
    x_basis = np.linalg.eigh(SX)[1]
    z_basis = np.eye(3, dtype=complex)
    c = float(np.max(np.abs(x_basis.conj().T @ z_basis) ** 2))
    s_b = reference_entropy(reference_partial_trace_a(rho))
    s_xb = reference_entropy(reference_dephased(rho, x_basis)) - s_b
    s_zb = reference_entropy(reference_dephased(rho, z_basis)) - s_b
    u_b = math.log2(1.0 / c) + reference_entropy(rho) - s_b
    pt = reference_partial_transpose_a(rho)
    neg = max(0.0, (float(np.sum(np.abs(np.linalg.eigvalsh(pt)))) - 1.0) / 2.0)
    return s_xb + s_zb, u_b, s_xb, s_zb, neg


@pytest.fixture(scope="session")
def preset_sweeps():
    """All twelve preset sweeps, computed once, with the total wall time."""
    t0 = time.perf_counter()
    sweeps = {name: run_sweep(figure_preset(name)) for name in PRESET_NAMES}
    elapsed = time.perf_counter() - t0
    return sweeps, elapsed
