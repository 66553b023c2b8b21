"""Shared fixtures, random-matrix helpers, and a dense reference for the uncertainty relation."""

import math
import time

import numpy as np
import pytest

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


SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)


def reference_entropy(rho):
    """Von Neumann entropy in bits from the full spectrum of the Hermitian part."""
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


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
    s_b = reference_entropy(rho.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2))
    s_xb = reference_entropy(reference_dephased(rho, x_basis)) - s_b
    s_zb = reference_entropy(reference_dephased(rho, z_basis)) - s_b
    u_b = math.log2(1.0 / c) + reference_entropy(rho) - s_b
    pt = rho.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
    neg = max(0.0, (float(np.sum(np.abs(np.linalg.eigvalsh(pt)))) - 1.0) / 2.0)
    return s_xb + s_zb, u_b, s_xb, s_zb, neg


@pytest.fixture(scope="session")
def preset_sweeps():
    """All twelve preset sweeps, computed once, with the total wall time."""
    t0 = time.perf_counter()
    sweeps = {name: run_sweep(figure_preset(name)) for name in PRESET_NAMES}
    elapsed = time.perf_counter() - t0
    return sweeps, elapsed
