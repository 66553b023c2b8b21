"""Two-qutrit initial states, spin-1 observables, and the conditional blocks of a measurement.

The isotropic family interpolates between the maximally mixed state (k=0)
and the maximally entangled pure state (k=1); its spectrum, (1-k)/9 eight
times and (1+8k)/9 once, is that of a state for every accepted k.
Measurements act on subsystem A, the left tensor factor; the memory
qutrit B is untouched. conditional_blocks measures a stack of arbitrary
states along one basis; the sweep's evolved isotropic states build their
blocks from closed-form entries instead (entropy.evolved_isotropic_columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_real, require_samples

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def require_mixing(k, ts=None) -> np.ndarray:
    """The mixing k, a scalar or an array, as float64, or a ValueError unless it is real and lies in [0, 1].

    A k that is not an int or a float is refused by as_real. A k outside
    [0, 1], NaN included, names its first failing entry, and that entry's
    time when ts is given and k holds one entry per time.
    """
    k = as_real(k, "k")
    per_entry = np.atleast_1d(k)
    require_samples(
        (0.0 <= per_entry) & (per_entry <= 1.0), ts if k.ndim else None,
        lambda i: f"k must lie in [0, 1], got {per_entry[i]}",
    )
    return k


def isotropic_state(k) -> np.ndarray:
    """Isotropic two-qutrit state (1-k)/9 * I + k |psi+><psi+|; an array of k gives a stack of them.

    The state is real, so it comes back as float64. k is checked by
    require_mixing.
    """
    k = require_mixing(k)[..., None, None]
    # the maximally entangled ket (|00> + |11> + |22>)/sqrt(3)
    psi = np.zeros(9)
    psi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    return (1.0 - k) / 9.0 * np.eye(9) + k * np.outer(psi, psi)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with its eigenvalues and, as eigenbasis columns, the matching unit eigenvectors."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray


# the spin-1 x and z operators (hbar = 1) and their eigenbases in closed form,
# eigenvalues (1, 0, -1), each vector's first nonvanishing component positive
_SPIN1_EIGENVALUES = np.array([1.0, 0.0, -1.0])
_SPIN1 = {
    "z": Observable(np.diag([1.0, 0.0, -1.0]), _SPIN1_EIGENVALUES, np.eye(3)),
    "x": Observable(
        _SQRT_HALF * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        _SPIN1_EIGENVALUES,
        np.array([[0.5, _SQRT_HALF, 0.5], [_SQRT_HALF, 0.0, -_SQRT_HALF], [0.5, -_SQRT_HALF, 0.5]]),
    ),
}
# every call, and entropy's measured pair, shares these arrays: a write
# through one Observable would change the constants for all later callers
for _obs in _SPIN1.values():
    for _constant in (_obs.matrix, _obs.eigenvalues, _obs.eigenbasis):
        _constant.flags.writeable = False


def spin1_observable(axis: str) -> Observable:
    """Standard spin-1 axis operator (hbar = 1) with its eigenbasis.

    S_z = diag(1, 0, -1); S_x couples neighbouring m-levels with 1/sqrt(2).
    Both have the nondegenerate spectrum (1, 0, -1), and both eigenbases
    are real constants, returned as read-only arrays. Each axis has one
    Observable, returned by every call. An axis other than the string
    "x" or "z" is a ValueError.
    """
    # a str check first: a list or an array is unhashable, or compares elementwise
    if not isinstance(axis, str) or axis not in _SPIN1:
        raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")
    return _SPIN1[axis]


def max_overlap_c(r: Observable, q: Observable) -> float:
    """Maximum squared overlap between the two eigenbases, max_ij |<r_i|s_j>|^2."""
    overlaps = r.eigenbasis.conj().T @ q.eigenbasis
    return float(np.max(np.abs(overlaps) ** 2))


def conditional_blocks(rho_ab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Unnormalised states of B conditioned on measuring A in an orthonormal basis.

    rho_ab is a (..., 9, 9) stack and basis a (3, n) array of column
    vectors v_i. Block i is (<v_i| (x) I) rho (|v_i> (x) I), a 3x3
    operator on B whose trace is the probability of outcome i; the result
    has shape (..., n, 3, 3). The dephased state
    sum_i |v_i><v_i| (x) block_i is block diagonal in the measurement
    basis, so its spectrum is the union of the block spectra.
    """
    lead = rho_ab.shape[:-2]
    n = basis.shape[-1]
    weights = (basis.conj()[:, None, :] * basis[None, :, :]).reshape(9, n)
    # rho[a, b, c, d] -> rows (b, d), columns (a, c), contracted with the weights
    by_b = np.moveaxis(rho_ab.reshape(lead + (3, 3, 3, 3)), (-4, -2), (-2, -1))
    blocks = (by_b.reshape(lead + (9, 9)) @ weights).reshape(lead + (3, 3, n))
    return np.moveaxis(blocks, -1, -3)
