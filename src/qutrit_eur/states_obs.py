"""The mixing of the isotropic initial states, and the spin-1 observables.

The isotropic family (1-k)/9 I + k |psi+><psi+| interpolates between the
maximally mixed state (k=0) and the maximally entangled pure state (k=1);
its spectrum, (1-k)/9 eight times and (1+8k)/9 once, is that of a state
for every accepted k, so require_mixing is its one check. Measurements
act on subsystem A; the memory qutrit B is untouched.
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
# every call shares these arrays: a write through one Observable would
# change the constants for all later callers
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
