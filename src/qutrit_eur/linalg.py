"""Dense linear algebra for 3x3 and 9x9 Hermitian problems.

Matrices are plain numpy arrays, real or complex: every function keeps
the dtype it is given (integers become float64), so a real state stays
in real arithmetic and a complex one in complex. Composite two-qutrit indices
follow r = 3*a + b, with subsystem A the left (most significant) tensor
factor; every composite operation in this package assumes that layout.
A stack of matrices carries the sample axis first, (T, n, n); the
``require_*`` checks on stacks name the first failing sample.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M^dagger) / 2, matrix by matrix over any leading axes."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


class SampleError(ValueError):
    """A check failed at one sample of a stack; index is that sample's position in it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def require_samples(ok: np.ndarray, ts, describe) -> None:
    """Raise SampleError (a ValueError) at the first sample whose flag in ok is False.

    ok holds one flag per sample of a stack; comparisons with NaN give
    False, so a NaN sample fails too. describe(i) says what is wrong with
    sample i, and ts, when given, names that sample's time.
    """
    if ok.all():
        return
    i = int(np.argmin(ok))
    where = "" if ts is None else f" at t={float(ts[i]):.12g}"
    raise SampleError(f"{describe(i)}{where}", i)


def require_hermitian_stack(m: np.ndarray, ts=None, name: str = "matrix") -> np.ndarray:
    """Check entrywise Hermiticity of a (T, n, n) stack within 1e-12 and return its Hermitian part."""
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    require_samples(
        dev <= HERMITIAN_ATOL, ts,
        lambda i: f"{name} is not Hermitian: max|M - M^dagger| = {dev[i]:.3e} > {HERMITIAN_ATOL:.0e}",
    )
    return hermitian_part(m)


def require_state_spectrum(w: np.ndarray, ts=None, name: str = "rho") -> None:
    """Check (T, n) eigenvalue rows of states: none below -1e-10, and unit sum.

    Eigenvalues in [-1e-10, 0) are round-off from channel application;
    anything more negative is not a state.
    """
    w_min = w.min(axis=-1)
    require_samples(
        w_min >= EIGENVALUE_FLOOR, ts,
        lambda i: f"{name} has negative eigenvalue {w_min[i]:.3e}; not a state",
    )
    tr = w.sum(axis=-1)
    require_samples(
        np.abs(tr - 1.0) <= TRACE_ATOL, ts,
        lambda i: f"{name} must have unit trace, got {float(tr[i])!r}",
    )


@lru_cache(maxsize=64)
def _sectors(key: bytes, n: int) -> tuple[np.ndarray, ...]:
    """Sectors of the n x n boolean pattern in key: one (count, size) index array per size.

    A sector is a connected component of the pattern read as a graph;
    the boolean closure of the pattern finds them, and sizes come in
    ascending order.
    """
    reach = np.frombuffer(key, dtype=bool).reshape(n, n) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0
    sectors = []
    for i in range(n):
        if not any(i in sector for sector in sectors):
            sectors.append(np.flatnonzero(reach[i]))
    sizes = sorted({len(sector) for sector in sectors})
    return tuple(np.array([sector for sector in sectors if len(sector) == size]) for size in sizes)


def sector_spectra(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of a Hermitian (T, n, n) stack, sector by sector.

    The exact zero pattern of a matrix splits its indices into sectors
    that no nonzero entry connects, and its spectrum is the union of the
    sector spectra. The matrices of one pattern are solved together, with
    one batched eigvalsh per sector size; 1x1 sectors are read off the
    diagonal. A matrix without zero entries is one n-sector. A matrix
    gets the same arithmetic whatever else is in the stack, so a sample
    of a block and the same state alone give identical eigenvalues. Rows
    come back in sector order, not sorted.
    """
    n = m.shape[-1]
    nonzero = m != 0
    nonzero |= nonzero.swapaxes(-1, -2)
    w = np.empty(m.shape[:-1])
    todo = np.ones(len(m), dtype=bool)
    while todo.any():
        pattern = nonzero[np.argmax(todo)]
        rows = todo & (nonzero == pattern).all(axis=(-2, -1))
        todo &= ~rows
        sub = m[rows]
        w[rows] = np.concatenate([
            sub[:, idx[:, 0], idx[:, 0]].real if idx.shape[1] == 1
            else np.linalg.eigvalsh(sub[:, idx[:, :, None], idx[:, None, :]]).reshape(len(sub), -1)
            for idx in _sectors(pattern.tobytes(), n)
        ], axis=1)
    return w


def require_density_stack(rho: np.ndarray, ts=None, name: str = "rho") -> np.ndarray:
    """Validate a (T, n, n) stack of density matrices and return its Hermitian part."""
    rho = require_hermitian_stack(rho, ts, name)
    require_state_spectrum(np.linalg.eigvalsh(rho), ts, name)
    return rho


def as_inexact(m) -> np.ndarray:
    """m as a float64 or complex128 array, whichever holds it."""
    m = np.asarray(m)
    return m.astype(np.result_type(m, np.float64), copy=False)


def require_density_matrix(rho: np.ndarray, n: int, name: str = "rho") -> np.ndarray:
    """Validate an n x n density matrix (Hermitian, eigenvalues >= -1e-10, unit trace).

    The shape is checked first, so a wrong-shape input fails before any
    eigensolve. Returns the Hermitian part so downstream numerics start
    from a clean operator; round-off from repeated channel application
    accumulates asymmetry of order 1e-15. The one-matrix case of
    require_density_stack.
    """
    rho = as_inexact(rho)
    if rho.shape != (n, n):
        raise ValueError(f"{name} must be a {n}x{n} matrix, got shape {rho.shape}")
    return require_density_stack(rho[None], name=name)[0]


def partial_trace_a(rho: np.ndarray) -> np.ndarray:
    """Trace out the first qutrit of a 9x9 two-qutrit operator (or a stack of them)."""
    rho = as_inexact(rho)
    if rho.shape[-2:] != (9, 9):
        raise ValueError(f"partial_trace_a expects a 9x9 matrix, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (3, 3, 3, 3)).trace(axis1=-4, axis2=-2)


def partial_transpose_a(rho: np.ndarray) -> np.ndarray:
    """Transpose the first-qutrit indices of a 9x9 operator (or a stack): out[3i+k,3j+l] = rho[3j+k,3i+l]."""
    rho = as_inexact(rho)
    if rho.shape[-2:] != (9, 9):
        raise ValueError(f"partial_transpose_a expects a 9x9 matrix, got shape {rho.shape}")
    lead = rho.shape[:-2]
    return rho.reshape(lead + (3, 3, 3, 3)).swapaxes(-4, -2).reshape(rho.shape)
