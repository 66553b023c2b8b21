"""Dense linear algebra for 3x3 and 9x9 Hermitian problems.

Matrices are plain numpy arrays, real or complex: every function keeps
the dtype it is given (integers become float64), so a real state stays
in real arithmetic and a complex one in complex. Composite two-qutrit indices
follow r = 3*a + b, with subsystem A the left (most significant) tensor
factor; every composite operation in this package assumes that layout.
A stack of matrices carries the sample axis first, (T, n, n); the
``require_*`` checks on stacks name the first failing sample, and
require_state_spectrum checks eigenvalue rows however they were found.
symmetric_eigvals3 finds those of batches of real symmetric 3x3 matrices
by Jacobi rotations, with no LAPACK call.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# the cap on the sweeps of symmetric_eigvals3; no matrix of the preset sweeps, the
# long ground-first sweep or 20 seeds of the inequality suite needs more than 4
JACOBI_SWEEPS = 8
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).smallest_subnormal


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


def require_density_stack(rho: np.ndarray, ts=None, name: str = "rho") -> np.ndarray:
    """Validate a (T, n, n) stack of density matrices and return its Hermitian part."""
    rho = require_hermitian_stack(rho, ts, name)
    require_state_spectrum(np.linalg.eigvalsh(rho), ts, name)
    return rho


def _rotation(app, aqq, apq):
    """The Jacobi rotation of the (p, q) plane that zeroes apq: the new app and aqq, then c and s.

    t = tan of the angle is the root of t^2 + t (aqq - app)/apq = 1 of
    modulus at most 1, and hypot keeps 4 apq^2 in range. Its denominator
    is 0 only where apq = 0 too; raised to the least subnormal, which
    changes no other value, it gives t = 0 there with no division by zero.
    The third row r then takes arp -> c arp - s arq and arq -> s arp + c arq.
    """
    diff, twice = aqq - app, 2.0 * apq
    t = twice / np.copysign(np.maximum(np.abs(diff) + np.hypot(diff, twice), _TINY), diff)
    c = 1.0 / np.sqrt(1.0 + t * t)
    shift = t * apq
    return app - shift, aqq + shift, c, t * c


def symmetric_eigvals3(diag, off, ts=None, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of real symmetric 3x3 matrices, in no particular order, by cyclic Jacobi sweeps.

    diag holds the entries (a00, a11, a22) and off (a01, a02, a12) along
    the last axis of two arrays of one shape, the sample axis first; the
    eigenvalues come back in that shape, three along the last axis. Each
    sweep rotates the planes (0, 1), (0, 2), (1, 2) of all matrices at
    once. A matrix is done when every |apq| <= eps max(|app|, |aqq|);
    dropping those entries moves no eigenvalue by more than
    sqrt(6) eps ||A||. The rotations are orthogonal, so the result is
    backward stable, with no characteristic-polynomial cancellation
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)). A matrix not done after JACOBI_SWEEPS sweeps, a NaN entry
    included, is a SampleError naming its sample, with its time when ts
    is given.
    """
    (d0, d1, d2), (a01, a02, a12) = np.moveaxis(diag, -1, 0), np.moveaxis(off, -1, 0)
    for sweep in range(JACOBI_SWEEPS + 1):
        m0, m1, m2 = np.abs(d0), np.abs(d1), np.abs(d2)
        done = (
            (np.abs(a01) <= _EPS * np.maximum(m0, m1))
            & (np.abs(a02) <= _EPS * np.maximum(m0, m2))
            & (np.abs(a12) <= _EPS * np.maximum(m1, m2))
        )
        if sweep == JACOBI_SWEEPS or done.all():
            break
        # each rotation zeroes its pair, so the next one meets a 0 in the third row
        d0, d1, c, s = _rotation(d0, d1, a01)
        a02, a12 = c * a02 - s * a12, s * a02 + c * a12
        d0, d2, c, s = _rotation(d0, d2, a02)
        a01, a12 = -s * a12, c * a12
        d1, d2, c, s = _rotation(d1, d2, a12)
        a01, a02, a12 = c * a01, s * a01, 0.0
    require_samples(
        done.reshape(len(done), -1).all(axis=1), ts,
        lambda i: f"{name}: 3x3 eigensolve not converged at the cap of {JACOBI_SWEEPS} Jacobi sweeps",
    )
    return np.stack([d0, d1, d2], axis=-1)


def as_inexact(m) -> np.ndarray:
    """m as a float64 or complex128 array, whichever holds it."""
    m = np.asarray(m)
    return m.astype(np.result_type(m, np.float64), copy=False)


def as_real(values, name: str) -> np.ndarray:
    """values as a float64 array, or a ValueError naming name unless they are ints or floats.

    Python and numpy ints and floats pass, alone or in lists and arrays.
    A bool, a string, None or a complex number is rejected before numpy
    would read it as a number, drop its imaginary part or make it a NaN.
    So is a bool among the numbers of a list or tuple (a Python, numpy or
    0-d array bool), which numpy would read as 0 or 1; an array carries
    its dtype, so only its dtype is read.
    """
    array = np.asarray(values)
    dtype = array.dtype
    if isinstance(values, (list, tuple)) and any(
        np.asarray(v).dtype.kind == "b" for v in np.asarray(values, dtype=object).flat
    ):
        dtype = np.dtype(bool)
    if dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real (ints or floats), got dtype {dtype}")
    return array.astype(float, copy=False)


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
