"""Checks on stacks of states, their spectra and real inputs; batched 3x3 eigenvalues.

A stack of matrices carries the sample axis first, (T, n, n); the
``require_*`` checks on stacks name the first failing sample, and
require_state_spectrum checks eigenvalue rows however they were found.
symmetric_eigvals3 finds those of batches of real symmetric 3x3 matrices
by Jacobi rotations; hermitian_eigvals3 reduces complex Hermitian 3x3
matrices to that kernel by one Givens rotation. Neither makes a LAPACK
call, and nothing in the package does.
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


def _require_finite(finite: np.ndarray, ts, name: str) -> None:
    """SampleError at the first sample, along the first axis of a stack's isfinite mask, with a False flag."""
    per_sample = finite.all(axis=tuple(range(1, finite.ndim)))
    require_samples(per_sample, ts, lambda i: f"{name} has an entry that is not finite")


def require_hermitian_stack(m: np.ndarray, ts=None, name: str = "matrix") -> np.ndarray:
    """Check a (T, n, n) stack for finite entries, then Hermiticity within 1e-12; return its Hermitian part."""
    _require_finite(np.isfinite(m), ts, name)
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
    """Validate a (T, 3, 3) stack of density matrices and return its Hermitian part.

    Any other shape is a ValueError naming it; the spectra come from
    hermitian_eigvals3.
    """
    if np.ndim(rho) != 3 or np.shape(rho)[1:] != (3, 3):
        raise ValueError(f"{name} must be a (T, 3, 3) stack of density matrices, got shape {np.shape(rho)}")
    rho = require_hermitian_stack(rho, ts, name)
    require_state_spectrum(hermitian_eigvals3(rho, ts, name), ts, name)
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
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)). A
    matrix with an entry that is not finite, checked before any sweep, or
    not done after JACOBI_SWEEPS sweeps is a SampleError naming its
    sample, with its time when ts is given.
    """
    _require_finite(np.isfinite(diag) & np.isfinite(off), ts, name)
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
        done.all(axis=tuple(range(1, done.ndim))), ts,
        lambda i: f"{name}: 3x3 eigensolve not converged at the cap of {JACOBI_SWEEPS} Jacobi sweeps",
    )
    return np.stack([d0, d1, d2], axis=-1)


def hermitian_eigvals3(m: np.ndarray, ts=None, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of a (T, 3, 3) Hermitian stack, read from its lower triangles, in no particular order.

    Each matrix is first scaled by the power of two that brings its
    largest entry part into [0.5, 1), exactly, so no step below works on
    subnormal or overflowing numbers; the eigenvalues are scaled back at
    the end. With r = hypot(|h10|, |h20|), a = h10/r and b = h20/r, the
    complex Givens rotation Q = [[a, -conj(b)], [b, conj(a)]] of levels
    (1, 2) sets h'01 = r and h'02 = 0; Q is the identity where r = 0. A
    diagonal phase then makes h'12 real, |h'12|, and leaves a real
    symmetric tridiagonal matrix of the same spectrum for
    symmetric_eigvals3, which names any sample it cannot solve. An entry
    of a lower triangle that is not finite is a SampleError naming its
    sample, before any arithmetic.
    """
    m = np.asarray(m, dtype=complex)
    lower = np.take(m.reshape(len(m), 9), [3, 6, 7], axis=1)
    # per matrix (re h10, im h10, re h20, im h20, re h21, im h21, h00, h11, h22)
    parts = np.concatenate([lower.view(float), np.diagonal(m, axis1=-2, axis2=-1).real], axis=1)
    _require_finite(np.isfinite(parts), ts, name)
    # the max along axis 0 of a C-ordered (9, T) copy: along the short axis 1 it takes 3x as long
    exponent = np.frexp(np.abs(parts.T, order="C").max(axis=0))[1][:, None]
    parts = np.ldexp(parts, -exponent)
    d0, d1, d2 = parts[:, 6:].T
    r = np.hypot(np.hypot(*parts[:, :2].T), np.hypot(*parts[:, 2:4].T))
    rotate = r > 0
    # (a, b) by real division: a complex one by a subnormal r overflows
    a, b = (parts[:, :4] / np.where(rotate, r, 1.0)[:, None]).view(complex).T
    a = np.where(rotate, a, 1.0)
    h21 = parts[:, 4:6].view(complex)[:, 0]
    # Q^dagger S Q of the (1, 2) block S: 2 Re(conj(a) b h12) moves weight
    # from d2 to d1, and h'12 is the conjugate of a b (d2 - d1) + a^2 h21 - b^2 h12
    cross = 2.0 * (a.conj() * b * h21.conj()).real
    aa, bb = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    h12 = np.abs(a * b * (d2 - d1) + a * a * h21 - b * b * h21.conj())
    diag = np.stack([d0, aa * d1 + bb * d2 + cross, bb * d1 + aa * d2 - cross], axis=-1)
    off = np.stack([r, np.zeros_like(r), h12], axis=-1)
    return np.ldexp(symmetric_eigvals3(diag, off, ts, name), exponent)


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
