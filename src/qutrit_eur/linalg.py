"""Checks on stacks of states, their spectra and real inputs; batched 3x3 eigenvalues.

A stack of matrices carries the sample axis first, (T, n, n). All else
has the time axis last and contiguous, one time array per component: the
eigen kernels take and return (3, ..., T), and require_state_spectrum
checks (n, T) spectra, so every reduction runs over the short leading
axis. The ``require_*`` checks name the first failing sample. Neither
symmetric_eigvals3 (Jacobi rotations) nor hermitian_eigvals3, which
reduces Hermitian 3x3 matrices to it, makes a LAPACK call.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# the cap on the sweeps of symmetric_eigvals3; no matrix of the preset sweeps, the
# long ground-first sweep or 20 seeds of the inequality suite needs more than 4
JACOBI_SWEEPS = 8
# the largest |entry| the stack checks and 3x3 kernels take: nothing they form of such entries overflows
MAX_ENTRY = 2.0**1020
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


def _require_in_range(top: np.ndarray, ts, name: str) -> None:
    """SampleError at the first sample whose largest |entry|, top[i], is not finite (NaN too) or above MAX_ENTRY."""
    require_samples(
        top <= MAX_ENTRY, ts,
        lambda i: f"{name} has an entry that is not finite" if not np.isfinite(top[i])
        else f"{name} has an entry of magnitude {top[i]:.3e}, above 2**1020",
    )


def require_hermitian_stack(m: np.ndarray, ts=None, name: str = "matrix") -> np.ndarray:
    """Check a (T, n, n) stack's entries (_require_in_range), then Hermiticity within 1e-12; return its Hermitian part."""
    _require_in_range(np.abs(np.ascontiguousarray(m, dtype=complex).view(float)).max(axis=(1, 2)), ts, name)
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    require_samples(
        dev <= HERMITIAN_ATOL, ts,
        lambda i: f"{name} is not Hermitian: max|M - M^dagger| = {dev[i]:.3e} > {HERMITIAN_ATOL:.0e}",
    )
    return hermitian_part(m)


def require_state_spectrum(w: np.ndarray, ts=None, name: str = "rho") -> None:
    """Check the (n, T) eigenvalues of states, one column per sample: none below -1e-10, and unit sum.

    Eigenvalues in [-1e-10, 0) are round-off from channel application;
    anything more negative is not a state.
    """
    w_min = w.min(axis=0)
    require_samples(
        w_min >= EIGENVALUE_FLOOR, ts,
        lambda i: f"{name} has negative eigenvalue {w_min[i]:.3e}; not a state",
    )
    tr = w.sum(axis=0)
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
    the first axis of two (3, ..., T) arrays; the eigenvalues come back in
    that shape. Each sweep rotates the planes (0, 1), (0, 2), (1, 2) of all
    matrices at once. A matrix is done when every |apq| <= eps max(|app|, |aqq|);
    dropping those entries moves no eigenvalue by more than sqrt(6) eps ||A||.
    The rotations are orthogonal, so the result is backward stable, with no
    characteristic-polynomial cancellation (Demmel & Veselic, SIAM J.
    Matrix Anal. Appl. 13, 1204 (1992)). A matrix with an entry that fails
    _require_in_range, checked before any sweep, or not done after
    JACOBI_SWEEPS sweeps is a SampleError naming its sample (and time).
    """
    leading = tuple(range(np.ndim(diag) - 1))
    _require_in_range(np.maximum(np.abs(diag).max(axis=leading), np.abs(off).max(axis=leading)), ts, name)
    (d0, d1, d2), (a01, a02, a12) = diag, off
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
        done.all(axis=leading[:-1]), ts,
        lambda i: f"{name}: 3x3 eigensolve not converged at the cap of {JACOBI_SWEEPS} Jacobi sweeps",
    )
    return np.stack([d0, d1, d2])


def hermitian_eigvals3(m: np.ndarray, ts=None, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of a (T, 3, 3) Hermitian stack, read from its lower triangles, as (3, T), in no particular order.

    A part of a lower triangle that fails _require_in_range, as could
    overflow the eigenvalues, is a SampleError naming its sample. Each
    matrix is then scaled by the power of two that brings its largest part
    into [0.5, 1), exactly, and its eigenvalues back at the end. With
    r = hypot(|h10|, |h20|), a = h10/r and b = h20/r, the complex Givens
    rotation Q = [[a, -conj(b)], [b, conj(a)]] of levels (1, 2) sets
    h'01 = r and h'02 = 0; Q is the identity where r = 0. A diagonal phase
    then makes h'12 real, |h'12|, and leaves a real symmetric tridiagonal
    matrix of the same spectrum for symmetric_eigvals3, which names any
    sample it cannot solve.
    """
    m = np.asarray(m, dtype=complex)
    # (9, T): re h10, im h10, re h20, im h20, re h21, im h21, h00, h11, h22 of the (T, 18) floats
    parts = m.reshape(len(m), 9).view(float).T[[6, 7, 12, 13, 14, 15, 0, 8, 16]]
    top = np.abs(parts).max(axis=0)
    _require_in_range(top, ts, name)
    exponent = np.frexp(top)[1]
    parts = np.ldexp(parts, -exponent)
    d0, d1, d2 = parts[6:]
    r = np.hypot(np.hypot(parts[0], parts[1]), np.hypot(parts[2], parts[3]))
    rotate = r > 0
    # (a, b) by real division: a complex one by a subnormal r overflows
    q = parts[:4] / np.where(rotate, r, 1.0)
    a, b, h21 = np.where(rotate, q[0] + 1j * q[1], 1.0), q[2] + 1j * q[3], parts[4] + 1j * parts[5]
    # Q^dagger S Q of the (1, 2) block S: 2 Re(conj(a) b h12) moves weight
    # from d2 to d1, and h'12 is the conjugate of a b (d2 - d1) + a^2 h21 - b^2 h12
    cross = 2.0 * (a.conj() * b * h21.conj()).real
    aa, bb = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    h12 = np.abs(a * b * (d2 - d1) + a * a * h21 - b * b * h21.conj())
    diag = np.stack([d0, aa * d1 + bb * d2 + cross, bb * d1 + aa * d2 - cross])
    off = np.stack([r, np.zeros_like(r), h12])
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
