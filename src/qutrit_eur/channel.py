"""Amplitude-damping channel of a V-type three-level atom in a leaky cavity.

The atom has two excited levels, each dipole-coupled to a common ground
level, radiating into a zero-temperature reservoir with a Lorentzian
spectral density of width ``lam``. Cross coupling between the two decay
channels (spontaneously generated interference, SGI) is controlled by the
alignment parameter ``theta``: 0 for perpendicular dipole moments, +-1 for
parallel/antiparallel ones.

Diagonalizing the decay matrix yields two dressed branches with rates
gamma_plus and gamma_minus. Each branch carries a scalar decoherence
amplitude G(t) obeying

    G'' + lam*G' + (lam*gamma/2)*G = 0,  G(0) = 1, G'(0) = 0,

which is monotone for lam >> gamma (Markovian regime) and oscillatory for
lam < 2*gamma (strong-coupling, non-Markovian regime). The channel is one
closed-form map of the two amplitudes (dressed_channel), the Kraus map of
K1 = diag(G+, G-, 1), W+|g><+| and W-|g><-|, W = sqrt(max(0, 1 - G^2)).

The channel speaks one basis: computational index 0 and 1 are the two
excited levels, index 2 is the ground level. Which level carries which
spin-1 eigenvalue is a choice of the measurement, so a sweep's basis
convention is a row order of the frame, applied in experiment.run_sweep.
Rates are in units of the bare decay rate gamma, times in units of 1/gamma.

The kernels work on a time axis. The parameters broadcast against the
times: a batch is one real (T, 4) array of rows (gamma1, gamma2, theta,
lam), range-checked once where it enters; one ChannelParams, which a sweep
passes for its whole grid, is the one-row case. ``dressed_branches``
derives the rates and the real orthogonal dressed frames O of the rows in
one array pass, ``_g_closed`` both branch amplitudes in one evaluation.
``dressed_amplitudes`` runs both on a block of times; a sweep derives once
and evaluates each block (``branch_amplitudes``). The evolved isotropic
state is closed form in the amplitudes and O (entropy); the CPTP suite
alone evolves states, each rotated once, O^T rho O, into
``dressed_channel``. The RK4 oracle ``decoherence_factors_ode`` takes the
parameters the same way. Times are checked once per call: ints or floats,
one-dimensional, finite and nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_real, require_samples

COMPLETENESS_ATOL = 1e-10
_REAL_SCALARS = (int, float, np.integer, np.floating)
_FIELDS = ("gamma1", "gamma2", "theta", "lam")
_FIELD_RULES = ("be positive and finite",) * 2 + ("lie in [-1, 1]", "be positive and finite")


def require_real_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass obj as a Python float, or raise ValueError naming it.

    Python and numpy floats and integers pass, but not a bool, an integer
    beyond the float range, or a finite nonzero np.longdouble that float()
    would turn into inf or 0. A string, None, a complex number or an array
    (even of length 1) is rejected before any range check compares it, and
    so is a Fraction or Decimal, which numpy would carry as an object array.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, _REAL_SCALARS) or isinstance(value, bool):
            raise ValueError(f"{name} must be a real number (an int or a float), got {value!r}")
        try:
            converted = float(value)
        except OverflowError:
            raise ValueError(f"{name} must lie in the float range, got a {value.bit_length()}-bit integer") from None
        if (math.isinf(converted) and np.isfinite(value)) or (converted == 0.0 and value != 0):
            raise ValueError(f"{name} must lie in the float range, got {value!r}")
        object.__setattr__(obj, name, converted)


def _checked_fields(p, n: int) -> np.ndarray:
    """The real (n, 4) array p as float rows (gamma1, gamma2, theta, lam), each field checked against its range."""
    fields = np.asarray(p)
    if fields.dtype.kind not in "iuf" or fields.ndim != 2 or fields.shape[1] != 4:
        raise ValueError(f"params must be one ChannelParams or a real (T, 4) array of rows (gamma1, gamma2, "
                         f"theta, lam), got an array of dtype {fields.dtype} and shape {fields.shape}")
    if len(fields) != n:
        raise ValueError(f"params must be one ChannelParams or one per time: got {len(fields)} params for {n} times")
    fields = fields.astype(float, copy=False)
    ok = (fields > 0) & (fields < math.inf)
    ok[:, 2] = np.abs(fields[:, 2]) <= 1
    j = ok.argmin(axis=1)  # the first bad field of each row
    require_samples(
        ok.all(axis=1), None, lambda i: f"{_FIELDS[j[i]]} must {_FIELD_RULES[j[i]]}, got {float(fields[i, j[i]])}"
    )
    return fields


@dataclass(frozen=True)
class ChannelParams:
    """Physical inputs: decay rates of the two excited levels, SGI alignment, spectral width."""

    gamma1: float
    gamma2: float
    theta: float
    lam: float

    def __post_init__(self):
        require_real_fields(self, *_FIELDS)
        _checked_fields(self.row(), 1)

    def row(self) -> np.ndarray:
        """The (1, 4) float row (gamma1, gamma2, theta, lam): the one-row case of a batch of field rows."""
        return np.array([[self.gamma1, self.gamma2, self.theta, self.lam]])


def _derive(fields: np.ndarray) -> tuple[np.ndarray, ...]:
    """Dressed rates gamma_+- = (gamma1 + gamma2 +- q)/2 and mixing (a, b), one per float row of fields.

    q is the splitting set by the SGI cross coupling, and (a, b) the
    nonnegative plus-branch eigenvector of the decay matrix
    [[gamma1, c], [c, gamma2]], c = sqrt(gamma1)*sqrt(gamma2)*|theta|. No
    intermediate exceeds gamma_plus, so both rates are finite whenever
    gamma_plus is; a gamma_plus beyond the float range is a SampleError
    naming the gammas of the first such row.
    """
    gamma1, gamma2, theta, _ = fields.T
    with np.errstate(over="ignore"):
        lo, hi = np.minimum(gamma1, gamma2), np.maximum(gamma1, gamma2)
        # |theta| scales c down before 2*c is formed, so 2*c overflows only
        # where gamma_plus does
        cross = np.sqrt(gamma1) * np.sqrt(gamma2) * np.abs(theta)
        diff = gamma1 - gamma2
        q = np.hypot(diff, 2.0 * cross)
        # hi + (q - |diff|)/2 = (gamma1 + gamma2 + q)/2, never below hi
        gamma_plus = hi + (q - np.abs(diff)) / 2.0
    require_samples(
        gamma_plus < math.inf, None,
        lambda i: f"branch rate gamma_plus = (gamma1 + gamma2 + q)/2 exceeds the float range for "
                  f"gamma1={float(gamma1[i])!r}, gamma2={float(gamma2[i])!r}, theta={float(theta[i])!r}",
    )
    # the plus-branch eigenvector is (cos phi, sin phi), the cosine on the
    # faster level, so a small amplitude is a sine and keeps its relative
    # digits; equal rates set a = b exactly (sin and cos of pi/4 differ by an ulp)
    phi = np.arctan2(2.0 * cross, np.abs(diff)) / 2.0
    major = np.where(diff == 0.0, math.cos(math.pi / 4.0), np.cos(phi))
    minor = np.where(diff == 0.0, math.cos(math.pi / 4.0), np.sin(phi))
    # the determinant over gamma_plus: (gamma1 + gamma2 - q)/2 cancels when
    # one rate dwarfs the other, and can even come out negative; hi/gamma_plus
    # lies in [1/2, 1]
    gamma_minus = lo * (hi / gamma_plus) * ((1.0 - theta) * (1.0 + theta))
    swap = diff < 0.0
    return gamma_plus, gamma_minus, np.where(swap, minor, major), np.where(swap, major, minor)


def _g_closed(lam, rates, ts: np.ndarray) -> np.ndarray:
    """Both branch amplitudes G(t) as one (2, T) array, over broadcast lam (1 or T), rates (2, 1 or T) and checked ts.

    G = exp(-lam*t/2) * [cosh(d*t/2) + (lam/d)*sinh(d*t/2)], d = sqrt(lam*(lam - 2*rate)),
    is evaluated in every regime as exp((d - lam)/2 * t) * (1 + m/2 - (lam/2) * m/d),
    m = expm1(-d*t), with m/d = -t at d = 0 (critical damping). d is formed
    as sqrt(lam) * sqrt(lam - 2*rate), taken as complex, which does not
    underflow for tiny lam as the product lam*(lam - 2*rate) does. The
    exponent's real part is -Re(lam*rate/(d + lam)): never positive, and no
    cancellation between d and lam. Its imaginary part is Im(d)/2, the
    half-phase of m, so the imaginary parts cancel at any phase. A value
    that is not finite and real is a ValueError naming the first failing t
    of either branch, the plus branch where both fail. A width so large
    (about 9e307) that d + lam overflows fails so; that bounds the widths.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sqrt(np.asarray(lam, dtype=complex)) * np.sqrt(np.asarray(lam - 2.0 * rates, dtype=complex))
        # Re(lam*rate/(d + lam)) in factors that cannot underflow: lam/w and
        # the cosine (d.real + lam)/w both lie in (0, 1]
        w = np.abs(d + lam)
        exponent = 0.5j * d.imag - lam / w * rates * ((d.real + lam) / w)
        m = np.expm1(-d * ts)
        val = np.exp(exponent * ts) * (1.0 + m / 2.0 - lam / 2.0 * np.where(d == 0, -ts, m / d))
    ok = np.isfinite(val.real) & (np.abs(val.imag) <= 1e-12)
    require_samples(
        ok.all(axis=0), ts,
        lambda i: f"branch amplitude not finite and real: {complex(val[ok[:, i].argmin(), i])!r} for "
                  f"lam={float(np.broadcast_to(lam, ts.shape)[i])!r} "
                  f"(branch rate {float(np.broadcast_to(rates, val.shape)[ok[:, i].argmin(), i])!r})",
    )
    return val.real


def _g_rk4(lam, rate, ts: np.ndarray) -> np.ndarray:
    """Branch amplitude by fixed-step RK4, elementwise over broadcast lam, rate and ts.

    One RK4 step of the linear system y' = A y, y = (G, G'),
    A = [[0, 1], [-lam*rate/2, -lam]], is exactly the propagator
    M(h) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24; n steps are M(h)^n,
    applied to y(0) = (1, 0) by binary powering. The step is t/n with
    n = max(1, ceil(t/h_max)), h_max = min(0.01/lam, 0.01/rate, t/1000),
    small against every timescale of the equation. Where t/1000 underflows
    to 0, the smallest subnormal stands in for it, which keeps n finite
    (at most 1000) for every finite t.
    """
    lam, rate, ts = np.broadcast_arrays(lam, rate, ts)
    t_part = np.maximum(ts / 1000.0, np.finfo(float).smallest_subnormal)
    with np.errstate(divide="ignore"):
        h_max = np.minimum(np.minimum(0.01 / lam, np.where(rate > 0, 0.01 / rate, math.inf)), t_part)
    steps = np.maximum(1.0, np.ceil(ts / h_max))
    # the powering loop runs once per bit of an int64 step count
    require_samples(
        steps <= 2.0**62, ts, lambda i: f"RK4 oracle needs {steps[i]:.3e} steps for lam={float(lam[i])!r} "
                                        f"(branch rate {float(rate[i])!r}), more than 2**62",
    )
    h = ts / steps
    ha = np.zeros(ts.shape + (2, 2))
    ha[..., 0, 1] = h
    ha[..., 1, 0] = -h * (0.5 * lam * rate)
    ha[..., 1, 1] = -h * lam
    eye = np.eye(2)
    power = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    y = np.zeros(ts.shape + (2, 1))
    y[..., 0, 0] = 1.0
    n = steps.astype(np.int64)
    while n.any():
        odd = (n & 1).astype(bool)[..., None, None]
        y = np.where(odd, power @ y, y)
        power = power @ power
        n >>= 1
    return y[..., 0, 0]


def _checked_times(ts) -> np.ndarray:
    """ts as float64, or a ValueError: a one-dimensional array of ints or floats, every time finite and nonnegative."""
    ts = as_real(ts, "ts")
    if ts.ndim != 1:
        raise ValueError(f"ts must be a one-dimensional array of times, got shape {ts.shape}")
    require_samples(
        (ts >= 0) & (ts < math.inf), ts, lambda i: f"t must be finite and nonnegative, got {float(ts[i])!r}"
    )
    return ts


def dressed_branches(p: ChannelParams | np.ndarray, n: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The widths lam (n,), the branch rates (gamma_plus, gamma_minus) as (2, n) and the dressed frames O (n, 3, 3).

    p is one ChannelParams or a real (n, 4) array of rows (gamma1, gamma2,
    theta, lam), checked by _checked_fields. O is real orthogonal: its
    columns are the plus branch (a, -b) and the minus branch (b, a) over
    (excited 1, excited 2), then the ground level.
    """
    fields = p.row() if isinstance(p, ChannelParams) else _checked_fields(p, n)
    rate_plus, rate_minus, a, b = _derive(fields)
    frame = np.zeros(a.shape + (3, 3))
    frame[:, 0, 0], frame[:, 1, 0] = a, -b
    frame[:, 0, 1], frame[:, 1, 1] = b, a
    frame[:, 2, 2] = 1.0
    return fields[:, 3], np.stack([rate_plus, rate_minus]), frame


def branch_amplitudes(lam, rates, ts) -> np.ndarray:
    """G_plus and G_minus as one (2, T) array at the times ts, checked first, of dressed_branches' lam and rates."""
    return _g_closed(lam, rates, _checked_times(ts))


def decoherence_factors_ode(p: ChannelParams | np.ndarray, ts) -> tuple[np.ndarray, np.ndarray]:
    """RK4 oracle amplitudes (G_plus, G_minus) at every time of ts; independent of the closed form."""
    ts = _checked_times(ts)
    lam, (rate_plus, rate_minus), _ = dressed_branches(p, len(ts))
    return _g_rk4(lam, rate_plus, ts), _g_rk4(lam, rate_minus, ts)


def _fed(g: np.ndarray) -> np.ndarray:
    """W = sqrt(max(0, 1 - G^2)), the amplitude a branch of amplitude G feeds into the ground level."""
    return np.sqrt(np.maximum(0.0, 1.0 - g * g))


def require_completeness(g_plus: np.ndarray, g_minus: np.ndarray, ts=None) -> np.ndarray:
    """Check the deviation max|sum K^dag K - I| of the map at every time against 1e-10 and return it.

    It is the larger of |G+-^2 + W+-^2 - 1|: round-off, or G^2 - 1 (inf if it overflows) where |G| > 1 and W clamps to 0.
    """
    with np.errstate(over="ignore"):
        dev = np.maximum(*(np.abs(g * g + _fed(g) ** 2 - 1.0) for g in (g_plus, g_minus)))
    require_samples(
        dev <= COMPLETENESS_ATOL, ts,
        lambda i: f"Kraus completeness violated: max|sum K^dag K - I| = {dev[i]:.3e}",
    )
    return dev


def dressed_amplitudes(
    p: ChannelParams | np.ndarray,
    ts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dressed frames O and both branch amplitudes G_plus(t), G_minus(t) at every time of ts.

    p is one ChannelParams for the whole axis or a (T, 4) array of field
    rows, one per time, checked with ts; O is one frame per row of p (dressed_branches).
    """
    ts = _checked_times(ts)
    lam, rates, frame = dressed_branches(p, len(ts))
    return (frame, *_g_closed(lam, rates, ts))


def dressed_channel(rho: np.ndarray, g_plus: np.ndarray, g_minus: np.ndarray) -> np.ndarray:
    """Phi(rho) = K1 rho K1 + (W+^2 rho_++ + W-^2 rho_--) |g><g|, K1 = diag(G+, G-, 1), on a (T, 3, 3) stack.

    The states are given in the dressed basis (plus branch, minus branch,
    ground), one pair of amplitudes per state. Each entry is (g_a rho_ad) g_d,
    and the ground population adds the plus branch's feed W+^2 rho_++, then
    the minus branch's: the order of the Kraus sum over K1, W+|g><+|, W-|g><-|.
    Nothing is checked: an inf or NaN entry of rho or a NaN amplitude comes
    back as inf or NaN, so its caller checks both first.
    """
    g = np.stack(np.broadcast_arrays(g_plus, g_minus, 1.0), axis=-1)
    out = g[:, :, None] * rho * g[:, None, :]
    for branch, w in enumerate((_fed(g_plus), _fed(g_minus))):
        out[:, 2, 2] += (w * rho[:, branch, branch]) * w
    return out
