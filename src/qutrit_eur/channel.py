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
lam < 2*gamma (strong-coupling, non-Markovian regime). The channel is the
three-operator Kraus map assembled from the two branch amplitudes.

Basis convention: computational index 0 and 1 are the two excited levels,
index 2 is the ground level. Rates are in units of the bare decay rate
gamma, times in units of 1/gamma.

The kernels work on a time axis: ``dressed_amplitudes`` gives both branch
amplitudes of a whole block of times with the real orthogonal frame O
that maps the dressed levels (plus branch, minus branch, ground) to
computational indices, and ``dressed_kraus`` adds the Kraus tensor in
that basis, five nonzero entries per time. The sweep and the inequality
suite need only the amplitudes and O: the evolved isotropic state is
closed form in them (entropy.evolved_isotropic_columns), so no state is
evolved on their path. Where a state is evolved, it is by the definition
itself, the Kraus sum sum_i K_i rho K_i^dagger as one einsum. The CPTP
suite rotates each of its arbitrary inputs once, O^T rho O, and applies
the dressed tensor itself; trace and spectrum do not depend on the
frame. The parameters broadcast against the times: a sweep passes one
ChannelParams for its whole grid, a batch of independent draws one per
time. Their rates and mixing amplitudes come from one array derivation
over the field columns, in one numpy pass for a whole batch; one
ChannelParams, and derive_params, are its one-element case.
``decoherence_factors`` and its RK4 oracle ``decoherence_factors_ode``
take the parameters the same way and return both branch amplitudes
(G_plus, G_minus) at every time. The times are checked once, with the
parameters: one-dimensional, finite and nonnegative. ``kraus_set``
rotates the T = 1 dressed tensor into the real (3, 3, 3) computational
triple O K O^T. ``apply_channel`` applies any complete (3, 3, 3) triple
as the T = 1 case of that sum, and ``apply_product_channel`` takes the
same sum on qutrit A and then on qutrit B of a 9x9 state.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import as_inexact, require_density_matrix, require_samples

COMPLETENESS_ATOL = 1e-10
# computational indices of (excited 1, excited 2, ground) per basis convention
LEVEL_ORDERS = {"kraus-order": (0, 1, 2), "ground-first": (1, 2, 0)}
_REAL_SCALARS = (int, float, np.integer, np.floating)


def require_real_fields(obj, *names: str) -> None:
    """Raise ValueError naming the first of obj's fields that is not a real scalar.

    Python and numpy floats and integers pass. A string, None, a complex
    number or an array (even one of length 1) is rejected before any
    range check compares it, and so is a Fraction or Decimal, which
    numpy would carry as an object array.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, _REAL_SCALARS):
            raise ValueError(f"{name} must be a real number (an int or a float), got {value!r}")


@dataclass(frozen=True)
class ChannelParams:
    """Physical inputs: decay rates of the two excited levels, SGI alignment, spectral width."""

    gamma1: float
    gamma2: float
    theta: float
    lam: float

    def __post_init__(self):
        require_real_fields(self, "gamma1", "gamma2", "theta", "lam")
        if not 0 < self.gamma1 < math.inf:
            raise ValueError(f"gamma1 must be positive and finite, got {self.gamma1}")
        if not 0 < self.gamma2 < math.inf:
            raise ValueError(f"gamma2 must be positive and finite, got {self.gamma2}")
        if not abs(self.theta) <= 1:
            raise ValueError(f"theta must lie in [-1, 1], got {self.theta}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class DerivedParams:
    """Dressed-branch rates and mixing amplitudes derived from ChannelParams.

    q is the splitting of the decay-matrix eigenvalues, gamma_plus/gamma_minus
    the branch rates (their sum equals gamma1 + gamma2), and (a, b) the
    orthonormal mixing amplitudes of the dressed basis (a**2 + b**2 = 1).
    """

    q: float
    gamma_plus: float
    gamma_minus: float
    a: float
    b: float


def _derive(gamma1: np.ndarray, gamma2: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """q, gamma_plus, gamma_minus, a, b of derive_params, elementwise over float arrays of the fields.

    A gamma_plus beyond the float range is a SampleError naming the gammas
    of the first such element.
    """
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
    half = np.arctan2(diff, 2.0 * cross) / 2.0
    # the determinant over gamma_plus: (gamma1 + gamma2 - q)/2 cancels when
    # one rate dwarfs the other, and can even come out negative; hi/gamma_plus
    # lies in [1/2, 1]
    gamma_minus = lo * (hi / gamma_plus) * ((1.0 - theta) * (1.0 + theta))
    return q, gamma_plus, gamma_minus, np.cos(math.pi / 4.0 - half), np.cos(math.pi / 4.0 + half)


def _field_columns(params: Sequence[ChannelParams]) -> np.ndarray:
    """The (4, N) float columns gamma1, gamma2, theta, lam of a sequence of ChannelParams."""
    return np.array([(p.gamma1, p.gamma2, p.theta, p.lam) for p in params], dtype=float).reshape(-1, 4).T


def derive_params(p: ChannelParams) -> DerivedParams:
    """Dressed rates gamma_+- = (gamma1 + gamma2 +- q)/2 with q set by the SGI cross coupling.

    (a, b) = (cos(pi/4 - half), cos(pi/4 + half)), half = atan2(gamma1 - gamma2, 2c)/2,
    is the nonnegative plus-branch eigenvector of the decay matrix
    [[gamma1, c], [c, gamma2]], c = sqrt(gamma1)*sqrt(gamma2)*|theta|: a = b at q = 0.
    A small b (or a) is the cosine of an argument near pi/2, whose rounding
    leaves an absolute error of about 1e-16, so below that it keeps no
    relative digits. No intermediate exceeds gamma_plus, so both rates are
    finite whenever gamma_plus is; a gamma_plus beyond the float range
    raises ValueError naming the gammas. This is the one-element case of
    the array derivation that every channel path uses.
    """
    gamma1, gamma2, theta, _ = _field_columns([p])
    return DerivedParams(*(float(column[0]) for column in _derive(gamma1, gamma2, theta)))


def _g_closed(lam, rate, ts: np.ndarray) -> np.ndarray:
    """Closed-form branch amplitude G(t), elementwise over broadcast lam, rate and ts.

    G = exp(-lam*t/2) * [cosh(d*t/2) + (lam/d)*sinh(d*t/2)], d = sqrt(lam*(lam - 2*rate)),
    is evaluated in every regime as exp((d - lam)/2 * t) * (1 + m/2 - (lam/2) * m/d),
    m = expm1(-d*t), with m/d = -t at d = 0 (critical damping). d is formed
    as sqrt(lam) * sqrt(lam - 2*rate), taken as complex, which does not
    underflow for tiny lam as the product lam*(lam - 2*rate) does. The
    exponent's real part is -Re(lam*rate/(d + lam)): never positive, and no
    cancellation between d and lam. Its imaginary part is Im(d)/2, the
    half-phase of m, so the imaginary parts cancel at any phase. The times
    come checked from _channel_inputs. A width so large (about 9e307) that
    d + lam overflows gives a ValueError naming the first failing t; that
    overflow bounds the accepted widths.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sqrt(np.asarray(lam, dtype=complex)) * np.sqrt(np.asarray(lam - 2.0 * rate, dtype=complex))
        # Re(lam*rate/(d + lam)) in factors that cannot underflow: lam/w and
        # the cosine (d.real + lam)/w both lie in (0, 1]
        w = np.abs(d + lam)
        exponent = 0.5j * d.imag - lam / w * rate * ((d.real + lam) / w)
        m = np.expm1(-d * ts)
        val = np.exp(exponent * ts) * (1.0 + m / 2.0 - lam / 2.0 * np.where(d == 0, -ts, m / d))
    require_samples(
        np.isfinite(val.real) & (np.abs(val.imag) <= 1e-12), ts,
        lambda i: f"branch amplitude not finite and real: {complex(val[i])!r} for "
                  f"lam={float(np.broadcast_to(lam, ts.shape)[i])!r} "
                  f"(branch rate {float(np.broadcast_to(rate, ts.shape)[i])!r})",
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


def _channel_inputs(p: ChannelParams | Sequence[ChannelParams], ts) -> tuple:
    """The checked times, then lam, gamma_plus, gamma_minus, a, b: floats for one ChannelParams, arrays for a sequence.

    ts must be one-dimensional, with every time finite and nonnegative; a
    sequence p holds one ChannelParams per time. Anything else is a
    ValueError naming the shape, the first failing t, or both lengths.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"ts must be a one-dimensional array of times, got shape {ts.shape}")
    require_samples(
        (ts >= 0) & (ts < math.inf), ts, lambda i: f"t must be finite and nonnegative, got {float(ts[i])!r}"
    )
    single = isinstance(p, ChannelParams)
    if not single and len(p) != len(ts):
        raise ValueError(f"params must be one ChannelParams or one per time: got {len(p)} params for {len(ts)} times")
    gamma1, gamma2, theta, lam = _field_columns([p] if single else p)
    columns = (lam, *_derive(gamma1, gamma2, theta)[1:])
    return (ts, *(column[0] for column in columns)) if single else (ts, *columns)


def decoherence_factors(p: ChannelParams | Sequence[ChannelParams], ts) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form branch amplitudes (G_plus, G_minus) at every time of ts, p as for dressed_kraus."""
    return dressed_amplitudes(p, ts)[1:]


def decoherence_factors_ode(p: ChannelParams | Sequence[ChannelParams], ts) -> tuple[np.ndarray, np.ndarray]:
    """RK4 oracle amplitudes (G_plus, G_minus) at every time of ts; independent of the closed form."""
    ts, lam, rate_plus, rate_minus, _, _ = _channel_inputs(p, ts)
    return _g_rk4(lam, rate_plus, ts), _g_rk4(lam, rate_minus, ts)


def require_completeness(dev: np.ndarray, ts=None) -> np.ndarray:
    """Check per-time completeness deviations max|sum K^dag K - I| against 1e-10 and return them."""
    require_samples(
        dev <= COMPLETENESS_ATOL, ts,
        lambda i: f"Kraus completeness violated: max|sum K^dag K - I| = {dev[i]:.3e}",
    )
    return dev


def require_complete(kraus: np.ndarray, ts=None) -> np.ndarray:
    """Check sum_i K_i^dagger K_i = I for every time of a (T, 3, 3, 3) Kraus tensor.

    Returns the deviation max|sum K^dag K - I| of every time.
    """
    acc = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=1)
    return require_completeness(np.abs(acc - np.eye(3)).max(axis=(-2, -1)), ts)


# (operator, row, column) of the five nonzero entries of the dressed Kraus
# tensor: K_1 = diag(G+, G-, 1), K_2 = W+ |g><+|, K_3 = W- |g><-|
_DRESSED_OPS, _DRESSED_ROWS, _DRESSED_COLS = np.array(
    [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 2, 0), (2, 2, 1)]
).T


def dressed_frame(a, b, levels: tuple[int, int, int] = LEVEL_ORDERS["kraus-order"]) -> np.ndarray:
    """The real orthogonal O whose columns are the dressed levels in computational indices.

    Column 0 is the plus branch (a, -b) and column 1 the minus branch
    (b, a) over (excited 1, excited 2); column 2 is the ground level.
    levels gives the computational indices of (excited 1, excited 2,
    ground), so a basis convention is a placement of these entries. Floats
    give one (3, 3) frame, arrays a (T, 3, 3) stack.
    """
    e1, e2, g = levels
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    frame = np.zeros(a.shape + (3, 3))
    frame[..., e1, 0], frame[..., e2, 0] = a, -b
    frame[..., e1, 1], frame[..., e2, 1] = b, a
    frame[..., g, 2] = 1.0
    return frame


def dressed_amplitudes(
    p: ChannelParams | Sequence[ChannelParams],
    ts: np.ndarray,
    levels: tuple[int, int, int] = LEVEL_ORDERS["kraus-order"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame O of dressed_frame and both branch amplitudes G_plus(t), G_minus(t): dressed_kraus without its tensor.

    p is one ChannelParams for the whole axis or a sequence with one per
    time; _channel_inputs checks p and ts. The frame is (3, 3), or
    (T, 3, 3) for a sequence.
    """
    ts, lam, rate_plus, rate_minus, a, b = _channel_inputs(p, ts)
    return dressed_frame(a, b, levels), _g_closed(lam, rate_plus, ts), _g_closed(lam, rate_minus, ts)


def dressed_kraus(
    p: ChannelParams | Sequence[ChannelParams],
    ts: np.ndarray,
    levels: tuple[int, int, int] = LEVEL_ORDERS["kraus-order"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kraus tensor in the dressed basis at every time of ts, its frame and both branch amplitudes.

    In the basis (plus branch, minus branch, ground) K_1 = diag(G+, G-, 1)
    damps each branch by its own amplitude and K_2 = W+|g><+|,
    K_3 = W-|g><-| feed the decayed population W = sqrt(1 - G^2) of each
    branch into the ground level: five nonzero entries per time, and
    sum K^dag K = I holds entry by entry. p and ts are as for
    dressed_amplitudes. Returns the real (T, 3, 3, 3) tensor, then the
    frame and the amplitudes of dressed_amplitudes.
    """
    frame, g_plus, g_minus = dressed_amplitudes(p, ts, levels)
    w_plus, w_minus = (np.sqrt(np.maximum(0.0, 1.0 - g * g)) for g in (g_plus, g_minus))
    dressed = np.zeros((len(g_plus), 3, 3, 3))
    dressed[:, _DRESSED_OPS, _DRESSED_ROWS, _DRESSED_COLS] = np.stack(
        np.broadcast_arrays(g_plus, g_minus, 1.0, w_plus, w_minus), axis=-1
    )
    return dressed, frame, g_plus, g_minus


def kraus_set(p: ChannelParams, t: float) -> np.ndarray:
    """Real (3, 3, 3) Kraus triple O K(t) O^T at time t in computational indices, checked for completeness.

    K_1 carries G+ a^2 + G- b^2 and (G- - G+) a b on the excited levels,
    K_2 and K_3 the ground rows W+ (a, -b) and W- (b, a).
    """
    ts = np.array([t], dtype=float)
    dressed, frame, _, _ = dressed_kraus(p, ts)
    # one einsum, not O @ K @ O^T: a fused multiply-add would leave round-off
    # of 1e-17 where the rotation cancels to an exact 0
    kraus = np.einsum("ij,kjl,ml->kim", frame, dressed[0], frame)
    require_complete(kraus[None], ts)
    return kraus


def _kraus_sum(rho: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_i K_i rho K_i^dagger, unchecked: a (T, 3, 3) stack, or one broadcast 3x3 state, through a (T, 3, 3, 3) tensor.

    One (3, 3, 3) triple on one 3x3 state is the case without a time axis.
    """
    return np.einsum("...iab,...bc,...idc->...ad", kraus, rho, kraus.conj())


def _checked_kraus(kraus) -> np.ndarray:
    """A (3, 3, 3) Kraus triple, real or complex, checked for completeness."""
    kraus = as_inexact(kraus)
    if kraus.shape != (3, 3, 3):
        raise ValueError(f"kraus must be a (3, 3, 3) array of three 3x3 operators, got shape {kraus.shape}")
    require_complete(kraus[None])
    return kraus


def apply_channel(rho: np.ndarray, kraus) -> np.ndarray:
    """Evolve a single-qutrit density matrix: rho -> sum_i K_i rho K_i^dagger."""
    return _kraus_sum(require_density_matrix(rho, 3), _checked_kraus(kraus))


def apply_product_channel(rho_ab: np.ndarray, kraus) -> np.ndarray:
    """Evolve a two-qutrit state with the same local channel on each side.

    Both qutrits couple to independent, identical reservoirs, so the joint
    map is the nine-term sum over K_i (x) K_j. On the (3, 3, 3, 3) view
    rho[a, b, A, B] it is the Kraus sum on qutrit A, then on qutrit B.
    """
    rho_ab = require_density_matrix(rho_ab, 9, name="rho_ab")
    kraus = _checked_kraus(kraus)
    conj = kraus.conj()
    on_a = np.einsum("iac,cxdy,ibd->axby", kraus, rho_ab.reshape(3, 3, 3, 3), conj)
    return np.einsum("ixc,acbd,iyd->axby", kraus, on_a, conj).reshape(9, 9)
