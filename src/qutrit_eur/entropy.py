"""Conditional entropies of the uncertainty game, its lower bound, and negativity.

All entropies are in bits. The uncertainty game measures the spin-1 x and
z components of qutrit A while qutrit B serves as quantum memory: the
measured uncertainty S(Sx|B) + S(Sz|B) is bounded below by
log2(1/c) + S(A|B), where c is the maximum squared overlap between the
two measurement eigenbases. The measured pair is fixed, so the bound
offset log2(1/c) is a constant.

Both sides of the relation and the negativity are one record, EurSample,
of arrays with one entry per state. evolved_isotropic_columns takes the
isotropic input through the product damping channel, the one family that
sweeps and the inequality suite evaluate, and reads every spectrum off
the closed-form entries of the evolved state in the dressed frame of the
channel, as contiguous time arrays, components first (see linalg).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import require_completeness
from .linalg import require_samples, require_state_spectrum, symmetric_eigvals3
from .states_obs import require_mixing, spin1_observable

# the eigenbases of the measured pair side by side as (3, 6) columns: x, then z
_MEASURED_BASES = np.hstack([spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis])
# log2(1/c), the state-independent part of the bound: c = 1/2 for spin-1 x and z (Maassen-Uffink)
BOUND_OFFSET = 1.0

BERTA_ATOL = 1e-9
# round-off allowance of the negativity below 0 and above the two-qutrit maximum 1
_NEGATIVITY_ATOL = 1e-12


def _bits(w: np.ndarray) -> np.ndarray:
    """-sum(w * log2(w)) over the component axis of (..., n, T) eigenvalues, with 0*log(0) = 0.

    Eigenvalues in [-1e-10, 0) are round-off and count as zero; the
    callers have already rejected anything more negative.
    """
    safe = np.where(w > 0.0, w, 1.0)
    return -np.sum(safe * np.log2(safe), axis=-2)


class EurSample(NamedTuple):
    """Both sides of the uncertainty relation and the negativity: arrays, one entry per state."""

    u_l: np.ndarray
    u_b: np.ndarray
    s_xb: np.ndarray
    s_zb: np.ndarray
    negativity: np.ndarray


def _checked_columns(w_ab, w_b, w_xz, w_pt, ts) -> EurSample:
    """EurSample from the (n, T) spectra of rho_AB, rho_B, the two measured states (2, 9, T) and the partial transpose.

    Every spectrum of a state is checked on the way (eigenvalue floor,
    unit trace), then u_l >= u_b - 1e-9, then the raw negativity
    (||rho^T_A||_1 - 1) / 2: its trace norm lies in [1, 3] for every
    two-qutrit state, so a value more than 1e-12 below 0 or above 1
    signals a broken input rather than round-off. The negativity comes
    back clamped to [0, 1].
    """
    for w, name in (w_ab, "rho_ab"), (w_b, "rho_b"), (w_xz[0], "Sx-measured state"), (w_xz[1], "Sz-measured state"):
        require_state_spectrum(w, ts, name)
    s_b = _bits(w_b)
    s_xb, s_zb = _bits(w_xz) - s_b
    u_l = s_xb + s_zb
    u_b = BOUND_OFFSET + (_bits(w_ab) - s_b)
    require_samples(
        u_l >= u_b - BERTA_ATOL, ts,
        lambda i: f"uncertainty sum {float(u_l[i])!r} below its lower bound {float(u_b[i])!r}",
    )
    raw = (np.sum(np.abs(w_pt), axis=0) - 1.0) / 2.0
    require_samples(
        raw >= -_NEGATIVITY_ATOL, ts,
        lambda i: f"negativity {raw[i]:.3e} below round-off floor; invalid state",
    )
    require_samples(
        raw <= 1.0 + _NEGATIVITY_ATOL, ts,
        lambda i: f"negativity 1 + {raw[i] - 1.0:.3e} above the two-qutrit maximum 1; invalid state",
    )
    return EurSample(u_l=u_l, u_b=u_b, s_xb=s_xb, s_zb=s_zb, negativity=np.clip(raw, 0.0, 1.0))


# the off-diagonal (a, b) of the 3x3 population table, and the pairs i < j
# whose coherence couples |ij> and |ji> in the partial transpose
_OFF_ROWS, _OFF_COLS = np.nonzero(~np.eye(3, dtype=bool))
_PAIR_ROWS, _PAIR_COLS = np.triu_indices(3, 1)
_DIAG = np.arange(3)


def evolved_isotropic_columns(g_plus, g_minus, k, frame, ts) -> EurSample:
    """EurSample of the isotropic state of mixing k through the product damping channel, in closed form.

    The isotropic input is invariant under O (x) O, and in the dressed
    frame O the local map is Phi(X) = K1 X K1 + (W+^2 X_++ + W-^2 X_--) |g><g|,
    K1 = diag(g), g = (G+, G-, 1). The evolved state has the populations
    D[a, b] = (1-k)/9 n_a n_b + k/3 (P^T P)[a, b], P[i, a] being the
    populations of Phi(|i><i|) and n = Phi(I) their column sums, and its
    only coherences are C[i, j] = (k/3) g_i^2 g_j^2 between |ii> and |jj>.
    So rho_AB is the 3x3 sector {|ii>} plus the six D[a, b], a != b; rho_B
    the column sums of D; the partial transpose the three D[a, a] plus the
    2x2 sectors {|ij>, |ji>} of eigenvalues D_ij +- C_ij (input and map are
    the same on A and B, so D is symmetric); and each measured state three
    3x3 blocks diag(sum_a u_a^2 D[a, b]) + (u u^T) o C along u = O^T v. A z
    vector u = O^T e_j has u_ground u_excited = 0, so its block is
    [[d0, c], [c, d1]] (+) [d2], c = u0 u1 C[0, 1], of eigenvalues
    (d0 + d1)/2 +- hypot((d0 - d1)/2, c) and d2. The {|ii>} sector and the
    three x blocks, four 3x3 matrices per time, go to one symmetric_eigvals3
    call, which names the first t where a matrix is not done at its sweep
    cap. No 9x9 state is formed, and every entry is a time array.

    g_plus and g_minus are (T,) arrays, one entry per time of ts, k a
    scalar or one per time, frame one (3, 3) O or a stack of one or T of
    them. Any other length of g_plus, g_minus, a per-time k or the frame
    stack is a ValueError naming it and the length of ts. k is checked by
    require_mixing, which names the first failing t when k is given per
    time. Completeness is checked by channel.require_completeness, the
    deviation max|sum K^dag K - I| of the map; W = sqrt(max(0, 1 - G^2))
    clamps to 0, so any |G| > 1 fails it. A frame entry outside [-1, 1],
    which no orthogonal O has, names the first t of that frame. The other
    checks are those of _checked_columns; each names the first failing t.
    """
    per_time = {"g_plus": g_plus, "g_minus": g_minus}
    if np.ndim(k):
        per_time["k"] = k
    for name, column in per_time.items():
        if np.shape(column) != np.shape(ts):
            raise ValueError(
                f"{name} must hold one entry per time: got shape {np.shape(column)} for ts of shape {np.shape(ts)}"
            )
    if np.shape(frame) not in {(3, 3), (1, 3, 3), (len(ts), 3, 3)}:
        raise ValueError(
            f"frame must be one (3, 3) frame or a stack of 1 or one per time: got shape {np.shape(frame)} for ts of shape {np.shape(ts)}"
        )
    k = require_mixing(k, ts)
    require_completeness(g_plus, g_minus, ts)
    frames = np.reshape(frame, (-1, 3, 3))
    in_range = np.broadcast_to((np.abs(frames) <= 1.0).all(axis=(1, 2)), np.shape(ts))
    require_samples(in_range, ts, lambda i: "frame has an entry outside [-1, 1]; not an orthogonal frame")
    p, m, mix, pure = g_plus * g_plus, g_minus * g_minus, (1.0 - k) / 9.0, k / 3.0
    # P[i, a], the populations of Phi(|i><i|), has five nonzeros: P[0, 0] = G+^2 and
    # P[1, 1] = G-^2 kept, P[0, 2] = W+^2 and P[1, 2] = W-^2 fed to ground, P[2, 2] = 1
    fed_plus, fed_minus = np.maximum(0.0, 1.0 - p), np.maximum(0.0, 1.0 - m)
    n = np.stack([p, m, fed_plus + fed_minus + 1.0])
    # D = (1-k)/9 n n^T + k/3 P^T P, from the four distinct nonzero entries of P^T P
    pops = (mix * n)[:, None] * n
    pops[_DIAG, _DIAG] += pure * np.stack([p * p, m * m, fed_plus * fed_plus + fed_minus * fed_minus + 1.0])
    cross = pure * np.stack([p * fed_plus, m * fed_minus])
    pops[:2, 2] += cross
    pops[2, :2] += cross
    # D and C on the pairs (0, 1), (0, 2), (1, 2), the off-diagonal order of symmetric_eigvals3
    pair_pops, pair_coh = pops[_PAIR_ROWS, _PAIR_COLS], np.stack([pure * p * m, pure * p, pure * m])
    pop_diag = pops[_DIAG, _DIAG]
    w_pt = np.concatenate([pop_diag, pair_pops + pair_coh, pair_pops - pair_coh])
    # the measured vectors u = O^T v as columns u[a, v], (3, 6, 1 or T): three x, then three z
    u = np.ascontiguousarray((_MEASURED_BASES.T @ frames).T)
    # diags[b, v] = sum_a u_a^2 D[a, b], summed in place: an einsum added 0.1 MiB of peak RSS
    diags = u[0] * u[0] * pops[0, :, None]
    for a in (1, 2):
        diags += u[a] * u[a] * pops[a, :, None]
    # one eigensolve for the {|ii>} sector of rho_AB and the three x blocks, (3, 4, T)
    x_off = u[_PAIR_ROWS, :3] * u[_PAIR_COLS, :3] * pair_coh[:, None]
    w = symmetric_eigvals3(
        np.concatenate([pop_diag[:, None], diags[:, :3]], axis=1),
        np.concatenate([pair_coh[:, None], x_off], axis=1),
        ts, "rho_AB sector or Sx-measured block",
    )
    w_ab = np.concatenate([w[:, 0], pops[_OFF_ROWS, _OFF_COLS]])
    # a z vector is a row of O, whose ground entry times each excited one is 0:
    # its block is [[d0, c], [c, d1]] (+) [d2]
    d0, d1, d2 = diags[:, 3:]
    c = u[0, 3:] * u[1, 3:] * pair_coh[0]
    mid, radius = (d0 + d1) / 2.0, np.hypot((d0 - d1) / 2.0, c)
    w_xz = np.stack([w[:, 1:].reshape(9, len(p)), np.concatenate([mid - radius, mid + radius, d2])])
    return _checked_columns(w_ab, pops.sum(axis=0), w_xz, w_pt, ts)
