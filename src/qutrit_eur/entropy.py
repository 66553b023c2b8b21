"""Conditional entropies of the uncertainty game, its lower bound, and negativity.

All entropies are in bits. The uncertainty game measures the spin-1 x and
z components of qutrit A while qutrit B serves as quantum memory: the
measured uncertainty S(Sx|B) + S(Sz|B) is bounded below by
log2(1/c) + S(A|B), where c is the maximum squared overlap between the
two measurement eigenbases. The measured pair is fixed, so c and the
bound offset log2(1/c) are derived from it once, here.

Both sides of the relation and the negativity are one record, EurSample,
of arrays with one entry per state. evolved_isotropic_columns
takes the isotropic input through the product damping channel, the one
family that sweeps and the inequality suite evaluate, and reads every
spectrum off the closed-form entries of the evolved state in the dressed
frame O of the channel; the x and z eigenvectors v are measured there as
u = O^T v. The z eigenvectors are the computational basis, so each u is a
row of O, which never mixes the ground level with the excited ones: the
z blocks are 2x2 blocks plus one diagonal entry, read off in closed form,
and only the x blocks and one 3x3 sector of rho_AB need an eigensolve, the
batched Jacobi sweeps of linalg.symmetric_eigvals3 rather than LAPACK.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import require_completeness
from .linalg import require_samples, require_state_spectrum, symmetric_eigvals3
from .states_obs import max_overlap_c, require_mixing, spin1_observable

# the measured pair, and its two eigenbases side by side as (3, 6) columns
_MEASURED = (spin1_observable("x"), spin1_observable("z"))
_MEASURED_BASES = np.hstack([obs.eigenbasis for obs in _MEASURED])
# log2(1/c) of the measured pair, the state-independent part of the bound
BOUND_OFFSET = float(np.log2(1.0 / max_overlap_c(*_MEASURED)))

BERTA_ATOL = 1e-9
# round-off allowance of the negativity below 0 and above the two-qutrit maximum 1
_NEGATIVITY_ATOL = 1e-12


def _bits(w: np.ndarray) -> np.ndarray:
    """-sum(w * log2(w)) over the last axis, with 0*log(0) = 0.

    Eigenvalues in [-1e-10, 0) are round-off and count as zero; the
    callers have already rejected anything more negative.
    """
    safe = np.where(w > 0.0, w, 1.0)
    return -np.sum(safe * np.log2(safe), axis=-1)


class EurSample(NamedTuple):
    """Both sides of the uncertainty relation and the negativity: arrays, one entry per state."""

    u_l: np.ndarray
    u_b: np.ndarray
    s_xb: np.ndarray
    s_zb: np.ndarray
    negativity: np.ndarray


def _checked_columns(w_ab, w_b, w_xz, w_pt, ts) -> EurSample:
    """EurSample from the (T, n) spectra of rho_AB, rho_B, the two measured states (T, 2, 9) and the partial transpose.

    Every spectrum of a state is checked on the way (eigenvalue floor,
    unit trace), then u_l >= u_b - 1e-9, then the raw negativity
    (||rho^T_A||_1 - 1) / 2: its trace norm lies in [1, 3] for every
    two-qutrit state, so a value more than 1e-12 below 0 or above 1
    signals a broken input rather than round-off. The negativity comes
    back clamped to [0, 1].
    """
    named = (w_ab, "rho_ab"), (w_b, "rho_b"), (w_xz[:, 0], "Sx-measured state"), (w_xz[:, 1], "Sz-measured state")
    for w, name in named:
        require_state_spectrum(w, ts, name)
    s_b = _bits(w_b)
    s_xb = _bits(w_xz[:, 0]) - s_b
    s_zb = _bits(w_xz[:, 1]) - s_b
    u_l = s_xb + s_zb
    u_b = BOUND_OFFSET + (_bits(w_ab) - s_b)
    require_samples(
        u_l >= u_b - BERTA_ATOL, ts,
        lambda i: f"uncertainty sum {float(u_l[i])!r} below its lower bound {float(u_b[i])!r}",
    )
    raw = (np.sum(np.abs(w_pt), axis=-1) - 1.0) / 2.0
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
    2x2 sectors {|ij>, |ji>}; and each measured state three 3x3 blocks
    diag(sum_a u_a^2 D[a, b]) + (u u^T) o C along u = O^T v. No 9x9 state
    is formed. Input and map are the same on A and B, so D is symmetric
    and each 2x2 sector [[D_ij, C_ij], [C_ij, D_ij]] has the eigenvalues
    D_ij +- C_ij. A z vector u = O^T e_j has u_ground u_excited = 0, so its
    block is [[d0, c], [c, d1]] (+) [d2], c = u0 u1 C[0, 1], with the
    eigenvalues (d0 + d1)/2 +- hypot((d0 - d1)/2, c) and d2. Only the
    {|ii>} sector and the three x blocks need an eigensolve, four 3x3
    matrices per time: symmetric_eigvals3 takes all of them in one call,
    from the diagonals D[a, a] and sum_a u_a^2 D[a, b] and the pair
    entries C[i, j] and u_i u_j C[i, j], and names the first t where a
    matrix is not done at its sweep cap.

    g_plus and g_minus are (T,) arrays, one entry per time of ts, k a
    scalar or one per time, frame one (3, 3) O or a stack of one or T of
    them. Any other length of g_plus, g_minus, a per-time k or the frame
    stack is a ValueError naming it and the length of ts. k is checked by
    require_mixing, which names the first failing t when k is given per
    time. Completeness is checked by channel.require_completeness, the
    deviation max|sum K^dag K - I| of the map; W = sqrt(max(0, 1 - G^2))
    clamps to 0, so any |G| > 1 fails it. The other checks are those of
    _checked_columns; each names the first failing t.
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
    g2 = np.stack(np.broadcast_arrays(g_plus * g_plus, g_minus * g_minus, 1.0), axis=-1)
    k = k[..., None, None]
    # P[i, a], the populations of Phi(|i><i|): each branch keeps G^2 and feeds W^2 to ground
    images = g2[:, :, None] * np.eye(3)
    images[:, :2, 2] = np.maximum(0.0, 1.0 - g2[:, :2])
    n = images.sum(axis=1)
    pops = (1.0 - k) / 9.0 * n[:, :, None] * n[:, None, :] + k / 3.0 * (images.swapaxes(1, 2) @ images)
    # D and C on the pairs (0, 1), (0, 2), (1, 2), the off-diagonal order of symmetric_eigvals3
    pair_pops, pair_coh = pops[:, _PAIR_ROWS, _PAIR_COLS], k[..., 0] / 3.0 * g2[:, _PAIR_ROWS] * g2[:, _PAIR_COLS]
    pop_diag = pops[:, _DIAG, _DIAG]

    w_pt = np.concatenate([pop_diag, pair_pops + pair_coh, pair_pops - pair_coh], axis=1)

    # the measured vectors u = O^T v as rows, (..., 6, 3): three x, then three z
    u = _MEASURED_BASES.T @ frame
    diags = (u * u) @ pops
    # one eigensolve for the {|ii>} sector of rho_AB and the three x blocks, (T, 4, 3)
    x_off = u[..., :3, _PAIR_ROWS] * u[..., :3, _PAIR_COLS] * pair_coh[:, None]
    w = symmetric_eigvals3(
        np.concatenate([pop_diag[:, None], diags[:, :3]], axis=1),
        np.concatenate([pair_coh[:, None], x_off], axis=1),
        ts, "rho_AB sector or Sx-measured block",
    )
    w_ab = np.concatenate([w[:, 0], pops[:, _OFF_ROWS, _OFF_COLS]], axis=1)
    # a z row is a row of O, whose ground entry times each excited one is 0:
    # its block is [[d0, c], [c, d1]] (+) [d2]
    d0, d1, d2 = np.moveaxis(diags[:, 3:], -1, 0)
    c = u[..., 3:, 0] * u[..., 3:, 1] * pair_coh[:, :1]
    mid, radius = (d0 + d1) / 2.0, np.hypot((d0 - d1) / 2.0, c)
    w_z = np.concatenate([mid - radius, mid + radius, d2], axis=1)
    w_xz = np.stack([w[:, 1:].reshape(len(g2), 9), w_z], axis=1)
    return _checked_columns(w_ab, pops.sum(axis=1), w_xz, w_pt, ts)
