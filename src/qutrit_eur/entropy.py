"""Conditional entropies of the uncertainty game, its lower bound, and negativity.

All entropies are in bits. The uncertainty game measures the spin-1 x and
z components of qutrit A while qutrit B serves as quantum memory: the
measured uncertainty S(Sx|B) + S(Sz|B) is bounded below by
log2(1/c) + S(A|B), where c is the maximum squared overlap between the
two measurement eigenbases. The measured pair is fixed, so c and the
bound offset log2(1/c) are derived from it once, here.

A stack of states may come in a real orthogonal local frame O (x) O, as
the sweep's states do in the dressed frame of the channel. The spectra of
the state, of its partial transpose and of the memory's marginal are the
same in any such frame, so only the measured vectors change: the x and z
eigenvectors v are measured as u = O^T v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    as_inexact,
    partial_trace_a,
    partial_transpose_a,
    require_hermitian_stack,
    require_samples,
    require_state_spectrum,
    sector_spectra,
)
from .states_obs import conditional_blocks, max_overlap_c, spin1_observable

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


def _two_qutrit_stack(rho_ab: np.ndarray) -> np.ndarray:
    rho_ab = as_inexact(rho_ab)
    if rho_ab.shape != (9, 9):
        raise ValueError(f"expected a 9x9 two-qutrit state, got shape {rho_ab.shape}")
    return rho_ab[None]


def _entropies(rho_ab: np.ndarray, ts=None, frame=None) -> tuple[np.ndarray, ...]:
    """S(rho_AB), S(rho_B) and the entropies after measuring Sx or Sz on A.

    rho_ab is a Hermitian (T, 9, 9) stack, seen in the frame of eur_columns.
    rho_AB and rho_B are solved sector by sector (sector_spectra). The
    dephased states are block diagonal in the measurement basis, so their
    spectra come from three 3x3 conditional blocks each, measured along
    u = O^T v. Every spectrum is checked as a state (eigenvalue floor,
    unit trace) on the way.
    """
    w_ab = sector_spectra(rho_ab)
    require_state_spectrum(w_ab, ts, "rho_ab")
    w_b = sector_spectra(partial_trace_a(rho_ab))
    require_state_spectrum(w_b, ts, "rho_b")
    bases = _MEASURED_BASES if frame is None else np.swapaxes(frame, -1, -2) @ _MEASURED_BASES
    w_xz = np.linalg.eigvalsh(conditional_blocks(rho_ab, bases)).reshape(len(rho_ab), 2, 9)
    require_state_spectrum(w_xz[:, 0], ts, "Sx-measured state")
    require_state_spectrum(w_xz[:, 1], ts, "Sz-measured state")
    return _bits(w_ab), _bits(w_b), _bits(w_xz[:, 0]), _bits(w_xz[:, 1])


def _negativities(rho_ab: np.ndarray, ts=None) -> np.ndarray:
    """(||rho^T_A||_1 - 1) / 2 per state of a Hermitian (T, 9, 9) stack, clamped to [0, 1].

    The trace norm of the partial transpose lies in [1, 3] for every
    two-qutrit state, so a value more than 1e-12 below 0 or above 1
    signals a broken input rather than round-off.
    """
    w = sector_spectra(partial_transpose_a(rho_ab))
    raw = (np.sum(np.abs(w), axis=-1) - 1.0) / 2.0
    require_samples(
        raw >= -_NEGATIVITY_ATOL, ts,
        lambda i: f"negativity {raw[i]:.3e} below round-off floor; invalid state",
    )
    require_samples(
        raw <= 1.0 + _NEGATIVITY_ATOL, ts,
        lambda i: f"negativity 1 + {raw[i] - 1.0:.3e} above the two-qutrit maximum 1; invalid state",
    )
    return np.clip(raw, 0.0, 1.0)


class EurColumns(NamedTuple):
    """Both sides of the uncertainty relation and the negativity, one entry per state."""

    u_l: np.ndarray
    u_b: np.ndarray
    s_xb: np.ndarray
    s_zb: np.ndarray
    negativity: np.ndarray


def eur_columns(rho_ab: np.ndarray, ts=None, frame=None) -> EurColumns:
    """Evaluate the uncertainty relation and the negativity on a (T, 9, 9) stack of states.

    The bound is u_b = BOUND_OFFSET + S(A|B), with the offset log2(1/c)
    of the measured x/z pair. Every state is checked on the way, from
    spectra that are computed anyway: Hermiticity within 1e-12, unit trace
    and the eigenvalue floor of each entropy input, the negativity floor
    and ceiling, and u_l >= u_b - 1e-9.
    A failing check raises ValueError naming the first failing sample,
    with its time when ts is given.

    frame is a real orthogonal O, one (3, 3) for the whole stack or a
    (T, 3, 3) stack with one per state; None is the identity. rho_ab then
    holds the states in the frame O (x) O: the state that is measured is
    (O (x) O) rho_ab (O (x) O)^T. The spectra of rho_AB, of its partial
    transpose and of rho_B do not change under a real orthogonal local
    frame, so only the measured x/z vectors v rotate, to u = O^T v.
    """
    rho_ab = require_hermitian_stack(rho_ab, ts, "rho_ab")
    s_ab, s_b, s_x, s_z = _entropies(rho_ab, ts, frame)
    s_xb = s_x - s_b
    s_zb = s_z - s_b
    u_l = s_xb + s_zb
    u_b = BOUND_OFFSET + (s_ab - s_b)
    require_samples(
        u_l >= u_b - BERTA_ATOL, ts,
        lambda i: f"uncertainty sum {float(u_l[i])!r} below its lower bound {float(u_b[i])!r}",
    )
    return EurColumns(u_l=u_l, u_b=u_b, s_xb=s_xb, s_zb=s_zb, negativity=_negativities(rho_ab, ts))


@dataclass(frozen=True)
class EurSample:
    """One evaluation of the uncertainty relation on a two-qutrit state."""

    u_l: float
    u_b: float
    s_xb: float
    s_zb: float
    negativity: float


def eur_sample(rho_ab: np.ndarray) -> EurSample:
    """Evaluate both sides of the uncertainty relation plus negativity; the T = 1 case of eur_columns, checks included."""
    cols = eur_columns(_two_qutrit_stack(rho_ab))
    return EurSample(*(float(col[0]) for col in cols))
