"""Sweep engine, figure presets, CSV emission, and self-check suites.

A sweep evolves one isotropic initial state through the product damping
channel on a uniform time grid and records both sides of the uncertainty
relation, the negativity, and the two branch amplitudes at every sample.
The grid is processed in fixed blocks of samples, each through the array
kernels of the channel and entropy modules. A block takes the branch
amplitudes and the dressed frame O of the channel (plus branch, minus
branch, ground), with its rows in the computational order of the sweep's
basis convention, which leaves the isotropic input unchanged; there the
evolved state is closed form in (G+^2, G-^2, k), and
entropy.evolved_isotropic_columns reads every spectrum off its entries,
with no 9x9 state and no eigensolve larger than 3x3. The x/z measurement
runs along u = O^T v. The inequality suite does the same with one frame
per draw. The kernel checks k in [0, 1] itself, with the
states_obs.require_mixing that SweepConfig calls, so a k outside it names
itself rather than a broken spectrum.

The fig2*/fig3*/fig4* presets pin the parameter sets behind the reference
curves this package reproduces. The printed spectral width of the
oscillatory reference curves is inconsistent with their printed period;
the presets therefore default to lam = 0.001 (the reading under which the
period comes out right) and `literal_lambda=True` runs the printed
lam = 1000 instead. Which reading was used is recorded in the CSV header.
"""

from __future__ import annotations

import math
import numbers
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import (
    ChannelParams,
    decoherence_factors_ode,
    dressed_amplitudes,
    dressed_channel,
    require_completeness,
    require_real_fields,
)
from .entropy import evolved_isotropic_columns
from .linalg import (
    EIGENVALUE_FLOOR,
    TRACE_ATOL,
    SampleError,
    hermitian_eigvals3,
    hermitian_part,
    require_density_stack,
)
from .states_obs import require_mixing

# the rows of the channel's frame in the order of each basis convention's
# computational indices: ground-first puts the ground level at index 0
BASIS_ROWS = {"kraus-order": [0, 1, 2], "ground-first": [2, 0, 1]}
BASIS_CONVENTIONS = tuple(BASIS_ROWS)
CSV_HEADER = "t_gamma,u_l,u_b,s_xb,s_zb,negativity,g_plus,g_minus"
# the rows of a sweep: one float64 field per CSV column, in header order
SWEEP_DTYPE = np.dtype([(name, np.float64) for name in CSV_HEADER.split(",")])
EXTREMUM_DELTA = 1e-9
NEGATIVITY_ZERO_THRESHOLD = 1e-6

PRESET_NAMES = tuple(f"fig{fig}{panel}" for fig in (2, 3, 4) for panel in "abcd")
_PANEL_K = {"a": 0.0, "b": 0.4, "c": 0.6, "d": 1.0}
_FIG4_LAMBDA = {"a": 1.0, "b": 0.1, "c": 0.01, "d": 0.001}
_PRESET_T_MAX = 600.0
_PRESET_STEPS = 4800
# samples per kernel call (sweeps, check suites) and rows per CSV write. Against
# 128, a block of 512 cut the time of the preset sweeps by about 30% at under
# 1% more peak RSS; 1024 and 2048 cut another 3-7% but raised the peak RSS
# of the presets by 2.2% and 6.5%
_BLOCK = 512
_CSV_ROW = ",".join(["%.12g"] * len(SWEEP_DTYPE.names)) + "\n"


@dataclass(frozen=True)
class SweepConfig:
    """Channel parameters plus initial-state mixing, time grid, and basis convention."""

    channel: ChannelParams
    k: float
    t_max: float
    steps: int
    basis: str = "kraus-order"

    def __post_init__(self):
        if not isinstance(self.channel, ChannelParams):
            raise ValueError(f"channel must be a ChannelParams, got {self.channel!r}")
        require_real_fields(self, "k", "t_max")
        require_mixing(self.k)
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        _require_integer(self.steps, "steps", 2)
        if self.steps - 1 > sys.float_info.max or not math.isfinite(self.t_max * (self.steps - 1)):
            # the grid t_i = i*t_max/(steps-1) forms i*t_max first, and steps - 1 must fit a float
            raise ValueError(f"t_max = {self.t_max} overflows the grid of {self.steps} steps")
        if self.basis not in BASIS_CONVENTIONS:
            raise ValueError(
                f"basis must be one of {BASIS_CONVENTIONS}, got {self.basis!r}"
            )


@dataclass(frozen=True)
class SweepSummary:
    """Grid extrema, negativity zero crossings, and the oscillation period estimate."""

    u_l_max: float
    t_u_l_max: float
    u_l_min: float
    t_u_l_min: float
    negativity_zeros: tuple[float, ...]
    period_estimate: float | None


def run_sweep(cfg: SweepConfig) -> np.recarray:
    """Evaluate the uncertainty relation on the uniform grid t_i = i*t_max/(steps-1).

    Returns one SWEEP_DTYPE record array, read by column (rows.u_l) or
    by row (rows[i].u_l). Each block is evaluated in closed form in the
    dressed frame, its rows in the order of the basis convention
    (BASIS_ROWS), and measured along the rotated x/z vectors (module
    docstring), then written into its slice of the rows. A failing check
    names the first failing t, rows that cannot be allocated name steps,
    and both name the sweep parameters.
    """
    try:
        rows = np.recarray(cfg.steps, dtype=SWEEP_DTYPE)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"steps = {cfg.steps} needs {cfg.steps * SWEEP_DTYPE.itemsize:.3g} bytes of rows, more than "
                         f"can be allocated (sweep {canonical_params(cfg)})") from exc
    for start in range(0, cfg.steps, _BLOCK):
        block = rows[start : start + _BLOCK]
        ts = np.arange(start, start + len(block)) * cfg.t_max / (cfg.steps - 1)
        try:
            frame, g_plus, g_minus = dressed_amplitudes(cfg.channel, ts)
            frame = frame[:, BASIS_ROWS[cfg.basis]]
            cols = evolved_isotropic_columns(g_plus, g_minus, cfg.k, frame, ts)
        except ValueError as exc:
            raise ValueError(f"{exc} (sweep {canonical_params(cfg)})") from exc
        block.t_gamma, block.g_plus, block.g_minus = ts, g_plus, g_minus
        block.u_l, block.u_b, block.s_xb, block.s_zb, block.negativity = cols
    return rows


def local_minima_indices(values) -> list[int]:
    """Interior indices dipping at least EXTREMUM_DELTA (1e-9) below both neighbours.

    The dead band rejects the 1e-16-level round-off ripple of fully decayed
    flat stretches while keeping every physically resolved dip.
    """
    v = np.asarray(values, dtype=float)
    mid = v[1:-1]
    return (np.flatnonzero((mid < v[:-2] - EXTREMUM_DELTA) & (mid < v[2:] - EXTREMUM_DELTA)) + 1).tolist()


def summarize(rows: np.recarray) -> SweepSummary:
    """Extrema, negativity zero crossings, and period estimate over a sweep's rows.

    The t_gamma, u_l and negativity columns are read as they stand. The
    extrema are u_l.max() and u_l.min(); each one's time is that of the
    first sample within EXTREMUM_DELTA of it, so round-off on a flat
    stretch of u_l does not move it. Zero
    crossings are the linearly interpolated times where the negativity
    crosses the 1e-6 threshold between consecutive samples. The period is
    the mean spacing of successive interior local minima of the uncertainty
    sum, absent when fewer than two minima exist.
    """
    if len(rows) < 2:
        raise ValueError(f"summarize needs at least 2 records, got {len(rows)}")
    ts, u_l, neg = rows.t_gamma, rows.u_l, rows.negativity

    u_l_max, u_l_min = u_l.max(), u_l.min()
    # argmax of a boolean array: its first True
    i_max = int(np.argmax(u_l >= u_l_max - EXTREMUM_DELTA))
    i_min = int(np.argmax(u_l <= u_l_min + EXTREMUM_DELTA))

    shifted = neg - NEGATIVITY_ZERO_THRESHOLD
    i = np.flatnonzero(shifted[:-1] * shifted[1:] < 0)
    frac = shifted[i] / (shifted[i] - shifted[i + 1])
    zeros = ts[i] + frac * (ts[i + 1] - ts[i])

    minima = local_minima_indices(u_l)
    period = float(np.mean(np.diff(ts[minima]))) if len(minima) >= 2 else None

    return SweepSummary(
        u_l_max=float(u_l_max),
        t_u_l_max=float(ts[i_max]),
        u_l_min=float(u_l_min),
        t_u_l_min=float(ts[i_min]),
        negativity_zeros=tuple(zeros.tolist()),
        period_estimate=period,
    )


def figure_preset(name: str, literal_lambda: bool = False) -> SweepConfig:
    """Parameter set behind one reference panel.

    fig2a-d: no SGI, k = 0/0.4/0.6/1. fig3a-d: maximal SGI, same k ladder.
    fig4a-d: maximally entangled input, no SGI, lam = 1/0.1/0.01/0.001.
    literal_lambda switches fig2*/fig3* to the printed lam = 1000 instead of
    the period-consistent lam = 0.001; fig4 widths are per-panel already.
    """
    if name not in PRESET_NAMES:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    fig, panel = name[3], name[4]
    if fig == "4":
        k, theta, lam = 1.0, 0.0, _FIG4_LAMBDA[panel]
    else:
        k = _PANEL_K[panel]
        theta = 0.0 if fig == "2" else 1.0
        lam = 1000.0 if literal_lambda else 0.001
    return SweepConfig(
        channel=ChannelParams(gamma1=1.0, gamma2=1.0, theta=theta, lam=lam),
        k=k,
        t_max=_PRESET_T_MAX,
        steps=_PRESET_STEPS,
    )


def canonical_params(cfg: SweepConfig) -> str:
    """Deterministic one-line rendering of a sweep configuration."""
    ch = cfg.channel
    return (
        f"gamma1={ch.gamma1:.12g} gamma2={ch.gamma2:.12g} theta={ch.theta:.12g} "
        f"lambda={ch.lam:.12g} k={cfg.k:.12g} t_max={cfg.t_max:.12g} "
        f"steps={cfg.steps} basis={cfg.basis}"
    )


def emit_csv(rows: np.recarray, destination, cfg: SweepConfig, note: str = "") -> None:
    """Write a sweep's SWEEP_DTYPE rows as CSV with a provenance comment line.

    The fields are the CSV columns in order. Values carry 12 significant
    digits, enough to reparse them within 1e-11 relative. Rows are formatted
    and written _BLOCK at a time, one %-format call per block over the
    block's float64 values, so output holds one block's values and text in
    memory, never the whole sweep as Python floats or as one string.
    """
    comment = f"# qutrit-eur {__version__} params: {canonical_params(cfg)}"
    if note:
        comment += f" {note}"
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{comment}\n{CSV_HEADER}\n")
            for start in range(0, len(rows), _BLOCK):
                # a contiguous copy of the block, so strided rows have a float64 view too
                block = np.ascontiguousarray(rows[start : start + _BLOCK])
                fh.write(_CSV_ROW * len(block) % tuple(block.view(np.float64).tolist()))
    except OSError as exc:
        raise OSError(f"failed to write sweep CSV to {destination}: {exc}") from exc


def write_summary(summary: SweepSummary, destination) -> None:
    """Write the human-readable sweep summary next to the CSV."""
    period = "none" if summary.period_estimate is None else f"{summary.period_estimate:.12g}"
    zeros = (
        ", ".join(f"{z:.12g}" for z in summary.negativity_zeros)
        if summary.negativity_zeros
        else "none"
    )
    lines = [
        f"u_l_max = {summary.u_l_max:.12g} at t_gamma = {summary.t_u_l_max:.12g}",
        f"u_l_min = {summary.u_l_min:.12g} at t_gamma = {summary.t_u_l_min:.12g}",
        f"period_estimate = {period}",
        f"negativity_zeros = {zeros}",
    ]
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write summary to {destination}: {exc}") from exc


# ---------------------------------------------------------------------------
# self-check suites (also behind the `qutrit-eur check` command)
# ---------------------------------------------------------------------------


# [low, high) of each uniform a suite's draw takes: gamma1, gamma2, theta, the
# exponent e of lam = 10**e, then t and the 18 Box-Muller uniforms of the input
# state (CPTP) or k and t (inequality)
_CPTP_LOW = np.array([0.1, 0.1, -1.0, -3.0, 0.0] + [0.0] * 18)
_CPTP_HIGH = np.array([3.0, 3.0, 1.0, 3.0, 20.0] + [1.0] * 18)
_INEQUALITY_LOW = np.array([0.1, 0.1, -1.0, -3.0, 0.0, 0.0])
_INEQUALITY_HIGH = np.array([3.0, 3.0, 1.0, 3.0, 1.0, 300.0])


def _require_integer(value, name: str, least: int, unit: str = "") -> None:
    """Raise a ValueError naming name unless value is an integer of at least least.

    Checks SweepConfig.steps, and a suite's draw count or seed before
    anything is drawn. numbers.Integral admits numpy integers; a float
    such as 4.0 would pass the comparison and fail later, inside np.arange
    and range. Neither a bool nor None passes: a failing suite must name
    a seed that replays it.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}{unit}, got {value!r}")


def _draw_fields(draws: np.ndarray) -> np.ndarray:
    """The (n, 4) rows (gamma1, gamma2, theta, lam) of scaled uniform draws (gamma1, gamma2, theta, e): lam = 10**e."""
    # in Python floats, as a scalar 10.0 ** e takes it: np.power differs in the last bit for some e
    return np.column_stack([draws[:, :3], [10.0**e for e in draws[:, 3].tolist()]])


def _uniforms(seed: int, n: int, low, high) -> np.ndarray:
    """n rows of uniforms in [low, high) from random.Random(seed), one randbytes call for all.

    Each number is the top 53 bits of 8 little-endian bytes, times 2**-53,
    then low + (high - low) * u, row after row: the same numbers, bit for
    bit, as one 8-byte call per number. random.Random, not numpy.random,
    whose import adds 5-6 MiB of peak RSS and 12-17 ms that nothing else pays.
    """
    words = np.frombuffer(random.Random(int(seed)).randbytes(8 * n * len(low)), "<u8") >> 11
    return low + (high - low) * (words * 2.0**-53).reshape(n, len(low))


def _evaluate_draws(evaluate, fields, ts, *inputs) -> list[np.ndarray]:
    """Evaluate a suite's draws, given as columns (fields, ts, *inputs), _BLOCK draws at a time.

    fields holds one row (gamma1, gamma2, theta, lam) per draw, ts and each
    further input one entry. evaluate takes the columns sliced to one block
    and returns a tuple of per-draw arrays, joined over all blocks. A
    failing per-sample check, whose message already names its time, is
    re-raised naming the draw's index in the suite and its parameters.
    """
    outputs = []
    for start in range(0, len(ts), _BLOCK):
        block = slice(start, start + _BLOCK)
        try:
            outputs.append(evaluate(fields[block], ts[block], *(column[block] for column in inputs)))
        except SampleError as exc:
            i = start + exc.index
            g1, g2, theta, lam = fields[i].tolist()
            params = f"ChannelParams(gamma1={g1!r}, gamma2={g2!r}, theta={theta!r}, lam={lam!r})"
            raise ValueError(f"{exc} (draw {i}: {params})") from exc
    return [np.concatenate(column) for column in zip(*outputs)]


def _cptp_draws(seed: int, n: int):
    """The CPTP suite's n draws as columns (fields, ts, factors).

    Each draw takes 23 uniforms (_uniforms): gamma1, gamma2, theta, the
    exponent of lam and t, then 9 radii and 9 phases that Box-Muller turns
    into the real and imaginary parts of the 3x3 factor X of its input
    state, X = sqrt(-2 log(1 - u)) (cos + i sin)(2 pi v); log1p(-u) is
    finite for every u in [0, 1).
    """
    u = _uniforms(seed, n, _CPTP_LOW, _CPTP_HIGH)
    radius, phase = np.sqrt(-2.0 * np.log1p(-u[:, 5:14])), 2.0 * np.pi * u[:, 14:]
    factors = radius * np.cos(phase) + 1j * (radius * np.sin(phase))
    return _draw_fields(u), u[:, 4], factors.reshape(n, 3, 3)


def _cptp_block(fields, ts, factors):
    frames, g_plus, g_minus = dressed_amplitudes(fields, ts)
    complete = require_completeness(g_plus, g_minus, ts)
    # the density matrices X X^dagger / tr(X X^dagger) of the factors
    rho = np.einsum("tij,tkj->tik", factors, factors.conj())
    rho = require_density_stack(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None], ts)
    # each input once into its dressed frame, O^T rho O: trace and spectrum do not
    # depend on it. O is the real rotation [[a, b], [-b, a]] of levels 0 and 1 and
    # leaves level 2, so O^T mixes rows 0 and 1, then O columns 0 and 1
    a, b = frames[:, 0, 0, None], frames[:, 0, 1, None]
    rho[:, 0], rho[:, 1] = a * rho[:, 0] - b * rho[:, 1], b * rho[:, 0] + a * rho[:, 1]
    rho[:, :, 0], rho[:, :, 1] = a * rho[:, :, 0] - b * rho[:, :, 1], b * rho[:, :, 0] + a * rho[:, :, 1]
    out = dressed_channel(rho, g_plus, g_minus)
    trace = np.abs(np.trace(out, axis1=-2, axis2=-1).real - 1.0)
    dip = -hermitian_eigvals3(hermitian_part(out), ts).min(axis=0)
    return complete, trace, dip


def check_cptp(n_draws: int = 1000, seed: int = 20240811) -> tuple[bool, str]:
    """Completeness and state validity of the channel over random parameter draws.

    Each draw takes its parameters, then t, then a random input state
    (_cptp_draws); all draws are taken first, then evaluated in blocks.
    """
    _require_integer(n_draws, "n_draws", 1, " draw")
    _require_integer(seed, "seed", 0)
    complete, trace, dip = _evaluate_draws(_cptp_block, *_cptp_draws(seed, n_draws))
    worst_complete, worst_trace, worst_eig = float(complete.max()), float(trace.max()), float(max(dip.max(), 0.0))
    # completeness needs no verdict: require_completeness has raised on any draw above its bound
    ok = worst_trace <= TRACE_ATOL and worst_eig <= -EIGENVALUE_FLOOR
    detail = (
        f"{n_draws} draws: completeness {worst_complete:.2e}, "
        f"trace drift {worst_trace:.2e}, eigenvalue dip {worst_eig:.2e}"
    )
    return ok, detail


def oracle_grid(n_points: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic grid spanning monotone and oscillatory regimes, as arrays (fields, ts).

    fields holds one row (gamma1, gamma2, theta, lam) per point. Ten
    widths from 1e-3 to 1e3, each with ceil(n_points/10) evenly spaced
    times; the rates and the SGI alignment cycle from point to point. Times
    run to min(20, 50/lam), so lam*t <= 50 and t <= 20, keeping the
    fixed-step integration cheap while covering both real and imaginary
    branch splittings. The rates are not capped: gamma_plus*t reaches 47.3,
    at gamma1 = 2, gamma2 = 1, theta = 0.5, lam = 0.464, t = 20. Each
    point is checked on both branches.
    """
    _require_integer(n_points, "n_points", 1, " draw")
    rates = np.array([(1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (0.5, 1.5, 1.0)])  # (gamma1, gamma2, theta)
    lams = np.logspace(-3.0, 3.0, 10)
    per_lam = math.ceil(n_points / len(lams))
    i = np.arange(n_points)
    lam = lams[i // per_lam]
    return np.column_stack([rates[i % len(rates)], lam]), np.minimum(20.0, 50.0 / lam) * (i % per_lam + 1) / per_lam


def _oracle_block(fields, ts):
    _, g_plus, g_minus = dressed_amplitudes(fields, ts)
    ode_plus, ode_minus = decoherence_factors_ode(fields, ts)
    return (np.maximum(np.abs(g_plus - ode_plus), np.abs(g_minus - ode_minus)),)


def check_oracle(n_points: int = 100) -> tuple[bool, str]:
    """Agreement of both closed-form branch amplitudes with their RK4 oracle, in blocks of grid points."""
    (diff,) = _evaluate_draws(_oracle_block, *oracle_grid(n_points))
    worst = float(diff.max())
    ok = worst <= 1e-8
    return ok, f"{n_points} grid points: worst |closed - integrated| = {worst:.2e}"


def _inequality_draws(seed: int, n: int):
    """The inequality suite's n draws as columns (fields, ts, ks).

    Each draw takes six uniforms (_uniforms): gamma1, gamma2, theta, the
    exponent of lam, k and t.
    """
    u = _uniforms(seed, n, _INEQUALITY_LOW, _INEQUALITY_HIGH)
    return _draw_fields(u), u[:, 5], u[:, 4]


def _inequality_block(fields, ts, ks):
    frames, g_plus, g_minus = dressed_amplitudes(fields, ts)
    cols = evolved_isotropic_columns(g_plus, g_minus, ks, frames, ts)
    return (cols.u_l - cols.u_b,)


def check_uncertainty_inequality(n_draws: int = 1000, seed: int = 20240812) -> tuple[bool, str]:
    """Lower-bound inequality on randomly evolved isotropic states.

    Each draw takes its parameters, then k, then t (_inequality_draws);
    all draws are taken first, then evaluated in blocks. A draw with u_l
    below u_b - BERTA_ATOL raises a ValueError naming the draw, so a
    returned verdict is always True.
    """
    _require_integer(n_draws, "n_draws", 1, " draw")
    _require_integer(seed, "seed", 0)
    (margin,) = _evaluate_draws(_inequality_block, *_inequality_draws(seed, n_draws))
    return True, f"{n_draws} draws: worst bound margin {float(margin.min()):.2e}"


def run_self_check() -> bool:
    """Run the CPTP, oracle, and inequality suites; print one line per suite.

    A suite whose kernel check raises a ValueError is a [FAIL] line with
    its message, and the suites after it still run.
    """
    t0 = time.perf_counter()
    all_ok = True
    for name, suite in (("cptp", check_cptp), ("oracle", check_oracle), ("inequality", check_uncertainty_inequality)):
        try:
            ok, detail = suite()
        except ValueError as exc:
            ok, detail = False, str(exc)
        all_ok = all_ok and ok
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"self-check {'passed' if all_ok else 'FAILED'} in {time.perf_counter() - t0:.1f}s")
    return all_ok
