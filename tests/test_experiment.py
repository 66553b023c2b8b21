"""Tests for the sweep engine, summaries, presets, CSV output, and CLI."""

import contextlib
import csv
import dataclasses
import errno
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_eur import entropy, experiment
from qutrit_eur.channel import ChannelParams, dressed_amplitudes
from qutrit_eur.cli import build_parser, main
from qutrit_eur.experiment import (
    CSV_HEADER,
    EXTREMUM_DELTA,
    NEGATIVITY_ZERO_THRESHOLD,
    PRESET_NAMES,
    SWEEP_DTYPE,
    SweepConfig,
    canonical_params,
    check_cptp,
    check_oracle,
    check_uncertainty_inequality,
    emit_csv,
    figure_preset,
    local_minima_indices,
    oracle_grid,
    run_self_check,
    run_sweep,
    summarize,
    write_summary,
)

from conftest import (
    as_fields,
    computational_kraus,
    derived,
    reference_cptp_draws,
    reference_eur,
    reference_evolved,
    reference_inequality_draws,
)

SRC = Path(__file__).resolve().parents[1] / "src"
QUICK_CHANNEL = ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=0.001)


def src_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def quick_config(**overrides):
    base = dict(channel=QUICK_CHANNEL, k=1.0, t_max=10.0, steps=4)
    base.update(overrides)
    return SweepConfig(**base)


def synthetic_rows(ts, u_l, neg=0.0):
    """Sweep rows at times ts; u_l and neg are arrays or scalars, the other columns follow from u_l."""
    rows = np.recarray(len(ts), dtype=SWEEP_DTYPE)
    rows.t_gamma, rows.u_l, rows.negativity = ts, u_l, neg
    rows.u_b, rows.s_xb, rows.s_zb = rows.u_l - 1.0, rows.u_l / 2, rows.u_l / 2
    rows.g_plus, rows.g_minus = 1.0, 1.0
    return rows


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(k=1.5), "k"),
        (dict(t_max=0.0), "t_max"),
        (dict(steps=1), "steps"),
        (dict(basis="sideways"), "basis"),
        (dict(t_max=math.inf), "t_max"),
        (dict(t_max=math.nan), "t_max"),
        (dict(k=math.nan), "k"),
        (dict(t_max=1e308, steps=3), "t_max"),
        (dict(steps=4.0), "steps"),
        (dict(steps=2.5), "steps"),
        (dict(k="1"), "k"),
        (dict(k=None), "k"),
        (dict(k=np.array([1.0, 0.5])), "k"),
        (dict(k=np.array([0.5])), "k"),
        (dict(k=0.5 + 0j), "k"),
        (dict(t_max="1"), "t_max"),
        (dict(t_max=None), "t_max"),
        (dict(t_max=np.array([1.0, 2.0])), "t_max"),
        (dict(t_max=np.array([0.5])), "t_max"),
        (dict(t_max=1 + 1j), "t_max"),
        (dict(channel="x"), "channel"),
        (dict(channel=None), "channel"),
        (dict(channel=(1.0, 1.0, 0.0, 1.0)), "channel"),
        # an integer beyond the float range, which float() cannot convert
        (dict(t_max=10**400), "t_max"),
    ],
)
def test_config_rejects_bad_field(overrides, field):
    with pytest.raises(ValueError, match=field):
        quick_config(**overrides)


def test_config_accepts_numpy_integer_steps():
    assert len(run_sweep(quick_config(steps=np.int64(4)))) == 4


def test_config_accepts_numpy_real_scalars():
    cfg = quick_config(k=np.float32(0.5), t_max=np.int64(10))
    assert run_sweep(cfg).tobytes() == run_sweep(quick_config(k=0.5, t_max=10.0)).tobytes()


def test_config_stores_integer_fields_as_floats():
    # the grid once formed i*t_max in int64: it wrapped at 10**16, and 2**63
    # overflowed converting to a C long
    for t_max in (10**16, 2**63):
        cfg = quick_config(k=1, t_max=t_max, steps=1000)
        assert type(cfg.k) is type(cfg.t_max) is float
        assert run_sweep(cfg).tobytes() == run_sweep(quick_config(t_max=float(t_max), steps=1000)).tobytes()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_grid_endpoints():
    records = run_sweep(quick_config(steps=2))
    assert len(records) == 2
    assert records[0].t_gamma == 0.0
    assert records[1].t_gamma == 10.0


def test_sweep_initial_sample_max_entangled():
    first = run_sweep(quick_config())[0]
    assert first.u_l == pytest.approx(0.0, abs=1e-9)
    assert first.negativity == pytest.approx(1.0, abs=1e-10)
    assert first.g_plus == 1.0
    assert first.g_minus == 1.0


def test_sweep_initial_sample_maximally_mixed():
    first = run_sweep(quick_config(k=0.0))[0]
    assert first.u_l == pytest.approx(2 * np.log2(3.0), abs=1e-9)
    assert first.negativity == pytest.approx(0.0, abs=1e-12)


def test_sweep_records_satisfy_invariants(monkeypatch):
    """A sweep is one float64 record array with the CSV columns as fields, read alike by row and by column.

    Blocks of 3 leave a short last block of 2 in each 8-sample sweep. Rows
    are read as a caller iterating the sweep reads them, by attribute.
    """
    monkeypatch.setattr(experiment, "_BLOCK", 3)
    names = tuple(CSV_HEADER.split(","))
    for rows in (run_sweep(quick_config(steps=8, t_max=150.0)),
                 run_sweep(quick_config(steps=8, t_max=150.0, k=0.5,
                                        channel=ChannelParams(1.0, 1.0, 1.0, 0.001)))):
        assert rows.dtype.names == names
        assert all(rows.dtype[name] == np.float64 for name in names)
        columns = np.array([getattr(rows, name) for name in names]).T
        assert len(rows) == len(columns) == 8
        for i, r in enumerate(rows):
            assert [getattr(r, name) for name in names] == columns[i].tolist()
            assert r.u_l == rows.u_l[i]
            assert r.u_l == r.s_xb + r.s_zb
            assert r.u_l >= r.u_b - 1e-9


def test_sweep_records_branch_amplitudes():
    cfg = quick_config(steps=5, t_max=200.0)
    for r in run_sweep(cfg):
        _, (g_plus,), (g_minus,) = dressed_amplitudes(cfg.channel, [r.t_gamma])
        assert (r.g_plus, r.g_minus) == (g_plus, g_minus)


def test_sweep_basis_conventions_agree_at_t0():
    a = run_sweep(quick_config(k=0.7))[0]
    b = run_sweep(quick_config(k=0.7, basis="ground-first"))[0]
    assert a.u_l == pytest.approx(b.u_l, abs=1e-12)
    assert a.negativity == pytest.approx(b.negativity, abs=1e-12)


def test_sweep_ground_first_runs_and_validates():
    for r in run_sweep(quick_config(basis="ground-first", steps=6, t_max=150.0)):
        assert r.u_l >= r.u_b - 1e-9


@pytest.mark.parametrize("steps", [10**15, 2**62, 2**63], ids=["1e15", "2**62", "2**63"])
def test_sweep_names_rows_that_cannot_be_allocated(steps, tmp_path, capsys):
    # each size fails at allocation, before any memory is touched: 57 PiB of rows and up
    cfg = quick_config(steps=steps)
    with pytest.raises(ValueError) as raised:
        run_sweep(cfg)
    assert str(raised.value) == (
        f"steps = {steps} needs {steps * SWEEP_DTYPE.itemsize:.3g} bytes of rows, more than can be allocated "
        f"(sweep {canonical_params(cfg)})"
    )
    argv = ["sweep", "--theta", "0", "--lambda", "1", "--k", "0.5", "--t-max", "10", "--steps", str(steps),
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: steps = {steps} needs ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# extrema helpers and summaries
# ---------------------------------------------------------------------------


def test_local_extrema_reject_round_off_ripple():
    flat = [1.5, 1.5 + 2e-16, 1.5 - 2e-16, 1.5, 1.5 + 1e-16, 1.5]
    assert local_minima_indices(flat) == []
    assert local_minima_indices([-x for x in flat]) == []


def test_local_extrema_find_real_dips():
    v = [1.0, 0.5, 1.0, 2.0, 1.0]
    assert local_minima_indices(v) == [1]
    # maxima are the minima of the negated series
    assert local_minima_indices([-x for x in v]) == [3]


def loop_minima(v, delta=EXTREMUM_DELTA):
    return [i for i in range(1, len(v) - 1) if v[i] < v[i - 1] - delta and v[i] < v[i + 1] - delta]


def loop_maxima(v, delta=EXTREMUM_DELTA):
    return [i for i in range(1, len(v) - 1) if v[i] > v[i - 1] + delta and v[i] > v[i + 1] + delta]


def loop_zeros(ts, neg):
    shifted = neg - NEGATIVITY_ZERO_THRESHOLD
    zeros = []
    for i in range(len(ts) - 1):
        if shifted[i] * shifted[i + 1] < 0:
            frac = shifted[i] / (shifted[i] - shifted[i + 1])
            zeros.append(float(ts[i] + frac * (ts[i + 1] - ts[i])))
    return tuple(zeros)


def extremum_series():
    rng = np.random.default_rng(107)
    random = rng.normal(size=500)
    plateau = np.repeat(rng.uniform(0.0, 2e-6, 60), rng.integers(1, 6, 60))
    alternating = np.where(np.arange(4800) % 2 == 0, 1e-6 + 1e-9, 1e-6 - 1e-9)
    return {"random": random, "plateau": plateau, "alternating": alternating, "short": random[:2]}


@pytest.mark.parametrize("kind", ["random", "plateau", "alternating", "short"])
def test_vectorised_extrema_and_zeros_match_loop_form(kind):
    v = extremum_series()[kind]
    for got, want in ((local_minima_indices(v), loop_minima(v)), (local_minima_indices(-v), loop_maxima(v))):
        assert type(got) is list and all(type(i) is int for i in got)
        assert got == want
    if len(v) >= 2:
        ts = np.linspace(0.0, 600.0, len(v))
        s = summarize(synthetic_rows(ts, v, neg=v))
        assert s.negativity_zeros == loop_zeros(ts, v)
        minima = loop_minima(v)
        assert s.period_estimate == (float(np.mean(np.diff(ts[minima]))) if len(minima) >= 2 else None)


def test_summarize_monotone_decay():
    ts = np.arange(11.0)
    s = summarize(synthetic_rows(ts, 3.0 - 0.1 * ts))
    assert s.u_l_max == 3.0
    assert s.t_u_l_max == 0.0
    assert s.u_l_min == pytest.approx(2.0)
    assert s.t_u_l_min == 10.0
    assert s.period_estimate is None
    assert s.negativity_zeros == ()


def test_summarize_periodic_series():
    ts = np.arange(0.0, 101.0, 1.0)
    s = summarize(synthetic_rows(ts, [math.cos(2 * math.pi * t / 20.0) + 2.0 for t in ts]))
    # minima at t = 10, 30, 50, 70, 90: mean spacing recovers the period
    assert s.period_estimate == pytest.approx(20.0, abs=1e-12)


def test_summarize_negativity_threshold_crossings():
    negs = [1e-5, 1e-7, 1e-7, 1e-5]
    zeros = summarize(synthetic_rows(np.arange(4.0), 1.0, neg=negs)).negativity_zeros
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx((1e-5 - 1e-6) / (1e-5 - 1e-7), abs=1e-12)
    assert zeros[1] == pytest.approx(2.0 + (1e-6 - 1e-7) / (1e-5 - 1e-7), abs=1e-12)


def test_summarize_takes_the_first_sample_near_each_extremum():
    # a plateau flat to round-off: the time is where it starts, not where the last bit dips lowest
    v = np.array([3.0, 2.0, 1.5 + 4e-10, 1.5 + 1e-15, 1.5, 1.5 + 2e-16, 2.0, 3.0 - 3e-10])
    s = summarize(synthetic_rows(np.arange(8.0), v))
    assert (s.u_l_min, s.t_u_l_min) == (1.5, 2.0)
    assert (s.u_l_max, s.t_u_l_max) == (3.0, 0.0)


def test_extremum_times_survive_round_off(preset_sweeps):
    # the 21 sweeps of the benchmark and CI: 12 presets, the 8 fig2/fig3
    # presets at the printed width, and the long ground-first sweep
    sweeps = dict(preset_sweeps[0])
    for name in PRESET_NAMES[:8]:
        sweeps[f"{name} literal"] = run_sweep(figure_preset(name, literal_lambda=True))
    sweeps["long"] = run_sweep(SweepConfig(
        ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05), k=0.8, t_max=600.0, steps=24000,
        basis="ground-first",
    ))
    rng = np.random.default_rng(113)
    for name, rows in sweeps.items():
        want = summarize(rows)
        for _ in range(5):
            noisy = rows.copy()
            noisy.u_l += rng.uniform(-1e-13, 1e-13, len(rows))
            got = summarize(noisy)
            assert (got.t_u_l_min, got.t_u_l_max) == (want.t_u_l_min, want.t_u_l_max), name
            assert (got.u_l_min, got.u_l_max) == (noisy.u_l.min(), noisy.u_l.max())


def test_summarize_rejects_short_input():
    with pytest.raises(ValueError, match="at least 2"):
        summarize(synthetic_rows([0.0], 1.0))


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def test_preset_name_catalogue():
    assert len(PRESET_NAMES) == 12
    for name in PRESET_NAMES:
        cfg = figure_preset(name)
        assert cfg.t_max == 600.0
        assert cfg.steps == 4800
        assert cfg.channel.gamma1 == cfg.channel.gamma2 == 1.0


def test_preset_fig2d():
    cfg = figure_preset("fig2d")
    assert (cfg.k, cfg.channel.theta, cfg.channel.lam) == (1.0, 0.0, 0.001)


def test_preset_fig3b():
    cfg = figure_preset("fig3b")
    assert (cfg.k, cfg.channel.theta, cfg.channel.lam) == (0.4, 1.0, 0.001)


def test_preset_fig4a():
    cfg = figure_preset("fig4a")
    assert (cfg.k, cfg.channel.theta, cfg.channel.lam) == (1.0, 0.0, 1.0)


def test_preset_literal_lambda():
    assert figure_preset("fig2a", literal_lambda=True).channel.lam == 1000.0
    assert figure_preset("fig3d", literal_lambda=True).channel.lam == 1000.0
    # fig4 widths are per-panel values, not subject to the reinterpretation
    assert figure_preset("fig4b", literal_lambda=True).channel.lam == 0.1


def test_preset_rejects_unknown_name():
    with pytest.raises(ValueError, match="fig2a.*fig4d"):
        figure_preset("fig5a")


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(np.recarray(0, dtype=SWEEP_DTYPE), path, quick_config())
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("# qutrit-eur 0.1.0 params: gamma1=1 gamma2=1 theta=0")
    assert lines[1] == CSV_HEADER


def test_emit_csv_line_count(tmp_path):
    path = tmp_path / "three.csv"
    emit_csv(synthetic_rows(np.arange(3.0), 1.0), path, quick_config())
    assert len(path.read_text().splitlines()) == 5


# values whose 12-digit rendering is a corner of the g format: signed zero,
# the smallest subnormal, the switch to exponent notation at 1e-4, rounding
# that carries into a new digit, the switch at 1e12, and the non-finite values
EDGE_VALUES = [-0.0, 5e-324, 1e-5, 9.99999999999e-05, 9.9999999999995, 999999999999.5, -1e300, math.inf, math.nan]


def csv_rows(n):
    """n SWEEP_DTYPE rows of random values of magnitude 1e-8 to 1e8, every other value taken from EDGE_VALUES in turn."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(8 * n) * 10.0 ** rng.integers(-8, 9, 8 * n)
    values[1::2] = np.resize(EDGE_VALUES, len(values[1::2]))
    return values.view(SWEEP_DTYPE).view(np.recarray)


def row_by_row_body(rows):
    """The CSV body one row at a time, each value with "{:.12g}": the reference rendering for emit_csv."""
    return "".join(",".join(f"{value:.12g}" for value in row) + "\n" for row in rows.tolist())


@pytest.mark.parametrize(
    "rows",
    [csv_rows(n) for n in (0, 1, 511, 512, 513, 1025)]
    + [
        np.repeat(EDGE_VALUES, 8).view(SWEEP_DTYPE).view(np.recarray),
        csv_rows(1025)[::3],
        np.asarray(csv_rows(600)),
    ],
    ids=["0", "1", "511", "512", "513", "1025", "edge-values", "strided", "plain-ndarray"],
)
def test_emit_csv_matches_row_by_row_format(tmp_path, rows):
    path = tmp_path / "rows.csv"
    emit_csv(rows, path, quick_config())
    lines = path.read_text(encoding="utf-8").split("\n", 2)
    assert lines[1] == CSV_HEADER
    assert lines[2] == row_by_row_body(rows)


def test_emit_csv_memory_is_one_block(tmp_path):
    """Guards the block bound of emit_csv: its tracemalloc peak on a 24,000-row sweep stays under 1 MiB.

    Formatted one _BLOCK of rows at a time, output holds about 0.23 MiB;
    converting the whole sweep to Python floats first took 6.98 MiB.
    """
    cfg = quick_config(steps=24000, t_max=600.0)
    rows = run_sweep(cfg)
    tracemalloc.start()
    try:
        emit_csv(rows, tmp_path / "long.csv", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_emit_csv_round_trip(tmp_path):
    cfg = quick_config(steps=16, t_max=150.0)
    records = run_sweep(cfg)
    path = tmp_path / "sweep.csv"
    emit_csv(records, path, cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        for field in ("t_gamma", "u_l", "u_b", "s_xb", "s_zb", "negativity", "g_plus", "g_minus"):
            assert float(row[field]) == pytest.approx(getattr(rec, field), rel=1e-11, abs=1e-11)


def test_emit_csv_names_destination_on_failure(tmp_path):
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv(np.recarray(0, dtype=SWEEP_DTYPE), tmp_path / "no" / "such" / "dir" / "x.csv", quick_config())


def test_write_summary_names_destination_on_failure(tmp_path):
    ts = np.linspace(0.0, 10.0, 11)
    with pytest.raises(OSError, match="failed to write summary to .*no/such/dir"):
        write_summary(summarize(synthetic_rows(ts, 3.0 - 0.1 * ts)), tmp_path / "no" / "such" / "dir" / "x.txt")


def test_csv_body_deterministic(tmp_path):
    cfg = quick_config(steps=12, t_max=120.0)
    paths = []
    for i in range(2):
        path = tmp_path / f"run{i}.csv"
        emit_csv(run_sweep(cfg), path, cfg)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_write_summary_format(tmp_path):
    ts = np.arange(11.0)
    path = tmp_path / "s.txt"
    write_summary(summarize(synthetic_rows(ts, 3.0 - 0.1 * ts)), path)
    text = path.read_text()
    assert "u_l_max = 3" in text
    assert "period_estimate = none" in text
    assert "negativity_zeros = none" in text


# ---------------------------------------------------------------------------
# self-check suites
# ---------------------------------------------------------------------------


def test_check_cptp_small():
    ok, detail = check_cptp(n_draws=100)
    assert ok, detail


def test_check_oracle_small():
    ok, detail = check_oracle(n_points=20)
    assert ok, detail


@pytest.mark.parametrize("branch", [0, 1], ids=["plus", "minus"])
def test_check_oracle_compares_both_branches(monkeypatch, branch):
    # one RK4 amplitude off by 1e-6 at grid point 0; 20 points are a single block
    original = experiment.decoherence_factors_ode

    def one_branch_off(params, ts):
        amplitudes = [g.copy() for g in original(params, ts)]
        amplitudes[branch][0] += 1e-6
        return tuple(amplitudes)

    monkeypatch.setattr(experiment, "decoherence_factors_ode", one_branch_off)
    ok, detail = check_oracle(n_points=20)
    assert not ok
    assert detail.endswith("worst |closed - integrated| = 1.00e-06")


def test_check_inequality_small():
    ok, detail = check_uncertainty_inequality(n_draws=50)
    assert ok, detail


@pytest.mark.parametrize(
    "suite",
    [lambda: check_cptp(n_draws=20), lambda: check_oracle(n_points=10),
     lambda: check_uncertainty_inequality(n_draws=20)],
    ids=["cptp", "oracle", "inequality"],
)
def test_suites_return_plain_bool(suite):
    ok, _ = suite()
    assert type(ok) is bool


@pytest.mark.parametrize("suite", [check_cptp, check_uncertainty_inequality])
def test_suites_take_numpy_integer_seeds(suite):
    # random.Random rejects a numpy integer, which _require_integer admits
    assert suite(20, np.int64(5)) == suite(20, 5)


def test_default_check_lines_are_pinned():
    """Regression anchor: the three suite results of `qutrit-eur check` at the default draws and seeds.

    A change that moves any of these lines updates this test on purpose
    and says so in CHANGES.md.
    """
    assert check_cptp() == (
        True, "1000 draws: completeness 2.22e-16, trace drift 4.44e-16, eigenvalue dip 0.00e+00"
    )
    assert check_oracle() == (True, "100 grid points: worst |closed - integrated| = 1.31e-12")
    assert check_uncertainty_inequality() == (
        True, "1000 draws: worst bound margin 5.00e-01"
    )


def test_default_suites_build_no_channel_params(monkeypatch):
    # the draws stay one float array from the generator to the kernels
    built = []
    post_init = ChannelParams.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ChannelParams, "__post_init__", counting)
    ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=1.0)
    assert len(built) == 1
    check_cptp(), check_oracle(), check_uncertainty_inequality()
    assert len(built) == 1


def test_run_self_check_returns_plain_bool(capsys):
    assert type(run_self_check()) is bool
    assert capsys.readouterr().out.count("[PASS]") == 3


def capture_draws(monkeypatch):
    """Record the per-draw arrays the batched suites compute."""
    captured = []
    evaluate = experiment._evaluate_draws

    def recording(*args):
        captured.append(evaluate(*args))
        return captured[-1]

    monkeypatch.setattr(experiment, "_evaluate_draws", recording)
    return captured


def test_check_cptp_matches_per_draw_reference(monkeypatch):
    captured = capture_draws(monkeypatch)
    _, detail = check_cptp(n_draws=50, seed=11)
    want = []
    for params, t, x in reference_cptp_draws(random.Random(11), 50):
        d = derived(params)
        _, (g_plus,), (g_minus,) = dressed_amplitudes(params, [t])
        ks = computational_kraus(d.a, d.b, g_plus, g_minus)
        acc = sum(k.conj().T @ k for k in ks)
        rho = x @ x.conj().T
        rho = rho / np.trace(rho).real
        out = sum(k @ rho @ k.conj().T for k in ks)
        want.append((
            np.max(np.abs(acc - np.eye(3))),
            abs(np.trace(out).real - 1.0),
            -np.linalg.eigvalsh((out + out.conj().T) / 2)[0],
        ))
    want = np.array(want).T
    got = np.array(captured[0])
    # the suite evolves in the dressed frame, the reference in computational indices
    assert np.max(np.abs(got - want)) <= 1e-14
    # the detail prints round-off to 3 digits, which differ between the frames
    worst = got.max(axis=1)
    assert detail == (
        f"50 draws: completeness {worst[0]:.2e}, trace drift {worst[1]:.2e}, "
        f"eigenvalue dip {max(worst[2], 0.0):.2e}"
    )


def test_check_uncertainty_inequality_matches_per_draw_reference(monkeypatch):
    captured = capture_draws(monkeypatch)
    _, detail = check_uncertainty_inequality(n_draws=50, seed=13)
    want = []
    for params, t, k in reference_inequality_draws(random.Random(13), 50):
        d = derived(params)
        _, (g_plus,), (g_minus,) = dressed_amplitudes(params, [t])
        u_l, u_b = reference_eur(reference_evolved(k, d.a, d.b, g_plus, g_minus))[:2]
        want.append(u_l - u_b)
    want = np.array(want)
    # the suite evolves in the dressed frame, the reference in computational indices
    (got,) = captured[0]
    assert np.max(np.abs(got - want)) <= 1e-13
    assert detail == f"50 draws: worst bound margin {want.min():.2e}"


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    """Sweep records and the suites' results and per-draw arrays are bit-identical for blocks of 7, 128 and the default.

    The sweeps are a ground-first one with unequal rates (1300 steps) and
    a preset at 1201 steps, so every block size leaves a short last block.
    A block of 1 is left out: numpy takes another path for a length-1
    stack, and sweep rows then move by up to 2.2e-16.
    """
    sweeps = (
        SweepConfig(
            channel=ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05),
            k=0.8, t_max=600.0, steps=1300, basis="ground-first",
        ),
        dataclasses.replace(figure_preset("fig3c"), steps=1201),
    )
    runs = []
    for block in (experiment._BLOCK, 7, 128):
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "_BLOCK", block)
            captured = capture_draws(patch)
            results = [check_cptp(), check_oracle(), check_uncertainty_inequality()]
            runs.append(([run_sweep(cfg).tobytes() for cfg in sweeps], results, captured))
    (records, results, captured), *others = runs
    for other_records, other_results, other_captured in others:
        assert other_records == records
        assert other_results == results
        for got, want in zip(other_captured, captured, strict=True):
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


# the normals of the CPTP suite's input states against the scalar math
# Box-Muller: numpy's vectorised log1p, cos and sin may differ from libm's in
# the last bits (at most 2 ulp over 30 seeds of 1000 draws on an AVX-512
# host), while a wrong pairing or formula moves them by far more
NORMAL_ULPS = 8


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "draws, reference, max_ulp",
    [(experiment._cptp_draws, reference_cptp_draws, NORMAL_ULPS),
     (experiment._inequality_draws, reference_inequality_draws, 0)],
    ids=["cptp", "inequality"],
)
def test_block_draws_equal_the_scalar_calls(draws, reference, max_ulp, seed):
    """The suites' draws, taken whole, against one scalar 8-byte call per number.

    The uniform columns (the field rows, t, and k) are compared bit for
    bit. The CPTP factors are compared within NORMAL_ULPS against a scalar
    math Box-Muller, an independent reference for the layout and the
    formula that cannot pin numpy's vectorised libm to the last bit.
    n straddles the evaluation block of 512.
    """
    for n in (1, 511, 512, 513, 1000):
        fields, ts, last = draws(seed, n)
        params, want_ts, want_last = zip(*reference(random.Random(seed), n))
        assert fields.tobytes() == as_fields(params).tobytes(), n
        assert ts.tobytes() == np.array(want_ts).tobytes(), n
        # in ulps of the float64 parts: 0 for k, whose values are all non-negative
        np.testing.assert_array_max_ulp(last.view(float), np.array(want_last).view(float), max_ulp)


def patch_draw(monkeypatch, index, bad):
    """Replace row index of the suite's draw array (gamma1, gamma2, theta, lam) by bad(row); returns the rows."""
    drawn = []
    original = experiment._draw_fields

    def with_one_bad_draw(draws):
        fields = original(draws)
        fields[index] = bad(fields[index].tolist())
        drawn.extend(fields.tolist())
        return fields

    monkeypatch.setattr(experiment, "_draw_fields", with_one_bad_draw)
    return drawn


@pytest.mark.parametrize("suite", [check_cptp, check_uncertainty_inequality])
def test_suite_failure_names_the_draw(monkeypatch, suite):
    # in blocks of 64 draws, draw 130 sits in the third block and draw 199 is
    # the last of the partial fourth, so the index names the block's start
    # plus the draw's place in it; d + lam overflows, so its G is not finite
    monkeypatch.setattr(experiment, "_BLOCK", 64)
    for index in (130, 199):
        with monkeypatch.context() as patch:
            drawn = patch_draw(patch, index, lambda row: [*row[:3], 1e308])
            with pytest.raises(ValueError) as info:
                suite(n_draws=200)
        gamma1, gamma2, theta, _ = drawn[index]
        message = str(info.value)
        assert message.startswith("branch amplitude not finite and real")
        assert message.endswith(
            f" (draw {index}: ChannelParams(gamma1={gamma1!r}, gamma2={gamma2!r}, theta={theta!r}, lam=1e+308))"
        )
        assert "np.float64(" not in message
        # the check names the time of the draw, and only once
        assert message.count("t=") == 1


@pytest.mark.parametrize("suite", [check_cptp, check_uncertainty_inequality])
def test_suite_names_the_draw_of_an_unrepresentable_rate(monkeypatch, suite):
    # the block's rates are derived in one pass; the one rate beyond the float range is named with its draw
    patch_draw(monkeypatch, 130, lambda row: [1e308, 1e308, 1.0, 1.0])
    with pytest.raises(ValueError) as info:
        suite(n_draws=200)
    assert str(info.value) == (
        "branch rate gamma_plus = (gamma1 + gamma2 + q)/2 exceeds the float range for "
        "gamma1=1e+308, gamma2=1e+308, theta=1.0 "
        "(draw 130: ChannelParams(gamma1=1e+308, gamma2=1e+308, theta=1.0, lam=1.0))"
    )


@pytest.mark.parametrize("suite", [check_cptp, check_uncertainty_inequality])
def test_suite_names_the_draw_of_an_out_of_range_field(monkeypatch, suite):
    # the block's rows are range-checked in one pass, and the bad row's index names its draw
    patch_draw(monkeypatch, 130, lambda row: [1.0, 1.0, 1.5, 1.0])
    with pytest.raises(ValueError) as info:
        suite(n_draws=200)
    assert str(info.value) == (
        "theta must lie in [-1, 1], got 1.5 (draw 130: ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.5, lam=1.0))"
    )


@pytest.mark.parametrize("suite", [check_cptp, check_uncertainty_inequality])
def test_suite_names_the_first_draw_with_an_out_of_range_field(monkeypatch, suite):
    # draws 5 and 130 share a block; the earlier draw is named, though its bad field comes later in the row
    patch_draw(monkeypatch, 5, lambda row: [*row[:3], -1.0])
    patch_draw(monkeypatch, 130, lambda row: [0.0, *row[1:]])
    with pytest.raises(ValueError) as info:
        suite(n_draws=200)
    assert str(info.value).startswith("lam must be positive and finite, got -1.0 (draw 5: ChannelParams(gamma1=")


@pytest.mark.parametrize("suite", [check_cptp, check_oracle, check_uncertainty_inequality, oracle_grid])
def test_suites_reject_empty_runs(suite):
    # checked before anything is drawn: -1 would reach numpy, 2.5 and True np.empty and range
    for n in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match=rf"at least 1 draw, got {n}$"):
            suite(n)
    # and a seed that could not replay the run: random.Random would take -1 as
    # 1, hash 2.5, take True as 1 and None as fresh entropy
    if suite in (check_cptp, check_uncertainty_inequality):
        for seed in (-1, 2.5, True, None):
            with pytest.raises(ValueError, match=rf"^seed must be an integer of at least 0, got {seed}$"):
                suite(10, seed)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main([
        "sweep", "--theta", "0", "--lambda", "0.001", "--k", "1",
        "--t-max", "10", "--steps", "4", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "cli.csv.summary.txt").exists()
    assert "wrote 4 records" in capsys.readouterr().out


def test_cli_sweep_markov_limit_width(tmp_path):
    # lam >> rate: G(t) = exp(-rate*t/2). At 1e20 the cancelling form of G
    # once rounded its exponent to 0 and wrote g = 1 at every t; at 1e300
    # lam*(lam - 2*rate) overflowed and the sweep stopped at t = 0
    for lam in ("1e20", "1e300"):
        out = tmp_path / f"markov_{lam}.csv"
        assert main([
            "sweep", "--theta", "0", "--lambda", lam, "--k", "1",
            "--t-max", "10", "--steps", "3", "--out", str(out),
        ]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert rows[-1]["t_gamma"] == "10"
        assert rows[-1]["g_plus"] == rows[-1]["g_minus"] == f"{math.exp(-5.0):.12g}"


def test_cli_sweep_tiny_width(tmp_path):
    # lam*(lam - 2*rate) underflows at lam = 1e-170; as one product it made
    # the minus branch (rate 0, true G = 1) read G = 1 + lam*t/2, and the
    # sweep stopped with "Kraus completeness violated: 5.625"
    out = tmp_path / "tiny.csv"
    assert main([
        "sweep", "--theta", "1", "--lambda", "1e-170", "--k", "1",
        "--t-max", "1e171", "--steps", "3", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [row["t_gamma"] for row in rows] == ["0", "5e+170", "1e+171"]
    assert all(float(row["g_minus"]) == 1.0 for row in rows)


def test_cli_sweep_huge_rate(tmp_path):
    # gamma1 - gamma2 squared overflowed in the rate derivation above about 1.3e154,
    # and the sweep stopped at t = 0 blaming the branch amplitude
    out = tmp_path / "huge.csv"
    assert main([
        "sweep", "--gamma1", "6.3e169", "--gamma2", "0.99999", "--theta", "0.99999", "--lambda", "3.8e15",
        "--k", "0.6", "--t-max", "10", "--steps", "5", "--out", str(out),
    ]) == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 5
    assert np.isfinite(np.array([row.split(",") for row in rows], dtype=float)).all()


@pytest.mark.parametrize("value", ["-1e-05", "-2.5e+16", "-0.5"])
def test_cli_reads_negative_values_after_a_space(tmp_path, value):
    # argparse on Python 3.10 and 3.11 took "-1e-05" after a space for an
    # option, and "--theta -1e-05" exited 2 with "expected one argument"
    rest = ["--lambda", "1", "--k", "1", "--t-max", "1", "--steps", "3", "--out", str(tmp_path / "x.csv")]
    for given_as in (["--theta", value, "--gamma2", value], [f"--theta={value}", f"--gamma2={value}"]):
        args = build_parser().parse_args(["sweep", *given_as, *rest])
        assert args.theta == args.gamma2 == float(value)
    # the value reaches the parameter checks: -2.5e+16 is out of range, the others run
    assert main(["sweep", "--theta", value, *rest]) == (1 if value == "-2.5e+16" else 0)


def test_cli_unknown_option_exits_2(tmp_path):
    rest = ["--lambda", "1", "--k", "1", "--t-max", "1", "--steps", "3", "--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--theta", "-1e-05", "--bogus", "-1e-05", *rest])
    assert exc.value.code == 2


def test_cli_sweep_rejects_bad_value(tmp_path, capsys):
    code = main([
        "sweep", "--theta", "7", "--lambda", "1", "--k", "0",
        "--t-max", "10", "--steps", "4", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "theta" in err


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "python-O"])
@pytest.mark.parametrize(
    "args,needle",
    [
        (["--t-max", "inf", "--lambda", "0.001"], "t_max must be positive and finite"),
        # the grid point 2 * 1e308 / 3 overflows
        (["--t-max", "1e308", "--lambda", "0.001"], "t_max = 1e+308 overflows the grid"),
        (["--t-max", "10", "--lambda", "inf"], "lam must be positive and finite"),
        (["--t-max", "10", "--lambda", "1e308"], "not finite and real"),
        # a steps beyond the float range overflows it however small t_max is
        (["--t-max", "10", "--lambda", "1", "--steps", "1" + "0" * 400], "t_max = 10.0 overflows the grid"),
    ],
)
def test_cli_extreme_input_fails_cleanly(tmp_path, args, needle, optimize):
    # run in a fresh interpreter so that -O really strips assert statements
    cmd = [sys.executable, *(["-O"] if optimize else []), "-m", "qutrit_eur.cli", "sweep",
           "--theta", "0", "--k", "1", "--steps", "4", *args, "--out", str(tmp_path / "x.csv")]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr
    if args[-2:] == ["--lambda", "1e308"]:
        # failures inside the sweep name the failing sample and the sweep parameters
        assert " at t=" in proc.stderr and "(sweep gamma1=1 gamma2=1 theta=0" in proc.stderr


def typical_or_any(typical):
    """A value from the typical range, or any finite float."""
    return st.one_of(typical, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(
    gamma1=typical_or_any(st.floats(0.01, 10.0)),
    gamma2=typical_or_any(st.floats(0.01, 10.0)),
    theta=typical_or_any(st.floats(-1.0, 1.0)),
    lam=typical_or_any(st.floats(1e-3, 1e3)),
    k=typical_or_any(st.floats(0.0, 1.0)),
    t_max=st.one_of(st.floats(0.0, 1e3), st.floats(-1e308, 1e308)),
    steps=st.integers(2, 8),
    basis=st.sampled_from(["kraus-order", "ground-first"]),
)
# a minus-branch rate that cancelled to about -2 made G*G overflow
@example(gamma1=5.0, gamma2=2.9433575681425316e16, theta=1.0, lam=2.0, k=0.0, t_max=486.0, steps=2, basis="kraus-order")
def test_cli_fuzz_writes_finite_csv_or_one_error_line(tmp_path_factory, gamma1, gamma2, theta, lam, k, t_max, steps, basis):
    # every finite argv either writes a finite CSV or fails with one error line;
    # any other exception, or a RuntimeWarning, escapes main and fails the test
    out = tmp_path_factory.getbasetemp() / "fuzz.csv"
    out.unlink(missing_ok=True)
    options = {
        "gamma1": repr(gamma1), "gamma2": repr(gamma2), "theta": repr(theta), "lambda": repr(lam),
        "k": repr(k), "t-max": repr(t_max), "steps": str(steps), "basis": basis, "out": str(out),
    }
    argv = ["sweep", *(part for name, value in options.items() for part in (f"--{name}", value))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code == 0:
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == steps
        assert np.isfinite(np.array([row.split(",") for row in rows], dtype=float)).all()
    else:
        assert code == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not out.exists()


def test_cli_figure_runs_preset(tmp_path):
    out = tmp_path / "fig2a.csv"
    assert main(["figure", "fig2a", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert "preset=fig2a" in header
    assert "lambda-interpretation=period-consistent" in header
    assert "lambda=0.001" in header


def test_cli_figure_literal_lambda_recorded(tmp_path):
    out = tmp_path / "fig2a_lit.csv"
    assert main(["figure", "fig2a", "--literal-lambda", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert "lambda-interpretation=literal" in header
    assert "lambda=1000" in header


def test_cli_figure_rejects_unknown(tmp_path, capsys):
    assert main(["figure", "fig9x", "--out", str(tmp_path / "x.csv")]) == 1
    assert "valid names" in capsys.readouterr().err


def test_cli_check(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_cli_check_reports_a_raising_suite_and_runs_the_rest(monkeypatch, capsys):
    # a completeness deviation of 4e-9 at draw 3 of the CPTP suite: G+ = 1 + 2e-9 there.
    # The inequality suite shares the patched name, so only the CPTP suite's draw 3 is hit
    original = experiment.dressed_amplitudes
    draw_3 = experiment._cptp_draws(20240811, 4)[0][3]

    def incomplete_at_draw_3(fields, ts):
        frames, g_plus, g_minus = original(fields, ts)
        return frames, np.where((fields == draw_3).all(axis=1), 1.0 + 2e-9, g_plus), g_minus

    monkeypatch.setattr(experiment, "dressed_amplitudes", incomplete_at_draw_3)
    with pytest.raises(ValueError, match=r"^Kraus completeness violated: .* \(draw 3: ChannelParams\(") as raised:
        check_cptp()
    assert main(["check"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == f"  [FAIL] cptp: {raised.value}"
    assert lines[1].startswith("  [PASS] oracle: 100 grid points")
    assert lines[2].startswith("  [PASS] inequality: 1000 draws")
    assert lines[3].startswith("self-check FAILED in ")
    assert captured.err == "error: self-check failed\n"


def test_cli_check_fails_the_inequality_suite_on_a_violated_bound(monkeypatch, capsys):
    # a bound offset of 10 bits lies above u_l = s_xb + s_zb <= 2 log2(3) for every draw
    monkeypatch.setattr(entropy, "BOUND_OFFSET", 10.0)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("  [PASS] cptp: 1000 draws")
    assert lines[1].startswith("  [PASS] oracle: 100 grid points")
    assert lines[2].startswith("  [FAIL] inequality: uncertainty sum ")
    assert " below its lower bound " in lines[2]
    assert lines[2].endswith(")") and " (draw 0: ChannelParams(gamma1=" in lines[2]
    assert lines[3].startswith("self-check FAILED in ")


def closed_pipe():
    """The write end of a pipe whose read end is closed already, so every write to it fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check", "figure"])
def test_cli_exits_quietly_when_the_reader_of_stdout_is_gone(tmp_path, command, buffered):
    # as under `qutrit-eur check | head -1`, with no race: the reader is gone before the run starts
    argv = ["check"] if command == "check" else ["figure", "fig3d", "--out", str(tmp_path / "piped.csv")]
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, *([] if buffered else ["-u"]), "-m", "qutrit_eur.cli", *argv]
    write = closed_pipe()
    try:
        proc = subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == 1
    if command == "figure":
        # the CSV and its summary are written before the line to stdout, and are complete
        assert main(["figure", "fig3d", "--out", str(tmp_path / "plain.csv")]) == 0
        for suffix in ("", ".summary.txt"):
            assert (tmp_path / f"piped.csv{suffix}").read_bytes() == (tmp_path / f"plain.csv{suffix}").read_bytes()


def test_cli_reports_a_failed_csv_write_when_the_reader_of_stdout_is_gone(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    write = closed_pipe()
    try:
        proc = subprocess.run([sys.executable, "-m", "qutrit_eur.cli", "figure", "fig3d", "--out", str(out)],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=src_env(), timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: failed to write sweep CSV to {out}: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_cli_reports_a_full_stdout_once(buffered):
    # every write to /dev/full fails with ENOSPC: one error line and status 1,
    # with no second report from the interpreter's flush at exit (status 120)
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, *([] if buffered else ["-u"]), "-m", "qutrit_eur.cli", "check"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_cli_imports_no_numpy_random(tmp_path):
    """check, figure and sweep never import numpy.random, whose import costs about 6 MiB of RSS.

    In a fresh interpreter, since pytest has imported numpy.random in this one.
    """
    sweep = ["sweep", "--gamma1", "1.5", "--gamma2", "0.5", "--theta", "0.5", "--lambda", "0.05", "--k", "0.8",
             "--t-max", "600", "--steps", "2400", "--basis", "ground-first", "--out", str(tmp_path / "sweep.csv")]
    script = (
        "import sys\n"
        "from qutrit_eur.cli import main\n"
        f"codes = [main(['check']), main(['figure', 'fig3d', '--out', {str(tmp_path / 'fig3d.csv')!r}]), main({sweep!r})]\n"
        "print(codes, sorted(name for name in sys.modules if name.startswith('numpy.random')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
