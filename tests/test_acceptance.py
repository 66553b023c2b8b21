"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The twelve preset sweeps behind criteria 6-8 and 10 are computed
once in a session fixture.

Criterion 8c (oscillation-count monotonicity across the fig4 spectral-width
ladder) fails by model arithmetic and is expected red; see its docstring.
"""

import time

import numpy as np
import pytest

from qutrit_eur.channel import ChannelParams, dressed_amplitudes
from qutrit_eur.entropy import BOUND_OFFSET, evolved_isotropic_columns
from qutrit_eur.experiment import (
    SweepConfig,
    check_cptp,
    check_oracle,
    emit_csv,
    local_minima_indices,
    run_sweep,
    summarize,
)
from qutrit_eur.states_obs import spin1_observable

from conftest import reference_max_overlap

LOG2_3 = np.log2(3.0)


def test_criterion_1_cptp_property_suite():
    t0 = time.perf_counter()
    ok, detail = check_cptp(n_draws=1000)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 10.0, f"CPTP suite took {elapsed:.1f}s"
    print(f"[PASS] criterion 1: CPTP suite ({detail}, {elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    ok, detail = check_oracle(n_points=100)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 5.0, f"oracle suite took {elapsed:.1f}s"
    print(f"[PASS] criterion 2: oracle equivalence ({detail}, {elapsed:.1f}s)")


def test_criterion_3_exact_anchors_at_t0():
    # the engine at t = 0, where G+- = 1, on a channel whose dressed frame mixes the excited levels
    ks = np.linspace(0.0, 1.0, 11)
    ts = np.zeros(len(ks))
    frame, g_plus, g_minus = dressed_amplitudes(ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05), ts)
    cols = evolved_isotropic_columns(g_plus, g_minus, ks, frame, ts)
    assert cols.u_l[0] == pytest.approx(2 * LOG2_3, abs=1e-9)
    assert cols.u_l[-1] == pytest.approx(0.0, abs=1e-9)
    assert cols.u_b[-1] == pytest.approx(1.0 - LOG2_3, abs=1e-9)
    for k, negativity in zip(ks, cols.negativity):
        expected = max(0.0, (4 * k - 1) / 3)
        assert negativity == pytest.approx(expected, abs=1e-10)
    print("[PASS] criterion 3: t=0 anchors (uncertainty sums, bound, negativity grid)")


def test_criterion_4_bound_constant():
    c = reference_max_overlap(spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis)
    assert c == pytest.approx(0.5, abs=1e-12)
    # the engine's offset is the exact log2(1/c) of c = 1/2
    assert BOUND_OFFSET == 1.0 == np.log2(1.0 / 0.5)
    print(f"[PASS] criterion 4: overlap constant c = {c}")


def test_criterion_5_decoherence_free_branch():
    worst = 0.0
    for lam in (0.001, 0.01, 1.0, 1000.0):
        p = ChannelParams(gamma1=1.0, gamma2=1.0, theta=1.0, lam=lam)
        g_minus = dressed_amplitudes(p, np.linspace(0.0, 600.0, 121))[2]
        worst = max(worst, float(np.max(np.abs(g_minus - 1.0))))
    assert worst <= 1e-12
    print(f"[PASS] criterion 5: undamped branch stays at 1 (worst dev {worst:.2e})")


def test_criterion_6_bound_inequality_on_all_presets(preset_sweeps):
    sweeps, elapsed = preset_sweeps
    n = 0
    worst = np.inf
    for rows in sweeps.values():
        worst = min(worst, float(np.min(rows.u_l - rows.u_b)))
        assert np.all(rows.u_l >= rows.u_b - 1e-9)
        assert np.all(np.abs(rows.u_l - (rows.s_xb + rows.s_zb)) <= 1e-12)
        n += len(rows)
    assert n == 12 * 4800
    assert elapsed < 300.0, f"preset sweeps took {elapsed:.0f}s"
    print(
        f"[PASS] criterion 6: bound holds on {n} records "
        f"(worst margin {worst:.2e}, sweeps in {elapsed:.0f}s)"
    )


def first_beta_region_minimum(rows):
    """Minimum of the uncertainty sum over the first cycle's beta region.

    The curve rises to twin ceiling maxima separated by a shallow dip in
    which uncertainty and entanglement fall together (the alpha region);
    the beta region follows the second maximum, where the deep dip of the
    uncertainty coincides with the entanglement revival. Operationally:
    the window between the second and third interior maxima.
    """
    # maxima of u_l are the minima of -u_l; negation is exact
    maxima = local_minima_indices(-rows.u_l)
    assert len(maxima) >= 3, "need at least three uncertainty maxima"
    lo, hi = maxima[1], maxima[2]
    return float(rows.u_l[lo : hi + 1].min())


def test_criterion_7_figure_anchors(preset_sweeps):
    sweeps, _ = preset_sweeps

    fig2_expect = {"fig2a": 3.169, "fig2b": 2.890, "fig2c": 2.697, "fig2d": 2.368}
    for name, expected in fig2_expect.items():
        got = summarize(sweeps[name]).u_l_max
        assert got == pytest.approx(expected, abs=0.02), f"{name} max {got}"

    fig3_expect = {"fig3b": 2.853, "fig3c": 2.555, "fig3d": 1.596}
    for name, expected in fig3_expect.items():
        got = summarize(sweeps[name]).u_l_max
        assert got == pytest.approx(expected, abs=0.02), f"{name} max {got}"

    beta_min = first_beta_region_minimum(sweeps["fig3d"])
    assert beta_min == pytest.approx(0.575, abs=0.05), f"beta-region min {beta_min}"

    period = summarize(sweeps["fig2a"]).period_estimate
    assert period is not None
    assert abs(period - 149.0) <= 0.10 * 149.0, f"period {period}"

    print(
        "[PASS] criterion 7: reference maxima, beta-region minimum "
        f"({beta_min:.3f}), period ({period:.1f})"
    )


def test_criterion_8a_negativity_freeze_and_revival(preset_sweeps):
    sweeps, _ = preset_sweeps
    neg = sweeps["fig2d"].negativity
    below = neg <= 1e-3
    assert below.any(), "negativity never decays to 1e-3"
    first = int(np.argmax(below))
    run_end = first
    while run_end + 1 < len(neg) and below[run_end + 1]:
        run_end += 1
    assert run_end > first, "no finite interval below 1e-3"
    assert (neg[run_end + 1 :] > 1e-3).any(), "negativity never revives"
    print(
        f"[PASS] criterion 8a: negativity freezes over {run_end - first + 1} samples "
        f"then revives (peak after freeze {neg[run_end + 1:].max():.3f})"
    )


def test_criterion_8b_initial_uncertainty_independent_of_width(preset_sweeps):
    sweeps, _ = preset_sweeps
    initial = [sweeps[f"fig4{p}"].u_l[0] for p in "abcd"]
    assert max(initial) - min(initial) <= 1e-6
    print(f"[PASS] criterion 8b: initial uncertainty spread {max(initial) - min(initial):.2e}")


def test_criterion_8c_minima_count_monotone_in_width(preset_sweeps):
    """Oscillation count across the fig4 width ladder, smaller width = more minima.

    Model arithmetic contradicts this on a fixed time window: the dip
    spacing 2*pi/|d|, the revival period of |G|, with
    |d| = sqrt(2*lam*gamma - lam^2), grows as lam shrinks (about 44.5 at
    lam = 0.01 versus 140.5 at lam = 0.001), so
    fewer dips fit the window at the smallest width, while at large width
    the exp(-lam*t/2) envelope kills the oscillation early. The count
    peaks at intermediate width; this check is expected to fail and is
    kept red deliberately.
    """
    sweeps, _ = preset_sweeps
    counts = [
        len(local_minima_indices(sweeps[f"fig4{p}"].u_l)) for p in "abcd"
    ]
    print(f"criterion 8c: minima counts fig4a..d = {counts}")
    assert counts == sorted(counts), (
        f"minima counts {counts} are not nondecreasing toward smaller width"
    )
    print("[PASS] criterion 8c: minima count nondecreasing")


def peak_and_mean(rows):
    """Peak and time mean of the uncertainty sum; the grid is uniform, so the sample mean is the time mean."""
    return rows.u_l.max(), rows.u_l.mean()


def test_criterion_10a_memory_lowers_uncertainty(preset_sweeps):
    """More initial entanglement with the memory (larger k) lowers u_l, with and without SGI.

    The abstract says the quantum memory reduces the uncertainty without
    naming a statistic, so both readings are checked: the peak of u_l over
    the window and its time mean. Each falls strictly along the k ladder
    0, 0.4, 0.6, 1 of fig2 (no SGI) and of fig3 (SGI); the claim holds
    under both statistics, so neither is picked to make it pass.
    """
    sweeps, _ = preset_sweeps
    for fig in ("fig2", "fig3"):
        peaks, means = zip(*(peak_and_mean(sweeps[f"{fig}{panel}"]) for panel in "abcd"))
        assert all(a > b for a, b in zip(peaks, peaks[1:])), f"{fig} peaks {peaks}"
        assert all(a > b for a, b in zip(means, means[1:])), f"{fig} means {means}"
        print(
            f"[PASS] criterion 10a: {fig} peaks {' > '.join(f'{v:.3f}' for v in peaks)}, "
            f"means {' > '.join(f'{v:.3f}' for v in means)}"
        )


def test_criterion_10c_memory_and_sgi_together_lowest(preset_sweeps):
    """Maximal entanglement and maximal SGI together (fig3d) give the lowest u_l of the eight panels.

    The abstract says memory and SGI together reduce the uncertainty most,
    without naming a statistic, so both readings are checked: fig3d has
    the lowest peak and the lowest time mean of u_l among fig2a-d and
    fig3a-d. The claim holds under both statistics, so neither is picked
    to make it pass.
    """
    sweeps, _ = preset_sweeps
    stats = {f"fig{fig}{panel}": peak_and_mean(sweeps[f"fig{fig}{panel}"]) for fig in "23" for panel in "abcd"}
    lowest_peak = min(stats, key=lambda name: stats[name][0])
    lowest_mean = min(stats, key=lambda name: stats[name][1])
    assert lowest_peak == lowest_mean == "fig3d", f"lowest peak {lowest_peak}, lowest mean {lowest_mean}"
    print(
        f"[PASS] criterion 10c: fig3d lowest of eight panels "
        f"(peak {stats['fig3d'][0]:.3f}, mean {stats['fig3d'][1]:.3f})"
    )


def test_criterion_9_determinism(tmp_path):
    cfg = SweepConfig(
        channel=ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.3, lam=0.01),
        k=0.8,
        t_max=300.0,
        steps=40,
    )
    bodies = []
    for i in range(2):
        path = tmp_path / f"run{i}.csv"
        emit_csv(run_sweep(cfg), path, cfg)
        bodies.append(path.read_bytes())
    assert bodies[0] == bodies[1]
    print("[PASS] criterion 9: repeated runs emit bit-identical CSV bodies")
