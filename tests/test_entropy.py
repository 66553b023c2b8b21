"""Tests for entropies, the uncertainty relation, and negativity.

Three subjects. The general-state anchors hold the dense reference that
the engine is compared against (conftest.reference_eur: full spectra and
kron projectors) to known values; S(A|B) is read off its bound as
u_b - log2(1/c), and log2(1/c) = 1 for the x/z pair. The isotropic
anchors run the engine, dressed_amplitudes and evolved_isotropic_columns,
at t = 0, where G+- = 1 and the state is the input itself. The checks
the engine ends in, _checked_columns, run on synthetic spectra.
"""

import numpy as np
import pytest

from qutrit_eur.channel import ChannelParams, dressed_amplitudes
from qutrit_eur.entropy import EurSample, _checked_columns, evolved_isotropic_columns
from qutrit_eur.states_obs import spin1_observable

from conftest import (
    as_fields,
    derived,
    random_density_matrix,
    random_params,
    random_unitary,
    reference_dephased,
    reference_entropy,
    reference_eur,
    reference_evolved,
    reference_isotropic,
    reference_partial_trace_a,
)

I9 = np.eye(9, dtype=complex)
LOG2_3 = np.log2(3.0)
# unequal rates with partial SGI, so that the dressed frame mixes the excited levels
MIXED = ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05)

# measured uncertainty of the k = 0.6 isotropic state at t = 0, frozen from
# the analytic post-measurement spectrum {(1-k)/9 x6, (1-k)/9 + k/3 x3}
U_L_ISOTROPIC_06 = 2.2066148172156677


def isotropic_u_l_analytic(k):
    a = (1.0 - k) / 9.0
    b = (1.0 - k) / 9.0 + k / 3.0
    s_measured = 0.0
    for w, mult in ((a, 6), (b, 3)):
        if w > 0:
            s_measured -= mult * w * np.log2(w)
    return 2.0 * (s_measured - LOG2_3)


def conditional(rho):
    """S(A|B) = S(rho_AB) - S(rho_B), read off the bound u_b = 1 + S(A|B) of the dense reference."""
    return reference_eur(rho)[1] - 1.0


def at_t0(k):
    """The engine's EurSample of the isotropic state of mixing k at t = 0: arrays, one entry per k."""
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    ts = np.zeros(len(ks))
    frame, g_plus, g_minus = dressed_amplitudes(MIXED, ts)
    return evolved_isotropic_columns(g_plus, g_minus, ks, frame, ts)


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# three times, and the names of the spectra _checked_columns checks as states
TS3 = np.array([0.0, 2.5, 5.0])
SPECTRA = ("rho_ab", "rho_b", "Sx-measured state", "Sz-measured state")


def mixed_spectra():
    """The spectra _checked_columns takes, of I/9 at each time of TS3: rho_AB, rho_B, both measured states, rho^T_A."""
    n = len(TS3)
    return [
        np.full((n, 9), 1.0 / 9.0), np.full((n, 3), 1.0 / 3.0), np.full((n, 2, 9), 1.0 / 9.0), np.full((n, 9), 1.0 / 9.0)
    ]


def spectrum_rows(spectra, i):
    """Row i of each state spectrum in spectra, by its name in SPECTRA, as views."""
    w_ab, w_b, w_xz, _ = spectra
    return dict(zip(SPECTRA, (w_ab[i], w_b[i], w_xz[i, 0], w_xz[i, 1])))


def with_negativity(raw):
    """mixed_spectra, with a partial-transpose spectrum of raw negativity raw[i] at each time."""
    spectra = mixed_spectra()
    spectra[3][:] = 0.0
    spectra[3][:, 0] = 2.0 * np.asarray(raw) + 1.0
    return spectra


# ---------------------------------------------------------------------------
# entropies of the state and its marginal
# ---------------------------------------------------------------------------


def test_vn_pure_state_is_zero():
    # S(rho_AB) = 0, so S(A|B) = -S(rho_B)
    rho = random_pure_state(np.random.default_rng(113), 9)
    assert conditional(rho) == pytest.approx(-reference_entropy(reference_partial_trace_a(rho)), abs=1e-12)


def test_vn_maximally_mixed():
    assert conditional(I9 / 9) + LOG2_3 == pytest.approx(np.log2(9.0), abs=1e-12)


def test_vn_isotropic_from_spectrum():
    # the marginal of an isotropic state is maximally mixed, S(rho_B) = log2(3)
    k = 0.4
    a, b = (1 - k) / 9, (1 - k) / 9 + k
    expected = -(8 * a * np.log2(a) + b * np.log2(b))
    assert conditional(reference_isotropic(k)) + LOG2_3 == pytest.approx(expected, abs=1e-12)


def test_vn_rejects_negative_eigenvalue():
    # each spectrum the engine checks as a state, at the second of three times;
    # an eigenvalue within round-off of 0 passes
    for name in SPECTRA:
        spectra = mixed_spectra()
        row = spectrum_rows(spectra, 1)[name]
        pair = row[0] + row[1]
        row[:2] = pair + 5e-11, -5e-11
        _checked_columns(*spectra, TS3)
        row[:2] = pair + 0.2, -0.2
        with pytest.raises(ValueError, match=rf"^{name} has negative eigenvalue -2\.000e-01; not a state at t=2\.5$"):
            _checked_columns(*spectra, TS3)


def test_vn_rejects_wrong_trace():
    for name in SPECTRA:
        spectra = mixed_spectra()
        spectrum_rows(spectra, 1)[name][:] *= 1.5
        with pytest.raises(ValueError, match=rf"^{name} must have unit trace, got 1\.(5|4999\d*) at t=2\.5$"):
            _checked_columns(*spectra, TS3)


def test_vn_unitarily_invariant():
    # local unitaries keep S(rho_AB) and S(rho_B); one on B alone keeps the measured entropies too
    rng = np.random.default_rng(127)
    for _ in range(10):
        rho = random_density_matrix(rng, 9)
        v = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
        assert conditional(v @ rho @ v.conj().T) == pytest.approx(conditional(rho), abs=1e-10)
        w = np.kron(np.eye(3), random_unitary(rng, 3))
        moved, same = reference_eur(w @ rho @ w.conj().T), reference_eur(rho)
        # u_l, s_xb and s_zb
        assert [moved[i] for i in (0, 2, 3)] == pytest.approx([same[i] for i in (0, 2, 3)], abs=1e-10)


def test_measurement_never_decreases_entropy():
    rng = np.random.default_rng(131)
    for basis in (spin1_observable("x").eigenbasis, spin1_observable("z").eigenbasis, random_unitary(rng, 3)):
        for _ in range(10):
            rho = random_density_matrix(rng, 9)
            measured = reference_dephased(rho, basis)
            assert np.trace(measured).real == pytest.approx(1.0, abs=1e-14)
            assert reference_entropy(measured) >= reference_entropy(rho) - 1e-10


# ---------------------------------------------------------------------------
# conditional entropy
# ---------------------------------------------------------------------------


def test_conditional_max_entangled():
    assert conditional(reference_isotropic(1.0)) == pytest.approx(-LOG2_3, abs=1e-10)


def test_conditional_maximally_mixed():
    assert conditional(I9 / 9) == pytest.approx(LOG2_3, abs=1e-12)


def test_conditional_product_additivity():
    rng = np.random.default_rng(137)
    rho = random_density_matrix(rng, 3)
    sigma = random_density_matrix(rng, 3)
    got = conditional(np.kron(rho, sigma))
    assert got == pytest.approx(reference_entropy(rho), abs=1e-10)


# ---------------------------------------------------------------------------
# uncertainty relation
# ---------------------------------------------------------------------------


def test_eur_left_max_entangled_is_zero():
    assert at_t0(1.0).u_l[0] == pytest.approx(0.0, abs=1e-9)


def test_eur_left_maximally_mixed():
    parts = at_t0(0.0)
    assert parts.u_l[0] == pytest.approx(2 * LOG2_3, abs=1e-10)
    assert parts.s_xb[0] == pytest.approx(LOG2_3, abs=1e-10)
    assert parts.s_zb[0] == pytest.approx(LOG2_3, abs=1e-10)


def test_eur_left_isotropic_regression_anchor():
    parts = at_t0(0.6)
    assert parts.u_l[0] == pytest.approx(U_L_ISOTROPIC_06, abs=1e-9)
    assert parts.u_l[0] == pytest.approx(isotropic_u_l_analytic(0.6), abs=1e-9)
    assert parts.u_l[0] >= parts.u_b[0] - 1e-9


def test_eur_left_matches_analytic_on_k_grid():
    ks = (0.0, 0.25, 0.5, 0.75, 1.0)
    for k, u_l in zip(ks, at_t0(ks).u_l):
        assert u_l == pytest.approx(isotropic_u_l_analytic(k), abs=1e-9)


def test_eur_right_values():
    assert at_t0(1.0).u_b[0] == pytest.approx(1.0 - LOG2_3, abs=1e-10)
    assert at_t0(0.0).u_b[0] == pytest.approx(1.0 + LOG2_3, abs=1e-12)


def test_bound_check_names_the_sample():
    # pure measured states at t = 5: u_l = -2 log2(3), below u_b = 1 + log2(3)
    spectra = mixed_spectra()
    spectra[2][2] = np.eye(9)[0]
    with pytest.raises(ValueError, match=r"^uncertainty sum -3\.16992\d* below its lower bound 2\.58496\d* at t=5$"):
        _checked_columns(*spectra, TS3)


def test_eur_right_pure_product():
    rng = np.random.default_rng(139)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    rho = np.kron(np.outer(v, v.conj()), random_density_matrix(rng, 3))
    assert reference_eur(rho)[1] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------


def test_negativity_isotropic_formula():
    ks = np.linspace(0.0, 1.0, 11)
    for k, negativity in zip(ks, at_t0(ks).negativity):
        assert negativity == pytest.approx(max(0.0, (4 * k - 1) / 3), abs=1e-10)


def test_negativity_selected_anchors():
    assert at_t0(1.0).negativity[0] == pytest.approx(1.0, abs=1e-10)
    assert at_t0(0.4).negativity[0] == pytest.approx(0.2, abs=1e-10)
    assert at_t0(0.25).negativity[0] == pytest.approx(0.0, abs=1e-10)


def test_negativity_product_states_vanish():
    rng = np.random.default_rng(149)
    for _ in range(5):
        rho = np.kron(random_density_matrix(rng, 3), random_density_matrix(rng, 3))
        assert reference_eur(rho)[4] == pytest.approx(0.0, abs=1e-12)


def test_negativity_clamped_to_one():
    assert at_t0(1.0).negativity[0] <= 1.0
    # raw values within 1e-12 of [0, 1] are round-off, and clamp to its ends
    cols = _checked_columns(*with_negativity([1.0 + 3e-13, -5e-13, 0.5]), TS3)
    assert np.array_equal(cols.negativity, [1.0, 0.0, 0.5])


def test_negativity_above_one_names_the_sample():
    message = r"^negativity 1 \+ 6\.0\d*e-10 above the two-qutrit maximum 1; invalid state at t=5$"
    with pytest.raises(ValueError, match=message):
        _checked_columns(*with_negativity([1.0, 1.0, 1.0 + 6e-10]), TS3)


def test_negativity_below_zero_names_the_sample():
    with pytest.raises(ValueError, match=r"^negativity -2\.0\d*e-12 below round-off floor; invalid state at t=2\.5$"):
        _checked_columns(*with_negativity([0.0, -2e-12, 0.5]), TS3)


# ---------------------------------------------------------------------------
# combined samples
# ---------------------------------------------------------------------------


def test_eur_sample_terms_sum_exactly():
    frame, g_plus, g_minus = dressed_amplitudes(MIXED, np.array([0.0, 35.0]))
    s = evolved_isotropic_columns(g_plus, g_minus, 0.3, frame, np.array([0.0, 35.0]))
    assert np.array_equal(s.u_l, s.s_xb + s.s_zb)


def test_bound_holds_on_random_evolved_states():
    rng = np.random.default_rng(151)
    params = [random_params(rng) for _ in range(100)]
    ks, ts = rng.uniform(0.0, 1.0, 100), rng.uniform(0.0, 300.0, 100)
    frames, g_plus, g_minus = dressed_amplitudes(as_fields(params), ts)
    s = evolved_isotropic_columns(g_plus, g_minus, ks, frames, ts)
    assert np.all(s.u_l >= s.u_b - 1e-9)
    assert np.array_equal(s.u_l, s.s_xb + s.s_zb)


@pytest.mark.parametrize(
    "params",
    [
        ChannelParams(gamma1=1.0, gamma2=1.0, theta=0.0, lam=0.001),
        ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05),
    ],
    ids=["amplitudes-4.6e-23", "amplitudes-0"],
)
def test_decayed_state_reads_the_exact_bound(params):
    # at t = 1e5 both branches have decayed to the ground product state,
    # whose x outcomes are (1/4, 1/2, 1/4): u_l = 1.5 and u_b = log2(1/c) = 1
    # exactly, for every mixing, so the margin is exactly 1/2
    ts = np.array([1e5])
    frame, g_plus, g_minus = dressed_amplitudes(params, ts)
    assert abs(g_plus[0]) <= 1e-22 and abs(g_minus[0]) <= 1e-22
    for k in (0.0, 0.4, 1.0):
        s = evolved_isotropic_columns(g_plus, g_minus, k, frame, ts)
        assert (s.u_l[0], s.u_b[0], s.u_l[0] - s.u_b[0]) == (1.5, 1.0, 0.5)


def test_empty_time_axis_gives_empty_columns():
    ts = np.array([])
    frame, g_plus, g_minus = dressed_amplitudes(ChannelParams(gamma1=1.5, gamma2=0.5, theta=0.5, lam=0.05), ts)
    s = evolved_isotropic_columns(g_plus, g_minus, 0.6, frame, ts)
    assert isinstance(s, EurSample)
    assert all(column.shape == (0,) and column.dtype == np.float64 for column in s)


def test_u_l_of_maximally_mixed_is_channel_independent_at_t0():
    for theta in (0.0, 0.5, 1.0):
        for lam in (0.001, 1.0, 1000.0):
            params = ChannelParams(gamma1=1.0, gamma2=1.0, theta=theta, lam=lam)
            frame, g_plus, g_minus = dressed_amplitudes(params, np.zeros(1))
            u_l = evolved_isotropic_columns(g_plus, g_minus, 0.0, frame, np.zeros(1)).u_l[0]
            assert u_l == pytest.approx(2 * LOG2_3, abs=1e-10)


@pytest.mark.parametrize("kind", ["full-rank", "pure", "product"])
def test_eur_sample_matches_dense_reference(kind):
    # evolved isotropic states of each kind against the dense reference with
    # the engine's amplitudes: 0 < k < 1 before any amplitude reaches 0 (full
    # rank), the pure input psi+ at t = 0, and k = 0, the product
    # Phi(I)/3 (x) Phi(I)/3 at every t
    rng = np.random.default_rng({"full-rank": 157, "pure": 163, "product": 167}[kind])
    params = [random_params(rng) for _ in range(20)]
    ts = {"full-rank": rng.uniform(0.0, 5.0, 20), "pure": np.zeros(20), "product": rng.uniform(0.0, 300.0, 20)}[kind]
    ks = {"full-rank": rng.uniform(0.05, 0.95, 20), "pure": np.ones(20), "product": np.zeros(20)}[kind]
    frames, g_plus, g_minus = dressed_amplitudes(as_fields(params), ts)
    got = np.array(evolved_isotropic_columns(g_plus, g_minus, ks, frames, ts)).T
    for p, k, gp, gm, row in zip(params, ks, g_plus, g_minus, got):
        d = derived(p)
        assert tuple(row) == pytest.approx(reference_eur(reference_evolved(k, d.a, d.b, gp, gm)), abs=1e-12, rel=0.0)
