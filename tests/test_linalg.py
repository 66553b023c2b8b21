"""Tests for the two-qutrit layout of the dense reference, and the 3x3 Jacobi eigenvalue kernels.

The package forms no tensor products and no 9x9 state. The dense
reference in conftest builds product operators with numpy's ``np.kron``
and takes partial traces and transposes of them; the layout tests below
pin that its index order is r = 3*a + b, subsystem A the left factor.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qutrit_eur import experiment, linalg
from qutrit_eur.experiment import check_cptp, figure_preset, run_sweep
from qutrit_eur.linalg import (
    SampleError,
    hermitian_eigvals3,
    require_density_stack,
    require_hermitian_stack,
    symmetric_eigvals3,
)

from conftest import random_hermitian, reference_partial_trace_a, reference_partial_transpose_a

I3 = np.eye(3, dtype=complex)
I9 = np.eye(9, dtype=complex)


def psi_plus_projector():
    psi = np.zeros(9, dtype=complex)
    psi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    return np.outer(psi, psi.conj())


def kron_by_enumeration(a, b):
    """Independent oracle: fill every entry straight from the index formula."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for ia in range(da):
        for ja in range(da):
            for ib in range(db):
                for jb in range(db):
                    out[ia * db + ib, ja * db + jb] = a[ia, ja] * b[ib, jb]
    return out


def test_kron_identity():
    assert_allclose(np.kron(I3, I3), I9, atol=0)


def test_kron_diagonal_expansion():
    got = np.kron(np.diag([1.0, 0.0, -1.0]), I3)
    assert_allclose(got, np.diag([1, 1, 1, 0, 0, 0, -1, -1, -1]).astype(complex), atol=0)


def test_kron_matrix_units_brute_force():
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    e21 = np.zeros((3, 3), dtype=complex)
    e21[1, 0] = 1.0
    expected = kron_by_enumeration(e12, e21)
    got = np.kron(e12, e21)
    assert_allclose(got, expected, atol=0)
    # the single nonzero entry sits at row 0*3+1, column 1*3+0
    assert got[1, 3] == 1.0
    assert np.count_nonzero(got) == 1


def test_kron_random_against_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert_allclose(np.kron(a, b), kron_by_enumeration(a, b), atol=0)


def test_kron_associative_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert_allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=1e-12)
        s, t = rng.normal(size=2)
        assert_allclose(np.kron(s * a + t * b, c), s * np.kron(a, c) + t * np.kron(b, c), atol=1e-12)


def test_partial_trace_maximally_mixed():
    assert_allclose(reference_partial_trace_a(I9 / 9), I3 / 3, atol=1e-15)


def test_partial_trace_max_entangled_marginal():
    assert_allclose(reference_partial_trace_a(psi_plus_projector()), I3 / 3, atol=1e-15)


def test_partial_trace_of_product():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        assert_allclose(reference_partial_trace_a(np.kron(a, b)), b * np.trace(a), atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(29)
    m = random_hermitian(rng, 9)
    assert_allclose(np.trace(reference_partial_trace_a(m)), np.trace(m), atol=1e-12)


def test_partial_transpose_identity_invariant():
    assert_allclose(reference_partial_transpose_a(I9), I9, atol=0)


def test_partial_transpose_of_product():
    rng = np.random.default_rng(31)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    assert_allclose(reference_partial_transpose_a(np.kron(a, b)), np.kron(a.T, b), atol=0)


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(37)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    back = reference_partial_transpose_a(reference_partial_transpose_a(m))
    assert np.array_equal(back, m)


def test_partial_transpose_preserves_trace():
    rng = np.random.default_rng(41)
    m = random_hermitian(rng, 9)
    assert_allclose(np.trace(reference_partial_transpose_a(m)), np.trace(m), atol=1e-12)


def test_partial_transpose_max_entangled_spectrum():
    # the partial transpose of |psi+><psi+| is SWAP/3: +1/3 on the six
    # symmetric directions, -1/3 on the three antisymmetric ones
    swap = np.zeros((9, 9), dtype=complex)
    for a in range(3):
        for b in range(3):
            swap[3 * a + b, 3 * b + a] = 1.0
    got = reference_partial_transpose_a(psi_plus_projector())
    assert_allclose(got, swap / 3, atol=1e-15)
    spectrum = np.sort(np.linalg.eigvalsh(got))
    assert_allclose(spectrum, [-1 / 3] * 3 + [1 / 3] * 6, atol=1e-12)


# the off-diagonal entries (a01, a02, a12) in the order symmetric_eigvals3 takes them
_PAIRS = np.triu_indices(3, 1)
_EPS = np.finfo(float).eps


def eigvals3(m):
    """symmetric_eigvals3 of a (T, 3, 3) stack, each row sorted as eigvalsh sorts it."""
    return np.sort(symmetric_eigvals3(np.diagonal(m, axis1=-2, axis2=-1), m[:, _PAIRS[0], _PAIRS[1]]), axis=-1)


@st.composite
def symmetric_3x3(draw, kinds=("general", "diagonal", "zero", "repeated", "graded")):
    """A real symmetric 3x3 matrix: general, diagonal, zero, with a repeated eigenvalue, or graded.

    Entries reach 1e-300 to 1e300: a general, diagonal or repeated one
    takes one scale 10**e, e in [-300, 300], for the whole matrix, a graded
    one a_ij = m_ij s_i s_j with s_i = 10**e_i, e_i in [-150, 150].
    """
    kind = draw(st.sampled_from(kinds))
    unit = st.floats(-1.0, 1.0)
    if kind == "zero":
        return np.zeros((3, 3))
    if kind == "graded":
        m = np.array([[draw(unit) for _ in range(3)] for _ in range(3)])
        s = 10.0 ** np.array([draw(st.integers(-150, 150)) for _ in range(3)])
        return (m + m.T) * s[:, None] * s[None, :]
    scale = 10.0 ** draw(st.integers(-300, 300))
    if kind == "diagonal":
        return np.diag([draw(unit) for _ in range(3)]) * scale
    if kind == "repeated":
        # eigenvalues lam, lam and lam + mu |v|^2
        lam, mu, v = draw(unit), draw(unit), np.array([draw(unit) for _ in range(3)])
        return (lam * np.eye(3) + mu * np.outer(v, v)) * scale
    m = np.array([[draw(unit) for _ in range(3)] for _ in range(3)])
    return (m + m.T) / 2.0 * scale


def within_eps_norm(got, want, norm, ulps):
    """|got - want| <= ulps eps ||A|| per matrix, plus as many of the smallest subnormal for all-subnormal matrices."""
    return np.all(np.abs(got - want).max(axis=-1) <= ulps * (_EPS * norm + np.finfo(float).smallest_subnormal))


@settings(max_examples=300, deadline=None)
@given(st.lists(symmetric_3x3(("general", "diagonal", "zero", "repeated")), min_size=1, max_size=6))
def test_symmetric_eigvals3_matches_eigvalsh(matrices):
    # one batch: each matrix keeps rotating until the slowest one is done
    m = np.array(matrices)
    want = np.linalg.eigvalsh(m)
    assert within_eps_norm(eigvals3(m), want, np.abs(want).max(axis=1), 8.0)


@settings(max_examples=100, deadline=None)
@given(symmetric_3x3(("graded",)))
def test_symmetric_eigvals3_graded_matches_mpmath(m):
    # eigvalsh is no oracle here: its eigenvalue-only LAPACK path returns
    # +-4.0653e196 for a graded matrix whose eigenvalues are +-4.0590e196
    got = eigvals3(m[None])[0]
    with mpmath.workdps(50):
        want = sorted(mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True))
    want = np.array([float(w) for w in want])
    assert within_eps_norm(got, want, np.abs(want).max(), 8.0)


@settings(max_examples=60, deadline=None)
@given(
    z=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    delta=st.lists(st.one_of(st.just(0.0), st.floats(1e-18, 1e-8)), min_size=3, max_size=3),
)
def test_symmetric_eigvals3_near_rank_one_matches_mpmath(z, delta):
    # diag(delta) + z z^T, the form of every matrix the sweeps solve (the
    # coherences are rank one); a closed-form trigonometric solver returned
    # eigenvalues down to -2.9e-9 here. The bound is within_eps_norm's: with
    # delta = 0 and |z| near 1e-159 every entry is subnormal, 2 eps ||A|| is
    # below the float spacing there, and z = 1.46e-159 (1, 1, 1) gives
    # (0, 4.9e-324, 6.4e-318) for (0, 0, 6.4e-318), one smallest subnormal off
    a = np.diag(delta) + np.outer(z, z)
    got = eigvals3(a[None])[0]
    with mpmath.workdps(50):
        want = sorted(mpmath.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True))
        err = max(abs(mpmath.mpf(g) - w) for g, w in zip(got.tolist(), want))
        norm = max(abs(w) for w in want)
    assert err <= 2.0 * (_EPS * norm + np.finfo(float).smallest_subnormal)
    assert got.min() >= -1e-15


def test_symmetric_eigvals3_names_the_time_of_a_nan_entry():
    diag, off = np.ones((4, 3)), np.full((4, 3), 0.1)
    off[2, 1] = np.nan
    with pytest.raises(ValueError) as info:
        symmetric_eigvals3(diag, off, np.array([0.0, 0.5, 1.25, 2.0]), "rho_ab")
    assert str(info.value) == "rho_ab has an entry that is not finite at t=1.25"


def test_symmetric_eigvals3_names_the_time_at_the_sweep_cap(monkeypatch):
    # one sweep finishes the diagonal blocks of sample 0 but not the full one of sample 1
    monkeypatch.setattr(linalg, "JACOBI_SWEEPS", 1)
    diag = np.array([[[1.0, 2.0, 3.0]] * 2, [[1.0, 2.0, 3.0], [0.3, 0.2, 0.1]]])
    off = np.array([[[0.0, 0.0, 0.0]] * 2, [[0.0, 0.0, 0.0], [0.1, 0.05, 0.02]]])
    with pytest.raises(ValueError) as info:
        symmetric_eigvals3(diag, off, np.array([3.0, 7.0]), "x block")
    assert str(info.value) == "x block: 3x3 eigensolve not converged at the cap of 1 Jacobi sweeps at t=7"
    # through a sweep: with SGI one sweep is enough at t = 0, not at the next sample
    with pytest.raises(ValueError) as info:
        run_sweep(figure_preset("fig3b"))
    assert str(info.value) == (
        "rho_AB sector or Sx-measured block: 3x3 eigensolve not converged at the cap of 1 Jacobi sweeps "
        "at t=0.125026047093 (sweep gamma1=1 gamma2=1 theta=1 lambda=0.001 k=0.4 t_max=600 steps=4800 basis=kraus-order)"
    )


@st.composite
def hermitian_3x3(draw):
    """A Hermitian 3x3 matrix: general, near rank one, block diagonal or real, at unit or subnormal scale.

    Entries have real and imaginary parts in [-1, 1]. Near rank one is
    |v><v| + diag(delta), delta 0 or in [1e-18, 1e-8]; block diagonal has
    h01 = h02 = 0, where hermitian_eigvals3 rotates nothing (r = 0). A
    subnormal one is scaled by 10**e, e in [-323, -308], so every entry is
    subnormal.
    """
    kind = draw(st.sampled_from(("general", "rank-one", "block-diagonal", "real")))
    unit = st.floats(-1.0, 1.0)

    def complex_entries(n):
        return np.array([complex(draw(unit), draw(unit)) for _ in range(n)])

    if kind == "rank-one":
        v = complex_entries(3)
        delta = [draw(st.one_of(st.just(0.0), st.floats(1e-18, 1e-8))) for _ in range(3)]
        h = np.outer(v, v.conj()) + np.diag(delta)
    else:
        x = complex_entries(9).reshape(3, 3)
        h = (x + x.conj().T) / 2.0
        if kind == "block-diagonal":
            h[0, 1:] = h[1:, 0] = 0.0
        if kind == "real":
            h = h.real.astype(complex)
    if draw(st.booleans()):
        h = h * 10.0 ** draw(st.integers(-323, -308))
    return h


@settings(max_examples=300, deadline=None)
@given(hermitian_3x3())
def test_hermitian_eigvals3_matches_mpmath(h):
    # within_eps_norm's error model. The bound is 4, not the 2 of the near
    # rank-one symmetric test: the Jacobi kernel alone reaches 2.1 eps ||A||
    # on general real symmetric draws, and LAPACK's eigvalsh 5.2 on these
    got = np.sort(hermitian_eigvals3(h[None])[0])
    with mpmath.workdps(50):
        want = sorted(mpmath.eighe(mpmath.matrix(h.tolist()), eigvals_only=True))
        err = max(abs(mpmath.mpf(g) - w) for g, w in zip(got.tolist(), want))
        norm = max(abs(w) for w in want)
    assert err <= 4.0 * (_EPS * norm + np.finfo(float).smallest_subnormal)


def test_hermitian_eigvals3_reads_the_lower_triangle():
    rng = np.random.default_rng(53)
    x = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    h = x + x.conj().swapaxes(1, 2)
    upper = np.triu(rng.normal(size=(3, 3)), 1)
    assert np.array_equal(hermitian_eigvals3(h + upper), hermitian_eigvals3(h))


def test_hermitian_eigvals3_names_the_time_of_a_nan_entry():
    h = np.broadcast_to(np.diag([0.5, 0.3, 0.2]).astype(complex), (4, 3, 3)).copy()
    h[2, 2, 1] = np.nan
    with pytest.raises(ValueError) as info:
        hermitian_eigvals3(h, np.array([0.0, 0.5, 1.25, 2.0]), "rho")
    assert str(info.value) == "rho has an entry that is not finite at t=1.25"


def symmetric_of_stack(m, ts, name):
    """symmetric_eigvals3 on the real diagonals and lower entries (a10, a20, a21) of a (T, 3, 3) stack."""
    return symmetric_eigvals3(np.diagonal(m.real, axis1=1, axis2=2), m.real[:, [1, 2, 2], [0, 0, 1]], ts, name)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", [(1, 1), (2, 0)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize(
    "kernel", [symmetric_of_stack, hermitian_eigvals3, require_hermitian_stack, require_density_stack],
    ids=["symmetric_eigvals3", "hermitian_eigvals3", "require_hermitian_stack", "require_density_stack"],
)
def test_a_non_finite_entry_is_a_sample_error(kernel, entry, value):
    # the suite's RuntimeWarning filter fails any invalid-value warning on the way;
    # the value is set in both triangles, so the stack stays Hermitian
    m = np.tile(np.diag([0.5, 0.3, 0.2]).astype(complex), (4, 1, 1))
    m[2][entry] = m[2][entry[::-1]] = value
    with pytest.raises(SampleError) as info:
        kernel(m, np.array([0.0, 0.5, 1.25, 2.0]), "rho")
    assert str(info.value) == "rho has an entry that is not finite at t=1.25"
    assert info.value.index == 2


def test_eigvals3_kernels_take_an_empty_stack():
    assert hermitian_eigvals3(np.zeros((0, 3, 3))).shape == (0, 3)
    assert symmetric_eigvals3(np.zeros((0, 4, 3)), np.zeros((0, 4, 3))).shape == (0, 4, 3)


def test_hermitian_eigvals3_matches_eigvalsh_on_the_cptp_draws(monkeypatch):
    # eigvalsh as a reference for the tests only: the suite's input and output
    # states of its default draws, as the suite passes them to the kernel
    matrices = []

    def recording(m, *args):
        matrices.append(m)
        return hermitian_eigvals3(m, *args)

    monkeypatch.setattr(linalg, "hermitian_eigvals3", recording)
    monkeypatch.setattr(experiment, "hermitian_eigvals3", recording)
    check_cptp()
    assert sum(map(len, matrices)) == 2000
    for m in matrices:
        want = np.linalg.eigvalsh(m)
        assert within_eps_norm(np.sort(hermitian_eigvals3(m), axis=-1), want, np.abs(want).max(axis=1), 8.0)
