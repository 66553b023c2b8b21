"""Tests for the linear algebra layer: partial trace and transpose.

The package forms no tensor products. The tests build product operators
with numpy's ``np.kron``, and the layout tests below pin that its index
order is the package's convention (subsystem A is the left factor,
r = 3*a + b).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qutrit_eur.linalg import partial_trace_a, partial_transpose_a

from conftest import random_density_matrix, random_hermitian

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
    assert_allclose(partial_trace_a(I9 / 9), I3 / 3, atol=1e-15)


def test_partial_trace_max_entangled_marginal():
    assert_allclose(partial_trace_a(psi_plus_projector()), I3 / 3, atol=1e-15)


def test_partial_trace_of_product():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        assert_allclose(partial_trace_a(np.kron(a, b)), b * np.trace(a), atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(29)
    m = random_hermitian(rng, 9)
    assert_allclose(np.trace(partial_trace_a(m)), np.trace(m), atol=1e-12)


def test_partial_trace_rejects_wrong_dim():
    with pytest.raises(ValueError, match="9x9"):
        partial_trace_a(np.eye(3))


def test_partial_transpose_identity_invariant():
    assert_allclose(partial_transpose_a(I9), I9, atol=0)


def test_partial_transpose_of_product():
    rng = np.random.default_rng(31)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    assert_allclose(partial_transpose_a(np.kron(a, b)), np.kron(a.T, b), atol=0)


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(37)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    back = partial_transpose_a(partial_transpose_a(m))
    assert np.array_equal(back, m)


def test_partial_transpose_preserves_trace():
    rng = np.random.default_rng(41)
    m = random_hermitian(rng, 9)
    assert_allclose(np.trace(partial_transpose_a(m)), np.trace(m), atol=1e-12)


def test_partial_transpose_max_entangled_spectrum():
    # the partial transpose of |psi+><psi+| is SWAP/3: +1/3 on the six
    # symmetric directions, -1/3 on the three antisymmetric ones
    swap = np.zeros((9, 9), dtype=complex)
    for a in range(3):
        for b in range(3):
            swap[3 * a + b, 3 * b + a] = 1.0
    got = partial_transpose_a(psi_plus_projector())
    assert_allclose(got, swap / 3, atol=1e-15)
    spectrum = np.sort(np.linalg.eigvalsh(got))
    assert_allclose(spectrum, [-1 / 3] * 3 + [1 / 3] * 6, atol=1e-12)


def test_partial_transpose_rejects_wrong_dim():
    with pytest.raises(ValueError, match="9x9"):
        partial_transpose_a(np.eye(4))

