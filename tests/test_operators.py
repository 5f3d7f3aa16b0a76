"""Ladder operators, tensor index conventions, and matexp's scaling, squaring
and flush."""

import numpy as np
import pytest
import scipy.linalg as sla

from qsdecert import (
    InvalidDimensionError,
    InvalidIndexError,
    NumericError,
    adjoint,
    annihilation,
    basis_state,
    creation,
    generator,
    kerr_cavity,
    matexp,
    number,
    opnorm,
    tensor,
)
from qsdecert.operators import THETA13


def test_annihilation_entries():
    a = annihilation(6)
    for n in range(1, 6):
        assert a[n - 1, n] == np.sqrt(n)
    # everything off the first superdiagonal is exactly zero
    mask = np.ones(a.shape, dtype=bool)
    mask[np.arange(5), np.arange(1, 6)] = False
    assert np.all(a[mask] == 0.0)


def test_annihilation_rejects_bad_dim():
    with pytest.raises(InvalidDimensionError):
        annihilation(0)


def test_creation_is_adjoint():
    a = annihilation(7)
    assert np.array_equal(creation(7), a.conj().T)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(adjoint(x), x.conj().T)


def test_truncated_commutator():
    # [a, a*] = I except the top corner, where the cutoff leaves -(d-1)
    d = 9
    a, c = annihilation(d), creation(d)
    comm = a @ c - c @ a
    expected = np.eye(d)
    expected[-1, -1] = -(d - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-12)


def test_number_operator_diagonal():
    np.testing.assert_allclose(number(8), np.diag(np.arange(8).astype(complex)), atol=1e-12)


def test_opnorm_of_annihilation():
    # top singular value of a on a (k+1)-level space is sqrt(k)
    for k in (1, 4, 30):
        assert opnorm(annihilation(k + 1)) == pytest.approx(np.sqrt(k), rel=1e-12)
    assert opnorm(np.zeros((0, 0))) == 0.0


def test_tensor_index_convention():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = tensor(a, b)
    expected = np.zeros((12, 12), dtype=complex)
    for i in range(3):
        for n in range(4):
            for j in range(3):
                for m in range(4):
                    expected[i * 4 + n, j * 4 + m] = a[i, j] * b[n, m]
    np.testing.assert_allclose(t, expected, rtol=1e-14, atol=0.0)


def test_basis_state():
    e = basis_state(4, 2)
    np.testing.assert_array_equal(e, np.array([0, 0, 1, 0], dtype=complex))
    with pytest.raises(InvalidIndexError):
        basis_state(4, 4)
    with pytest.raises(InvalidIndexError):
        basis_state(4, -1)


def test_matexp_matches_power_series():
    rng = np.random.default_rng(202)
    x = 0.3 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    series = np.eye(6, dtype=complex)
    term = np.eye(6, dtype=complex)
    for j in range(1, 40):
        term = term @ x / j
        series = series + term
    np.testing.assert_allclose(matexp(x), series, atol=1e-12)
    # the optional time argument scales the exponent
    np.testing.assert_allclose(matexp(x, 2.0), matexp(2.0 * x), atol=1e-12)


def test_matexp_rejects_nonfinite():
    bad = np.zeros((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(NumericError):
        matexp(bad)
    with pytest.raises(NumericError):
        matexp(np.eye(2), np.inf)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_matexp_rejects_a_non_square_matrix(shape):
    # numpy's LinAlgError once escaped for a (2, 3) matrix.
    with pytest.raises(InvalidDimensionError, match="square"):
        matexp(np.zeros(shape, complex), 0.1)


def _subnormal_parts(x):
    parts = np.abs(np.asarray(x).view(float))
    return int(np.count_nonzero((parts > 0.0) & (parts < np.finfo(float).tiny)))


@pytest.mark.parametrize("t", [0.5, 4.5])
def test_matexp_keeps_subnormals_out_of_damped_propagators(t):
    # The k = 199 Kerr propagator is where scipy's squarings fill with
    # subnormal numbers; the flushed result differs only below 1e-150.
    g = generator(kerr_cavity(25.0, 50.0, -50.0 / 60.0, 199), [0.1], [0.1 + 0.03j])
    ref = sla.expm(t * g)
    got = matexp(g, t)
    assert _subnormal_parts(ref) > 0
    assert _subnormal_parts(got) == 0
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-150)


def test_matexp_flush_is_relative():
    # exp(-360) is about 4.5e-157: every entry lies below the flush ratio
    # in absolute terms, and none may be zeroed.
    nil = np.diag(np.full(5, 0.01 + 0.02j), 1)
    a = -360.0 * np.eye(6) + nil
    ref = sla.expm(a)
    got = matexp(a)
    assert 1e-157 < np.abs(ref).max() < 1e-156
    assert np.count_nonzero(got) == np.count_nonzero(ref)
    assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("norm1", [1e-3, 1.0, 30.0, 1e3, 1e4])
def test_matexp_matches_scipy_across_scales(seed, norm1, monkeypatch):
    # Non-normal, shifted so that no eigenvalue has positive real part, then
    # scaled to the given 1-norm: covers matexp's own choice of squarings.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    x -= np.linalg.eigvals(x).real.max() * np.eye(10)
    a = norm1 * x / np.linalg.norm(x, 1)
    expm = sla.expm
    ref = expm(a)
    pade_norms = []

    def recording_expm(m):
        pade_norms.append(np.linalg.norm(m, 1))
        return expm(m)

    monkeypatch.setattr(sla, "expm", recording_expm)
    assert np.linalg.norm(matexp(a) - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)
    # One Pade step, on the least power-of-two scaling that brings the norm
    # to THETA13: scipy's own squarings would bring the subnormals back.
    assert len(pade_norms) == 1 and pade_norms[0] <= THETA13
    assert norm1 <= THETA13 or pade_norms[0] > THETA13 / 2


def test_matexp_rejects_overflowing_norm():
    # Finite entries whose 1-norm (or product with t) is not finite.
    with pytest.raises(NumericError):
        matexp(np.full((2, 2), 1e308, dtype=complex))
    with pytest.raises(NumericError):
        matexp(np.full((2, 2), 1e200, dtype=complex), 1e200)
