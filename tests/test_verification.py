"""Independent cross-checks: RK integration, empirical dominance, Fock oracle."""

import numpy as np
import pytest

from qsdecert import (
    ApproxState,
    InvalidDimensionError,
    InvalidParameterError,
    NumericError,
    QsdeCertError,
    ReferenceUnconvergedWarning,
    SimpleFunction,
    cost,
    empirical_truncation_error,
    fock_expand_residual,
    generator,
    kerr_cavity,
    kerr_family,
    matexp,
    ode_propagate,
    run_suite,
    z_bound,
    kerr_constants,
)
from qsdecert import semigroup as sg
from qsdecert import verification as V

FAMILY = kerr_family(25.0, 50.0, -50.0 / 60.0)


def _basis(i, dim):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def test_ode_propagate_validation():
    g = np.diag([-1.0, -2.0]).astype(complex)
    u = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(InvalidParameterError):
        ode_propagate(g, u, 1.0, tol=1e-13)
    with pytest.raises(InvalidParameterError):
        ode_propagate(g, u, 1.0, tol=1e-5)
    with pytest.raises(InvalidParameterError):
        ode_propagate(g, u, -1.0)
    with pytest.raises(InvalidDimensionError):
        ode_propagate(g, np.ones(3, dtype=complex), 1.0)
    # A non-finite generator ended in numpy's LinAlgError from the step-size norm.
    with pytest.raises(NumericError):
        ode_propagate(np.full((2, 2), np.nan), u, 1.0)


def test_ode_propagate_zero_time_copies():
    g = np.diag([-1.0, -2.0]).astype(complex)
    u = np.array([0.3, 0.4j], dtype=complex)
    out = ode_propagate(g, u, 0.0)
    np.testing.assert_array_equal(out, u)
    assert out is not u


def test_ode_propagate_diagonal_exact():
    rates = np.array([-0.5, -1.5 + 2.0j, -3.0 - 1.0j])
    g = np.diag(rates)
    u = np.array([1.0, 0.5, -0.25j], dtype=complex)
    out = ode_propagate(g, u, 0.8, tol=1e-12)
    np.testing.assert_allclose(out, np.exp(0.8 * rates) * u, atol=1e-11)


def test_ode_propagate_matches_matexp():
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 5)
        gen = generator(m, [0.1], [0.1 * rng.uniform(0.5, 1.5)])
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        u /= np.linalg.norm(u)
        t = rng.uniform(0.1, 1.0)
        np.testing.assert_allclose(
            ode_propagate(gen, u, t, tol=1e-11),
            matexp(gen, t) @ u,
            atol=1e-8,
        )


def test_ode_propagate_step_underflow():
    g = -1e16 * np.eye(3, dtype=complex)
    with pytest.raises(NumericError):
        ode_propagate(g, _basis(0, 3), 1.0)


def test_empirical_error_validation():
    with pytest.raises(InvalidParameterError):
        empirical_truncation_error(FAMILY, 5, 14, [0.1], [0.1], 0.5, _basis(5, 6))
    with pytest.raises(InvalidDimensionError):
        empirical_truncation_error(FAMILY, 5, 15, [0.1], [0.1], 0.5, _basis(0, 3))


def test_empirical_error_vacuum_is_zero():
    # undriven vacuum never leaves level zero at any cutoff
    err = empirical_truncation_error(FAMILY, 3, 12, [0.0], [0.0], 0.5, _basis(0, 4))
    assert err == 0.0


def test_empirical_error_dominated_by_z_bound():
    err = empirical_truncation_error(FAMILY, 5, 15, [0.1], [0.1], 0.5, _basis(5, 6))
    cap = z_bound(kerr_constants(5, 0.1, 0.1, 25.0), 2, 2, 0.5)
    assert 0.0 <= err <= cap


def test_empirical_error_warns_on_unconverged_reference():
    # a family whose physics changes with the cutoff never converges in K_ref
    drifty = lambda k: kerr_cavity(25.0, 50.0 + 3.0 * k, -5.0 / 6.0, k)
    with pytest.warns(ReferenceUnconvergedWarning):
        empirical_truncation_error(drifty, 3, 12, [0.1], [0.1], 1.0, _basis(3, 4))


def test_empirical_error_matrix_of_initial_vectors():
    # columns are initial vectors: each distance equals its single-vector call
    rng = np.random.default_rng(5)
    u = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    u[:, 0] = _basis(5, 6)
    errs = empirical_truncation_error(FAMILY, 5, 15, [0.1], [0.1], 0.5, u)
    assert errs.shape == (3,)
    assert errs.tolist() == [
        empirical_truncation_error(FAMILY, 5, 15, [0.1], [0.1], 0.5, u[:, n])
        for n in range(3)
    ]
    drifty = lambda k: kerr_cavity(25.0, 50.0 + 3.0 * k, -5.0 / 6.0, k)
    with pytest.warns(ReferenceUnconvergedWarning):
        empirical_truncation_error(drifty, 3, 12, [0.1], [0.1], 1.0, np.eye(4))


def test_fock_oracle_validation():
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 2)
    f = SimpleFunction.constant([0.1], 1.0)
    good = ApproxState([(_basis(0, 3), SimpleFunction.constant([0.12], 1.0))])
    with pytest.raises(InvalidParameterError):
        fock_expand_residual(m, (_basis(0, 3), f), good, order=10)
    two = ApproxState(
        [(_basis(0, 3), SimpleFunction.constant([0.1], 1.0)),
         (_basis(1, 3), SimpleFunction.constant([0.2], 1.0))]
    )
    with pytest.raises(InvalidParameterError):
        fock_expand_residual(m, (_basis(0, 3), f), two)
    split = ApproxState(
        [(_basis(0, 3),
          SimpleFunction(np.array([0.0, 0.5, 1.0]), np.array([[0.1], [0.2]])))]
    )
    with pytest.raises(InvalidParameterError):
        fock_expand_residual(m, (_basis(0, 3), f), split)
    with pytest.raises(InvalidParameterError):
        fock_expand_residual(
            m, (_basis(0, 3), SimpleFunction.constant([0.1], 2.0)), good
        )
    with pytest.raises(InvalidParameterError):
        fock_expand_residual(m, (_basis(0, 3), SimpleFunction.constant([0.9], 1.0)), good)


def test_fock_oracle_matches_cost():
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 2)
    f = SimpleFunction.constant([0.1], 1.0)
    u_prime = np.array([1.0, 0.05, 0.01], dtype=complex)
    state = ApproxState([(u_prime, SimpleFunction.constant([0.12], 1.0))])
    psi = (_basis(0, 3), f)
    oracle = fock_expand_residual(m, psi, state, order=14)
    assert abs(cost(m, psi, state) - oracle) <= 1e-10
    # expansion order is converged well below the comparison tolerance
    o12 = fock_expand_residual(m, psi, state, order=12)
    o16 = fock_expand_residual(m, psi, state, order=16)
    assert abs(o12 - o16) <= 1e-13


def test_quick_suite_passes():
    rep = run_suite(quick=True, seed=0)
    assert rep["passed"] is True
    assert rep["quick"] is True
    expected = {"matexp_vs_ode", "contraction_and_law", "dominance", "residual_oracle"}
    assert set(rep["sections"]) == expected
    for sec in rep["sections"].values():
        assert sec["passed"] is True
        assert sec["seconds"] >= 0.0
    assert rep["sections"]["dominance"]["violations"] == 0


def test_dominance_suite_detects_drive_sign_flip(monkeypatch):
    # miswire the drive term of every generator the empirical check builds;
    # the suite must notice, either via dominance violations or the
    # contraction tripwire in propagate
    real = sg.generator

    def flipped(model, alpha, beta):
        beta_arr = np.atleast_1d(np.asarray(beta, dtype=complex))
        delta = sum(b * lj.conj().T for b, lj in zip(beta_arr, model.L))
        return real(model, alpha, beta) - 2.0 * delta

    monkeypatch.setattr(V, "generator", flipped)
    try:
        sec = V._suite_dominance(quick=True)
    except QsdeCertError:
        return  # detected before any comparison was possible
    assert sec["violations"] > 0 or not sec["passed"]
