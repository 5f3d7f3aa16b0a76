"""Exponential-vector states, the residual cost, and its optimizers."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdecert import (
    ApproxState,
    InvalidApproximantError,
    InvalidDimensionError,
    InvalidParameterError,
    NumericError,
    OptimizeSchedule,
    PartitionError,
    SimpleFunction,
    approx_norm,
    atom_cavity_ae,
    chain,
    cost,
    exp_inner,
    exp_norm,
    generator,
    kerr_cavity,
    limit_coefficients,
    optimize,
    residual_norm,
    theorem_bound,
)
from qsdecert import states
from qsdecert.adiabatic import COEFF_DAMPING
from qsdecert.states import (
    FATOL,
    SEARCH_PENALTY,
    XATOL,
    _block_objective,
    _chainer,
    _expm2,
    _gram,
    _nelder_mead,
    _Problem,
    _solve_coefficients,
    _tails,
)

MODEL = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 2)


def _e(i, dim=3):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def test_exp_inner_and_norm():
    f = SimpleFunction.constant([0.1], 5.0)
    assert exp_inner(f, f) == pytest.approx(math.exp(0.05), rel=1e-15)
    assert exp_norm(f) == pytest.approx(math.exp(0.025), rel=1e-15)
    g = SimpleFunction.constant([0.2j], 5.0)
    # <f, g> = conj(0.1) * 0.2j * 5
    assert exp_inner(f, g) == pytest.approx(np.exp(0.1j), rel=1e-15)


def test_exp_overflow_is_a_numeric_error():
    g = SimpleFunction.constant([30.0], 1.0)  # ||g||^2 = 900 > log(max float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            exp_inner(g, g)
        assert math.isfinite(exp_norm(g))
        with pytest.raises(NumericError):
            exp_norm(SimpleFunction.constant([40.0], 1.0))
        with pytest.raises(NumericError):
            ApproxState([(_e(0), g)]).norm()
        # finite Gram entries whose weighted sum overflows
        big = ApproxState([(1e150 * _e(0), SimpleFunction.constant([20.0], 1.0))])
        with pytest.raises(NumericError):
            approx_norm(big)


def test_approx_state_validation():
    f = SimpleFunction.constant([0.1], 1.0)
    with pytest.raises(InvalidApproximantError):
        ApproxState([])
    with pytest.raises(InvalidApproximantError):
        ApproxState([(_e(0), np.zeros(3))])
    with pytest.raises(InvalidApproximantError):
        ApproxState([(np.zeros(3), f)])
    bad = _e(0).astype(complex)
    bad[1] = np.nan
    with pytest.raises(InvalidApproximantError):
        ApproxState([(bad, f)])
    g = SimpleFunction.constant([0.1], 2.0)
    with pytest.raises(PartitionError):
        ApproxState([(_e(0), f), (_e(1), g)])


@pytest.mark.parametrize("u", [np.array(["a", "b"]), ["1", "0"], [[1.0], [1.0, 0.0]]],
                         ids=["strings", "numeric-strings", "ragged"])
def test_approx_state_system_vectors_must_be_numbers(u):
    # A string vector raised a builtin ValueError from the complex conversion.
    with pytest.raises(InvalidApproximantError, match="numbers"):
        ApproxState([(u, SimpleFunction.constant([0.1], 1.0))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_approx_state_rejects_overflowing_norm():
    # Finite entries whose squared norm overflows: rejected when the state is
    # built, without a RuntimeWarning.
    f = SimpleFunction.constant([0.1], 1.0)
    with pytest.raises(InvalidApproximantError, match="finite"):
        ApproxState([(2e154 * _e(0), f)])
    assert ApproxState([(1e150 * _e(0), f)]).n_terms == 1


def test_approx_state_round_trip():
    f = SimpleFunction(np.array([0.0, 0.3, 1.0]), np.array([[0.1j], [0.2]]))
    st = ApproxState([(_e(0) + 0.5j * _e(2), f), (_e(1), f)], label="pair")
    back = ApproxState.from_json(st.to_json())
    assert back.label == "pair"
    assert back.n_terms == 2
    assert back.t_final == 1.0
    for (u1, g1), (u2, g2) in zip(st.terms, back.terms):
        np.testing.assert_array_equal(u1, u2)
        assert g1 == g2


def test_approx_norm_identities():
    g = SimpleFunction.constant([0.3], 2.0)
    u1 = _e(0) + 0.2 * _e(1)
    u2 = 0.1j * _e(0) - 0.4 * _e(2)
    single = ApproxState([(u1, g)])
    assert approx_norm(single) == pytest.approx(
        np.linalg.norm(u1) * exp_norm(g), rel=1e-14
    )
    assert single.norm() == approx_norm(single)
    pair = ApproxState([(u1, g), (u2, g)])
    assert approx_norm(pair) == pytest.approx(
        np.linalg.norm(u1 + u2) * exp_norm(g), rel=1e-14
    )


def test_cost_matches_hand_assembled_gram():
    f = SimpleFunction.constant([0.1], 1.0)
    u = _e(0)
    terms = [
        (0.8 * _e(0) + 0.1 * _e(1), SimpleFunction.constant([0.15], 1.0)),
        (0.3 * _e(0) - 0.2j * _e(2), SimpleFunction.constant([-0.05 + 0.02j], 1.0)),
    ]
    state = ApproxState(terms)
    sq = 1.0
    for uj, gj in terms:
        sq -= 2.0 * exp_norm(gj) * np.vdot(u, chain(MODEL, f, gj, uj)).real
    for ui, gi in terms:
        for uj, gj in terms:
            sq += (np.vdot(ui, uj) * exp_inner(gi, gj)).real
    assert cost(MODEL, (u, f), state) == pytest.approx(
        math.sqrt(max(sq, 0.0)), rel=1e-12
    )


def test_cost_zero_for_undriven_vacuum():
    f = SimpleFunction.zero(1, 1.0)
    state = ApproxState([(_e(0), f)])
    assert cost(MODEL, (_e(0), f), state) <= 1e-12
    assert residual_norm(MODEL, (_e(0), f), state) <= 1e-12


def test_cost_and_residual_norm_raise_on_nonfinite_residual():
    f = SimpleFunction.constant([0.1], 1.0)
    state = ApproxState([(_e(0), SimpleFunction.constant([40.0], 1.0))])
    with pytest.raises(NumericError):
        cost(MODEL, (_e(0), f), state)
    with pytest.raises(NumericError):
        residual_norm(MODEL, (_e(0), f), state)


@pytest.mark.parametrize("call", [
    lambda u, f, state: cost(MODEL, (u, f), state),
    lambda u, f, state: residual_norm(MODEL, (u, f), state),
    lambda u, f, state: optimize(MODEL, (u, f), state),
    lambda u, f, state: theorem_bound(MODEL, (u, f), state, f, 2, 2),
], ids=["cost", "residual_norm", "optimize", "theorem_bound"])
@pytest.mark.parametrize("dim", [2, 4])
def test_reference_vector_must_match_the_model(call, dim):
    # These ended in numpy's ValueError from the overlap's vdot.
    f = SimpleFunction.constant([0.1], 1.0)
    with pytest.raises(InvalidDimensionError):
        call(_e(0, dim), f, ApproxState([(_e(0), f)]))


def test_cost_invariant_under_term_permutation():
    f = SimpleFunction.constant([0.1], 1.0)
    u = _e(0)
    terms = [
        (0.5 * _e(0), SimpleFunction.constant([0.12], 1.0)),
        (0.3 * _e(1), SimpleFunction.constant([0.08j], 1.0)),
        (0.2 * _e(2), SimpleFunction.constant([-0.1], 1.0)),
    ]
    a = cost(MODEL, (u, f), ApproxState(terms))
    b = cost(MODEL, (u, f), ApproxState(terms[::-1]))
    assert a == pytest.approx(b, abs=1e-10)


def _expm2_matrices(mats):
    """_expm2 of an (n, 2, 2) stack, through its (g00, g01, g10, g11) tuples."""
    mats = np.asarray(mats, dtype=complex)
    return np.array(_expm2(mats.reshape(-1, 4).tolist())).reshape(mats.shape)


def test_expm2_matches_dense_expm():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-3, 2)
        m = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ref = sla.expm(m)
        err = np.abs(_expm2_matrices([m])[0] - ref).max() / max(np.abs(ref).max(), 1.0)
        worst = max(worst, err)
    assert worst <= 1e-11
    # nilpotent branch (d = 0) is exact
    np.testing.assert_allclose(
        _expm2_matrices([[[0.0, 1.0], [0.0, 0.0]]])[0],
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        atol=1e-15,
    )


def _kron_solve_reference(kappa, b, s, us, ws, qs, penalty):
    """The coefficient solve written out on the (L s)-square system kappa (x) I_s."""
    L = len(us)
    solved = [u.copy() for u in us]
    for u in solved:
        u[:s] = 0.0
    c0 = 1.0
    for j in range(L):
        for l in range(L):
            c0 += (kappa[j, l] * np.vdot(solved[j], solved[l])).real
        c0 -= 2.0 * ws[j] * (qs[j] @ solved[j]).real
    M = np.kron(kappa, np.eye(s))
    v = np.conj(b).reshape(L * s)
    if penalty > 0.0:
        damped = M + penalty * np.diag(np.repeat(np.diag(kappa).real, s))
        c = np.linalg.lstsq(damped, v, rcond=None)[0]
        value = c0 - 2.0 * np.vdot(v, c).real + np.vdot(c, M @ c).real
    else:
        c = np.linalg.lstsq(M, v, rcond=None)[0]
        value = c0 - np.vdot(v, c).real
    for j in range(L):
        solved[j][:s] = c[j * s:(j + 1) * s]
    return math.sqrt(max(value, 0.0)), solved


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    L=st.integers(1, 6),
    dim=st.integers(1, 4),
    data=st.data(),
    penalty=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_coefficients_matches_kronecker_solve(L, dim, data, penalty, seed):
    s = data.draw(st.integers(1, dim), label="support")
    rng = np.random.default_rng(seed)
    g = 0.6 * (rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))
    kappa = np.exp(g.conj() @ g.T)
    # Overlaps kappa @ Y with Y^dag kappa Y = 1/2 make the data a true squared
    # residual whose minimum over all u is 1/2, so the cost stays near 0.7
    # however the frozen tails (s < dim) sit.
    Y = rng.normal(size=(L, dim)) + 1j * rng.normal(size=(L, dim))
    Y *= math.sqrt(0.5 / np.sum(np.conj(Y) * (kappa @ Y)).real)
    ws = np.sqrt(np.diag(kappa).real)
    qs = np.conj(kappa @ Y) / ws[:, None]
    b = ws[:, None] * qs[:, :s]
    us = list(rng.normal(size=(L, dim)) + 1j * rng.normal(size=(L, dim)))

    value, solved, _ = _solve_coefficients(kappa, qs, us, s, penalty)
    ref_value, ref_solved = _kron_solve_reference(kappa, b, s, us, ws, qs, penalty)
    assert ref_value >= 0.7
    assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
    ref = np.array(ref_solved)
    assert np.abs(np.array(solved) - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    # the frozen tails come back unchanged
    np.testing.assert_array_equal(np.array(solved)[:, s:], np.array(us)[:, s:])


def _degenerate_2x2(rng, kind):
    """A 2x2 matrix mu I + N with N nilpotent, or within ~1e-8 of it."""
    mu, x, y = rng.normal(size=3) + 1j * rng.normal(size=3)
    N = np.array([[x, y], [-x * x / y, -x]])
    if kind == "near":
        N[1, 0] += 1e-14 * (rng.normal() + 1j * rng.normal())
    return mu * np.eye(2) + N


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kinds=st.lists(st.sampled_from(["generic", "nilpotent", "near"]),
                   min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_expm2_stack_matches_per_matrix_and_scipy(kinds, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for kind in kinds:
        if kind == "generic":
            scale = 10.0 ** rng.uniform(-3, 1)
            mats.append(scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
        else:
            mats.append(_degenerate_2x2(rng, kind))
    stack = np.array(mats)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _expm2_matrices(stack)
        single = np.array([_expm2_matrices([M])[0] for M in mats])
    assert out.shape == stack.shape
    np.testing.assert_allclose(out, single, rtol=1e-14, atol=0.0)
    for M, E in zip(mats, out):
        ref = sla.expm(M)
        assert np.abs(E - ref).max() <= 1e-11 * max(np.abs(ref).max(), 1.0)


def test_solve_coefficients_exact_and_damped():
    kappa = np.array([[1.0, 0.999], [0.999, 1.0]], dtype=complex)
    b = np.array([[0.6], [0.61]], dtype=complex)
    us = [np.zeros(1, dtype=complex), np.zeros(1, dtype=complex)]
    qs = b  # kappa's diagonal is 1, so the weights are 1 and b = qs
    v = np.conj(b).ravel()

    cost0, sol0, _ = _solve_coefficients(kappa, qs, us, 1, penalty=0.0)
    ce = np.linalg.solve(kappa, v)
    np.testing.assert_allclose(np.concatenate(sol0), ce, rtol=1e-10)
    assert cost0 == pytest.approx(
        math.sqrt(max(1.0 - float(np.vdot(v, ce).real), 0.0)), rel=1e-12
    )

    lam = 1e-3
    costd, sold, _ = _solve_coefficients(kappa, qs, us, 1, penalty=lam)
    cd = np.linalg.solve(kappa + lam * np.diag(np.diag(kappa).real), v)
    np.testing.assert_allclose(np.concatenate(sold), cd, rtol=1e-10)
    manual = 1.0 - 2.0 * float(np.vdot(v, cd).real) + float(
        np.vdot(cd, kappa @ cd).real
    )
    # reported cost is the true residual at the damped solution
    assert costd == pytest.approx(math.sqrt(max(manual, 0.0)), rel=1e-12)
    # damping trades a slightly larger residual for far smaller coefficients
    assert costd >= cost0
    assert sum(abs(c) for c in cd) < 0.6 * sum(abs(c) for c in ce)

    bad = kappa.copy()
    bad[0, 0] = np.nan
    bad_cost, _, failed = _solve_coefficients(bad, qs, us, 1, penalty=0.0)
    assert bad_cost == SEARCH_PENALTY and failed


def _lstsq_solve_reference(kappa, qs, us, s, penalty):
    """_solve_coefficients written on np.linalg.lstsq, step for step."""
    ws = np.sqrt(np.maximum(kappa.diagonal().real, 0.0))
    qs = np.asarray(qs)
    b = ws[:, None] * qs[:, :s]
    solved = np.array(us, dtype=complex)
    L, d = solved.shape
    if not (np.isfinite(kappa).all() and np.isfinite(b).all()
            and (s == d or np.isfinite(qs).all())):
        return SEARCH_PENALTY, us, True
    c0 = 1.0
    if s < d:
        tails = solved[:, s:]
        c0 += float(np.sum(kappa * (tails.conj() @ tails.T)).real)
        c0 -= 2.0 * float(np.dot(ws, np.sum(qs[:, s:] * tails, axis=1).real))
    v = np.conj(b)
    rcond = np.finfo(float).eps * L * s
    if penalty > 0.0:
        damped = kappa.copy()
        damped.flat[::L + 1] += penalty * kappa.diagonal().real
        cstar = np.linalg.lstsq(damped, v, rcond=rcond)[0]
        value = c0 - 2.0 * float(np.vdot(v, cstar).real) + float(
            np.vdot(cstar, kappa @ cstar).real)
    else:
        cstar = np.linalg.lstsq(kappa, v, rcond=rcond)[0]
        value = c0 - float(np.vdot(v, cstar).real)
    solved[:, :s] = cstar
    value = math.sqrt(max(value, 0.0))
    if not math.isfinite(value):
        return SEARCH_PENALTY, us, True
    return value, solved, False


@pytest.mark.parametrize("case", ["damped-5x5", "rank-deficient", "kerr-shape", "nan"])
def test_solve_coefficients_matches_lstsq_bit_for_bit(case):
    # The solve calls numpy's least-squares gufunc without np.linalg.lstsq's
    # wrapper. Its cost and solution must be the wrapper's, bit for bit, or
    # the searches' paths move; a NaN system never reaches LAPACK and warns
    # nothing, inside a search's np.errstate or outside it.
    rng = np.random.default_rng(22)
    L, d, s, penalty = {"damped-5x5": (5, 2, 2, COEFF_DAMPING),
                        "rank-deficient": (3, 2, 2, 0.0),
                        "kerr-shape": (1, 20, 3, 0.0),
                        "nan": (5, 2, 2, COEFF_DAMPING)}[case]
    g = 0.3 * (rng.normal(size=(L, 4)) + 1j * rng.normal(size=(L, 4)))
    if case == "rank-deficient":
        g[1] = g[0]  # two equal amplitudes: kappa has two equal rows
    kappa = np.exp(g.conj() @ g.T)
    if case == "nan":
        kappa[2, 3] = np.nan
    qs = rng.normal(size=(L, d)) + 1j * rng.normal(size=(L, d))
    us = rng.normal(size=(L, d)) + 1j * rng.normal(size=(L, d))
    ref_value, ref_solved, ref_failed = _lstsq_solve_reference(kappa, qs, us, s, penalty)
    for flags in ({}, {"all": "ignore"}):
        with warnings.catch_warnings(), np.errstate(**flags):
            warnings.simplefilter("error")
            value, solved, failed = _solve_coefficients(kappa, qs, us, s, penalty)
        assert (value, failed) == (ref_value, ref_failed)
        assert solved.shape == (L, d) and np.array_equal(solved, ref_solved)
    if case == "rank-deficient":
        assert np.linalg.matrix_rank(kappa) == 2
    assert failed == (case == "nan") and (value == SEARCH_PENALTY) == failed


def test_optimize_descends_and_is_deterministic():
    f = SimpleFunction.constant([0.1], 0.5)
    psi = (_e(0), f)
    init = ApproxState([(_e(0), SimpleFunction.zero(1, 0.5))])
    start = cost(MODEL, psi, init)
    sched = OptimizeSchedule(seed=2, max_iter=60)
    r1 = optimize(MODEL, psi, init, sched)
    r2 = optimize(MODEL, psi, init, OptimizeSchedule(seed=2, max_iter=60))
    assert r1.cost <= start + 1e-15
    assert r1.cost < start  # actually improves from the cold start
    assert r1.nfev > 0
    assert not r1.search_failure
    assert r1.cost == r2.cost
    for (u1, g1), (u2, g2) in zip(r1.state.terms, r2.state.terms):
        np.testing.assert_array_equal(u1, u2)
        assert g1 == g2
    # the reported cost is the honest re-evaluated residual
    assert r1.cost == pytest.approx(cost(MODEL, psi, r1.state), abs=1e-14)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


@pytest.mark.parametrize("objective, x0, maxiter, adaptive", [
    (_rosenbrock, np.array([-1.2, 1.0]), 400, False),
    (_rosenbrock, np.linspace(-1.0, 1.0, 8), 3200, True),
    (_rosenbrock, np.linspace(-1.0, 1.0, 8), 40, True),
    (lambda x: SEARCH_PENALTY if x[0] > 0.5 else float(np.sum((x - 1.0) ** 2)),
     np.array([0.2, 0.0, 0.3]), 600, False),
    (lambda x: round(float(np.sum(x ** 2)), 1), np.array([1.0, -2.0, 0.5, 0.0]), 800, False),
], ids=["rosenbrock-2", "rosenbrock-8-adaptive", "rosenbrock-8-maxiter", "penalty",
        "ties"])
def test_nelder_mead_matches_scipy(objective, x0, maxiter, adaptive):
    # The searches' simplex does scipy's arithmetic step for step, so it
    # ends on the same point, value and evaluation count, bit for bit.
    import scipy.optimize

    x, fun, nfev = _nelder_mead(objective, x0, maxiter, adaptive)
    ref = scipy.optimize.minimize(objective, x0, method="Nelder-Mead", options={
        "maxiter": maxiter, "fatol": FATOL, "xatol": XATOL, "adaptive": adaptive})
    assert nfev == ref.nfev
    assert np.array_equal(x, ref.x)
    assert fun == ref.fun


@pytest.mark.parametrize("field, value", [
    ("block_size", -1), ("block_size", 0), ("block_size", 2.5), ("max_iter", 0),
    ("u_support", 0), ("u_penalty", math.nan), ("seed", -1), ("seed", 1.5),
])
def test_optimize_schedule_rejects_invalid_fields(field, value):
    # These once ran, in order: a search of nfev 0, the joint search, into a
    # TypeError, as if max_iter or u_support were unset, with no damping.
    with pytest.raises(InvalidParameterError):
        OptimizeSchedule(**{field: value})


def test_optimize_never_worse_than_initial():
    # start from the exact representation: nothing to gain, nothing lost
    f = SimpleFunction.zero(1, 0.5)
    psi = (_e(0), f)
    init = ApproxState([(_e(0), f)])
    res = optimize(MODEL, psi, init, OptimizeSchedule(seed=0, max_iter=20))
    assert res.cost <= cost(MODEL, psi, init) + 1e-15


# Both searches run on one _Problem and share its partition rule.
MODES = pytest.mark.parametrize("block_size", [None, 2], ids=["joint", "block"])


@MODES
def test_block_mode_requires_shared_partition(block_size):
    f = SimpleFunction.constant([0.1], 1.0)
    g1 = SimpleFunction.constant([0.1], 1.0)
    g2 = SimpleFunction(np.array([0.0, 0.5, 1.0]), np.array([[0.1], [0.1]]))
    init = ApproxState([(_e(0), g1), (_e(1), g2)])
    with pytest.raises(PartitionError):
        optimize(MODEL, (_e(0), f), init, OptimizeSchedule(block_size=block_size))


@MODES
def test_block_mode_rejects_drive_breakpoints_off_the_partition(block_size):
    # f breaks at 0.3, inside the terms' interval [0.25, 0.5): the search
    # would read f at that interval's midpoint and minimize the residual of
    # a different drive.
    f = SimpleFunction(np.array([0.0, 0.3, 0.5]), np.array([[0.1], [0.3j]]))
    g = SimpleFunction(np.array([0.0, 0.25, 0.5]), np.array([[0.1], [0.1]]))
    init = ApproxState([(_e(0), g)])
    with pytest.raises(PartitionError):
        optimize(MODEL, (_e(0), f), init, OptimizeSchedule(block_size=block_size))
    # The same drive breaking at 0.25 lies on the partition.
    f = SimpleFunction(g.breakpoints, f.values)
    res = optimize(MODEL, (_e(0), f), init,
                   OptimizeSchedule(block_size=block_size, max_iter=5))
    assert res.cost <= cost(MODEL, (_e(0), f), init)


@MODES
def test_searches_keep_the_initial_label(block_size):
    # The block search returned its state without a label, so ae-table rows
    # read "5-term approximant" in place of the approximant's name.
    f = SimpleFunction.constant([0.1], 0.5)
    g = SimpleFunction(np.linspace(0.0, 0.5, 5), np.full((4, 1), 0.05 + 0.0j))
    init = ApproxState([(_e(0), g)], label="seeded minimizer")
    res = optimize(MODEL, (_e(0), f), init,
                   OptimizeSchedule(block_size=block_size, max_iter=40))
    assert res.cost < cost(MODEL, (_e(0), f), init)  # the search's own state
    assert res.state.label == "seeded minimizer"


@MODES
def test_only_candidates_run_with_flags_ignored(monkeypatch, block_size):
    # A candidate whose Gram column overflows or whose solve fails is one
    # SEARCH_PENALTY cost, so the simplex, and the block search's candidate
    # setup, run with numpy's floating-point flags ignored. The steps that
    # commit a result (the block search's tail and block-end chains and its
    # re-solve, the state builder) keep the caller's flags: a fault there is
    # no candidate's, and must show. Chains and solves inside the simplex
    # count as the simplex's.
    seen = {}
    searching = []

    def record(name):
        seen.setdefault("simplex" if searching else name, set()).add(np.geterr()["invalid"])

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            record(name)
            return fn(*args, **kwargs)
        return wrapped

    def simplex(*args):
        record("simplex")
        searching.append(True)
        try:
            return _nelder_mead(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(states, "_nelder_mead", simplex)
    monkeypatch.setattr(states, "_chainer", lambda *args: spy("chain", _chainer(*args)))
    monkeypatch.setattr(states, "_solve_coefficients", spy("solve", _solve_coefficients))
    monkeypatch.setattr(states, "_block_objective", spy("setup", _block_objective))
    monkeypatch.setattr(_Problem, "state", spy("state", _Problem.state))
    f = SimpleFunction.constant([0.1], 0.5)
    g = SimpleFunction(np.linspace(0.0, 0.5, 5), np.full((4, 1), 0.05 + 0.0j))
    init = ApproxState([(_e(0), g), (_e(1), g)])
    with np.errstate(invalid="raise", divide="raise"):
        optimize(MODEL, (_e(0), f), init,
                 OptimizeSchedule(block_size=block_size, max_iter=20))
    assert seen.pop("simplex") == {"ignore"}
    if block_size:
        assert seen.pop("setup") == {"ignore"}
        assert seen == {"chain": {"raise"}, "solve": {"raise"}, "state": {"raise"}}
    else:
        # The joint search's first and last evaluations are candidates too.
        assert seen == {"chain": {"ignore"}, "solve": {"ignore"}, "state": {"raise"}}


def test_block_optimizer_descends():
    bps = np.linspace(0.0, 0.5, 5)
    vals = np.full((4, 1), 0.05 + 0.0j)
    f = SimpleFunction.constant([0.1], 0.5)
    init = ApproxState([(_e(0), SimpleFunction(bps, vals))])
    psi = (_e(0), f)
    start = cost(MODEL, psi, init)
    res = optimize(
        MODEL, psi, init, OptimizeSchedule(seed=3, block_size=2, max_iter=40)
    )
    assert res.cost <= start + 1e-15
    assert res.cost < start
    assert res.state.terms[0][1].n_intervals == 4


@pytest.mark.parametrize("penalty", [0.0, COEFF_DAMPING])
def test_block_optimizer_cost_never_rises_between_blocks(monkeypatch, penalty):
    # The _block_search docstring's claim: each block search starts from the
    # current values and keeps its best candidate, so the reference cost after
    # every committed block is no higher than after the one before. A block's
    # first candidate setup sees the state committed after the block before
    # (vals is the search's live array), the state builder the last one.
    model = limit_coefficients(atom_cavity_ae(25.0, 5.0, 0.1))
    u0 = np.array([0.0, 1.0], dtype=complex)
    psi = (u0, SimpleFunction.constant([0.1], 1.0))
    bps = np.linspace(0.0, 1.0, 7)
    init = ApproxState([(u0, SimpleFunction(bps, np.full((6, 1), 0.1 + 0.0j))),
                        (0.1 * u0, SimpleFunction(bps, np.full((6, 1), 0.05j)))])
    costs = []
    build = _Problem.state

    def record(us, vals):
        state = ApproxState([(u, SimpleFunction(bps, v.copy())) for u, v in zip(us, vals)])
        costs.append(cost(model, psi, state))

    def objective(problem, vals, us, qs, row, suffix, outer, lo, hi, j):
        if lo > 0 and j == 0:
            record(us, vals)
        return _block_objective(problem, vals, us, qs, row, suffix, outer, lo, hi, j)

    def state(problem, us, vals):
        record(us, vals)
        return build(problem, us, vals)

    monkeypatch.setattr(states, "_block_objective", objective)
    monkeypatch.setattr(_Problem, "state", state)
    optimize(model, psi, init, OptimizeSchedule(block_size=2, max_iter=60, u_penalty=penalty))
    assert len(costs) == 3
    for before, after in zip(costs, costs[1:]):
        assert after <= before * (1.0 + 1e-12)


def _two_term_problem():
    """f and the two terms each carry breakpoints the others lack."""
    f = SimpleFunction(np.array([0.0, 0.2, 0.5]), np.array([[0.1], [0.12j]]))
    g1 = SimpleFunction(np.array([0.0, 0.25, 0.5]), np.array([[0.05], [0.08 + 0.01j]]))
    g2 = SimpleFunction(np.array([0.0, 0.1, 0.4, 0.5]),
                        np.array([[0.02j], [0.1], [0.03]]))
    return (_e(0), f), ApproxState([(_e(0), g1), (0.1 * _e(1), g2)])


@pytest.mark.parametrize("schedule", [
    OptimizeSchedule(),
    OptimizeSchedule(u_support=2),
])
def test_joint_objective_matches_reference_cost(schedule):
    # The two terms moved onto the union of the three partitions.
    psi, template = _two_term_problem()
    bps = np.array([0.0, 0.1, 0.2, 0.25, 0.4, 0.5])
    template = ApproxState([(u, g.with_breakpoints(bps)) for u, g in template.terms])
    problem = _Problem(MODEL, psi, template, schedule)
    rng = np.random.default_rng(5)
    shape = problem.vals.shape
    for _ in range(4):
        vals = problem.vals + 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        value, us, failed = problem.evaluate(vals)
        assert not failed
        state = ApproxState([(uj, SimpleFunction(bps, v)) for uj, v in zip(us, vals)])
        assert value == pytest.approx(cost(MODEL, psi, state), rel=0.0, abs=1e-12)


def test_joint_search_rejects_terms_on_different_partitions():
    # The joint search once refined every term onto a common partition; it
    # now takes the block search's rule. f is constant, so only the terms'
    # partitions differ.
    (u, _), template = _two_term_problem()
    psi = (u, SimpleFunction.constant([0.1], 0.5))
    with pytest.raises(PartitionError):
        optimize(MODEL, psi, template, OptimizeSchedule(seed=4, max_iter=80))


@pytest.mark.parametrize("support", [None, 1])
@pytest.mark.parametrize("penalty", [0.0, COEFF_DAMPING])
@pytest.mark.parametrize("family", ["atom_cavity", "kerr"])
def test_block_objective_matches_reference_cost(family, penalty, support):
    # The block counterpart of test_joint_objective_matches_reference_cost:
    # the 2x2 reduced atom-cavity model takes the scalar chain, the d = 3
    # Kerr model the dense one. Every term carries a nonzero tail beyond the
    # support, and block [0, 2) is committed before block [2, 4) is searched.
    model = limit_coefficients(atom_cavity_ae(25.0, 5.0, 0.1)) if family == "atom_cavity" \
        else MODEL
    dim = model.dim
    rng = np.random.default_rng(11)
    bps = np.linspace(0.0, 0.6, 7)
    f = SimpleFunction(bps[[0, 3, 6]], np.array([[0.1], [0.12j]]))
    psi = (_e(0, dim), f)
    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    terms = [(draw(dim), SimpleFunction(bps, 0.1 * draw(6, 1))) for _ in range(3)]
    schedule = OptimizeSchedule(block_size=2, u_support=support, u_penalty=penalty)
    problem = _Problem(model, psi, ApproxState(terms), schedule)
    vals, us, failed = problem.vals.copy(), problem.us, False
    suffix, tail_gram = _tails(problem, vals, 2)
    lo, hi = 2, 4
    rows = [_chainer(problem.row, problem.basis[:lo])(v[:lo]) for v in vals]
    outer = _gram(problem.dts[:lo], vals[:, :lo]) + tail_gram[hi]

    def chain(i):
        return _chainer(rows[i], problem.basis[lo:hi])(vals[i, lo:hi]) @ suffix[hi][i]

    qs = np.array([chain(i) for i in range(3)])
    for j in range(3):
        evaluate = _block_objective(problem, vals, us, qs, rows[j], suffix[hi][j],
                                    outer, lo, hi, j)
        beta = vals[j, lo:hi] + 0.05 * draw(2, 1)
        value, _, bad = evaluate(beta)
        # The context is reused in place: another candidate leaves no trace.
        failed |= bad | evaluate(beta + 0.3)[2]
        assert evaluate(beta)[0] == value
        vals[j, lo:hi] = beta
        qs[j] = chain(j)
        kappa = np.exp(outer + _gram(problem.dts[lo:hi], vals[:, lo:hi]))
        _, us, bad = _solve_coefficients(kappa, qs, us, problem.support, problem.penalty)
        failed |= bad
        state = ApproxState([(u, SimpleFunction(bps, v.copy())) for u, v in zip(us, vals)])
        assert value == pytest.approx(cost(model, psi, state), rel=0.0, abs=1e-12)
    assert not failed


@pytest.mark.parametrize("P, bs", [(6, 2), (7, 3)])
@pytest.mark.parametrize("family", ["atom_cavity", "kerr"])
def test_block_tails_match_interval_products(family, P, bs):
    # The tails exist at the right end hi of every block, the ragged last
    # block of P = 7, bs = 3 included: suffix[hi][i] is the ordered product of
    # term i's interval exponentials over [hi, P), tail_gram[hi] the Gram sum
    # there.
    model = limit_coefficients(atom_cavity_ae(25.0, 5.0, 0.1)) if family == "atom_cavity" \
        else MODEL
    dim = model.dim
    rng = np.random.default_rng(7)
    bps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.15, P))])
    dts = np.diff(bps)
    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    f = SimpleFunction(bps, 0.1 * draw(P, 1))
    terms = [(draw(dim), SimpleFunction(bps, 0.3 * draw(P, 1))) for _ in range(3)]
    schedule = OptimizeSchedule(block_size=bs)
    problem = _Problem(model, (_e(0, dim), f), ApproxState(terms), schedule)
    suffix, tail_gram = _tails(problem, problem.vals, bs)
    boundaries = [*range(bs, P, bs), P]
    assert sorted(suffix) == sorted(tail_gram) == boundaries
    for hi in boundaries:
        for i, (_, gi) in enumerate(terms):
            ref = np.eye(dim)
            for p in range(hi, P):
                ref = ref @ sla.expm(dts[p] * generator(model, f.values[p], gi.values[p]))
            assert np.abs(suffix[hi][i] - ref).max() <= 1e-12
        gram = np.array([[sum(dts[p] * np.vdot(gi.values[p], gl.values[p])
                              for p in range(hi, P))
                          for _, gl in terms] for _, gi in terms])
        assert np.abs(tail_gram[hi] - gram).max() <= 1e-12
