"""Adiabatic-elimination models: structure checks, limits, and certificates."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qsdecert import (
    AeConstants,
    AeModel,
    ApproxState,
    InsufficientTruncationError,
    InvalidAmplitudeError,
    InvalidDimensionError,
    InvalidModelError,
    InvalidParameterError,
    NumericError,
    SimpleFunction,
    StructuralModelError,
    ae_certificate_table,
    ae_operators,
    ae_semigroup_error,
    ae_theorem_bound,
    atom_cavity_ae,
    exp_norm,
    generator,
    limit_coefficients,
    m_constants,
    opnorm,
    oscillator_elimination,
)
from qsdecert import adiabatic
from qsdecert import cost as residual_cost
from qsdecert.adiabatic import _m_matrices

GAMMA, G_COUP, DRIVE = 25.0, 5.0, 0.1

Z1 = np.zeros((1, 1))


def _osc(e11=-GAMMA / 2.0, J_max=4):
    return oscillator_elimination(
        Z1, Z1, Z1, [[e11]], [np.array([[np.sqrt(GAMMA)]])], [Z1], [[np.eye(1)]],
        J_max=J_max,
    )


def _rebuild(m, **over):
    kw = dict(
        Y=m.Y, Ytilde=m.Ytilde, A=m.A, B=m.B, F=list(m.F), G=list(m.G),
        W=[list(r) for r in m.W], level_of_basis=m.level_of_basis,
        J_max=m.J_max, label=m.label,
    )
    kw.update(over)
    return AeModel(**kw)


def test_oscillator_elimination_closed_form_limit():
    m = _osc()
    red = limit_coefficients(m)
    np.testing.assert_allclose(red.S[0][0], [[-1.0]], atol=1e-12)
    np.testing.assert_allclose(red.L[0], [[0.0]], atol=1e-12)
    np.testing.assert_allclose(red.H, [[0.0]], atol=1e-12)


def test_oscillator_elimination_wrong_sign_fast_block():
    # dissipation pointing the wrong way: limit scattering loses unitarity
    bad = _osc(e11=+GAMMA / 2.0)
    with pytest.raises(StructuralModelError):
        limit_coefficients(bad)


def test_oscillator_elimination_singular_fast_block():
    sing = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    z2 = np.zeros((2, 2))
    with pytest.raises(InvalidModelError):
        oscillator_elimination(z2, z2, z2, sing, [np.eye(2)], [z2], [[np.eye(2)]])


def test_structural_validation():
    m = _osc()
    with pytest.raises(StructuralModelError, match="H0 is empty"):
        _rebuild(m, level_of_basis=m.level_of_basis + 1)
    y_bad = m.Y.copy()
    y_bad[m.h0_indices[0], m.h0_indices[0]] = 1.0
    with pytest.raises(StructuralModelError):
        _rebuild(m, Y=y_bad)
    with pytest.raises(StructuralModelError):
        _rebuild(m, Ytilde=1.01 * m.Ytilde)
    with pytest.raises(StructuralModelError):
        _rebuild(m, F=[np.ones((m.dim, m.dim))])
    with pytest.raises(StructuralModelError):
        _rebuild(m, A=m.P0.copy())
    with pytest.raises(InvalidDimensionError):
        _rebuild(m, G=[np.zeros((m.dim, m.dim))] * 2)  # channel count mismatch
    with pytest.raises(InvalidDimensionError):
        _rebuild(m, B=np.zeros((m.dim + 1, m.dim + 1)))
    with pytest.raises(InvalidDimensionError):
        _rebuild(m, W=[[np.eye(m.dim + 1)]])  # numpy's ValueError in the limit
    with pytest.raises(InvalidParameterError, match="finite"):
        _rebuild(m, Ytilde=np.full_like(m.Ytilde, np.nan))


def test_atom_cavity_ae_pseudoinverse_structure():
    for j_max in (4, 6):
        m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=j_max)
        off = np.eye(m.dim) - m.P0
        idx = np.ix_(m.represented, m.represented)
        assert np.abs((m.Ytilde @ m.Y - off)[idx]).max() <= 1e-12
        assert np.abs((m.Y @ m.Ytilde - off)[idx]).max() <= 1e-12
    with pytest.raises(InvalidParameterError):
        atom_cavity_ae(-1.0, G_COUP, DRIVE)
    with pytest.raises(InvalidParameterError):
        atom_cavity_ae(GAMMA, 0.0, DRIVE)
    with pytest.raises(InvalidParameterError):
        atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=1)


# errors.as_amplitudes is the one amplitude rule. Before it, a NaN or
# infinite amplitude reached numpy's SVD (m_constants) or gave NaN matrices
# (generator, ae_operators), a string raised a builtin ValueError, and a wrong
# length raised InvalidDimensionError in adiabatic.
BAD_AMPLITUDES = {"nan": [math.nan], "infinite-imaginary": [complex(0.0, math.inf)],
                  "abc": "abc", "length": [DRIVE, DRIVE]}
AMPLITUDE_CALLS = {
    "generator": lambda a: generator(limit_coefficients(atom_cavity_ae(GAMMA, G_COUP, DRIVE)),
                                     a, [DRIVE]),
    "ae_operators": lambda a: ae_operators(atom_cavity_ae(GAMMA, G_COUP, DRIVE), [DRIVE], a),
    "m_constants": lambda a: m_constants(atom_cavity_ae(GAMMA, G_COUP, DRIVE), a, [DRIVE], 10),
}


@pytest.mark.parametrize("build", [
    lambda: atom_cavity_ae(GAMMA, G_COUP, math.nan),
    lambda: atom_cavity_ae(GAMMA, G_COUP, complex(0.0, math.inf)),
    lambda: ae_certificate_table((), n_intervals=1, blocks=1, alpha=math.nan),
    *(lambda call=call, bad=bad: call(bad)
      for call in AMPLITUDE_CALLS.values() for bad in BAD_AMPLITUDES.values()),
], ids=["nan", "infinite-imaginary", "table-nan",
        *(f"{call}-{bad}" for call in AMPLITUDE_CALLS for bad in BAD_AMPLITUDES)])
def test_non_finite_drive_is_a_typed_error(build):
    # Before any matrix is built: a NaN drive once reached numpy's SVD.
    with pytest.raises(InvalidAmplitudeError):
        build()


@pytest.mark.parametrize("block, value", [
    ("E00", math.nan), ("E01", math.nan), ("E10", math.nan), ("E11", math.nan),
    ("F", math.nan), ("G", math.inf), ("W", math.nan),
])
def test_non_finite_model_blocks_are_typed_errors(block, value):
    # A NaN E01, E10, E11 or F reached numpy's SVD; the others built a model.
    blocks = dict(E00=Z1, E01=Z1, E10=Z1, E11=[[-GAMMA / 2.0]],
                  F=[np.array([[np.sqrt(GAMMA)]])], G=[Z1], W=[[np.eye(1)]])
    bad = np.array([[value]])
    blocks[block] = {"F": [bad], "G": [bad], "W": [[bad]]}.get(block, bad)
    with pytest.raises(InvalidParameterError, match="finite"):
        oscillator_elimination(**blocks)


@pytest.mark.parametrize("build", [
    lambda: oscillator_elimination(Z1, Z1, Z1, np.ones((1, 2)), [Z1], [Z1], [[np.eye(1)]]),
    lambda: oscillator_elimination(Z1, Z1, Z1, [[-GAMMA / 2.0]], [Z1], [Z1], []),
    lambda: _rebuild(_osc(), W=[]),
], ids=["non-square-E11", "oscillator-empty-W", "ae-model-empty-W"])
def test_model_blocks_follow_the_operator_rule(build):
    # errors.as_operators: numpy's LinAlgError from cond(E11), and IndexError
    # for a one-channel W with no rows.
    with pytest.raises(InvalidDimensionError):
        build()


@pytest.mark.parametrize("key, value, error", [
    ("level_of_basis", lambda m: m.level_of_basis[:3], InvalidDimensionError),
    ("level_of_basis", lambda m: ["a"] * m.dim, InvalidParameterError),
], ids=["short-levels", "string-levels"])
def test_levels_and_represented_cover_the_basis(key, value, error):
    # A short level list skipped m_constants' guard-level leakage check, and
    # string levels raised a builtin ValueError.
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE)
    with pytest.raises(error):
        m_constants(_rebuild(m, **{key: value(m)}), DRIVE, DRIVE, 10)


@pytest.mark.parametrize("build", [
    lambda J: _osc(J_max=J),
    lambda J: oscillator_elimination(*[np.zeros((2, 2))] * 3, [[-1.0, 0.3], [0.0, -2.0]],
                                     [np.eye(2)], [np.zeros((2, 2))], [[np.eye(2)]], J_max=J),
    lambda J: atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=J),
], ids=["oscillator", "oscillator-2d", "atom-cavity"])
@pytest.mark.parametrize("J_max", [2, 3, 5, 8])
def test_slow_space_and_mask_follow_the_levels(build, J_max):
    # Level 0 is the slow space and the levels up to J_max are represented:
    # P0, the mask and the H0 basis columns are these, entry for entry.
    m = build(J_max)
    slow = m.level_of_basis == 0
    np.testing.assert_array_equal(m.P0, np.diag(slow).astype(complex))
    np.testing.assert_array_equal(m.represented, m.level_of_basis <= J_max)
    np.testing.assert_array_equal(m.h0_indices, np.flatnonzero(slow))


def test_atom_cavity_ae_resolvent_denominators():
    # d_j = j(j-1) gamma^2/4 + j g^2 shows up inverted in the -g sqrt(j) slots
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=4)
    df = m.J_max + 1
    plus_1, e_0 = 1 * df + 1, 0 * df + 0
    plus_2, e_1 = 1 * df + 2, 0 * df + 1
    d1 = -G_COUP * 1.0 / m.Ytilde[plus_1, e_0].real
    d2 = -G_COUP * np.sqrt(2.0) / m.Ytilde[plus_2, e_1].real
    assert d1 == pytest.approx(25.0, rel=1e-12)
    assert d2 == pytest.approx(362.5, rel=1e-12)


def test_atom_cavity_ae_limit_matches_closed_form():
    for j_max in (4, 6):
        m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=j_max)
        red = limit_coefficients(m)
        s = red.S[0][0]
        assert opnorm(s @ s.conj().T - np.eye(2)) <= 1e-10
        assert opnorm(red.H - red.H.conj().T) <= 1e-10
        # slow space is ordered (|+,0>, |-,0>)
        np.testing.assert_allclose(s, np.diag([1.0, -1.0]), atol=1e-12)
        expected_l = np.zeros((2, 2), dtype=complex)
        expected_l[0, 1] = -DRIVE * np.sqrt(GAMMA) / G_COUP
        np.testing.assert_allclose(red.L[0], expected_l, atol=1e-12)
        np.testing.assert_allclose(red.H, np.zeros((2, 2)), atol=1e-12)


def test_ae_operators_balanced_drive():
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=4)
    a_op, b_op = ae_operators(m, [DRIVE], [DRIVE])
    np.testing.assert_allclose(b_op, np.zeros_like(b_op), atol=1e-12)
    expected_a = m.A + DRIVE * (m.F[0] - m.F[0].conj().T)
    np.testing.assert_allclose(a_op, expected_a, atol=1e-12)


def test_ae_constants_validation():
    with pytest.raises(InvalidParameterError):
        AeConstants(M1=np.inf, M2=1.0, k=10.0)
    with pytest.raises(InvalidParameterError):
        AeConstants(M1=1.0, M2=1.0, k=0.0)
    ones = np.ones(3)
    AeConstants(M1=ones, M2=np.zeros(3), k=10.0)
    with pytest.raises(InvalidParameterError):
        AeConstants(M1=np.array([1.0, np.nan, 1.0]), M2=ones, k=10.0)
    with pytest.raises(InvalidParameterError):
        AeConstants(M1=ones, M2=np.array([1.0, -1e-300, 1.0]), k=10.0)


def test_ae_semigroup_error_columns_and_times():
    c = AeConstants(M1=np.array([1.0, 2.0, 3.0]), M2=np.array([0.5, 0.25, 0.0]), k=4.0)
    t = np.array([0.0, 1.0, 2.0])
    z = ae_semigroup_error(c, t)
    assert z.tolist() == [(2.0 * m1 + ti * m2) / 4.0
                          for m1, m2, ti in zip(c.M1, c.M2, t)]
    scalar = AeConstants(M1=1.0, M2=0.5, k=4.0)
    assert type(ae_semigroup_error(scalar, 1.0)) is float
    for bad in (-0.1, np.nan, np.array([0.1, -0.1, 0.1]), np.array([0.1, np.nan, 0.1])):
        with pytest.raises(InvalidParameterError):
            ae_semigroup_error(c, bad)


def test_m_constants_anchors_and_scaling():
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=4)
    c4 = m_constants(m, [DRIVE], [DRIVE], 10**4)
    c6 = m_constants(m, [DRIVE], [DRIVE], 10**6)
    c8 = m_constants(m, [DRIVE], [DRIVE], 10**8)
    assert c4.M1 == pytest.approx(0.1138259904653889, rel=1e-12)
    assert c4.M2 == pytest.approx(0.004557118148285142, rel=1e-12)
    # the P + Q/k assembly pushes M1, M2 to k-independent limits
    assert c8.M1 == pytest.approx(c6.M1, rel=1e-9)
    assert c8.M2 == pytest.approx(c6.M2, rel=1e-9)
    # per-interval semigroup error scales as 1/k
    ratio = ae_semigroup_error(c4, 1.0) / ae_semigroup_error(c6, 1.0)
    assert abs(ratio / 100.0 - 1.0) <= 1e-9
    with pytest.raises(InvalidParameterError):
        m_constants(m, [DRIVE], [DRIVE], 0)


def test_truncation_level_must_exceed_compositions():
    # J_max = 2 cannot hold the level-3 amplitudes of the composed correction
    shallow = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=2)
    with pytest.raises(InsufficientTruncationError):
        m_constants(shallow, [DRIVE], [DRIVE], 10**4)


def test_ae_theorem_bound_assembly():
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=4)
    c = m_constants(m, [DRIVE], [DRIVE], 10**6)
    u0 = np.array([0.0, 1.0], dtype=complex)  # ground |-, 0>
    f = SimpleFunction.constant([DRIVE], 1.0)
    state = ApproxState([(u0, f)])
    rep = ae_theorem_bound(m, (u0, f), state, f, 10**6)
    assert rep.mismatch == 0.0
    assert rep.k_scaling == pytest.approx(2.0 * rep.z_sum, rel=1e-15)
    assert rep.z_sum == pytest.approx(
        exp_norm(f) * (2.0 * c.M1 + 1.0 * c.M2) / c.k, rel=1e-13
    )
    assert rep.bound == pytest.approx(rep.recombined_bound(), rel=1e-14)
    # without a positive scaling parameter the certificate is undefined; the
    # check comes before any norm of Q/k is taken (no division warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            ae_theorem_bound(m, (u0, f), state, f, 0)


@pytest.mark.parametrize("k", [2.5, np.inf, np.nan, 0])
def test_scaling_parameter_must_be_a_finite_integer(k):
    # k = 2.5 used to certify at 2.5 and report k = 2; k = inf escaped as an
    # OverflowError
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=4)
    u0 = np.array([0.0, 1.0], dtype=complex)
    f = SimpleFunction.constant([DRIVE], 1.0)
    state = ApproxState([(u0, f)])
    with pytest.raises(InvalidParameterError):
        ae_theorem_bound(m, (u0, f), state, f, k)
    with pytest.raises(InvalidParameterError):
        m_constants(m, [DRIVE], [DRIVE], k)
    with pytest.raises(InvalidParameterError):
        AeConstants(M1=1.0, M2=1.0, k=k)
    assert ae_theorem_bound(m, (u0, f), state, f, 1e4).k == 10**4


def test_ae_z_terms_equal_per_interval_norms():
    # the certificate takes M1, M2 as one batched norm per term; each entry
    # must equal the norms of that interval's matrices taken one at a time
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE, J_max=4)
    reduced = limit_coefficients(m)
    rng = np.random.default_rng(5)
    bp = np.linspace(0.0, 1.0, 5)
    state = ApproxState([
        (0.3 * rng.standard_normal(2) + 0j,
         SimpleFunction(bp, DRIVE + 0.05 * (rng.standard_normal((4, 1))
                                            + 1j * rng.standard_normal((4, 1)))))
        for _ in range(3)
    ])
    u0 = np.array([0.0, 1.0], dtype=complex)
    f = SimpleFunction.constant([DRIVE], 1.0)
    a = complex(DRIVE)
    for k in (10**4, 3 * 10**4, 10**8):
        report = ae_theorem_bound(m, (u0, f), state, f, k)
        expected = []
        for _, g in state.terms:
            row = []
            for b, dt in zip(g.values, g.durations()):
                P1, Q1, P2, Q2 = _m_matrices(m, generator(reduced, [a], b), [a], b)
                row.append((2.0 * opnorm(P1 + Q1 / k) + float(dt) * opnorm(P2 + Q2 / k)) / k)
            expected.append(row)
        assert report.z_terms == expected


@pytest.mark.parametrize("u_scale, amplitude", [
    (1.0, 40.0),  # the residual's Gram term overflows to nan
    (1.0, 30.0),  # the residual overflows to inf
    (1e154, 0.1),  # finite residual, 4 residual^2 overflows the bound
])
def test_ae_theorem_bound_rejects_nonfinite_certificate(u_scale, amplitude):
    m = atom_cavity_ae(GAMMA, G_COUP, DRIVE)
    f = SimpleFunction.constant([DRIVE], 1.0)
    u0 = np.array([1.0, 0.0], dtype=complex)
    state = ApproxState([(u_scale * u0, SimpleFunction.constant([amplitude], 1.0))])
    with pytest.raises(NumericError):
        ae_theorem_bound(m, (u0, f), state, f, 10**4)


def test_ae_certificate_table_small_run():
    reports, result = ae_certificate_table((10**4,), n_intervals=6, blocks=2, seed=0)
    assert len(reports) == 1
    assert reports[0].k == 10**4
    assert result is not None and not result.search_failure
    assert result.state.n_terms == 5
    assert result.state.terms[0][1].n_intervals == 6
    assert result.cost < 0.02
    assert 0.0 < reports[0].bound < 0.2
    assert reports[0].k_scaling is not None and reports[0].k_scaling > 0.0
    # reusing the returned approximant skips the search entirely
    again, res2 = ae_certificate_table(
        (10**4,), n_intervals=6, blocks=2, seed=0, state=result.state
    )
    assert res2 is None
    assert again[0].bound == reports[0].bound


class _Stop(Exception):
    pass


def test_coarse_state_transplants_at_its_cost(monkeypatch):
    # 15 intervals refine a 5-interval coarse grid. The coarse grid was 10
    # intervals, and the midpoint resampling onto 15 moved the coarse state's
    # cost from 0.0048524 to 0.0048569.
    searches, search = [], adiabatic.optimize

    def first_search_only(model, psi, initial, schedule):
        if searches:
            searches.append(initial)
            raise _Stop
        searches.append(search(model, psi, initial, schedule))
        return searches[0]

    monkeypatch.setattr(adiabatic, "optimize", first_search_only)
    with pytest.raises(_Stop):
        ae_certificate_table((), n_intervals=15, blocks=1)
    coarse, refined = searches
    assert coarse.state.terms[0][1].n_intervals == 5
    assert refined.terms[0][1].n_intervals == 15
    reduced = limit_coefficients(atom_cavity_ae(GAMMA, G_COUP, DRIVE))
    psi = (np.array([0.0, 1.0], dtype=complex), SimpleFunction.constant([DRIVE], 1.0))
    assert residual_cost(reduced, psi, refined) == pytest.approx(
        residual_cost(reduced, psi, coarse.state), rel=1e-13)


@pytest.mark.parametrize("n_intervals, blocks, cost, nfev, bounds", [
    (4, 1, 0.000710425343495073, 1583,
     [0.020232314538056666, 0.006538470016967483, 0.002468216769962771,
      0.001557608554676327, 0.0014351130437036729]),
    (6, 2, 0.0007076572321674888, 2919, None),
    (7, 3, 0.0006958582669408369, 3864, None),
])
def test_ae_search_paths_are_pinned(n_intervals, blocks, cost, nfev, bounds):
    # The pipeline's path (the coarse gradient search, then the block
    # search), bit for bit: the 4-interval pipeline is the
    # benchmark's ae-search item, the 6-interval one commits a block before
    # searching the next, and the 7-interval one ends on a one-interval
    # block. A rounding-level change to the candidate solve or chain sends
    # L-BFGS or Nelder-Mead down another path, which shows here first.
    reports, result = ae_certificate_table(
        () if bounds is None else (10**4, 10**5, 10**6, 10**7, 10**8),
        n_intervals=n_intervals, blocks=blocks)
    assert result.cost == cost
    assert result.nfev == nfev
    assert not result.search_failure
    if bounds is not None:
        assert [r.bound for r in reports] == bounds


def test_ae_certificate_table_pooled_rows_equal_serial():
    # the k-independent parts are computed once, before the pool maps the ks
    rng = np.random.default_rng(3)
    bp = np.linspace(0.0, 1.0, 5)
    state = ApproxState([
        (0.3 * rng.standard_normal(2) + 0j,
         SimpleFunction(bp, DRIVE + 0.05 * rng.standard_normal((4, 1))))
        for _ in range(3)
    ])
    ks = (10**4, 3 * 10**4, 10**5, 10**6, 10**7, 10**8)
    serial, _ = ae_certificate_table(ks, state=state)
    with ThreadPoolExecutor(max_workers=4) as pool:
        pooled, _ = ae_certificate_table(
            ks, state=state, pool_map=lambda fn, xs: list(pool.map(fn, xs)))
    assert [r.k for r in serial] == list(ks)
    assert [r.to_json() for r in pooled] == [r.to_json() for r in serial]
