"""Piecewise-constant amplitudes and the displaced contraction semigroups."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdecert.semigroup
from qsdecert.semigroup import affine_basis, affine_coefficients
from qsdecert.verification import _random_dissipative_model

from qsdecert import (
    InvalidAmplitudeError,
    InvalidDimensionError,
    InvalidParameterError,
    ModelIntegrityError,
    PartitionError,
    SimpleFunction,
    SlhModel,
    chain,
    generator,
    kerr_cavity,
    opnorm,
    propagate,
    refine_common,
)

MODEL = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 2)


def _abscissa(G) -> float:
    """Largest eigenvalue of the Hermitian part of G; <= 0 when G is dissipative."""
    return float(np.linalg.eigvalsh(0.5 * (G + G.conj().T)).max())


def test_simple_function_validation():
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction(np.array([0.5, 1.0]), np.array([[0.1]]))  # must start at 0
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction(np.array([0.0, 1.0, 1.0]), np.array([[0.1], [0.2]]))
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction(np.array([0.0, 1.0]), np.array([[0.1], [0.2]]))  # row count
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction(np.array([0.0, 1.0]), np.array([[np.inf]]))
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction(np.array([0.0]), np.array([[0.1]]).reshape(1, 1)[:0])
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction.zero(1, np.inf)  # its norm_sq() was NaN
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction([0.0, 1.0], ["a"])  # numpy's ValueError
    with pytest.raises(InvalidAmplitudeError):
        SimpleFunction([0.0, 1.0], ["1"])  # read as 1+0j


def test_simple_function_evaluation():
    f = SimpleFunction(np.array([0.0, 0.5, 2.0]), np.array([[0.1 + 0.2j], [-0.3]]))
    assert f.m == 1
    assert f.n_intervals == 2
    assert f.t_final == 2.0
    assert f.value_at(0.0)[0] == 0.1 + 0.2j
    assert f.value_at(0.49)[0] == 0.1 + 0.2j
    assert f.value_at(0.5)[0] == -0.3
    np.testing.assert_allclose(f.durations(), [0.5, 1.5])
    # integral of |f|^2: 0.5*0.05 + 1.5*0.09
    assert f.norm_sq() == pytest.approx(0.5 * 0.05 + 1.5 * 0.09, rel=1e-14)
    with pytest.raises(InvalidAmplitudeError):
        f.value_at(2.0)
    with pytest.raises(InvalidAmplitudeError):
        f.value_at(-0.01)
    with pytest.raises(InvalidAmplitudeError):
        f.value_at(float("nan"))


def test_simple_function_inner_product():
    f = SimpleFunction(np.array([0.0, 1.0, 2.0]), np.array([[0.1], [0.2j]]))
    g = SimpleFunction(np.array([0.0, 1.0, 2.0]), np.array([[0.3], [0.1]]))
    assert f.inner(g) == pytest.approx(0.03 - 0.02j, abs=1e-15)
    # mismatched partitions are refined internally
    h = SimpleFunction(np.array([0.0, 2.0]), np.array([[0.3]]))
    assert f.inner(h) == pytest.approx(0.03 + np.conj(0.2j) * 0.3, abs=1e-15)


def test_constant_and_zero_builders():
    c = SimpleFunction.constant([0.1, -0.2j], 3.0)
    assert c.m == 2
    np.testing.assert_array_equal(c.value_at(1.7), [0.1, -0.2j])
    z = SimpleFunction.zero(1, 3.0)
    assert z.norm_sq() == 0.0


def test_with_breakpoints_preserves_values():
    f = SimpleFunction(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [2.0]]))
    g = f.with_breakpoints(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    np.testing.assert_array_equal(g.values.ravel(), [1.0, 1.0, 2.0, 2.0])
    assert g.norm_sq() == pytest.approx(f.norm_sq(), rel=1e-14)
    with pytest.raises(InvalidAmplitudeError):  # midpoint 2.5 lies past t_final
        f.with_breakpoints(np.array([0.0, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("bp", [[0.0, 0.4, 1.2, 2.0], [0.0, 0.5, 1.0], [0.0, 2.0]],
                         ids=["inner-point-missing", "shorter", "coarser"])
def test_with_breakpoints_needs_a_refinement(bp):
    # The midpoint resampling once moved the function onto any partition, so
    # a coarse search state on 10 intervals changed its cost on 15.
    f = SimpleFunction(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [2.0]]))
    with pytest.raises(PartitionError, match="lacks breakpoint"):
        f.with_breakpoints(np.array(bp))
    assert f.with_breakpoints(np.array([0.0, 1.0 + 1e-13, 2.0])).n_intervals == 2


def test_constructors_leave_the_callers_arrays_writeable():
    # Freezing the caller's own complex arrays made them read-only.
    bp, vals = np.array([0.0, 0.5, 1.0]), np.array([[0.1j], [0.2]])
    f = SimpleFunction(bp, vals)
    H, L = np.diag([0.0, 1.0]).astype(complex), np.diag([0.0, 1.0j])
    model = SlhModel("x", [[np.eye(2, dtype=complex)]], [L], H)
    for caller in (bp, vals, H, L):
        assert caller.flags.writeable
    for own in (f.breakpoints, f.values, model.H, model.L[0]):
        assert not own.flags.writeable
    bp[1], vals[0, 0], H[1, 1], L[1, 1] = 0.25, 0.0, 2.0, 0.0
    assert f.breakpoints[1] == 0.5 and f.values[0, 0] == 0.1j
    assert model.H[1, 1] == 1.0 and model.L[0][1, 1] == 1.0j


def test_equality_and_hash():
    f = SimpleFunction(np.array([0.0, 1.0]), np.array([[0.1]]))
    g = SimpleFunction(np.array([0.0, 1.0]), np.array([[0.1]]))
    h = SimpleFunction(np.array([0.0, 1.0]), np.array([[0.2]]))
    assert f == g and hash(f) == hash(g)
    assert f != h


def test_refine_common():
    f = SimpleFunction(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [2.0]]))
    g = SimpleFunction(np.array([0.0, 0.5, 2.0]), np.array([[5.0], [6.0]]))
    f2, g2 = refine_common(f, g)
    np.testing.assert_allclose(f2.breakpoints, [0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(g2.breakpoints, [0.0, 0.5, 1.0, 2.0])
    for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 1.99):
        np.testing.assert_array_equal(f2.value_at(t), f.value_at(t))
        np.testing.assert_array_equal(g2.value_at(t), g.value_at(t))
    with pytest.raises(PartitionError):
        refine_common(f, SimpleFunction(np.array([0.0, 3.0]), np.array([[1.0]])))


def test_generator_small_kerr_diagonal():
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 1)
    g = generator(m, [0.0], [0.0])
    # undriven: G = iH - L*L/2, diagonal with entries 0 and 50j - 12.5
    np.testing.assert_allclose(
        g, np.diag([0.0, 50.0j - 12.5]), atol=1e-12
    )


def test_generator_matches_dense_assembly():
    # generator contracts affine_basis with affine_coefficients; this checks it
    # against the textbook sum, on a two-channel model with a generic block
    # scattering matrix
    rng = np.random.default_rng(77)
    dim = 4
    theta = 0.7
    u2 = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    v = [np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
         for _ in range(2)]
    S = tuple(tuple(u2[j, i] * v[i] for i in range(2)) for j in range(2))
    L = tuple(0.4 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
              for _ in range(2))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = 0.5 * (h + h.conj().T)
    from qsdecert import SlhModel

    model = SlhModel("dense-check", S, L, H)
    alpha = np.array([0.2 - 0.1j, 0.05j])
    beta = np.array([-0.1, 0.3 + 0.2j])
    expected = 1j * H.astype(complex)
    for j in range(2):
        expected += beta[j] * L[j].conj().T
        expected -= 0.5 * (L[j].conj().T @ L[j])
        for i in range(2):
            sd = S[j][i].conj().T
            expected += np.conj(alpha[i]) * beta[j] * sd
            expected -= np.conj(alpha[i]) * (sd @ L[j])
    expected -= 0.5 * (np.vdot(alpha, alpha).real + np.vdot(beta, beta).real) * np.eye(dim)
    np.testing.assert_allclose(generator(model, alpha, beta), expected, atol=1e-13)


_AMPLITUDE = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 8),
    channels=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_affine_basis_generators_are_dissipative(dim, channels, seed, data):
    model = _random_dissipative_model(np.random.default_rng(seed), dim, channels)
    rows = st.lists(_AMPLITUDE, min_size=channels, max_size=channels)
    alphas = data.draw(st.lists(rows, min_size=1, max_size=3), label="alphas")
    betas = data.draw(st.lists(rows, min_size=len(alphas), max_size=len(alphas)),
                      label="betas")
    G = np.einsum("pk,pkij->pij", affine_coefficients(betas), affine_basis(model, alphas))
    for M in G:
        assert _abscissa(M) <= 1e-12


def test_generator_validation():
    with pytest.raises(InvalidAmplitudeError):
        generator(MODEL, [0.1, 0.2], [0.1])
    with pytest.raises(InvalidAmplitudeError):
        affine_basis(MODEL, [[0.1, 0.2]])
    g1 = generator(MODEL, [0.1], [0.2])
    assert g1.shape == (MODEL.dim, MODEL.dim)
    assert not g1.flags.writeable


def test_propagate_contraction():
    g = generator(MODEL, [0.1], [0.3j])
    u = propagate(g, 0.8)
    assert opnorm(u) <= 1.0 + 1e-9
    with pytest.raises(InvalidParameterError):
        propagate(g, -0.1)
    assert _abscissa(g) <= 1e-12


def test_propagate_rejects_a_non_square_generator():
    # numpy's LinAlgError once escaped from the exponential.
    with pytest.raises(InvalidDimensionError, match="square"):
        propagate(np.zeros((2, 3), complex), 0.1)


def test_propagate_rejects_expansive_generator():
    g = generator(MODEL, [0.0], [0.0])
    bad = g.copy()
    for li in MODEL.L:
        bad += li.conj().T @ li  # flips the dissipator sign
    with pytest.raises(ModelIntegrityError):
        propagate(bad, 1.0)


def test_semigroup_law():
    g = generator(MODEL, [0.1], [0.2 - 0.1j])
    left = propagate(g, 0.7)
    right = propagate(g, 0.3) @ propagate(g, 0.4)
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_chain_applies_last_interval_first():
    bps = np.array([0.0, 0.4, 1.0])
    f = SimpleFunction(bps, np.array([[0.1 + 0.0j], [0.2 + 0.0j]]))
    g = SimpleFunction(bps, np.array([[0.05 + 0.0j], [-0.1 + 0.0j]]))
    u = np.array([1.0, 0.0, 0.0], dtype=complex)
    g0 = generator(MODEL, f.values[0], g.values[0])
    g1 = generator(MODEL, f.values[1], g.values[1])
    expected = sla.expm(0.4 * g0) @ sla.expm(0.6 * g1) @ u
    np.testing.assert_allclose(chain(MODEL, f, g, u), expected, atol=1e-12)
    with pytest.raises(InvalidAmplitudeError):
        chain(MODEL, SimpleFunction.constant([0.1, 0.2], 1.0), g, u)


def test_chain_fixes_vacuum_when_undriven():
    f = SimpleFunction.zero(1, 2.0)
    u = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = chain(MODEL, f, f, u)
    np.testing.assert_allclose(out, u, atol=1e-13)


@st.composite
def refined_pair(draw):
    """A one-channel simple function, a finer partition of it, and a g."""
    n = draw(st.integers(1, 5))
    t_final = draw(st.floats(0.1, 3.0))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1))
    bp = np.unique(np.r_[0.0, t_final * np.array(inner), t_final])
    part = st.floats(-1.0, 1.0)
    vals = [complex(draw(part), draw(part)) for _ in range(bp.size - 1)]
    f = SimpleFunction(bp, np.array(vals)[:, None])
    g = SimpleFunction(
        np.array([0.0, 0.5 * t_final, t_final]),
        np.array([[complex(draw(part), draw(part))] for _ in range(2)]),
    )
    # Inner points well away from every breakpoint of f and g, so no
    # roundoff merge in refine_common can move an original point.
    extra = t_final * np.array(
        draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6))
    )
    old = np.union1d(bp, g.breakpoints)
    extra = extra[np.min(np.abs(extra[:, None] - old[None, :]), axis=1) > 1e-6]
    return f, f.with_breakpoints(np.union1d(bp, extra)), g


@settings(max_examples=60, deadline=None)
@given(refined_pair())
def test_refinement_preserves_inner_products_and_norms(case):
    f, fine, g = case
    assert fine.norm_sq() == pytest.approx(f.norm_sq(), rel=1e-12, abs=1e-15)
    assert fine.inner(g) == pytest.approx(f.inner(g), rel=1e-12, abs=1e-15)
    assert g.inner(fine) == pytest.approx(g.inner(f), rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(refined_pair())
def test_refinement_leaves_chain_unchanged(case):
    f, fine, g = case
    u = np.array([0.6, 0.8j, 0.0])
    np.testing.assert_allclose(
        chain(MODEL, fine, g, u), chain(MODEL, f, g, u), rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        chain(MODEL, g, fine, u), chain(MODEL, g, f, u), rtol=0, atol=1e-12
    )


def test_chain_computes_one_exponential_per_run(monkeypatch):
    # A 13-interval drive against a two-valued g: the common partition has
    # 14 intervals of several float lengths but only two amplitude runs.
    calls = []

    def counting_matexp(g, t=1.0):
        calls.append(t)
        return sla.expm(g * t)

    monkeypatch.setattr(qsdecert.semigroup, "matexp", counting_matexp)
    model = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 9)
    f = SimpleFunction(np.linspace(0.0, 5.0, 14), np.full((13, 1), 0.1 + 0j))
    g = SimpleFunction([0.0, 0.5, 5.0], [[0.0866 + 0.0462j], [0.0882 + 0.0471j]])
    u = np.eye(10, dtype=complex)[0]
    out = chain(model, f, g, u)
    assert sorted(calls) == [0.5, 4.5]
    g0 = generator(model, f.values[0], g.values[0])
    g1 = generator(model, f.values[0], g.values[1])
    np.testing.assert_allclose(
        out, sla.expm(0.5 * g0) @ sla.expm(4.5 * g1) @ u, rtol=0, atol=1e-12
    )
