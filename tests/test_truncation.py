"""Interval rate bounds, certificate assembly, and the Kerr benchmark table."""

import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsdecert import (
    CSV_HEADER,
    AeConstants,
    ApproxState,
    BoundConstants,
    DegenerateRateError,
    InvalidParameterError,
    NormalizationError,
    NumericError,
    PartitionError,
    SimpleFunction,
    SlhModel,
    UnsupportedModelError,
    ae_certificate_table,
    ae_semigroup_error,
    annihilation,
    atom_cavity,
    atom_cavity_ae,
    atom_cavity_constants,
    c_sequence,
    coherent_mismatch,
    constants_for,
    cost,
    exp_norm,
    fock_expand_residual,
    generator,
    interval_sum,
    kerr_cavity,
    kerr_certificate_table,
    kerr_constants,
    kerr_reference_state,
    kerr_search,
    kerr_table_row,
    m_constants,
    ode_propagate,
    oscillator_elimination,
    propagate,
    refine_common,
    theorem_bound,
    truncate,
    z_bound,
)
from qsdecert import truncation
from qsdecert.truncation import MAX_ORDER_SUM

KERR19 = kerr_constants(19, 0.1, 0.1, 25.0)
RATE_KEYS = ("gamma", "qL", "qa", "qe")


def _z_reference(gamma, qL, qa, qe, r, s, t):
    """z_bound for one interval, written as the scalar loop over the five
    pieces: the reference for the array kernel. It takes numpy's exp and
    expm1, which round as the kernel's do, so both sides lose the same digits
    to the cancellation in e^{-a_i t} - e^{-a_j t} on short intervals. Where
    a_i t = 2^{-i} gamma t underflows to 0 while t > 0, a single-sum piece
    takes its limit c_i t, as the kernel does."""
    if t == 0.0 or qL == 0.0:
        return 0.0
    g = gamma
    E = qe / g
    A = qa / g
    cs = c_sequence(max(r, s))

    def saturating(i):
        y = (2.0**-i) * g * t
        if y == 0.0:
            return cs[i] * t
        return (2**i * cs[i] / g) * -np.expm1(-y)

    total = t * E ** (1.0 - 2.0**-r) * A ** (1.0 - 2.0**-s)
    for i in range(r):
        total += saturating(i) * E ** (1.0 - 2.0**-i) * A ** (1.0 - 2.0**-s)
    for i in range(s):
        total += saturating(i) * A ** (1.0 - 2.0**-i) * E ** (1.0 - 2.0**-r)
    for i in range(r):
        ei = np.exp(-(2.0**-i) * g * t)
        for j in range(s):
            if j == i:
                continue
            total += (
                cs[i] * cs[j] * 2 ** (i + j) / ((2**i - 2**j) * g)
                * (ei - np.exp(-(2.0**-j) * g * t))
                * E ** (1.0 - 2.0**-i)
                * A ** (1.0 - 2.0**-j)
            )
    for i in range(min(r, s)):
        total += (
            t * cs[i] ** 2
            * np.exp(-(2.0**-i) * g * t)
            * (E * A) ** (1.0 - 2.0**-i)
        )
    return float(qL * total)


GAMMAS = st.floats(-1.0, 3.0).map(lambda u: 10.0**u)
QS = st.floats(0.0, 5.0)
TIMES = st.floats(0.0, 2.0)
ORDERS = st.integers(1, 3)


@st.composite
def rate_inputs(draw):
    """(constants, t, r, s) with each rate and t a scalar or a column of one
    shared length."""
    n = draw(st.integers(1, 6))

    def column(values):
        if draw(st.booleans()):
            return draw(values)
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    c = BoundConstants(column(GAMMAS), column(QS), column(QS), column(QS))
    return c, column(TIMES), draw(ORDERS), draw(ORDERS)


def test_c_sequence_values_and_recursion():
    cs = c_sequence(6)
    np.testing.assert_allclose(
        cs,
        [1.0, 1.4142135623730951, 1.3731780959380786,
         1.252735564817174, 1.1559633511224823, 1.0923609712367393],
        rtol=0.0, atol=0.0,
    )
    assert cs[0] == 1.0
    assert cs[1] == math.sqrt(2.0)
    for j in range(1, 9):
        full = c_sequence(j + 1)
        assert full[j] == pytest.approx(
            math.sqrt(full[j - 1] * 2**j / (2**j - 1)), rel=1e-15
        )
    with pytest.raises(InvalidParameterError):
        c_sequence(0)


def test_c_sequence_matches_recursion_across_threads():
    # The recursion itself overflows (float * 2**1024) past n = 1024.
    ref = [1.0]
    for j in range(1, 1024):
        ref.append(math.sqrt(ref[-1] * 2**j / (2**j - 1)))
    # Long sequences first, so that the threads would grow a shared cache at
    # once; each call waits until four threads are ready (more than cores),
    # and the interpreter switches threads as often as it can.
    ns = [1024, 1000, 900, 800] + [1, 2, 3, 7, 54, 55, 60, 120, 500, 1024] * 8
    start = threading.Barrier(4, timeout=60)

    def call(n):
        start.wait()
        return c_sequence(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(call, ns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for n, cs in zip(ns, results):
        assert cs == ref[:n]
    # Calls return fresh lists: mutating one leaves the next call intact.
    c_sequence(3)[0] = 99.0
    assert c_sequence(3) == ref[:3]


def test_bound_constants_validation():
    with pytest.raises(DegenerateRateError):
        BoundConstants(gamma=0.0, qL=1.0, qa=1.0, qe=1.0)
    with pytest.raises(InvalidParameterError):
        BoundConstants(gamma=1.0, qL=-0.1, qa=1.0, qe=1.0)
    with pytest.raises(InvalidParameterError):
        BoundConstants(gamma=1.0, qL=1.0, qa=np.inf, qe=1.0)
    # Columns are checked entry by entry with the same rules.
    ones = np.ones(3)
    with pytest.raises(DegenerateRateError):
        BoundConstants(gamma=np.array([1.0, 0.0, 1.0]), qL=ones, qa=ones, qe=ones)
    with pytest.raises(DegenerateRateError):
        BoundConstants(gamma=np.array([1.0, np.nan, 1.0]), qL=ones, qa=ones, qe=ones)
    with pytest.raises(InvalidParameterError):
        BoundConstants(gamma=ones, qL=ones, qa=ones, qe=np.array([1.0, -1e-9, 1.0]))


def test_bound_constants_reject_malformed_columns():
    ones = np.ones(3)
    # A (3, 1) gamma broadcast against (3,) columns to a 3 x 3 table, and
    # interval_sum returned 66.79 where the 3-interval sum is 22.26.
    assert interval_sum(BoundConstants(ones, ones, ones, ones), [0, 1, 2, 3], 2, 2) == \
        pytest.approx(22.262987242963955, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        BoundConstants(gamma=np.ones((3, 1)), qL=ones, qa=ones, qe=ones)
    # Columns of different lengths failed later, with numpy's ValueError.
    with pytest.raises(InvalidParameterError):
        BoundConstants(gamma=ones, qL=np.ones(2), qa=ones, qe=ones)
    # Scalars mix with columns; the column length is what interval_sum checks.
    mixed = BoundConstants(gamma=1.0, qL=ones, qa=1.0, qe=1.0)
    with pytest.raises(PartitionError):
        interval_sum(mixed, [0, 1, 2, 3, 4], 2, 2)


def test_kerr_constants_anchor():
    # gamma = (lam k + |a-b|^2)/2 and the three sqrt(lam n) rates at k = 19
    assert KERR19.gamma == 237.5
    assert KERR19.qL == pytest.approx(2.23606797749979, rel=0.0, abs=1e-15)
    assert KERR19.qa == pytest.approx(2.179449471770337, rel=0.0, abs=1e-15)
    assert KERR19.qe == pytest.approx(4.527355824977709, rel=0.0, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        kerr_constants(0, 0.1, 0.1, 25.0)
    with pytest.raises(InvalidParameterError):
        kerr_constants(3, 0.1, 0.1, -1.0)


def test_atom_cavity_constants_anchor():
    c = atom_cavity_constants(1, 0.0, 1.0, 4.0, 1.0)
    assert c.gamma == 2.5
    assert c.qL == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-15)
    assert c.qa == pytest.approx(3.0, rel=1e-15)
    assert c.qe == pytest.approx(math.sqrt(2.0) + 3.0 * math.sqrt(3.0), rel=1e-15)
    with pytest.raises(InvalidParameterError):
        atom_cavity_constants(1, 0.0, 1.0, 4.0, -0.5)


def test_constants_for_dispatch():
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 19)
    c = constants_for(m, 0.1, 0.1)
    assert c == KERR19
    ac = atom_cavity(4.0, 1.0, 1)
    c2 = constants_for(ac, 0.0, 1.0)
    assert c2 == atom_cavity_constants(1, 0.0, 1.0, 4.0, 1.0)
    from qsdecert import SlhModel

    anon = SlhModel("anon", ((np.eye(2),),), (np.zeros((2, 2)),), np.zeros((2, 2)))
    with pytest.raises(UnsupportedModelError):
        constants_for(anon, 0.1, 0.1)


def test_z_bound_edges():
    assert z_bound(KERR19, 2, 2, 0.0) == 0.0
    silent = BoundConstants(gamma=1.0, qL=0.0, qa=1.0, qe=1.0)
    assert z_bound(silent, 2, 2, 1.0) == 0.0
    with pytest.raises(InvalidParameterError):
        z_bound(KERR19, 0, 2, 1.0)
    with pytest.raises(InvalidParameterError):
        z_bound(KERR19, 2, 0, 1.0)
    with pytest.raises(InvalidParameterError):
        z_bound(KERR19, 2, 2, -0.1)


def test_z_bound_anchors():
    assert z_bound(KERR19, 2, 2, 0.004) == pytest.approx(
        0.005642361134374937, rel=1e-13
    )
    assert z_bound(KERR19, 2, 2, 0.05) == pytest.approx(
        0.0011964337037686551, rel=1e-13
    )
    assert z_bound(KERR19, 2, 2, 0.5) == pytest.approx(
        0.0027026443631138868, rel=1e-13
    )


def test_z_bound_nonnegative_sample():
    rng = np.random.default_rng(42)
    for _ in range(200):
        c = BoundConstants(
            gamma=10.0 ** rng.uniform(-1, 3),
            qL=rng.uniform(0, 5),
            qa=rng.uniform(0, 5),
            qe=rng.uniform(0, 5),
        )
        for t in rng.uniform(0.0, 2.0, size=3):
            assert z_bound(c, 2, 3, float(t)) >= 0.0


def test_z_bound_not_monotone_in_time():
    # documented behavior: the transient exponential-difference terms decay,
    # so z can dip as t grows; pinned example at the Kerr k = 19 rates
    lo, hi = z_bound(KERR19, 2, 2, 0.02), z_bound(KERR19, 2, 2, 0.0201)
    assert hi - lo == pytest.approx(-1.2762289991455691e-05, abs=1e-12)
    assert hi < lo


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rate_inputs())
# a_0 t = 0.1 * 5e-324 underflows to 0 at a subnormal, nonzero t
@example((BoundConstants(*np.array([[0.1], [1.0], [0.0], [1.0]])),
          np.array([5e-324]), 1, 1))
def test_z_bound_array_matches_scalar_reference(inputs):
    c, t, r, s = inputs
    z = z_bound(c, r, s, t)
    cols = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for v in (c.gamma, c.qL, c.qa, c.qe, t)))
    ref = np.array([_z_reference(g, qL, qa, qe, r, s, dt)
                    for g, qL, qa, qe, dt in zip(*(v.ravel() for v in cols))])
    if cols[0].ndim == 0:
        assert type(z) is float
    else:
        assert z.shape == cols[0].shape
    np.testing.assert_allclose(np.ravel(z), ref, rtol=1e-13, atol=0.0)
    assert (np.asarray(z) >= 0.0).all()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rate_inputs())
def test_z_bound_exact_zeros(inputs):
    c, t, r, s = inputs
    assert (np.asarray(z_bound(c, r, s, np.zeros_like(t))) == 0.0).all()
    silent = BoundConstants(c.gamma, np.zeros_like(c.qL), c.qa, c.qe)
    assert (np.asarray(z_bound(silent, r, s, t)) == 0.0).all()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 12),
    r=ORDERS,
    s=ORDERS,
    data=st.data(),
)
def test_interval_sum_matches_summed_reference(n, r, s, data):
    rates = [(data.draw(GAMMAS), data.draw(QS), data.draw(QS), data.draw(QS))
             for _ in range(n)]
    dts = data.draw(st.lists(TIMES, min_size=n, max_size=n))
    partition = np.concatenate([[0.0], np.cumsum(dts)])
    ref = sum(_z_reference(*rate, r, s, float(dt))
              for rate, dt in zip(rates, np.diff(partition)))
    # SimpleFunction's breakpoint rule admits no zero-length interval. Each
    # one adds 0 to ref, so the sum runs without them and their rates.
    keep = np.diff(partition) > 0
    if not keep.all():
        with pytest.raises(PartitionError):
            interval_sum(BoundConstants(*np.array(rates).T), partition, r, s)
        if not keep.any():
            return
    consts = BoundConstants(*np.array(rates)[keep].T)
    partition = np.concatenate([[0.0], partition[1:][keep]])
    assert interval_sum(consts, partition, r, s) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_z_bound_rejects_orders_beyond_float_range():
    # 2**1099 and 2**(i + j) for i + j up to 1198 are no doubles.
    for r, s in ((1100, 2), (2, 1100), (600, 600)):
        with pytest.raises(InvalidParameterError):
            z_bound(KERR19, r, s, 1.0)
    # The largest admitted orders still give a finite bound, for small gamma
    # too, where 2^i c_i / gamma would overflow.
    z = z_bound(KERR19, MAX_ORDER_SUM - 1, 1, 1.0)
    assert math.isfinite(z) and z > 0.0
    for gamma in (0.1, 1e-3):
        c = BoundConstants(gamma=gamma, qL=1.0, qa=1.0, qe=1.0)
        for r, s in ((MAX_ORDER_SUM - 1, 1), (1, MAX_ORDER_SUM - 1), (513, 512)):
            z = z_bound(c, r, s, np.array([1e-3, 1.0, 10.0]))
            assert np.isfinite(z).all() and (z > 0.0).all()


def test_nonfinite_bounds_raise_numeric_error():
    huge = BoundConstants(gamma=1e-300, qL=1.0, qa=1.0, qe=1.0)
    with pytest.raises(NumericError):
        z_bound(huge, 2, 2, 1.0)
    with pytest.raises(NumericError):
        interval_sum(huge, [0.0, 1.0], 2, 2)
    # Each interval's z is finite, but their sum overflows.
    unit = z_bound(BoundConstants(gamma=1.0, qL=1.0, qa=1.0, qe=1.0), 1, 1, 1.0)
    big = BoundConstants(gamma=1.0, qL=1.5e308 / unit, qa=1.0, qe=1.0)
    assert math.isfinite(z_bound(big, 1, 1, 1.0))
    with pytest.raises(NumericError):
        interval_sum(big, [0.0, 1.0, 2.0], 1, 1)


def test_theorem_bound_rejects_nonfinite_certificate():
    # The residual (1.005e154) and z_sum (1.4e152) are finite, but
    # 4 residual^2 overflows, so the bound is inf.
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 3)
    f = SimpleFunction.constant([0.1], 1.0)
    u = np.zeros(4, dtype=complex)
    u[0] = 1.0
    state = ApproxState([(1e154 * u, f)])
    with pytest.raises(NumericError, match="certificate is not finite"):
        theorem_bound(m, (u, f), state, f, 2, 2)


def test_theorem_bound_rejects_multichannel_models():
    a = annihilation(3)
    eye = np.eye(3, dtype=complex)
    zero = np.zeros((3, 3), dtype=complex)
    two = SlhModel("two channels", ((eye, zero), (zero, eye)), (a, 0.5 * a),
                   a.conj().T @ a)
    f = SimpleFunction.constant([0.1, 0.2], 1.0)
    u = np.zeros(3, dtype=complex)
    u[0] = 1.0
    state = ApproxState([(u, f)])
    with pytest.raises(UnsupportedModelError):
        theorem_bound(two, (u, f), state, f, 2, 2)


def _column(c: BoundConstants, n: int) -> BoundConstants:
    """c's scalar rates repeated into n-entry per-interval columns."""
    return BoundConstants(*(np.full(n, getattr(c, key)) for key in RATE_KEYS), k=c.k)


AE_MODEL = atom_cavity_ae(25.0, 5.0, 0.1)
LEVEL_CALLS = {
    "kerr_cavity": lambda k: kerr_cavity(25.0, 50.0, -50.0 / 60.0, k),
    "atom_cavity": lambda k: atom_cavity(4.0, 1.5, k),
    "truncate": lambda k: truncate(kerr_cavity(25.0, 50.0, -50.0 / 60.0, 10), k),
    "kerr_table_row": kerr_table_row,
    "kerr_search": kerr_search,
    "kerr_constants": lambda k: kerr_constants(k, 0.1, 0.1, 25.0),
    "atom_cavity_constants": lambda k: atom_cavity_constants(k, 0.1, 0.1, 4.0, 1.5),
    "c_sequence": c_sequence,
    "z_bound_r": lambda r: z_bound(KERR19, r, 2, 1.0),
    "m_constants": lambda k: m_constants(AE_MODEL, [0.1], [0.1], k),
    "AeConstants": lambda k: AeConstants(M1=1.0, M2=0.5, k=k),
}


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, 0, "3"])
@pytest.mark.parametrize("call", sorted(LEVEL_CALLS))
def test_levels_are_finite_integers_at_least_one(call, value):
    # One rule, errors.as_level: 2.5 used to give rates for a level that does
    # not exist, or a bare TypeError, depending on the function.
    with pytest.raises(InvalidParameterError):
        LEVEL_CALLS[call](value)


@pytest.mark.parametrize("build", [
    # kerr_certificate_table([2.5]) used to certify and report k = 2.
    lambda: kerr_certificate_table([2.5]),
    lambda: BoundConstants(gamma=[0.1], qL=[1.0], qa=[0.0], qe=[1.0]),
    lambda: AeConstants(M1=np.ones(3), M2=np.ones(2), k=4),
], ids=["kerr_certificate_table", "BoundConstants_lists", "AeConstants_lengths"])
def test_malformed_levels_and_rate_columns_raise_typed_errors(build):
    with pytest.raises(InvalidParameterError):
        build()


Z1 = np.zeros((1, 1))
# One case per input that used to escape the library's rules in errors: each
# ended in a foreign exception (ZeroDivisionError, numpy's ValueError,
# LinAlgError, TypeError), the wrong QsdeCertError, or no error at all (a
# complex time lost its imaginary part with a ComplexWarning).
COUNT_CASES = {
    "ae_blocks_0": lambda: ae_certificate_table((), n_intervals=4, blocks=0),
    "ae_blocks_-1": lambda: ae_certificate_table((), n_intervals=4, blocks=-1),
    "ae_blocks_2.5": lambda: ae_certificate_table((), n_intervals=4, blocks=2.5),
    "kerr_intervals_-2": lambda: kerr_table_row(5, n_intervals=-2),
    "kerr_intervals_2.5": lambda: kerr_table_row(5, n_intervals=2.5),
    "oscillator_J_max_0": lambda: oscillator_elimination(
        Z1, Z1, Z1, [[-12.5]], [np.array([[5.0]])], [Z1], [[np.eye(1)]], J_max=0),
    "atom_cavity_ae_J_max_2.5": lambda: atom_cavity_ae(25.0, 5.0, 0.1, J_max=2.5),
    "BoundConstants_k_abc": lambda: BoundConstants(1.0, 1.0, 1.0, 1.0, k="abc"),
    "kerr_reference_state_3.5": lambda: kerr_reference_state(3.5),
    "fock_expand_residual_order_nan": lambda: fock_expand_residual(
        kerr_cavity(25.0, 50.0, -1.0, 3), (U_KERR, F_KERR), ApproxState([(U_KERR, F_KERR)]),
        order=math.nan),
}
G_KERR = generator(kerr_cavity(25.0, 50.0, -1.0, 3), [0.1], [0.1])
U_KERR = np.eye(4, dtype=complex)[0]
F_KERR = SimpleFunction.constant([0.1], 1.0)
TIME_CASES = {
    "ode_propagate_nan": lambda: ode_propagate(G_KERR, U_KERR, math.nan),
    "ode_propagate_abc": lambda: ode_propagate(G_KERR, U_KERR, "abc"),
    "propagate_abc": lambda: propagate(G_KERR, "abc"),
    "propagate_-1": lambda: propagate(G_KERR, -1.0),
    "propagate_nan": lambda: propagate(G_KERR, math.nan),
    "z_bound_abc": lambda: z_bound(KERR19, 2, 2, "abc"),
    "z_bound_complex": lambda: z_bound(KERR19, 2, 2, np.array([1.0 + 1.0j])),
    "ae_semigroup_error_abc": lambda: ae_semigroup_error(AeConstants(1.0, 1.0, 4), "abc"),
}
RATE_CASES = {
    "atom_cavity_ae_gamma_nan": lambda: atom_cavity_ae(math.nan, 5.0, 0.1),
    "atom_cavity_ae_g_abc": lambda: atom_cavity_ae(25.0, "abc", 0.1),
    "kerr_cavity_lam_abc": lambda: kerr_cavity("abc", 50.0, -1.0, 3),
    "kerr_constants_lam_abc": lambda: kerr_constants(3, 0.1, 0.1, "abc"),
    "atom_cavity_constants_chi_abc": lambda: atom_cavity_constants(3, 0.1, 0.1, 4.0, "abc"),
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_counts_are_finite_integers_at_least_one(case):
    with pytest.raises(InvalidParameterError):
        COUNT_CASES[case]()


@pytest.mark.parametrize("case", sorted(TIME_CASES))
def test_times_are_finite_and_nonnegative(case):
    with pytest.raises(InvalidParameterError):
        TIME_CASES[case]()


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_rates_are_finite_real_numbers(case):
    with pytest.raises(InvalidParameterError):
        RATE_CASES[case]()


def test_integral_levels_of_any_type_give_identical_rows():
    row = kerr_table_row(19)
    for k in (19.0, np.int64(19)):
        other = kerr_table_row(k)
        assert type(other.k) is int and other.to_json() == row.to_json()


def test_interval_sum():
    parts = np.array([0.0, 0.5, 2.0, 5.0])
    consts = kerr_constants(19, np.array([0.1, 0.1, 0.2]), 0.1, 25.0)
    manual = (
        z_bound(KERR19, 2, 2, 0.5)
        + z_bound(KERR19, 2, 2, 1.5)
        + z_bound(kerr_constants(19, 0.2, 0.1, 25.0), 2, 2, 3.0)
    )
    assert interval_sum(consts, parts, 2, 2) == pytest.approx(manual, rel=1e-14)
    # Columns of the wrong length.
    with pytest.raises(PartitionError):
        interval_sum(kerr_constants(19, np.array([0.1, 0.1]), 0.1, 25.0), parts, 2, 2)
    with pytest.raises(PartitionError):
        interval_sum(consts, parts[:3], 2, 2)
    # Scalar rates are shared by every interval, like a repeated column.
    assert interval_sum(KERR19, parts, 2, 2) == interval_sum(_column(KERR19, 3), parts, 2, 2)
    assert interval_sum(_column(KERR19, 1), parts, 2, 2) == interval_sum(KERR19, parts, 2, 2)
    # A partition needs one axis and two breakpoints; these returned 0.0, 0.0
    # and 14.84.
    for bad in ([0.0], [], [[0.0, 1.0], [1.0, 2.0]]):
        with pytest.raises(PartitionError):
            interval_sum(KERR19, bad, 2, 2)
    # SimpleFunction's breakpoint rule: the first is 0 and they strictly
    # increase. These gave the sum over [1, 2] alone, a zero-length interval
    # and an InvalidParameterError for the negative "time" -1.
    for bad in ([1.0, 2.0], [0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0]):
        with pytest.raises(PartitionError):
            interval_sum(KERR19, bad, 2, 2)


@pytest.mark.parametrize("family", ["kerr", "atom_cavity"])
def test_columnar_constants_equal_per_interval_calls(family):
    rng = np.random.default_rng(3)
    alphas = rng.normal(0.0, 0.3, 40) + 1j * rng.normal(0.0, 0.3, 40)
    betas = rng.normal(0.0, 0.3, 40) + 1j * rng.normal(0.0, 0.3, 40)
    if family == "kerr":
        model = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 7)
        rates = functools.partial(kerr_constants, 7, lam=25.0)
    else:
        model = atom_cavity(4.0, 1.5, 7)
        rates = functools.partial(atom_cavity_constants, 7, lam=4.0, chi=1.5)
    for columns in (rates(alpha=alphas, beta=betas), constants_for(model, alphas, betas)):
        assert columns.k == 7
        for i, (a, b) in enumerate(zip(alphas, betas)):
            for c in (rates(alpha=complex(a), beta=complex(b)),
                      constants_for(model, complex(a), complex(b))):
                for key in RATE_KEYS:
                    assert getattr(columns, key)[i] == pytest.approx(
                        getattr(c, key), rel=1e-15, abs=0.0)


def test_coherent_mismatch():
    f = SimpleFunction.constant([0.3 - 0.2j], 2.0)
    assert coherent_mismatch(f, f) == 0.0
    # unit-norm amplitudes with disjoint support: overlap exp(-1)
    f1 = SimpleFunction(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [0.0]]))
    f2 = SimpleFunction(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0]]))
    assert coherent_mismatch(f1, f2) == pytest.approx(
        math.sqrt(2.0 - 2.0 / math.e), rel=1e-15
    )


def test_theorem_bound_requires_normalized_reference():
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 3)
    f = SimpleFunction.constant([0.1], 1.0)
    state = kerr_reference_state(4)
    u = np.zeros(4, dtype=complex)
    u[0] = 2.0
    with pytest.raises(NormalizationError):
        theorem_bound(m, (u, f), state, f, 2, 2)


def test_theorem_bound_weighs_each_term():
    # Two terms on different partitions: term j's errors are z_bound over its
    # common partition with f' at that partition's rates, its weight is
    # ||u_j|| exp(||g_j||^2 / 2), and the report's partition is term 0's.
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 5)
    f = SimpleFunction([0.0, 1.0, 2.0], [[0.1], [0.15]])
    u = np.zeros(6, dtype=complex)
    u[0] = 1.0
    g0 = SimpleFunction([0.0, 0.5, 2.0], [[0.12], [0.08j]])
    g1 = SimpleFunction([0.0, 1.5, 2.0], [[-0.05], [0.2]])
    state = ApproxState([(0.9 * u, g0), (0.3j * np.roll(u, 1), g1)])
    rep = theorem_bound(m, (u, f), state, f, 2, 3)
    assert rep.weights == pytest.approx([0.9 * exp_norm(g0), 0.3 * exp_norm(g1)],
                                        rel=1e-15, abs=0.0)
    for (_, g), zs in zip(state.terms, rep.z_terms, strict=True):
        fr, gr = refine_common(f, g)
        expected = [z_bound(constants_for(m, complex(a[0]), complex(b[0])), 2, 3, dt)
                    for a, b, dt in zip(fr.values, gr.values, fr.durations())]
        assert zs == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert rep.partition == [0.0, 0.5, 1.0, 2.0]
    assert rep.z_sum == rep.weights[0] * sum(rep.z_terms[0]) + rep.weights[1] * sum(
        rep.z_terms[1])


def test_theorem_bound_zero_drive_is_exact():
    # alpha = beta = 0 leaves the vacuum invariant: certificate collapses to 0
    m = kerr_cavity(25.0, 50.0, -50.0 / 60.0, 3)
    f = SimpleFunction.zero(1, 1.0)
    u = np.zeros(4, dtype=complex)
    u[0] = 1.0
    state = type(kerr_reference_state(4))([(u.copy(), f)])
    rep = theorem_bound(m, (u, f), state, f, 2, 2)
    assert rep.z_sum == 0.0
    assert rep.mismatch == 0.0
    assert rep.residual <= 1e-12
    assert rep.bound <= 3e-12


def test_report_recombination():
    rep = kerr_table_row(19)
    assert rep.recombined_bound() == pytest.approx(rep.bound, rel=1e-14)
    assert rep.bound == pytest.approx(
        math.sqrt(4.0 * (rep.mismatch + rep.residual) ** 2 + 2.0 * rep.z_sum),
        rel=1e-14,
    )
    row = rep.to_row()
    assert row["k"] == 19 and row["r"] == 2 and row["s"] == 2 and row["t"] == 5.0
    assert "k_scaling" not in row
    payload = rep.to_json()
    assert payload["bound"] == rep.bound
    # one z-term list and one weight per approximant component
    assert len(payload["z_terms"]) == len(payload["weights"]) == 1
    assert len(payload["z_terms"][0]) == len(payload["partition"]) - 1
    rebuilt = sum(
        w * sum(zs) for w, zs in zip(payload["weights"], payload["z_terms"])
    )
    assert rebuilt == pytest.approx(rep.z_sum, rel=1e-14)


def test_kerr_table_row_anchors():
    # residual: 40-digit value of the k = 19 row from its float inputs
    # (_mp_kerr_residual); bound = sqrt(4 residual^2 + 2 z_sum) from it.
    r19 = kerr_table_row(19)
    assert r19.bound == pytest.approx(0.23284393004903445, abs=1e-12)
    assert r19.residual == pytest.approx(0.009610859294715573, abs=1e-12)
    assert r19.z_sum == pytest.approx(0.02692341064757418, abs=1e-12)
    assert r19.mismatch == 0.0
    r99 = kerr_table_row(99)
    assert r99.bound == pytest.approx(0.16128804155765072, abs=1e-12)
    assert r99.residual == pytest.approx(r19.residual, abs=1e-15)



def test_kerr_search_anchor():
    # The joint search at the paper's k = 19 point, bit for bit. It runs the
    # dense chain and the horizon cost that the block search shares, so a
    # change to either that moves the search's path shows here.
    res = kerr_search(19)
    assert res.cost == 0.009609850368077735
    assert res.nfev == 788
    assert not res.search_failure

def _kerr_level_cost(k, alpha, state):
    """cost of state at level k against the Kerr search's reference (e_0, f)."""
    model = kerr_cavity(25.0, 50.0, -50.0 / 60.0, k)
    u0 = np.zeros(k + 1, dtype=complex)
    u0[0] = 1.0
    return cost(model, (u0, SimpleFunction.constant([alpha], 5.0)), state)


@pytest.mark.parametrize("k, alpha, J, nfev", [
    (28, 0.0731, 0.0070248638255670445, 814),
    (43, 0.1555, 0.014942907923906963, 856),
    (58, 0.2, 0.01921858682716666, 833),
    (30, 0.05, 0.004804994814950205, 822),
])
def test_kerr_search_above_19_matches_the_level_k_search(k, alpha, J, nfev):
    # Cost and nfev of a search run at level k itself, bit for bit: the
    # search at level 19 finds the same state, and its cost is reported at k.
    res = kerr_search(k, alpha=alpha)
    assert (res.cost, res.nfev) == (J, nfev)
    assert not res.search_failure
    assert res.state.terms[0][0].shape == (k + 1,)
    assert res.cost == _kerr_level_cost(k, alpha, res.state)


def test_kerr_search_is_never_worse_than_the_cold_start():
    # The search guarantees this at the level it searched; the result must
    # hold it at the level it reports.
    k, alpha = 44, 0.1873
    u0 = np.zeros(k + 1, dtype=complex)
    u0[0] = 1.0
    template = SimpleFunction([0.0, 0.5, 5.0], [[alpha], [alpha]])
    cold = _kerr_level_cost(k, alpha, ApproxState([(u0, template)]))
    assert kerr_search(k, alpha=alpha).cost <= cold


def test_kerr_search_falls_back_to_a_level_k_search(monkeypatch):
    # A level-3 search costed at 19 is 5.9e-10 off, beyond 1e-12: the level
    # check fires and the level-19 search runs, its evaluations added to the
    # 815 of the level-3 search.
    anchor = kerr_search(19)
    monkeypatch.setattr(truncation, "_KERR_SEARCH_LEVEL", 3)
    monkeypatch.setattr(truncation, "_KERR_LEVEL_RTOL", 1e-12)
    res = kerr_search(19)
    assert res.cost == 0.009609850368077735
    assert res.nfev == 815 + 788
    assert res.state.to_json() == anchor.state.to_json()


def _mp_kerr_residual(mp, k, alpha=0.1):
    """Residual of the Kerr table row at level k in mpmath arithmetic.

    The inputs are the row's floats: the model's S, L and H, the drive, and
    the reference state's breakpoints, amplitudes and system vector. The
    generators are assembled from them here, by the textbook one-channel
    formula, so the oracle does not depend on how `generator` rounds. Only
    the arithmetic on the inputs is exact to the working precision; the
    drive is constant, so the row's interval count does not enter.
    """
    model = kerr_cavity(25.0, 50.0, -50.0 / 60.0, k)
    S, L, H = (mp.matrix(np.asarray(X).tolist())
               for X in (model.S[0][0], model.L[0], model.H))
    eye = mp.eye(model.dim)
    drive = mp.mpc(complex(alpha))
    ((uj, gj),) = kerr_reference_state(k + 1).terms
    dts = [mp.mpf(float(b)) - mp.mpf(float(a))
           for a, b in zip(gj.breakpoints[:-1], gj.breakpoints[1:])]
    v = mp.matrix([mp.mpc(complex(x)) for x in uj])
    for i in reversed(range(gj.n_intervals)):
        beta = mp.mpc(complex(gj.values[i][0]))
        G = (mp.conj(drive) * S.H * (beta * eye - L) + beta * L.H + mp.mpc(0, 1) * H
             - L.H * L / 2 - (abs(drive) ** 2 + abs(beta) ** 2) / 2 * eye)
        v = mp.expm(G * dts[i]) * v
    g_sq = mp.fsum(dt * abs(mp.mpc(complex(val[0])))**2
                   for dt, val in zip(dts, gj.values))
    u_sq = mp.fsum(abs(mp.mpc(complex(x)))**2 for x in uj)
    sq = 1 - 2 * mp.exp(g_sq / 2) * mp.re(v[0]) + u_sq * mp.exp(g_sq)
    return mp.sqrt(sq)


def test_kerr_residual_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = _mp_kerr_residual(mpmath, 9)
        assert abs(exact - mpmath.mpf("0.009610859294714875")) < 1e-17
        exact = float(exact)
    for n in (10, 13, 40):
        row = kerr_table_row(9, n_intervals=n)
        assert row.residual == pytest.approx(exact, abs=1e-12), n


def test_kerr_reference_state():
    with pytest.raises(InvalidParameterError):
        kerr_reference_state(2)
    st = kerr_reference_state(30)
    from qsdecert import approx_norm

    assert approx_norm(st) == pytest.approx(1.0, abs=1e-3)
    # weight sits on the first three levels regardless of requested dim
    assert np.all(st.terms[0][0][3:] == 0.0)


def test_kerr_table_row_rejects_oversized_state():
    # a component with weight above the truncated space cannot be compressed
    from qsdecert import ApproxState

    u = np.zeros(10, dtype=complex)
    u[5] = 1.0
    tall = ApproxState([(u, SimpleFunction.constant([0.1], 5.0))])
    with pytest.raises(InvalidParameterError):
        kerr_table_row(2, state=tall)


def test_kerr_table_row_overflowing_residual_is_a_numeric_error():
    # e(g) with |g|^2 t = 1600 overflows the Gram term of the residual
    big = ApproxState([(np.eye(6, dtype=complex)[0], SimpleFunction.constant([40.0], 1.0))])
    with pytest.raises(NumericError):
        kerr_table_row(5, t_final=1.0, state=big)


def test_csv_header_is_stable():
    assert CSV_HEADER == "k,r,s,t,z_sum,residual,mismatch,bound"
