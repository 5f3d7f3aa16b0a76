"""Acceptance gate: benchmark tables, dominance, structure, and rate-bound laws.

Each test prints one line summarizing the measured quantity so a -s run reads
as a checklist. The interval rate bound z is not monotone in time: its
difference-of-exponentials and t e^{-gamma_i t} sums are transients that rise
and then decay. The time-law test therefore checks the law z does obey: z
splits into a nondecreasing part plus nonnegative transients, and those
transients die out, after which z increases strictly.
"""

import math
import time

import numpy as np
import pytest

from qsdecert import (
    BoundConstants,
    ae_certificate_table,
    atom_cavity_ae,
    c_sequence,
    kerr_certificate_table,
    limit_coefficients,
    opnorm,
    oscillator_elimination,
    run_suite,
    z_bound,
)

EXPECTED_KERR_BOUNDS = {
    19: 0.2366, 29: 0.2115, 39: 0.1970, 49: 0.1872, 59: 0.1799,
    69: 0.1742, 79: 0.1696, 89: 0.1658, 99: 0.1625,
}
KERR_TOL = 0.005
RESIDUAL_TARGET = 0.0096
RESIDUAL_TOL = 0.0015
AE_COST_CAP = 0.01
AE_FINAL_BOUND_CAP = 0.02
SWEEP_SETS = 10_000
SWEEP_GRID = np.linspace(0.0, 2.0, 201)
# relative slack for rounding when comparing z with its monotone part
ROUNDING = 1e-12
# T = 60 * 2^{max(r,s)-1} / gamma: the slowest transient is down to ~e^{-60}
TRANSIENT_DECAYS = 60.0
LATE_GRID_POINTS = 21


def monotone_part(c, r, s, t):
    """Nondecreasing part of z_bound: its linear term and both saturating
    single sums (each from i = 0), written out from the z_bound docstring."""
    g = c.gamma
    E = c.qe / g
    A = c.qa / g
    cs = c_sequence(max(r, s))
    total = t * E ** (1.0 - 2.0**-r) * A ** (1.0 - 2.0**-s)
    for i in range(r):
        total = total + (2**i * cs[i] / g) * -np.expm1(-(2.0**-i) * g * t) * (
            E ** (1.0 - 2.0**-i) * A ** (1.0 - 2.0**-s)
        )
    for i in range(s):
        total = total + (2**i * cs[i] / g) * -np.expm1(-(2.0**-i) * g * t) * (
            A ** (1.0 - 2.0**-i) * E ** (1.0 - 2.0**-r)
        )
    return c.qL * total


@pytest.fixture(scope="module")
def kerr_rows():
    t0 = time.monotonic()
    rows = kerr_certificate_table(sorted(EXPECTED_KERR_BOUNDS))
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def full_suite():
    return run_suite(quick=False, seed=0)


@pytest.fixture(scope="module")
def rate_sweep():
    rng = np.random.default_rng(0)
    negatives = 0
    nonmonotone = 0
    worst_step = 0.0
    part_decreasing = 0
    below_part = 0
    transient_left = 0
    for _ in range(SWEEP_SETS):
        c = BoundConstants(
            gamma=10.0 ** rng.uniform(-1.0, 3.0),
            qL=float(rng.uniform(0.0, 5.0)),
            qa=float(rng.uniform(0.0, 5.0)),
            qe=float(rng.uniform(0.0, 5.0)),
        )
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        vals = z_bound(c, r, s, SWEEP_GRID)
        if (vals < 0.0).any():
            negatives += 1
        step = float(np.diff(vals).min())
        if step < -1e-12:
            nonmonotone += 1
            worst_step = min(worst_step, step)
        part = monotone_part(c, r, s, SWEEP_GRID)
        if (np.diff(part) < -ROUNDING * part[1:]).any():
            part_decreasing += 1
        if (vals < part * (1.0 - ROUNDING)).any():
            below_part += 1
        t_late = TRANSIENT_DECAYS * 2.0 ** (max(r, s) - 1) / c.gamma
        late = z_bound(c, r, s, np.linspace(t_late, 2.0 * t_late, LATE_GRID_POINTS))
        residue = abs(late[0] - float(monotone_part(c, r, s, t_late)))
        if residue > ROUNDING * late[0] or (np.diff(late) <= 0.0).any():
            transient_left += 1
    return {
        "negatives": negatives,
        "nonmonotone": nonmonotone,
        "worst_step": worst_step,
        "part_decreasing": part_decreasing,
        "below_part": below_part,
        "transient_left": transient_left,
    }


def test_kerr_certificate_table_accuracy(kerr_rows):
    rows, seconds = kerr_rows
    assert seconds <= 120.0, f"table took {seconds:.1f}s"
    bounds = {r.k: r.bound for r in rows}
    assert sorted(bounds) == sorted(EXPECTED_KERR_BOUNDS)
    for k, expected in EXPECTED_KERR_BOUNDS.items():
        assert bounds[k] == pytest.approx(expected, abs=KERR_TOL), (
            f"k={k}: bound {bounds[k]:.4f} vs expected {expected:.4f}"
        )
    ordered = [bounds[k] for k in sorted(bounds)]
    assert all(b2 < b1 for b1, b2 in zip(ordered, ordered[1:]))
    worst = max(abs(bounds[k] - v) for k, v in EXPECTED_KERR_BOUNDS.items())
    print(f"PASS: 9 truncation bounds within {KERR_TOL} "
          f"(worst |diff| {worst:.4f}, {seconds:.1f}s)")


def test_kerr_residual_stable_across_levels(kerr_rows):
    rows, _ = kerr_rows
    residuals = {r.k: r.residual for r in rows}
    j99 = residuals[99]
    assert abs(j99 - RESIDUAL_TARGET) <= RESIDUAL_TOL
    window = [residuals[k] for k in (59, 79, 99)]
    assert max(window) - min(window) < 0.001
    print(f"PASS: residual at k=99 is {j99:.4f} "
          f"(target {RESIDUAL_TARGET} +/- {RESIDUAL_TOL}), "
          f"spread {max(window) - min(window):.2e} across k in 59..99")


def test_ae_certificate_scaling_properties():
    t0 = time.monotonic()
    reports, result = ae_certificate_table(
        (10**4, 10**5, 10**6, 10**7, 10**8),
        n_intervals=1000, blocks=100, seed=0,
    )
    seconds = time.monotonic() - t0
    assert result is not None and not result.search_failure
    assert result.cost <= AE_COST_CAP, f"search cost {result.cost:.4f}"
    by_k = {r.k: r for r in reports}
    bounds = [by_k[k].bound for k in sorted(by_k)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:])), bounds
    assert bounds[-1] <= AE_FINAL_BOUND_CAP, f"final bound {bounds[-1]:.4f}"
    ratio = by_k[10**7].k_scaling / by_k[10**8].k_scaling
    assert abs(ratio / 10.0 - 1.0) <= 0.01, f"scaling ratio {ratio:.6f}"
    print(f"PASS: search cost {result.cost:.4f} <= {AE_COST_CAP}, bounds "
          f"{[round(b, 4) for b in bounds]} strictly decreasing, "
          f"1/k term ratio {ratio:.4f} ({seconds:.0f}s)")


def test_empirical_dominance_zero_violations(full_suite):
    sec = full_suite["sections"]["dominance"]
    assert sec["passed"] is True
    assert sec["violations"] == 0
    assert sec["cases"] == 180
    assert sec["seconds"] <= 300.0
    print(f"PASS: {sec['cases']} empirical errors all below their rate bounds "
          f"(min margin {sec['min_margin']:.2e}, {sec['seconds']:.0f}s)")


def test_propagator_cross_check_tolerances(full_suite):
    assert full_suite["passed"] is True
    sections = full_suite["sections"]
    ode = sections["matexp_vs_ode"]
    assert ode["passed"] and ode["cases"] == 20
    assert ode["max_error"] <= 1e-8
    law = sections["contraction_and_law"]
    assert law["passed"] and law["cases"] == 12
    assert law["max_contraction_excess"] <= 1e-9
    assert law["max_law_defect"] <= 1e-9
    oracle = sections["residual_oracle"]
    assert oracle["passed"] and oracle["cases"] == 8
    assert oracle["max_error"] <= 1e-10
    print(f"PASS: matexp-vs-ODE {ode['max_error']:.2e} <= 1e-8, "
          f"contraction excess {law['max_contraction_excess']:.2e} and law "
          f"defect {law['max_law_defect']:.2e} <= 1e-9, residual oracle "
          f"{oracle['max_error']:.2e} <= 1e-10")


def test_elimination_structure_and_limits():
    z1 = np.zeros((1, 1))
    builders = []
    for j_max in (4, 6):
        builders.append(atom_cavity_ae(25.0, 5.0, 0.1, J_max=j_max))
        builders.append(oscillator_elimination(
            z1, z1, z1, [[-12.5]], [np.array([[5.0]])], [z1], [[np.eye(1)]],
            J_max=j_max,
        ))
    worst_inv = 0.0
    for m in builders:
        off = np.eye(m.dim) - m.P0
        idx = np.ix_(m.represented, m.represented)
        worst_inv = max(worst_inv, float(np.abs((m.Ytilde @ m.Y - off)[idx]).max()))
        red = limit_coefficients(m)
        s = red.S[0][0]
        assert opnorm(s @ s.conj().T - np.eye(s.shape[0])) <= 1e-10
        assert opnorm(red.H - red.H.conj().T) <= 1e-10
    assert worst_inv <= 1e-12

    ac = atom_cavity_ae(25.0, 5.0, 0.1, J_max=4)
    red = limit_coefficients(ac)
    np.testing.assert_allclose(red.S[0][0], np.diag([1.0, -1.0]), atol=1e-12)
    expected_l = np.zeros((2, 2), dtype=complex)
    expected_l[0, 1] = -0.1 * np.sqrt(25.0) / 5.0
    np.testing.assert_allclose(red.L[0], expected_l, atol=1e-12)
    np.testing.assert_allclose(red.H, np.zeros((2, 2)), atol=1e-12)
    df = ac.J_max + 1
    d1 = -5.0 / ac.Ytilde[1 * df + 1, 0].real
    d2 = -5.0 * np.sqrt(2.0) / ac.Ytilde[1 * df + 2, 1].real
    assert d1 == pytest.approx(25.0, rel=1e-12)
    assert d2 == pytest.approx(362.5, rel=1e-12)
    print(f"PASS: pseudo-inverse defect {worst_inv:.2e} <= 1e-12 across 4 "
          f"builds; closed-form limit and denominators d1={d1:.1f}, "
          f"d2={d2:.1f} reproduced")


def test_rate_bound_zero_time_positivity_and_recursion(rate_sweep):
    rng = np.random.default_rng(123)
    for _ in range(100):
        c = BoundConstants(
            gamma=10.0 ** rng.uniform(-1.0, 3.0),
            qL=float(rng.uniform(0.0, 5.0)),
            qa=float(rng.uniform(0.0, 5.0)),
            qe=float(rng.uniform(0.0, 5.0)),
        )
        assert z_bound(c, 2, 2, 0.0) == 0.0
    assert rate_sweep["negatives"] == 0
    cs = c_sequence(10)
    assert cs[0] == 1.0
    assert cs[1] == math.sqrt(2.0)
    for j in range(1, 10):
        assert cs[j] == pytest.approx(
            math.sqrt(cs[j - 1] * 2**j / (2**j - 1)), rel=1e-15
        )
    print(f"PASS: z(0) = 0 exactly, {SWEEP_SETS} randomized sets all "
          f"nonnegative on a 201-point grid, coefficient recursion verified")


def test_rate_bound_nondecreasing_in_time(rate_sweep):
    # z itself dips (see test_z_bound_not_monotone_in_time); what holds is
    # (a) its monotone part M is nondecreasing, (b) z >= M, so z(t2) >= M(t1)
    # for t2 >= t1, and (c) the transients z - M have died out by
    # T = 60 * 2^{max(r,s)-1} / gamma, after which z increases strictly.
    assert rate_sweep["part_decreasing"] == 0, (
        f"{rate_sweep['part_decreasing']}/{SWEEP_SETS} rate sets have a "
        f"decreasing monotone part"
    )
    assert rate_sweep["below_part"] == 0, (
        f"{rate_sweep['below_part']}/{SWEEP_SETS} rate sets have z below its "
        f"monotone part (a negative transient)"
    )
    assert rate_sweep["transient_left"] == 0, (
        f"{rate_sweep['transient_left']}/{SWEEP_SETS} rate sets still carry a "
        f"transient at T, or z is not strictly increasing on [T, 2T]"
    )
    print(f"PASS: on {SWEEP_SETS} randomized sets the monotone part is "
          f"nondecreasing, z never falls below it, and the transients vanish "
          f"by T; z itself dips on {rate_sweep['nonmonotone']} sets (worst "
          f"step {rate_sweep['worst_step']:.3e})")
