"""Independent numerical oracles for the bound machinery.

Three cross-checks, each avoiding the code path it validates:

* ode_propagate solves dv/dt = Gv with a self-contained embedded
  Runge-Kutta 5(4) stepper (Dormand-Prince tableau), so semigroup
  propagation can be checked without going through the matrix exponential.
* empirical_truncation_error measures the actual distance between a
  truncated semigroup and a high-cutoff reference, the quantity the
  truncation certificates promise to dominate.
* fock_expand_residual recomputes the residual norm with every exponential
  replaced by an explicit particle-sector series and propagation done by
  the ODE stepper, exercising the Gram/weight algebra independently.

run_suite bundles these into a machine-readable report.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    NumericError,
    ReferenceUnconvergedWarning,
    as_level,
    as_nonnegative,
    as_seed,
)
from .models import SlhModel, _fock_embedding, kerr_cavity, kerr_family
from .operators import matexp, opnorm
from .semigroup import SimpleFunction, generator, propagate
from .states import ApproxState, residual_norm
from .truncation import KERR_CHI, KERR_DELTA, KERR_LAM, constants_for, z_bound

__all__ = [
    "ode_propagate",
    "empirical_truncation_error",
    "fock_expand_residual",
    "run_suite",
]

ODE_DEFAULT_TOL = 1e-10
MIN_STEP_FRACTION = 1e-14
REF_DRIFT_LIMIT = 0.01

# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def ode_propagate(G, u, t: float, tol: float = ODE_DEFAULT_TOL) -> np.ndarray:
    """Integrate dv/dt = G v from v(0)=u to time t.

    Adaptive embedded 5(4) pairs keep the local error estimate per step at
    or below tol. Raises NumericError if the controller underflows the step
    size or G has a non-finite entry, InvalidParameterError for tol outside
    [1e-12, 1e-6] or a t that is not one finite, nonnegative time
    (errors.as_nonnegative).
    """
    G = np.asarray(G, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or u.shape != (G.shape[0],):
        raise InvalidDimensionError("generator/state dimension mismatch")
    if not np.isfinite(G).all():
        raise NumericError("generator has non-finite entries")
    if not 1e-12 <= tol <= 1e-6:
        raise InvalidParameterError(f"tolerance must lie in [1e-12, 1e-6], got {tol}")
    t = as_nonnegative(t, "time")
    if t == 0:
        return u.copy()

    y = u.copy()
    s = 0.0
    scale = opnorm(G)
    h = min(t, 0.5 / scale) if scale > 0 else t
    k = [np.zeros_like(y) for _ in range(7)]
    k[0] = G @ y
    while s < t:
        h = min(h, t - s)
        if h < MIN_STEP_FRACTION * max(t, 1.0):
            raise NumericError("step size underflow in ode_propagate")
        for i in range(1, 7):
            yi = y.copy()
            for j, a in enumerate(_DP_A[i]):
                if a:
                    yi += (h * a) * k[j]
            k[i] = G @ yi
        y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k) if b)
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k) if b)
        err = float(np.linalg.norm(y5 - y4))
        if err <= tol:
            s += h
            y = y5
            k[0] = k[6]  # first-same-as-last
        else:
            k[0] = G @ y
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y


def empirical_truncation_error(family, k: int, K_ref: int,
                               alpha, beta, t: float, u) -> float:
    """Measured distance between level-k and high-cutoff semigroup orbits.

    family is a callable k -> SlhModel, the model truncated at level k (such
    as models.kerr_family). Both models propagate the same initial vector (u
    given in level-k coordinates, zero-padded into the reference); the
    reference is deemed converged if doubling K_ref moves the answer by less
    than 1% (relative, floored at 1e-9 so roundoff on near-zero errors cannot
    trigger it), otherwise a ReferenceUnconvergedWarning is emitted. A matrix u holds
    one initial vector per column and gives the array of their distances,
    each equal to the distance for that column alone; the semigroups are
    exponentiated once for all columns.
    """
    if K_ref < 3 * k:
        raise InvalidParameterError(f"reference cutoff {K_ref} < 3k = {3 * k}")
    references = _references(family, K_ref, alpha, beta, t)
    return _orbit_distances(family, k, K_ref, references, alpha, beta, t, u)


def _references(family, K_ref: int, alpha, beta, t: float):
    """The level-K_ref and level-2K_ref models, each with its exp(t G)."""
    return [(ref, propagate(generator(ref, alpha, beta), t))
            for ref in (family(K_ref), family(2 * K_ref))]


def _orbit_distances(family, k, K_ref, references, alpha, beta, t, u):
    """empirical_truncation_error against references from _references."""
    model_k = family(k)
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (1, 2) or u.shape[0] != model_k.dim:
        raise InvalidDimensionError(
            f"state has dimension {u.shape}, model expects {model_k.dim}"
        )
    columns = np.ascontiguousarray(u.reshape(model_k.dim, -1).T)
    T_small = propagate(generator(model_k, alpha, beta), t)
    distances = []
    for ref, T_ref in references:
        E = _fock_embedding(ref.factor_dims, k)
        distances.append(np.array([
            float(np.linalg.norm(E @ (T_small @ c) - T_ref @ (E @ c))) for c in columns
        ]))
    value, doubled = distances
    drift = np.abs(value - doubled)
    unconverged = drift > REF_DRIFT_LIMIT * np.maximum(value, 1e-9)
    if unconverged.any():
        warnings.warn(
            f"reference cutoff {K_ref} not converged "
            f"(drift {drift[unconverged].max():.2e})",
            ReferenceUnconvergedWarning,
            stacklevel=3,
        )
    return value if u.ndim == 2 else float(value[0])


def _series_exp(x: complex, order: int) -> complex:
    total = 1.0 + 0j
    term = 1.0 + 0j
    for n in range(1, order + 1):
        term *= x / n
        total += term
    return total


def fock_expand_residual(model: SlhModel, psi, psi_prime: ApproxState,
                         order: int = 12) -> float:
    """Residual norm via explicit particle-sector expansion.

    Restricted to a single-term approximant on a single interval with
    ||f||, ||g|| <= 1/2 so the order-12 sector truncation sits below 1e-14;
    field overlaps come from the truncated exponential series and the
    propagation from the ODE stepper. order is a count (errors.as_level)
    of at least 12.
    """
    u, f = psi
    order = as_level(order, "sector order")
    if order < 12:
        raise InvalidParameterError(f"sector order must be >= 12, got {order}")
    if psi_prime.n_terms != 1:
        raise InvalidParameterError("oracle handles single-term approximants only")
    u2, g = psi_prime.terms[0]
    if f.n_intervals != 1 or g.n_intervals != 1:
        raise InvalidParameterError("oracle handles single-interval amplitudes only")
    if abs(f.t_final - g.t_final) > 1e-12:
        raise InvalidParameterError("amplitude horizons differ")
    for h in (f, g):
        if math.sqrt(h.norm_sq()) > 0.5:
            raise InvalidParameterError(
                "amplitude norm too large for the sector order"
            )

    u = np.asarray(u, dtype=complex)
    G = generator(model, f.values[0], g.values[0])
    Tu2 = ode_propagate(G, np.asarray(u2, dtype=complex), f.t_final, tol=1e-12)
    gram_gg = _series_exp(g.norm_sq(), order).real
    res_sq = (
        float(np.vdot(u, u).real)
        - 2.0 * math.sqrt(gram_gg) * float(np.vdot(u, Tu2).real)
        + float(np.vdot(u2, u2).real) * gram_gg
    )
    return math.sqrt(max(res_sq, 0.0))


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _random_dissipative_model(rng: np.random.Generator, dim: int,
                              channels: int = 1) -> SlhModel:
    """Random SLH model (identity scattering, Gaussian L, self-adjoint H)."""
    L = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        / math.sqrt(dim)
        for _ in range(channels)
    ]
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = (X + X.conj().T) / 2.0
    S = [
        [np.eye(dim, dtype=complex) if i == j else np.zeros((dim, dim), complex)
         for i in range(channels)]
        for j in range(channels)
    ]
    return SlhModel(label=f"random(dim={dim})", S=S, L=L, H=H)


def _suite_matexp_vs_ode(quick: bool, rng: np.random.Generator) -> dict:
    n_cases = 5 if quick else 20
    max_dim = 20 if quick else 60
    worst = 0.0
    for _ in range(n_cases):
        dim = int(rng.integers(3, max_dim + 1))
        model = _random_dissipative_model(rng, dim, channels=int(rng.integers(1, 3)))
        alpha = rng.standard_normal(model.m) * 0.3
        beta = rng.standard_normal(model.m) * 0.3
        G = generator(model, alpha, beta)
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        t = float(rng.uniform(0.1, 1.0))
        v_exp = matexp(G, t) @ u
        v_ode = ode_propagate(G, u, t, tol=1e-11)
        worst = max(worst, float(np.linalg.norm(v_exp - v_ode)))
    return {"max_error": worst, "tolerance": 1e-8, "cases": n_cases,
            "passed": worst <= 1e-8}


def _suite_contraction_and_law(quick: bool, rng: np.random.Generator) -> dict:
    n_cases = 4 if quick else 12
    worst_norm = 0.0
    worst_law = 0.0
    for _ in range(n_cases):
        dim = int(rng.integers(3, 25))
        model = _random_dissipative_model(rng, dim)
        alpha = rng.standard_normal(model.m) * 0.4
        beta = rng.standard_normal(model.m) * 0.4
        G = generator(model, alpha, beta)
        s = float(rng.uniform(0.05, 0.6))
        t = float(rng.uniform(0.05, 0.6))
        Ts, Tt, Tst = (matexp(G, x) for x in (s, t, s + t))
        worst_norm = max(worst_norm, opnorm(Tst) - 1.0, opnorm(Ts) - 1.0)
        worst_law = max(worst_law, opnorm(Tst - Ts @ Tt))
    return {
        "max_contraction_excess": worst_norm,
        "max_law_defect": worst_law,
        "tolerance": 1e-9,
        "cases": n_cases,
        "passed": worst_norm <= 1e-9 and worst_law <= 1e-9,
    }


def _suite_dominance(quick: bool) -> dict:
    family = kerr_family(KERR_LAM, KERR_DELTA, KERR_CHI)
    k_values = (3, 4) if quick else tuple(range(3, 11))
    times = (0.5,) if quick else (0.1, 0.5, 1.0)
    alpha = beta = 0.1
    K_ref = 60  # at least 3k for every k above
    violations = 0
    cases = 0
    worst_margin = math.inf
    # The references do not depend on k: exponentiate them once per time.
    for t in times:
        references = _references(family, K_ref, alpha, beta, t)
        for k in k_values:
            cap = z_bound(constants_for(family(k), alpha, beta), r=2, s=2, t=t)
            basis = np.eye(k + 1, dtype=complex)  # column n is basis state n
            for err in _orbit_distances(family, k, K_ref, references,
                                        alpha, beta, t, basis):
                cases += 1
                worst_margin = min(worst_margin, cap - err)
                if err > cap:
                    violations += 1
    return {
        "violations": violations,
        "min_margin": worst_margin,
        "cases": cases,
        "passed": violations == 0,
    }


def _suite_residual_oracle(quick: bool, rng: np.random.Generator) -> dict:
    model = kerr_cavity(KERR_LAM, KERR_DELTA, KERR_CHI, 2)
    n_cases = 3 if quick else 8
    worst = 0.0
    for _ in range(n_cases):
        t_final = float(rng.uniform(0.05, 0.3))
        f = SimpleFunction.constant([complex(rng.uniform(-0.4, 0.4))], t_final)
        g = SimpleFunction.constant([complex(rng.uniform(-0.4, 0.4))], t_final)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        u2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u2 /= 2.0 * np.linalg.norm(u2)
        state = ApproxState([(u2, g)])
        direct = residual_norm(model, (u, f), state)
        sector = fock_expand_residual(model, (u, f), state, order=14)
        worst = max(worst, abs(direct - sector))
    return {"max_error": worst, "tolerance": 1e-10, "cases": n_cases,
            "passed": worst <= 1e-10}


def run_suite(quick: bool = False, seed: int = 0) -> dict:
    """Run all oracle cross-checks; returns a JSON-ready report. seed is
    a seed under errors.as_seed."""
    seed = as_seed(seed)
    rng = np.random.default_rng(seed)
    sections = {}
    for name, fn in [
        ("matexp_vs_ode", lambda: _suite_matexp_vs_ode(quick, rng)),
        ("contraction_and_law", lambda: _suite_contraction_and_law(quick, rng)),
        ("dominance", lambda: _suite_dominance(quick)),
        ("residual_oracle", lambda: _suite_residual_oracle(quick, rng)),
    ]:
        start = time.monotonic()
        section = fn()
        section["seconds"] = round(time.monotonic() - start, 3)
        sections[name] = section
    return {
        "passed": all(s["passed"] for s in sections.values()),
        "quick": quick,
        "seed": seed,
        "sections": sections,
    }
