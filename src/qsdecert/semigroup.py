"""Interaction-picture contraction semigroups over piecewise-constant drives.

For a model (S, L, H) and constant channel amplitudes alpha (bra side) and
beta (ket side) the matrix

    G(alpha, beta) = G0(alpha) + sum_j beta_j D_j(alpha) - (|beta|^2 / 2) I,

    G0 = iH - (1/2) sum_i L_i^* L_i - sum_ij conj(a_i) S_ji^* L_j - (|a|^2 / 2) I,
    D_j = L_j^* + sum_i conj(a_i) S_ji^*,

generates a contraction semigroup t -> exp(t G). :func:`affine_basis` stacks
(G0, D_1, ..., D_m, I) per bra row and :func:`affine_coefficients` the ket
rows (1, beta, -|beta|^2 / 2); every generator is their contraction, and
:func:`generator` is the one-row case. Matrix elements of the two-sided field
displacement of the unitary cocycle factor over a common partition of
piecewise-constant amplitudes as an ordered product of these semigroups; see
:func:`chain`.

Consecutive intervals with equal amplitudes share one generator, so by the
semigroup law T(a) T(b) = T(a + b) the product computes one exponential per
maximal run of them, over the run's length read off the breakpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidAmplitudeError,
    ModelIntegrityError,
    PartitionError,
    as_amplitudes,
    as_nonnegative,
)
from .models import SlhModel
from .operators import adjoint, matexp, opnorm

__all__ = [
    "SimpleFunction",
    "generator",
    "affine_basis",
    "affine_coefficients",
    "propagate",
    "chain",
    "refine_common",
    "same_breakpoint",
]

CONTRACTION_TOL = 1e-9
BREAKPOINT_MERGE_TOL = 1e-12


def same_breakpoint(s, t, horizon):
    """Whether times s and t (floats or arrays) are one breakpoint of a partition
    of [0, horizon]: |s - t| <= BREAKPOINT_MERGE_TOL * max(1, |horizon|). Scaled,
    because past t = 8192 one ulp of a breakpoint exceeds 1e-12."""
    return abs(s - t) <= BREAKPOINT_MERGE_TOL * max(1.0, abs(horizon))


class SimpleFunction:
    """Piecewise-constant amplitude t -> C^m on [0, t_final).

    breakpoints: finite, strictly increasing, breakpoints[0] == 0.
    values: shape (n_intervals, m), value on [breakpoints[i], breakpoints[i+1]),
    finite numbers: strings and other non-numeric values are rejected.
    """

    def __init__(self, breakpoints, values):
        bp = np.array(breakpoints, dtype=float)
        try:
            numeric = np.asarray(values).dtype.kind in "biufc"
        except ValueError:  # a ragged sequence
            numeric = False
        if not numeric:
            raise InvalidAmplitudeError(f"amplitudes must be numbers, got {values!r}")
        vals = np.atleast_2d(np.array(values, dtype=complex))
        if bp.ndim != 1 or bp.size < 2:
            raise InvalidAmplitudeError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise InvalidAmplitudeError("first breakpoint must be 0")
        if not (np.all(np.diff(bp) > 0) and math.isfinite(bp[-1])):
            raise InvalidAmplitudeError("breakpoints must be finite and strictly increasing")
        if vals.shape[0] != bp.size - 1:
            raise InvalidAmplitudeError(
                f"{bp.size - 1} intervals but {vals.shape[0]} value rows"
            )
        if not np.all(np.isfinite(vals.view(float))):
            raise InvalidAmplitudeError("amplitudes must be finite")
        self.breakpoints = bp
        self.values = vals
        self.breakpoints.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def n_intervals(self) -> int:
        return self.values.shape[0]

    @property
    def t_final(self) -> float:
        return float(self.breakpoints[-1])

    @classmethod
    def constant(cls, value, t_final: float):
        return cls([0.0, t_final], np.atleast_1d(value)[None, :])

    @classmethod
    def zero(cls, m: int, t_final: float):
        return cls.constant(np.zeros(m, dtype=complex), t_final)

    def value_at(self, t: float) -> np.ndarray:
        """The value at time t; InvalidAmplitudeError outside [0, t_final)."""
        if not 0.0 <= t < self.t_final:
            raise InvalidAmplitudeError(f"time {t} outside [0, {self.t_final})")
        return self.values[np.searchsorted(self.breakpoints, t, side="right") - 1]

    def durations(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def norm_sq(self) -> float:
        """Integral of |f(s)|^2 over [0, t_final]."""
        return float(np.sum(self.durations() * np.sum(np.abs(self.values) ** 2, axis=1)))

    def inner(self, other: "SimpleFunction") -> complex:
        """Integral of <f(s), g(s)> ds, conjugate-linear in self."""
        f, g = refine_common(self, other)
        dt = f.durations()
        return complex(np.sum(dt * np.sum(np.conj(f.values) * g.values, axis=1)))

    def with_breakpoints(self, breakpoints) -> "SimpleFunction":
        """Re-express on a refinement: a partition that holds every original
        breakpoint and ends at t_final (same_breakpoint), else PartitionError;
        a malformed partition raises InvalidAmplitudeError."""
        bp = np.array(breakpoints, dtype=float, ndmin=1)
        old, t_final = self.breakpoints, self.t_final
        rows = np.searchsorted(old, 0.5 * (bp[:-1] + bp[1:]), side="right")
        refined = SimpleFunction(bp, self.values[rows.clip(1, self.n_intervals) - 1])
        bp = refined.breakpoints
        near = np.searchsorted(bp, old).clip(1, bp.size - 1)
        held = (same_breakpoint(bp[near], old, t_final)
                | same_breakpoint(bp[near - 1], old, t_final))
        if not held.all():
            raise PartitionError(
                f"partition lacks breakpoint {old[held.argmin()]} of the function")
        if not same_breakpoint(bp[-1], t_final, t_final):
            raise PartitionError(f"partition runs past the final time {t_final} to {bp[-1]}")
        return refined

    def __eq__(self, other):
        return (
            isinstance(other, SimpleFunction)
            and self.breakpoints.shape == other.breakpoints.shape
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.breakpoints.tobytes(), self.values.tobytes()))

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"SimpleFunction(m={self.m}, intervals={self.n_intervals}, "
            f"t_final={self.t_final})"
        )


def refine_common(f: SimpleFunction, g: SimpleFunction):
    """Return (f, g) re-expressed on the union of their partitions, with points
    that are one by same_breakpoint (over the longer horizon) merged; final times
    that are not one raise PartitionError."""
    horizon = max(f.t_final, g.t_final)
    if not same_breakpoint(f.t_final, g.t_final, horizon):
        raise PartitionError(f"final times differ: {f.t_final} vs {g.t_final}")
    merged = np.union1d(f.breakpoints, g.breakpoints).tolist()
    keep = merged[:1]
    for t in merged[1:]:
        if not same_breakpoint(t, keep[-1], horizon):
            keep.append(t)
    bp = np.asarray(keep)
    bp[-1] = min(f.t_final, g.t_final)
    return f.with_breakpoints(bp), g.with_breakpoints(bp)


def affine_basis(model: SlhModel, alphas) -> np.ndarray:
    """Stack (G0, D_1, ..., D_m, I) per bra amplitude row, shape (P, m+2, d, d).

    G(alpha_p, beta) = G0 + sum_j beta_j D_j - (|beta|^2 / 2) I is the basis
    contracted with :func:`affine_coefficients`. This is the one place a
    generator is built from S, L and H; :func:`generator` is its one-row case.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.ndim != 2 or alphas.shape[1] != model.m:
        raise InvalidAmplitudeError(
            f"amplitude rows must have length {model.m}, got shape {alphas.shape}"
        )
    m, dim = model.m, model.dim
    base = -0.5 * sum(adjoint(L) @ L for L in model.L) + 1j * model.H
    Sd = [[adjoint(model.S[j][i]) for i in range(m)] for j in range(m)]
    SdL = [[Sd[j][i] @ model.L[j] for i in range(m)] for j in range(m)]
    Ld = [adjoint(L).astype(complex) for L in model.L]
    eye = np.eye(dim, dtype=complex)
    basis = np.empty((len(alphas), m + 2, dim, dim), dtype=complex)
    basis[:, -1] = eye
    for p, alpha in enumerate(alphas):
        G0 = base.copy()
        for j in range(m):
            for i in range(m):
                G0 -= np.conj(alpha[i]) * SdL[j][i]
        basis[p, 0] = G0 - 0.5 * float(np.vdot(alpha, alpha).real) * eye
        for j in range(m):
            Dj = Ld[j]
            for i in range(m):
                Dj = Dj + np.conj(alpha[i]) * Sd[j][i]
            basis[p, 1 + j] = Dj
    return basis


def affine_coefficients(betas) -> np.ndarray:
    """Rows (1, beta_1, ..., beta_m, -|beta|^2 / 2) for (P, m) ket amplitudes."""
    betas = np.asarray(betas, dtype=complex)
    coef = np.empty((len(betas), betas.shape[1] + 2), dtype=complex)
    coef[:, 0] = 1.0
    coef[:, 1:-1] = betas
    coef[:, -1] = -0.5 * np.sum(np.abs(betas) ** 2, axis=1)
    return coef


def generator(model: SlhModel, alpha, beta) -> np.ndarray:
    """G(alpha, beta) for constant amplitudes, as a read-only (d, d) matrix:
    the one-row contraction of :func:`affine_basis` with
    :func:`affine_coefficients`, at model.m channel amplitudes alpha, beta
    (errors.as_amplitudes)."""
    alpha = as_amplitudes(alpha, model.m, "alpha")
    beta = as_amplitudes(beta, model.m, "beta")
    G = _generators(model, alpha[None], beta[None])[0]
    G.setflags(write=False)
    return G


def _generators(model: SlhModel, alphas, betas) -> np.ndarray:
    """G(alphas[p], betas[p]) for each row p of (P, m) amplitudes, shape (P, d, d)."""
    return np.einsum("pk,pkij->pij", affine_coefficients(betas), affine_basis(model, alphas))


def propagate(G: np.ndarray, t: float) -> np.ndarray:
    """exp(t G) for one finite time t >= 0 (errors.as_nonnegative, else
    InvalidParameterError); checked to be a contraction up to roundoff."""
    t = as_nonnegative(t, "time")
    T = matexp(G, t)
    nrm = opnorm(T)
    if nrm > 1.0 + CONTRACTION_TOL:
        raise ModelIntegrityError(
            f"semigroup norm {nrm:.3e} exceeds 1 at t={t}; "
            "generator assembly or the model itself is inconsistent"
        )
    return T


def chain(model: SlhModel, f: SimpleFunction, g: SimpleFunction, u) -> np.ndarray:
    """Ordered product of interval semigroups applied to u.

    With common breakpoints 0 = t_0 < ... < t_{l+1}, returns

        T^(f(0) g(0))_{t_1 - t_0} ... T^(f(l) g(l))_{t_{l+1} - t_l} u,

    i.e. the final interval's semigroup acts on u first. The drive f sits on
    the conjugated (bra) side, g on the ket side.

    Each maximal run of consecutive intervals with equal (f, g) rows, from
    t_a to t_b, is applied as the single factor T^(f(a) g(a))_{t_b - t_a}.
    The length is the difference of the run's end breakpoints, not a sum of
    its interval lengths: lengths equal on paper differ in their last bits,
    and the sum would carry one rounding per interval. The runs' generators
    come from one :func:`affine_basis` contraction.
    """
    if f.m != model.m or g.m != model.m:
        raise InvalidAmplitudeError("channel count mismatch with model")
    f, g = refine_common(f, g)
    u = np.asarray(u, dtype=complex)
    if u.shape != (model.dim,):
        raise InvalidAmplitudeError(
            f"state must have dimension {model.dim}, got {u.shape}"
        )
    bp = f.breakpoints
    rows = np.hstack([f.values, g.values])
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    ends = np.r_[starts[1:], f.n_intervals]
    Gs = _generators(model, f.values[starts], g.values[starts])
    for G, a, b in zip(Gs[::-1], starts[::-1], ends[::-1]):
        u = propagate(G, float(bp[b] - bp[a])) @ u
    return u
