"""Coherent-superposition approximants and residual-norm minimization.

An :class:`ApproxState` is a finite sum psi' = sum_j u_j (x) e(g_j) of system
vectors tensored with exponential field vectors over piecewise-constant
amplitudes. Squared norms and overlaps against the truncated propagator reduce
to ordinary matrix algebra through exp_inner and the interval semigroup chain,
so no Fock expansion of the field is ever needed here.

The search treats only the amplitude values as free parameters: for fixed
amplitudes the cost is a nonnegative quadratic in the system-vector
coefficients, so the optimal u_j are recovered exactly from the terms' Gram
system at every evaluation. The joint search over every value at once runs
`_lbfgs` on the exact gradient (`_Problem.gradient`) for 2x2 models and the
simplex otherwise; the block sweep runs the simplex on one block at a time.
The simplex is this module's `_nelder_mead`, scipy's Nelder-Mead arithmetic
without its front end, and `_lbfgs` is this module's too, so no search loads
scipy.optimize.

Both searches (joint, block sweep) run on one `_Problem`, frozen
once per `optimize` call under one partition rule: the terms share one
partition, and it holds every breakpoint of f, or PartitionError. The
problem freezes the drive's dt-scaled `semigroup.affine_basis` on that
partition, and `_chainer`, the one chain through a slice of it, prepares a
row and a slice once and builds each candidate's generators from them: 2x2
models in Python scalar arithmetic, exponentiated by `_expm2`, the one 2x2
closed form; other dimensions contracted with `affine_coefficients` and
passed to the dense `_expm`. Every candidate's system vectors come from
`_solve_coefficients`, the one solve, and the searches' candidates run
under an np.errstate that ignores floating-point flags. `cost` stays on
the reference `chain` path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy's private least-squares gufunc (LAPACK gelsd), loaded with numpy
# itself: np.linalg.lstsq wraps it, and _solve_coefficients calls it. numpy
# has it as one gufunc from 2.1 (before, lstsq_m and lstsq_n), hence the
# numpy floor in pyproject.toml; an older numpy fails here, at import.
from numpy.linalg._umath_linalg import lstsq as _lstsq_gufunc

from .errors import (
    InvalidApproximantError,
    InvalidDimensionError,
    NumericError,
    PartitionError,
    as_level,
    as_nonnegative,
    as_seed,
)
from .models import SlhModel, decode_vector, encode_vector
from .semigroup import (
    SimpleFunction,
    affine_basis,
    affine_coefficients,
    chain,
    same_breakpoint,
)

__all__ = [
    "ApproxState",
    "exp_inner",
    "exp_norm",
    "approx_norm",
    "residual_norm",
    "cost",
    "OptimizeSchedule",
    "OptimizeResult",
    "optimize",
]

# Penalty returned to the searches when a candidate produces a non-finite cost.
SEARCH_PENALTY = 1e6
# Nelder-Mead tolerances on the simplex's costs and vertices. The joint simplex
# runs RESTARTS simplex searches, each after the first from the best point so
# far plus RESTART_SCALE times a seeded standard normal draw.
FATOL, XATOL = 1e-10, 1e-7
RESTARTS, RESTART_SCALE = 3, 0.05
# L-BFGS stop rules for the gradient search of 2x2 models: a gradient
# max-norm at most LBFGS_GTOL, or a step lowering the cost by at most
# LBFGS_FTOL relative to max(|cost|, 1). Each step uses the last LBFGS_MEMORY
# steps and halves its length at most LBFGS_BACKTRACKS times.
LBFGS_GTOL, LBFGS_FTOL = 1e-5, 2.2e-9
LBFGS_MEMORY, LBFGS_BACKTRACKS = 10, 40
_EPS = np.finfo(float).eps


def _exp(x):
    """np.exp(x); NumericError where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.exp(x)
    if not np.isfinite(y):
        raise NumericError(f"exp overflows at exponent {x}")
    return y


def exp_inner(f: SimpleFunction, g: SimpleFunction) -> complex:
    """<e(f), e(g)> = exp(<f, g>_L2), conjugate-linear in f."""
    return complex(_exp(f.inner(g)))


def exp_norm(f: SimpleFunction) -> float:
    """||e(f)|| = exp(||f||^2 / 2)."""
    return float(_exp(0.5 * f.norm_sq()))


class ApproxState:
    """psi' = sum_j u_j (x) e(g_j) with a final time shared by
    semigroup.same_breakpoint (else PartitionError); each u_j a finite,
    nonzero vector of numbers, else InvalidApproximantError."""

    def __init__(self, terms, label: str = ""):
        terms = list(terms)
        try:
            numeric = all(np.asarray(u).dtype.kind in "biufc" for u, _ in terms)
        except ValueError:  # a ragged sequence
            numeric = False
        if not numeric:
            raise InvalidApproximantError("system vectors must be numbers")
        terms = [(np.asarray(u, dtype=complex), g) for u, g in terms]
        if not terms:
            raise InvalidApproximantError("approximant needs at least one term")
        for _, g in terms:
            if not isinstance(g, SimpleFunction):
                raise InvalidApproximantError("amplitudes must be SimpleFunction")
        t = terms[0][1].t_final
        for u, g in terms:
            if not same_breakpoint(g.t_final, t, t):
                raise PartitionError("terms do not share a final time")
            if u.ndim != 1 or not np.all(np.isfinite(u.view(float))):
                raise InvalidApproximantError("system vectors must be finite 1-d")
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(u)
            if not 0.0 < norm < math.inf:
                raise InvalidApproximantError("system vectors need a finite, nonzero norm")
        self.terms = [(u.copy(), g) for u, g in terms]
        for u, _ in self.terms:
            u.setflags(write=False)
        self.label = label

    @property
    def t_final(self) -> float:
        return self.terms[0][1].t_final

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def norm(self) -> float:
        return approx_norm(self)

    def to_json(self) -> dict:
        return {
            "t": self.t_final,
            "label": self.label,
            "terms": [
                {
                    "u": encode_vector(u),
                    "g": {
                        "breakpoints": [float(b) for b in g.breakpoints],
                        "values": [encode_vector(row) for row in g.values],
                    },
                }
                for u, g in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ApproxState":
        terms = []
        for term in data["terms"]:
            u = decode_vector(term["u"])
            g = SimpleFunction(
                term["g"]["breakpoints"],
                [decode_vector(row) for row in term["g"]["values"]],
            )
            terms.append((u, g))
        return cls(terms, label=data.get("label", ""))

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ApproxState(terms={self.n_terms}, t={self.t_final})"


def approx_norm(state: ApproxState) -> float:
    """|| sum_j u_j (x) e(g_j) || via the Gram matrix of the terms."""
    total = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for ui, gi in state.terms:
            for uj, gj in state.terms:
                total += np.vdot(ui, uj) * exp_inner(gi, gj)
    if not math.isfinite(total.real):
        raise NumericError(f"squared approximant norm overflows ({total.real})")
    return math.sqrt(max(total.real, 0.0))


def _overlap_sum(model: SlhModel, u, f: SimpleFunction, state: ApproxState) -> float:
    """sum_j ||e(g_j)|| Re <u, chain(f, g_j) u_j>."""
    acc = 0.0
    for uj, gj in state.terms:
        acc += exp_norm(gj) * np.vdot(u, chain(model, f, gj, uj)).real
    return acc


def _residual(norm_sq: float, model: SlhModel, u, f, state: ApproxState) -> float:
    """sqrt(norm_sq - 2 overlap + ||psi'||^2); NumericError when not finite,
    InvalidDimensionError when u is not a vector of the model's dimension."""
    if u.shape != (model.dim,):
        raise InvalidDimensionError(
            f"reference vector must have dimension {model.dim}, got {u.shape}")
    sq = norm_sq - 2.0 * _overlap_sum(model, u, f, state) + approx_norm(state) ** 2
    if not math.isfinite(sq):
        raise NumericError(f"squared residual is not finite ({sq})")
    return math.sqrt(max(sq, 0.0))


def residual_norm(model: SlhModel, psi, state: ApproxState) -> float:
    """||U^* (u (x) |f>) - psi'|| evaluated through interval semigroups.

    psi is the pair (u, f); |f> is the normalized coherent state, so
    ||psi|| = ||u||. The cross term against each psi'_j collapses to a
    semigroup chain matrix element.
    """
    u, f = psi
    u = np.asarray(u, dtype=complex)
    return _residual(float(np.vdot(u, u).real), model, u, f, state)


def cost(model: SlhModel, psi, state: ApproxState) -> float:
    """Residual with the reference state norm fixed at one."""
    u, f = psi
    return _residual(1.0, model, np.asarray(u, dtype=complex), f, state)


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

@dataclass
class OptimizeSchedule:
    """Search configuration for :func:`optimize`.

    block_size=None runs one joint search over all free amplitude values:
    L-BFGS on the exact gradient for a 2x2 model, which ignores `seed`,
    else Nelder-Mead with seeded restarts. A positive block_size sweeps the
    partition block by block, minimizing the full-horizon cost over one
    block at a time with Nelder-Mead. Both modes need the terms on one
    shared partition holding every breakpoint of the drive f
    (PartitionError otherwise). The system vectors are not searched: they
    are solved exactly from the terms' Gram system (restricted to the first
    u_support components when set, frozen tails handled exactly).
    u_penalty > 0 damps that solve toward small
    coefficients -- the exact minimizer of an ill-conditioned Gram system
    cancels huge terms against each other, which is poison for certificates
    whose rate sums are weighted by sum_j ||u_j||. The reported cost is
    always the true undamped residual. seed (errors.as_seed) draws the joint
    simplex's restart points; the tolerances and restarts are the constants
    FATOL, XATOL, RESTARTS and RESTART_SCALE, and LBFGS_GTOL, LBFGS_FTOL,
    LBFGS_MEMORY and LBFGS_BACKTRACKS for L-BFGS; max_iter caps the
    iterations of either method. max_iter, u_support and block_size, when
    set, are counts (errors.as_level) and u_penalty a rate
    (errors.as_nonnegative); anything else raises InvalidParameterError.
    """

    seed: int = 0
    max_iter: int | None = None
    u_support: int | None = None
    block_size: int | None = None
    u_penalty: float = 0.0

    def __post_init__(self):
        self.seed = as_seed(self.seed)
        for name in ("max_iter", "u_support", "block_size"):
            if getattr(self, name) is not None:
                setattr(self, name, as_level(getattr(self, name), name))
        self.u_penalty = as_nonnegative(self.u_penalty, "u_penalty")


@dataclass
class OptimizeResult:
    state: ApproxState
    cost: float
    nfev: int
    search_failure: bool = False


def _expm2(gs) -> list:
    """Entries (t00, t01, t10, t11) of exp(G) per 2x2 G in gs, given as
    (g00, g01, g10, g11): with mu the half trace, N = G - mu I squares to
    d^2 I, so exp(G) = e^mu (cosh(d) I + (sinh(d) / d) N), with a series near
    d = 0. Scalar arithmetic, because numpy's per-call overhead would
    dominate the block search's few matrices per candidate. cmath loads here,
    not with the package: it adds about 0.2 MB to a process. Where cmath
    overflows or rejects a non-finite argument, the entries are NaN.
    """
    import cmath

    out = []
    for g00, g01, g10, g11 in gs:
        mu = 0.5 * (g00 + g11)
        a = g00 - mu
        d2 = a * a + g01 * g10
        try:
            d = cmath.sqrt(d2)
            if abs(d) < 1e-6:
                ch = 1.0 + d2 / 2.0 + d2 * d2 / 24.0
                sh = 1.0 + d2 / 6.0 + d2 * d2 / 120.0
            else:
                ch = cmath.cosh(d)
                sh = cmath.sinh(d) / d
            e = cmath.exp(mu)
        except (OverflowError, ValueError):
            out.append((math.nan,) * 4)
            continue
        ec = e * ch
        es = e * sh
        esa = es * a
        out.append((ec + esa, es * g01, es * g10, ec - esa))
    return out


def _expm2_adjoint(gs, bars) -> list:
    """Entries of Gbar per 2x2 G in gs with Tbar in bars, all as (x00, x01,
    x10, x11), such that Re sum dT_xy Tbar_xy = Re sum dG_xy Gbar_xy for
    T = exp(G) and every direction dG: the transpose of the Frechet derivative
    of _expm2's closed form. With z = d^2, C = cosh(d) and S = sinh(d) / d,
    dC/dz = S / 2 and dS/dz = (C - S) / (2 z), taken from its series below
    |d| = 0.1, where the quotient cancels. Where cmath overflows or rejects a
    non-finite argument, the entries are NaN, as in _expm2.
    """
    import cmath

    out = []
    for (g00, g01, g10, g11), (b00, b01, b10, b11) in zip(gs, bars):
        mu = 0.5 * (g00 + g11)
        a = g00 - mu
        d2 = a * a + g01 * g10
        try:
            d = cmath.sqrt(d2)
            if abs(d) < 1e-6:
                ch = 1.0 + d2 / 2.0 + d2 * d2 / 24.0
                sh = 1.0 + d2 / 6.0 + d2 * d2 / 120.0
            else:
                ch = cmath.cosh(d)
                sh = cmath.sinh(d) / d
            if abs(d) < 0.1:
                dsh = 1.0 / 6.0 + d2 * (1.0 / 60.0 + d2 * (1.0 / 1680.0 + d2 / 90720.0))
            else:
                dsh = (ch - sh) / (2.0 * d2)
            e = cmath.exp(mu)
        except (OverflowError, ValueError):
            out.append((math.nan,) * 4)
            continue
        ec, es = e * ch, e * sh
        # <T, Tbar>, then the coefficients of dz and of dN = dG - dmu I.
        t_bar = (ec + es * a) * b00 + es * (g01 * b01 + g10 * b10) + (ec - es * a) * b11
        z_bar = e * (0.5 * sh * (b00 + b11) + dsh * (a * (b00 - b11) + g01 * b01 + g10 * b10))
        half = 0.5 * t_bar
        skew = 0.5 * es * (b00 - b11)
        out.append((half + z_bar * a + skew, z_bar * g10 + es * b01,
                    z_bar * g01 + es * b10, half - z_bar * a - skew))
    return out


def _expm(M: np.ndarray) -> np.ndarray:
    """Dense exponential of one matrix; 2x2 generators take _expm2 instead."""
    import scipy.linalg

    return scipy.linalg.expm(M)


def _solve_coefficients(kappa, qs, us, support, penalty):
    """(cost, solved (L, d) u array, failed): the minimizer over the support
    components of every u_j, for field Gram kappa = exp<g_i, g_j> and chain
    rows qs[j] = u^dag T_j.

    Minimizes C0 - 2 Re(v^dag c) + c^dag (kappa (x) I) c where the constant
    carries the frozen tails and v = conj(b), b[j, a] = w_j qs[j, a] on the
    support, with weights w_j = ||e(g_j)||, the roots of kappa's diagonal.
    Since pinv(kappa (x) I) = pinv(kappa) (x) I, the system is solved as
    kappa c = v with one right-hand side per support component, at the
    singular-value cutoff of the (L s)-square system.

    penalty > 0 adds a ridge penalty * sum_j kappa[j,j] ||c_j||^2 to the
    solve (Levenberg damping by the Gram diagonal, i.e. the squared term
    weights ||u_j||^2 ||e(g_j)||^2), which suppresses the large cancelling
    coefficients an ill-conditioned exact solve produces. The returned cost
    is the true residual at the damped solution, not the penalized value.
    Non-finite input or cost returns SEARCH_PENALTY with us unchanged and
    failed set. Non-finite input never reaches LAPACK, whose gelsd can fail
    to return on a NaN matrix.

    The solve calls numpy's least-squares gufunc once, with the rcond and
    signature np.linalg.lstsq passes it, so the solution is lstsq's bit for
    bit without the wrapper's checks, copies and np.errstate. An SVD that
    fails to converge leaves a NaN solution, whose cost is SEARCH_PENALTY
    like any other non-finite cost; it raises the invalid flag, which the
    searches' candidates run with ignored and a committed solve (the block
    search's re-solve) reports as a RuntimeWarning. With support == d nothing
    is frozen, and the solution is returned as the gufunc left it.
    """
    s = support
    qs = np.asarray(qs)
    L, d = qs.shape
    diag = kappa.diagonal().real
    ws = np.sqrt(np.maximum(diag, 0.0))
    b = ws[:, None] * qs[:, :s]
    if not (np.isfinite(kappa).all() and np.isfinite(b).all()
            and (s == d or np.isfinite(qs).all())):
        return SEARCH_PENALTY, us, True
    c0 = 1.0
    if s < d:
        # b holds the rows' support columns; their tails enter only here.
        solved = np.array(us, dtype=complex)
        tails = solved[:, s:]
        c0 += float(np.sum(kappa * (tails.conj() @ tails.T)).real)
        c0 -= 2.0 * float(np.dot(ws, np.sum(qs[:, s:] * tails, axis=1).real))

    v = b.conj()
    rcond = _EPS * L * s
    if penalty > 0.0:
        damped = kappa.copy()
        damped.flat[::L + 1] += penalty * diag
        cstar = _lstsq_gufunc(damped, v, rcond, signature="DDd->Ddid")[0]
        value = c0 - 2.0 * float(np.vdot(v, cstar).real) + float(
            np.vdot(cstar, kappa @ cstar).real
        )
    else:
        cstar = _lstsq_gufunc(kappa, v, rcond, signature="DDd->Ddid")[0]
        value = c0 - float(np.vdot(v, cstar).real)
    value = math.sqrt(max(value, 0.0))
    if not math.isfinite(value):
        return SEARCH_PENALTY, us, True
    if s == d:
        return value, cstar, False
    solved[:, :s] = cstar
    return value, solved, False


def _generators2(slices, betas) -> list:
    """Entries of dt G_p = B0 + sum_c beta_pc B_c - (|beta_p|^2 / 2) B_I per
    interval, from the dt-scaled basis slices as (P, m+2) lists of entries
    (x00, x01, x10, x11) and the (P, m) amplitude rows as lists; the last
    slice B_I is the dt-scaled identity."""
    out = []
    for b, beta in zip(slices, betas):
        g00, g01, g10, g11 = b[0]
        h = 0.0
        for bc, (x00, x01, x10, x11) in zip(beta, b[1:-1]):
            g00 += bc * x00
            g01 += bc * x01
            g10 += bc * x10
            g11 += bc * x11
            h += bc.real * bc.real + bc.imag * bc.imag
        h *= 0.5
        out.append((g00 - h * b[-1][0], g01, g10, g11 - h * b[-1][3]))
    return out


def _chainer(rows, basis):
    """betas -> rows T^(0) ... T^(P-1) over the intervals of a dt-scaled
    basis slice, for the (P, m) amplitude values betas and one row or a
    stack of rows (a matrix, whose product it returns). What does not
    depend on the values is prepared once, so a search candidate pays only
    for its own.

    A 2x2 model's exponentials come from _generators2 and _expm2 once per
    call, and each row goes through them in Python complex arithmetic: a
    search candidate chains a few intervals, where numpy's per-call overhead
    would dominate. Other dimensions contract the basis with
    affine_coefficients and take dense exponentials.
    """
    if rows.shape[-1] != 2:
        def chain(betas):
            out = rows
            for M in np.einsum("pk,pkij->pij", affine_coefficients(betas), basis):
                out = out @ _expm(M)
            return out

        return chain
    slices = basis.reshape(len(basis), -1, 4).tolist()
    stack = rows.ndim == 2
    start = rows.tolist() if stack else [rows.tolist()]

    def chain(betas):
        Ts = _expm2(_generators2(slices, betas.tolist()))
        out = []
        for r0, r1 in start:
            for t00, t01, t10, t11 in Ts:
                r0, r1 = r0 * t00 + r1 * t10, r0 * t01 + r1 * t11
            out.append((r0, r1))
        return np.array(out if stack else out[0])

    return chain


def _chain2_pullback(row, basis):
    """betas -> (row T^(0) ... T^(P-1), pullback) for a 2x2 model's row and
    dt-scaled basis slice: the row is _chainer's, bit for bit, and
    pullback(qbar) is the (P, m) complex gradient g of Re(q . qbar) in the
    amplitude values, d Re(q . qbar) = Re sum conj(g) dbeta. The prefix rows
    the forward pass keeps and the suffix products applied to qbar, carried
    right to left, give each interval's Tbar; _expm2_adjoint turns it into
    Gbar, and dt G = B0 + sum_c beta_c B_c - (|beta|^2 / 2) B_I into g.
    """
    slices = basis.reshape(len(basis), -1, 4).tolist()
    start = row.tolist()

    def chain(betas):
        blist = betas.tolist()
        gens = _generators2(slices, blist)
        Ts = _expm2(gens)
        r0, r1 = start
        prefix = []
        for t00, t01, t10, t11 in Ts:
            prefix.append((r0, r1))
            r0, r1 = r0 * t00 + r1 * t10, r0 * t01 + r1 * t11

        def pullback(qbar):
            w0, w1 = qbar.tolist()
            bars = []
            for (p0, p1), (t00, t01, t10, t11) in zip(reversed(prefix), reversed(Ts)):
                bars.append((p0 * w0, p0 * w1, p1 * w0, p1 * w1))
                w0, w1 = t00 * w0 + t01 * w1, t10 * w0 + t11 * w1
            bars.reverse()
            grad = []
            for b, beta, (h00, h01, h10, h11) in zip(slices, blist,
                                                     _expm2_adjoint(gens, bars)):
                ident = (b[-1][0] * h00 + b[-1][3] * h11).real
                grad.append([
                    (x00 * h00 + x01 * h01 + x10 * h10 + x11 * h11).conjugate()
                    - bc * ident
                    for bc, (x00, x01, x10, x11) in zip(beta, b[1:-1])
                ])
            return grad

        return np.array((r0, r1)), pullback

    return chain


def _solve_pullback(kappa, qs, solved, support, penalty):
    """(Kbar, Dbar, Qbar) of the squared cost V that _solve_coefficients took
    the root of, at its solution `solved`: dV = Re sum dkappa Kbar + Dbar .
    d diag(kappa) + Re sum dqs Qbar, for the Gram matrix kappa, its real
    diagonal on its own and the chain rows qs.

    With A = kappa + penalty diag(kappa), c = A^+ v and v = conj(w q), V is
    c0 - 2 Re v^H c + c^H kappa c: the undamped residual at the damped
    solution, which the damped solve does not minimize, so the derivative
    goes through the solve. One adjoint solve gives lam = A^+ (kappa c - v)
    = -penalty A^+ diag(kappa) c, and the solve's share of dV is
    2 Re lam^H (dv - dA c). Without damping lam is 0: the envelope theorem.
    """
    s = support
    qs = np.asarray(qs)
    L = len(qs)
    diag = kappa.diagonal().real
    ws = np.sqrt(diag)
    c = solved[:, :s]
    lam, dbar = 0.0, np.zeros(L)
    if penalty > 0.0:
        damped = kappa.copy()
        damped.flat[::L + 1] += penalty * diag
        lam = -penalty * _lstsq_gufunc(damped, diag[:, None] * c, _EPS * L * s,
                                       signature="DDd->Ddid")[0]
        dbar -= 2.0 * penalty * np.sum(lam.conj() * c, axis=1).real
    resid = lam - c
    kbar = (c - 2.0 * lam).conj() @ c.T
    qbar = np.empty(qs.shape, dtype=complex)
    qbar[:, :s] = 2.0 * ws[:, None] * resid
    dbar += np.sum(qs[:, :s] * resid, axis=1).real / ws
    if s < qs.shape[1]:
        tails = solved[:, s:]
        kbar += tails.conj() @ tails.T
        qbar[:, s:] = -2.0 * ws[:, None] * tails
        dbar -= np.sum(qs[:, s:] * tails, axis=1).real / ws
    return kbar, dbar, qbar


def _gram(dts, vals) -> np.ndarray:
    """sum_p dt_p <g_i(p), g_l(p)> for (L, P, m) amplitude values, as (L, L)."""
    return np.einsum("p,ipc,lpc->il", dts, np.conj(vals), vals)


def _split(vals) -> np.ndarray:
    """The real search vector of complex values: real parts, then imaginary."""
    flat = np.ravel(vals)
    return np.concatenate([flat.real, flat.imag])


def _join(x, shape) -> np.ndarray:
    """The complex values of shape `shape` that _split flattened to x."""
    k = len(x) // 2
    return (x[:k] + 1j * x[k:]).reshape(shape)


class _Problem:
    """The search problem of one optimize call, frozen for both searches.

    One partition rule holds for both: the terms share one partition, and
    f.with_breakpoints moves f onto it, so f is constant on each interval;
    otherwise PartitionError. Frozen on it: the
    durations dts, the dt-scaled affine basis of f (dt G(beta) =
    basis . (1, beta, -|beta|^2 / 2) per interval), the row u^dag, the
    initial (L, d) system vectors and (L, P, m) amplitude values, the solve's
    support and penalty, and the initial label.
    """

    def __init__(self, model, psi, initial: ApproxState, schedule: OptimizeSchedule):
        u, f = psi
        self.breakpoints = initial.terms[0][1].breakpoints
        if not all(np.array_equal(g.breakpoints, self.breakpoints) for _, g in initial.terms):
            raise PartitionError("the search needs the terms on one partition")
        self.dts = np.diff(self.breakpoints)
        alphas = f.with_breakpoints(self.breakpoints).values
        self.basis = affine_basis(model, alphas) * self.dts[:, None, None, None]
        self.row = np.asarray(u, dtype=complex).conj()
        self.us = np.array([uj for uj, _ in initial.terms], dtype=complex)
        self.vals = np.array([g.values for _, g in initial.terms], dtype=complex)
        self.support = min(schedule.u_support or model.dim, model.dim)
        self.penalty = schedule.u_penalty
        self.label = initial.label
        for a in (self.basis, self.row, self.us, self.vals):
            a.setflags(write=False)
        self.chain = _chainer(self.row, self.basis)

    def evaluate(self, vals):
        """(cost, solved u array, failed) for (L, P, m) amplitude values, the
        frozen system vectors supplying the tails beyond the support."""
        kappa = np.exp(_gram(self.dts, vals))
        qs = [self.chain(v) for v in vals]
        return _solve_coefficients(kappa, qs, self.us, self.support, self.penalty)

    def gradient(self):
        """vals -> (cost, gradient, solved u array, failed) for a 2x2 model:
        the cost is evaluate's, bit for bit, and the (L, P, m) complex
        gradient g has dcost = Re sum conj(g) dvals (None where the cost
        failed; zero where it is 0). It runs backward through the solve
        (_solve_pullback), the chain rows (_chain2_pullback) and the Gram
        exponentials, whose pullback is dt_p (H + H^H) vals[:, p] for
        H = kappa * Kbar with the diagonal's Dbar on H's diagonal.
        """
        chain = _chain2_pullback(self.row, self.basis)
        dts = self.dts[None, :, None]

        def evaluate(vals):
            kappa = np.exp(_gram(self.dts, vals))
            qs, pulls = zip(*[chain(v) for v in vals])
            value, us, failed = _solve_coefficients(kappa, qs, self.us, self.support,
                                                    self.penalty)
            if failed or value == 0.0:
                return value, None if failed else np.zeros_like(vals), us, failed
            kbar, dbar, qbar = _solve_pullback(kappa, qs, us, self.support, self.penalty)
            h = kappa * kbar
            h.flat[::len(h) + 1] += kappa.diagonal() * dbar
            grad = dts * np.einsum("il,lpc->ipc", h + h.conj().T, vals)
            grad += np.array([pull(q) for pull, q in zip(pulls, qbar)])
            return value, grad * (0.5 / value), us, False

        return evaluate

    def state(self, us, vals) -> ApproxState:
        """The approximant of system vectors us and (L, P, m) values vals."""
        return ApproxState(
            [(uj, SimpleFunction(self.breakpoints, v)) for uj, v in zip(us, vals)],
            label=self.label,
        )


def _nelder_mead(objective, x0, maxiter: int, adaptive: bool):
    """Nelder-Mead simplex search for a minimum of objective from x0, at the
    tolerances FATOL and XATOL and with at most maxiter iterations; adaptive
    takes the dimension-dependent coefficients of Gao and Han (2012). Returns
    (x, fun, nfev).

    This is the arithmetic of scipy 1.17's _minimize_neldermead, step for
    step and in its order, for the one configuration the searches use: no
    bounds, callback, maxfev or initial simplex. It drops scipy's minimize
    front end, its call-counting wrapper and the result record it builds per
    iteration, and the import of scipy.optimize, which adds about 19 MB to a
    process. The ordering keeps scipy's argsort and take, as ndarray methods
    and twice after the first simplex as scipy does: argsort is not stable
    on ties.
    test_nelder_mead_matches_scipy pins x, fun and nfev bit for bit against
    scipy.optimize.minimize. objective must not modify its argument.
    """
    N = len(x0)
    if adaptive:
        dim = float(N)
        rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.empty((N + 1, N), dtype=float)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, dtype=float)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([objective(x) for x in sim], dtype=float)
    nfev = N + 1
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (abs(sim[1:] - sim[0]).max() <= XATOL and
                abs(fsim[0] - fsim[1:]).max() <= FATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = objective(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = objective(xe)
            nfev += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = objective(xc)
                shrink = not fxc <= fxr
            else:
                # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = objective(xc)
                shrink = not fxc < fsim[-1]
            nfev += 1
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = objective(sim[j])
                nfev += N
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return sim[0], fsim.min(), nfev


def _lbfgs(fun_grad, x0, maxiter: int):
    """Limited-memory BFGS from x0 for fun_grad(x) -> (value, gradient), with
    at most maxiter iterations: the two-loop recursion over the last
    LBFGS_MEMORY steps (Nocedal and Wright, Numerical Optimization, ch. 7)
    and a backtracking line search to the Armijo condition, in which a value
    that is not finite or not below SEARCH_PENALTY is a failed step. It stops
    when the gradient's max-norm is at most LBFGS_GTOL, when a step lowers the
    value by at most LBFGS_FTOL relative to max(|value|, 1), or when the line
    search fails from steepest descent. Returns (x, fun, nfev, failed), failed
    set once a value was not finite or not below SEARCH_PENALTY.
    """
    def call(x):
        value, grad = fun_grad(x)
        return value, grad, not value < SEARCH_PENALTY  # NaN is not below

    x = np.array(x0, dtype=float)
    f, g, failed = call(x)
    nfev = 1
    if failed:
        return x, f, nfev, failed
    steps, diffs = [], []
    for _ in range(maxiter):
        if np.abs(g).max() <= LBFGS_GTOL:
            break
        # Two-loop recursion: d = -H g for the inverse Hessian estimate H.
        d = -g
        alphas = []
        for s, y in zip(reversed(steps), reversed(diffs)):
            a = (s @ d) / (y @ s)
            alphas.append(a)
            d = d - a * y
        if steps:
            s, y = steps[-1], diffs[-1]
            d = d * ((s @ y) / (y @ y))
            for (s, y), a in zip(zip(steps, diffs), reversed(alphas)):
                d = d + (a - (y @ d) / (y @ s)) * s
            if not g @ d < 0.0:  # rounding lost descent: restart from -g
                steps, diffs, d = [], [], -g
        if not steps:  # steepest descent, its trial step at most 1 in 1-norm
            d = d / max(1.0, np.abs(g).sum())
        slope = g @ d
        t = 1.0
        for _ in range(LBFGS_BACKTRACKS):
            x_new = x + t * d
            f_new, g_new, bad = call(x_new)
            nfev += 1
            failed |= bad
            if not bad and f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            if not steps:
                break
            steps, diffs = [], []  # restart from steepest descent
            continue
        s, y = x_new - x, g_new - g
        if s @ y > _EPS * (y @ y):
            steps.append(s)
            diffs.append(y)
            del steps[:-LBFGS_MEMORY], diffs[:-LBFGS_MEMORY]
        done = f - f_new <= LBFGS_FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
    return x, f, nfev, failed


def __getattr__(name):
    # This hook exists only for perfbench/tracing.py, which wraps
    # states.scipy.optimize.minimize as its states.minimize layer. The
    # searches call _nelder_mead and _lbfgs and never reach that function, so
    # the layer reads 0 calls until the benchmark wraps the searches itself
    # and this hook goes (ROADMAP direction 2). Resolving the name on first use
    # keeps scipy out of the import.
    if name == "scipy":
        import scipy.optimize

        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _gradient_search(problem: _Problem, maxiter: int):
    """_lbfgs over the split amplitude values of a 2x2 problem, on the
    exact gradient of _Problem.gradient; returns (state, nfev, failed)."""
    shape = problem.vals.shape
    evaluate = problem.gradient()

    def fun_grad(x):
        value, grad, _, _ = evaluate(_join(x, shape))
        return value, None if grad is None else _split(grad)

    with np.errstate(all="ignore"):
        x, _, nfev, failed = _lbfgs(fun_grad, _split(problem.vals), maxiter)
        vals = _join(x, shape)
        _, us, bad = problem.evaluate(vals)
    return problem.state(us, vals), nfev, failed or bad


def _joint_search(problem: _Problem, schedule: OptimizeSchedule):
    """One search over every amplitude value at once: L-BFGS on the exact
    gradient for 2x2 models (_gradient_search), else RESTARTS Nelder-Mead
    runs, each after the first from a seeded perturbation of the best point.
    Both stop at schedule.max_iter iterations, by default 400 per real
    parameter. Returns (state, nfev, failed) like _block_search."""
    shape = problem.vals.shape
    x0 = _split(problem.vals)
    maxiter = schedule.max_iter or 400 * x0.size
    if len(problem.row) == 2:
        return _gradient_search(problem, maxiter)
    failed = False

    def objective(x):
        nonlocal failed
        value, _, bad = problem.evaluate(_join(x, shape))
        failed |= bad
        return value

    rng = np.random.default_rng(schedule.seed)
    # Every evaluation here is a candidate, the last one the best again: an
    # overflow or a failed solve is its SEARCH_PENALTY cost and sets failed.
    with np.errstate(all="ignore"):
        best_x, best_val = x0, objective(x0)
        nfev = 1
        for trial in range(RESTARTS):
            start = x0 if trial == 0 else best_x + RESTART_SCALE * rng.standard_normal(x0.size)
            x, fun, n = _nelder_mead(objective, start, maxiter, x0.size > 12)
            nfev += n
            if fun < best_val:
                best_val, best_x = fun, x
        vals = _join(best_x, shape)
        _, us, bad = problem.evaluate(vals)
    return problem.state(us, vals), nfev, failed or bad


def _tails(problem: _Problem, vals, bs: int):
    """(suffix, tail_gram) at the right end hi of each of the block search's
    blocks of bs intervals for (L, P, m) values vals: suffix[hi] stacks the
    terms' products T^(hi) ... T^(P-1) as (L, d, d), tail_gram[hi] is the
    Gram sum over [hi, P). Built right to left, block by block."""
    P, L = len(problem.dts), len(vals)
    eye = np.eye(len(problem.row), dtype=complex)
    suffix = {P: np.array([eye] * L)}
    tail_gram = {P: np.zeros((L, L), dtype=complex)}
    for lo in reversed(range(bs, P, bs)):
        hi = min(lo + bs, P)
        suffix[lo] = np.array([
            _chainer(eye, problem.basis[lo:hi])(vals[i, lo:hi]) @ suffix[hi][i]
            for i in range(L)
        ])
        tail_gram[lo] = _gram(problem.dts[lo:hi], vals[:, lo:hi]) + tail_gram[hi]
    return suffix, tail_gram


def _block_objective(problem: _Problem, vals, us, qs, row, suffix, outer, lo, hi, j):
    """evaluate(beta) -> (cost, solved u array, failed) with term j's values
    on block [lo, hi) set to the (hi - lo, m) array beta, the rest as in vals;
    row is term j's committed row u^dag T^(0) ... T^(lo-1), suffix its
    product over [hi, P), qs the terms' current chain rows and outer the Gram
    sum outside the block. The context holds the exponentials of every Gram
    entry outside row and column j, so a candidate exponentiates only column
    j (row j is its conjugate), chains term j's row through the block (see
    _chainer) and solves for the system vectors. An overflowing column is one
    non-finite cost, so the search runs this with flags ignored.
    """
    base = outer + _gram(problem.dts[lo:hi], vals[:, lo:hi])
    kappa = np.exp(base)
    # Column j of the exponent is col_rest + weights @ beta, where row j
    # of weights, dt conj(beta), is the candidate's own.
    L, _, m = vals.shape
    dts = np.repeat(problem.dts[lo:hi], m)
    weights = dts * np.conj(vals[:, lo:hi].reshape(L, -1))
    col_rest = base[:, j] - weights @ vals[j, lo:hi].ravel()
    qs = qs.copy()
    chain = _chainer(row, problem.basis[lo:hi])
    support, penalty = problem.support, problem.penalty

    def evaluate(beta):
        flat = beta.ravel()
        weights[j] = dts * np.conj(flat)
        col = np.exp(col_rest + weights @ flat)
        kappa[:, j] = col
        kappa[j] = np.conj(col)
        qs[j] = chain(beta) @ suffix
        return _solve_coefficients(kappa, qs, us, support, penalty)

    return evaluate


def _block_search(problem: _Problem, schedule: OptimizeSchedule):
    """Sequential block-coordinate descent for many-interval amplitudes.

    Blocks of schedule.block_size intervals are swept left to right, each
    sweep minimizing the FULL-horizon cost over one block of one term's
    values while everything else stays fixed, so the cost decreases
    monotonically. Term j's chain row u^dag T^(0) ... T^(P-1) is its
    committed row, chained through the block, times its suffix product from
    _tails (valid for a whole pass: later blocks keep their values until
    their own sweep); the Gram matrix is likewise a committed, a block and a
    tail sum. The row a term's search ends on becomes its committed row, and
    after every block the system vectors are re-solved exactly. Returns
    (state, nfev, failed) like _joint_search.
    """
    bs = schedule.block_size
    us, vals = problem.us, problem.vals.copy()
    L, P, m = vals.shape
    suffix, tail_gram = _tails(problem, vals, bs)
    rows = [problem.row] * L
    g_inner = np.zeros((L, L), dtype=complex)
    nfev, failed = 0, False

    def objective(x):
        # evaluate and shape are the current term's and block's, set below.
        nonlocal failed
        value, _, bad = evaluate(_join(x, shape))
        failed |= bad
        return value

    for lo in range(0, P, bs):
        hi = min(lo + bs, P)
        shape = (hi - lo, m)
        basis = problem.basis[lo:hi]
        outer = g_inner + tail_gram[hi]
        # Term 0's candidates set its own row; qs[0] is a placeholder.
        qs = np.array(rows[:1] + [_chainer(rows[i], basis)(vals[i, lo:hi]) @ suffix[hi][i]
                                  for i in range(1, L)])
        for j in range(L):
            x0 = _split(vals[j, lo:hi])
            with np.errstate(all="ignore"):
                evaluate = _block_objective(problem, vals, us, qs, rows[j], suffix[hi][j],
                                            outer, lo, hi, j)
                x, _, n = _nelder_mead(objective, x0, schedule.max_iter or 120 * x0.size, True)
            nfev += n
            vals[j, lo:hi] = _join(x, shape)
            rows[j] = _chainer(rows[j], basis)(vals[j, lo:hi])
            qs[j] = rows[j] @ suffix[hi][j]
        gram = _gram(problem.dts[lo:hi], vals[:, lo:hi])
        _, us, bad = _solve_coefficients(np.exp(outer + gram), qs, us,
                                         problem.support, problem.penalty)
        failed |= bad
        g_inner = g_inner + gram
    return problem.state(us, vals), nfev, failed


def optimize(model: SlhModel, psi, initial: ApproxState,
             schedule: OptimizeSchedule | None = None) -> OptimizeResult:
    """Minimize cost(model, psi, .) starting from `initial`.

    Search over the real and imaginary parts of every free amplitude value
    (OptimizeSchedule says by which method), with system vectors solved
    exactly per candidate. The terms of `initial` must share one partition
    that holds every breakpoint of f, in either mode; otherwise
    PartitionError. The result keeps the partition and the label of
    `initial`. Never returns a state
    worse than `initial`; a non-finite cost encountered during the search
    sets `search_failure` and the best finite iterate is returned.
    """
    schedule = schedule or OptimizeSchedule()
    initial_cost = cost(model, psi, initial)

    search = _block_search if schedule.block_size else _joint_search
    state, nfev, failed = search(_Problem(model, psi, initial, schedule), schedule)

    final_cost = cost(model, psi, state)
    if final_cost > initial_cost:
        state, final_cost = initial, initial_cost
    return OptimizeResult(
        state=state, cost=final_cost, nfev=nfev, search_failure=failed
    )
