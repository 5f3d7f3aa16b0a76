"""Coherent-superposition approximants and residual-norm minimization.

An :class:`ApproxState` is a finite sum psi' = sum_j u_j (x) e(g_j) of system
vectors tensored with exponential field vectors over piecewise-constant
amplitudes. Squared norms and overlaps against the truncated propagator reduce
to ordinary matrix algebra through exp_inner and the interval semigroup chain,
so no Fock expansion of the field is ever needed here.

The search treats only the amplitude values as free simplex parameters: for
fixed amplitudes the cost is a nonnegative quadratic in the system-vector
coefficients, so the optimal u_j are recovered exactly from the terms' Gram
system at every evaluation.

Both searches (joint simplex, block sweep) freeze the drive's dt-scaled
`semigroup.affine_basis` on a fixed partition and contract it with each
candidate's amplitude rows; `cost` stays on the reference `chain` path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import InvalidApproximantError, NumericError, PartitionError
from .models import SlhModel, decode_vector, encode_vector
from .semigroup import (
    BREAKPOINT_MERGE_TOL,
    SimpleFunction,
    affine_basis,
    affine_coefficients,
    chain,
    refine_common,
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

# Penalty returned to the simplex when a candidate produces a non-finite cost.
SEARCH_PENALTY = 1e6
_EPS = np.finfo(float).eps


def exp_inner(f: SimpleFunction, g: SimpleFunction) -> complex:
    """<e(f), e(g)> = exp(<f, g>_L2), conjugate-linear in f."""
    return complex(np.exp(f.inner(g)))


def exp_norm(f: SimpleFunction) -> float:
    """||e(f)|| = exp(||f||^2 / 2)."""
    return float(np.exp(0.5 * f.norm_sq()))


class ApproxState:
    """psi' = sum_j u_j (x) e(g_j) with a shared final time."""

    def __init__(self, terms, label: str = ""):
        terms = [(np.asarray(u, dtype=complex), g) for u, g in terms]
        if not terms:
            raise InvalidApproximantError("approximant needs at least one term")
        for _, g in terms:
            if not isinstance(g, SimpleFunction):
                raise InvalidApproximantError("amplitudes must be SimpleFunction")
        t = terms[0][1].t_final
        for u, g in terms:
            if abs(g.t_final - t) > 1e-12:
                raise PartitionError("terms do not share a final time")
            if u.ndim != 1 or not np.all(np.isfinite(u.view(float))):
                raise InvalidApproximantError("system vectors must be finite 1-d")
            if np.linalg.norm(u) == 0.0:
                raise InvalidApproximantError("system vectors must be nonzero")
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
    for ui, gi in state.terms:
        for uj, gj in state.terms:
            total += np.vdot(ui, uj) * exp_inner(gi, gj)
    return math.sqrt(max(total.real, 0.0))


def _overlap_sum(model: SlhModel, u, f: SimpleFunction, state: ApproxState) -> float:
    """sum_j ||e(g_j)|| Re <u, chain(f, g_j) u_j>."""
    acc = 0.0
    for uj, gj in state.terms:
        acc += exp_norm(gj) * np.vdot(u, chain(model, f, gj, uj)).real
    return acc


def _residual(norm_sq: float, model: SlhModel, u, f, state: ApproxState) -> float:
    """sqrt(norm_sq - 2 overlap + ||psi'||^2); NumericError when not finite."""
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

    block_size=None runs one joint simplex search over all free amplitude
    values; a positive block_size sweeps the partition block by block,
    minimizing the full-horizon cost over one block at a time. The system
    vectors are not searched: they are solved exactly from the terms' Gram
    system (restricted to the first u_support components when set, frozen
    tails handled exactly). u_penalty > 0 damps that solve toward small
    coefficients -- the exact minimizer of an ill-conditioned Gram system
    cancels huge terms against each other, which is poison for certificates
    whose rate sums are weighted by sum_j ||u_j||. The reported cost is
    always the true undamped residual.
    """

    seed: int = 0
    restarts: int = 3
    max_iter: int | None = None
    fatol: float = 1e-10
    xatol: float = 1e-7
    u_support: int | None = None
    restart_scale: float = 0.05
    block_size: int | None = None
    u_penalty: float = 0.0


@dataclass
class OptimizeResult:
    state: ApproxState
    cost: float
    nfev: int
    search_failure: bool = False


def _expm2(M: np.ndarray) -> np.ndarray:
    """Closed-form exponential of a 2x2 complex matrix or an (n, 2, 2) stack."""
    mu = 0.5 * (M[..., 0, 0] + M[..., 1, 1])
    a = M[..., 0, 0] - mu
    b = M[..., 0, 1]
    c = M[..., 1, 0]
    d2 = a * a + b * c
    d = np.sqrt(d2)
    small = np.abs(d) < 1e-6
    # Series for cosh(d) and sinh(d)/d near d = 0. Each branch gets harmless
    # arguments where the other one is taken, so neither warns.
    z2 = np.where(small, d2, 0.0)
    ch = np.where(small, 1.0 + z2 / 2.0 + z2 * z2 / 24.0, np.cosh(d))
    sh = np.where(small, 1.0 + z2 / 6.0 + z2 * z2 / 120.0,
                  np.sinh(d) / np.where(small, 1.0, d))
    e = np.exp(mu)
    ec = e * ch
    es = e * sh
    esa = es * a
    out = np.empty(np.shape(M), dtype=complex)
    out[..., 0, 0] = ec + esa
    out[..., 0, 1] = es * b
    out[..., 1, 0] = es * c
    out[..., 1, 1] = ec - esa
    return out


def _expm(M: np.ndarray) -> np.ndarray:
    """Dense exponential of one matrix; 2x2 stacks take _expm2 instead."""
    return scipy.linalg.expm(M)


def _solve_coefficients(kappa, b, support, us, ws, qs, penalty=0.0):
    """Minimizer over the support components of every u_j.

    Minimizes C0 - 2 Re(v^dag c) + c^dag (kappa (x) I) c where the constant
    carries the frozen tails; returns (cost, solved u list). kappa is the
    field Gram exp<g_i, g_j>, b[j, a] = w_j (u^dag C_j)[a] on the support.
    Since pinv(kappa (x) I) = pinv(kappa) (x) I, the system is solved as
    kappa c = conj(b) with one right-hand side per support component, at the
    singular-value cutoff of the (L s)-square system.

    penalty > 0 adds a ridge penalty * sum_j kappa[j,j] ||c_j||^2 to the
    solve (Levenberg damping by the Gram diagonal, i.e. the squared term
    weights ||u_j||^2 ||e(g_j)||^2), which suppresses the large cancelling
    coefficients an ill-conditioned exact solve produces. The returned cost
    is the true residual at the damped solution, not the penalized value.
    """
    L = len(us)
    s = support
    q = np.asarray(qs)
    if not (np.isfinite(kappa).all() and np.isfinite(b).all()
            and np.isfinite(q).all()):
        return math.inf, us
    solved = np.array(us, dtype=complex)
    c0 = 1.0
    if s < solved.shape[1]:
        tails = solved[:, s:]
        c0 += float(np.sum(kappa * (tails.conj() @ tails.T)).real)
        c0 -= 2.0 * float(np.dot(ws, np.sum(q[:, s:] * tails, axis=1).real))

    v = np.conj(b)
    rcond = _EPS * L * s
    if penalty > 0.0:
        damped = kappa + np.diag(penalty * kappa.diagonal().real)
        cstar = np.linalg.lstsq(damped, v, rcond=rcond)[0]
        value = c0 - 2.0 * float(np.vdot(v, cstar).real) + float(
            np.vdot(cstar, kappa @ cstar).real
        )
    else:
        cstar = np.linalg.lstsq(kappa, v, rcond=rcond)[0]
        value = c0 - float(np.vdot(v, cstar).real)
    solved[:, :s] = cstar
    return math.sqrt(max(value, 0.0)), list(solved)


def _horizon_cost(kappa, qs, us, support, penalty):
    """(cost, solved u list, failed) for field Gram kappa and chain rows qs.

    qs[j] = u^dag T_j is term j's chain row; the weights are ||e(g_j)||. A
    non-finite cost returns SEARCH_PENALTY with us unchanged and failed set.
    """
    ws = np.sqrt(np.maximum(kappa.diagonal().real, 0.0))
    qs = np.asarray(qs)
    value, solved = _solve_coefficients(
        kappa, ws[:, None] * qs[:, :support], support, us, ws, qs, penalty
    )
    if not np.isfinite(value):
        return SEARCH_PENALTY, us, True
    return value, solved, False


def _pack_values(state: ApproxState):
    """Flatten amplitude values to a real vector; return vector + shapes."""
    xs = []
    shapes = []
    for _, g in state.terms:
        shapes.append(g.values.shape)
        flat = g.values.ravel()
        xs.extend(flat.real)
        xs.extend(flat.imag)
    return np.asarray(xs, dtype=float), shapes


def _unpack_values(x, shapes):
    vals = []
    pos = 0
    for shape in shapes:
        n = int(np.prod(shape))
        vals.append((x[pos:pos + n] + 1j * x[pos + n:pos + 2 * n]).reshape(shape))
        pos += 2 * n
    return vals


def _interval_exps(basis, betas):
    """exp(dt_p G_p(beta_p)) per interval of a dt-scaled affine basis slice."""
    G = np.einsum("pk,pkij->pij", affine_coefficients(betas), basis)
    if G.shape[-1] == 2:
        return _expm2(G)
    return [_expm(M) for M in G]


def _chain_row(row, basis, betas) -> np.ndarray:
    """row T^(0) ... T^(P-1) over the intervals of a dt-scaled basis slice."""
    for T in _interval_exps(basis, betas):
        row = row @ T
    return row


def _gram(dts, vals) -> np.ndarray:
    """sum_p dt_p <g_i(p), g_l(p)> for (L, P, m) amplitude values, as (L, L)."""
    return np.einsum("p,ipc,lpc->il", dts, np.conj(vals), vals)


def _joint_evaluator(model, psi, template: ApproxState, schedule: OptimizeSchedule):
    """evaluate(vals) -> (cost, solved u list, failed) for per-term amplitude values.

    f and every term's partition are refined once into one common partition,
    on which the dt-scaled affine basis of f is frozen. Each term's values
    reach the common partition through one precomputed interval index.
    """
    u, f = psi
    common = f
    for _, g in template.terms:
        common, _ = refine_common(common, g)
    bp = common.breakpoints
    dts = np.diff(bp)
    mids = 0.5 * (bp[:-1] + bp[1:])
    index = [np.searchsorted(g.breakpoints, mids, side="right") - 1
             for _, g in template.terms]
    basis = affine_basis(model, common.values) * dts[:, None, None, None]
    row = np.asarray(u, dtype=complex).conj()
    us = [uj for uj, _ in template.terms]
    support = min(schedule.u_support or model.dim, model.dim)

    def evaluate(vals):
        vals = np.array([v[i] for v, i in zip(vals, index)])
        with np.errstate(over="ignore"):
            kappa = np.exp(_gram(dts, vals))
        qs = [_chain_row(row, basis, v) for v in vals]
        return _horizon_cost(kappa, qs, us, support, schedule.u_penalty)

    return evaluate


def _joint_search(model, psi, initial, schedule: OptimizeSchedule):
    evaluate = _joint_evaluator(model, psi, initial, schedule)
    x0, shapes = _pack_values(initial)
    failed = False

    def objective(x):
        nonlocal failed
        value, _, bad = evaluate(_unpack_values(x, shapes))
        failed |= bad
        return value

    rng = np.random.default_rng(schedule.seed)
    best_x, best_val = x0, objective(x0)
    nfev = 1
    maxiter = schedule.max_iter or 400 * x0.size
    for trial in range(max(1, schedule.restarts)):
        start = x0 if trial == 0 else best_x + schedule.restart_scale * rng.standard_normal(x0.size)
        res = scipy.optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxiter": maxiter,
                "fatol": schedule.fatol,
                "xatol": schedule.xatol,
                "adaptive": x0.size > 12,
            },
        )
        nfev += res.nfev
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    vals = _unpack_values(best_x, shapes)
    _, us, bad = evaluate(vals)
    terms = [
        (uj, SimpleFunction(g.breakpoints, v))
        for uj, v, (_, g) in zip(us, vals, initial.terms)
    ]
    return ApproxState(terms, label=initial.label), nfev, failed or bad


class _BlockOptimizer:
    """Sequential block-coordinate descent for many-interval amplitudes.

    All terms share one global partition. Blocks are swept left to right,
    each sweep minimizing the FULL-horizon cost over one block of one term's
    amplitude values while everything else stays fixed, so the final-time
    objective decreases monotonically. The chain overlap for term j is
    u^dag T^(0) ... T^(P-1) u_j; the row u^dag T^(0) ... T^(committed-1) is
    cached per term and the unswept tail enters through per-term suffix
    products T^(hi) ... T^(P-1) (valid for a whole pass, since later blocks
    keep their current values until their own sweep). A candidate block
    therefore only costs one stacked exponential of its block_size small
    generators plus block_size small matrix-vector products. Gram data
    (amplitude L2 inner products) is kept as committed prefixes,
    per-candidate block contributions and a right-cumulative tail; after
    every block the system vectors are re-solved exactly from the Gram
    system.
    """

    def __init__(self, model, psi, initial: ApproxState, schedule: OptimizeSchedule):
        self.u, self.f = psi
        self.u = np.asarray(self.u, dtype=complex)
        self.schedule = schedule
        self.nfev = 0
        self.failed = False

        g0 = initial.terms[0][1]
        for _, g in initial.terms:
            if not np.array_equal(g.breakpoints, g0.breakpoints):
                raise PartitionError("block mode needs one shared partition")
        self.breakpoints = g0.breakpoints
        self.dts = np.diff(self.breakpoints)
        self.P = len(self.dts)
        self.m = model.m
        self.dim = model.dim
        # f must be constant per global interval for the fused generator form.
        gaps = np.abs(self.f.breakpoints[:, None] - self.breakpoints[None, :]).min(axis=1)
        if (gaps > BREAKPOINT_MERGE_TOL).any():
            raise PartitionError(
                "block mode needs every breakpoint of f in the terms' partition"
            )
        alphas = self.f.with_breakpoints(self.breakpoints).values

        # dt G(beta) = basis . (1, beta, -|beta|^2 / 2), frozen per interval.
        self.basis = affine_basis(model, alphas) * self.dts[:, None, None, None]

        self.us = [u.astype(complex).copy() for u, _ in initial.terms]
        self.vals = np.array([g.values for _, g in initial.terms], dtype=complex)
        self.L = len(self.us)
        self.support = min(schedule.u_support or model.dim, model.dim)
        # Committed prefixes (over intervals [0, committed)).
        self.rows = [self.u.conj().copy() for _ in range(self.L)]
        self.g_inner = np.zeros((self.L, self.L), dtype=complex)
        # Tail data (suffix chain products and right-cumulative Gram sums),
        # rebuilt once per pass from the values the unswept blocks carry.
        self.suffix = None
        self.tail_gram = None

    def _build_tail(self):
        eye = np.eye(self.dim, dtype=complex)
        self.suffix = np.empty((self.L, self.P + 1, self.dim, self.dim), dtype=complex)
        for i in range(self.L):
            Ts = _interval_exps(self.basis, self.vals[i])
            acc = self.suffix[i, self.P] = eye
            for p in range(self.P - 1, -1, -1):
                acc = self.suffix[i, p] = Ts[p] @ acc  # T(p) ... T(P-1)
        per_interval = np.einsum(
            "p,ipc,lpc->pil", self.dts, np.conj(self.vals), self.vals
        )
        self.tail_gram = np.zeros((self.P + 1, self.L, self.L), dtype=complex)
        self.tail_gram[:self.P] = np.cumsum(per_interval[::-1], axis=0)[::-1]

    def _gram(self, lo: int, hi: int) -> np.ndarray:
        return _gram(self.dts[lo:hi], self.vals[:, lo:hi])

    def _block_qs(self, lo: int, hi: int) -> np.ndarray:
        return np.array([
            _chain_row(self.rows[i], self.basis[lo:hi], self.vals[i, lo:hi])
            @ self.suffix[i, hi]
            for i in range(self.L)
        ])

    def _sweep_block(self, lo: int, hi: int):
        """One per-term pass over block [lo, hi), full-horizon objective."""
        dts = self.dts[lo:hi, None]
        nb = hi - lo
        k = nb * self.m
        basis = self.basis[lo:hi]
        penalty = self.schedule.u_penalty
        for j in range(self.L):
            # Rows and Gram contributions of the other terms are fixed for
            # this pass; only term j's block changes per candidate.
            other_qs = self._block_qs(lo, hi)
            base_inner = self.g_inner + self.tail_gram[hi] + self._gram(lo, hi)
            vj_cur = self.vals[j, lo:hi].copy()
            # Column j of the Gram exponent is col_rest + sum_p dt conj(g_i) beta
            # over the block, where row j of `weights` is the candidate's own.
            weights = dts * np.conj(self.vals[:, lo:hi])
            col_rest = base_inner[:, j] - np.einsum("ipc,pc->i", weights, vj_cur)
            row_j = self.rows[j]
            suffix_j = self.suffix[j, hi]

            def objective(x):
                self.nfev += 1
                bv = (x[:k] + 1j * x[k:]).reshape(nb, self.m)
                weights[j] = dts * np.conj(bv)
                col = col_rest + np.einsum("ipc,pc->i", weights, bv)
                kappa_in = base_inner.copy()
                kappa_in[:, j] = col
                kappa_in[j] = np.conj(col)
                qs = other_qs.copy()
                qs[j] = _chain_row(row_j, basis, bv) @ suffix_j
                with np.errstate(over="ignore"):
                    kappa = np.exp(kappa_in)
                value, _, failed = _horizon_cost(kappa, qs, self.us, self.support, penalty)
                self.failed |= failed
                return value

            x0 = np.concatenate([vj_cur.ravel().real, vj_cur.ravel().imag])
            res = scipy.optimize.minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={
                    "maxiter": self.schedule.max_iter or 120 * x0.size,
                    "fatol": self.schedule.fatol,
                    "xatol": self.schedule.xatol,
                    "adaptive": True,
                },
            )
            self.vals[j, lo:hi] = (res.x[:k] + 1j * res.x[k:]).reshape(nb, self.m)

        # Re-solve the system vectors with every block at its current value.
        kappa_in = self.g_inner + self.tail_gram[hi] + self._gram(lo, hi)
        _, self.us, failed = _horizon_cost(
            np.exp(kappa_in), self._block_qs(lo, hi), self.us, self.support, penalty
        )
        self.failed |= failed

    def _commit_block(self, lo, hi):
        for i in range(self.L):
            self.rows[i] = _chain_row(
                self.rows[i], self.basis[lo:hi], self.vals[i, lo:hi]
            )
        self.g_inner = self.g_inner + self._gram(lo, hi)

    def run(self):
        bs = self.schedule.block_size
        self._build_tail()
        for lo in range(0, self.P, bs):
            hi = min(lo + bs, self.P)
            self._sweep_block(lo, hi)
            self._commit_block(lo, hi)
        terms = [
            (self.us[i], SimpleFunction(self.breakpoints, self.vals[i].copy()))
            for i in range(self.L)
        ]
        return ApproxState(terms), self.nfev


def optimize(model: SlhModel, psi, initial: ApproxState,
             schedule: OptimizeSchedule | None = None) -> OptimizeResult:
    """Minimize cost(model, psi, .) starting from `initial`.

    Derivative-free simplex search over the real and imaginary parts of every
    free amplitude value, with system vectors solved exactly per candidate.
    Never returns a state worse than `initial`; a non-finite cost encountered
    during the search sets `search_failure` and the best finite iterate is
    returned.
    """
    schedule = schedule or OptimizeSchedule()
    initial_cost = cost(model, psi, initial)

    if schedule.block_size:
        opt = _BlockOptimizer(model, psi, initial, schedule)
        state, nfev = opt.run()
        failed = opt.failed
    else:
        state, nfev, failed = _joint_search(model, psi, initial, schedule)

    final_cost = cost(model, psi, state)
    if final_cost > initial_cost:
        state, final_cost = initial, initial_cost
    return OptimizeResult(
        state=state, cost=final_cost, nfev=nfev, search_failure=failed
    )
