"""Singular-perturbation model reduction with explicit 1/k error rates.

A strongly damped degree of freedom enters through the scaled generator
decomposition k^2 Y + k A + B. The fast block Y is level-graded with a
blockwise pseudo-inverse Ytilde supported off the slow space H0; the limit
coefficients (S, L, H) live on H0 and the reduction error is controlled by
two operator norms M1 = ||P1 + Q1/k||, M2 = ||P2 + Q2/k|| entering
certificates at rate 1/k. The P's and Q's do not depend on k: a certificate
builds them once per interval and takes each k's rates for all intervals as
batched norms, so `AeConstants` and `ae_semigroup_error` take per-interval
columns. Certificates go through `truncation.certifier`, the one the
truncation route uses, with (2 M1 + dt M2)/k as the per-interval error.
k is a finite integer >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientTruncationError,
    InvalidDimensionError,
    InvalidModelError,
    InvalidParameterError,
    StructuralModelError,
    as_amplitudes,
    as_level,
    as_nonnegative,
    as_operators,
    as_times,
    check_rates,
)
from .models import SlhModel
from .operators import adjoint, annihilation, creation, number, opnorm, tensor
from .semigroup import SimpleFunction, _generators, generator
from .states import ApproxState, OptimizeResult, OptimizeSchedule, optimize
from .truncation import CertificateReport, certifier

__all__ = [
    "AeModel",
    "AeConstants",
    "ae_operators",
    "limit_coefficients",
    "m_constants",
    "ae_semigroup_error",
    "ae_theorem_bound",
    "oscillator_elimination",
    "atom_cavity_ae",
    "ae_certificate_table",
]

STRUCTURAL_TOL = 1e-12
LIMIT_TOL = 1e-10
# Relative amplitude at or beyond the guard level that counts as leakage.
LEAK_TOL = 1e-10
E11_MAX_COND = 1e12
# Ridge damping for the approximant coefficient solves. The certificate's
# rate sum is weighted by sum_j ||u_j|| ||e(g_j)||, so a residual minimizer
# built from large mutually cancelling terms is useless even when its cost
# is tiny; damping keeps the weights O(1) at a small cost in residual.
COEFF_DAMPING = 1e-3
# The coarse search starts its five terms at alpha + i COARSE_SPREAD j for
# j = -2..2. Identical terms span a subspace the search cannot leave: each
# term's exact gradient is the same, so a gradient search from there never
# separates them. Spread on a circle of this radius instead, the terms reach
# a lower cost (4.6e-4 against 7.1e-4 at the paper's point) but larger
# weights, which raise the certificate at k = 1e4 by a sixth.
COARSE_SPREAD = 0.05


class AeModel:
    """Level-graded singularly scaled model on a truncated space.

    The basis carries one integer level per index, and the levels fix the
    rest: level 0 spans the slow space H0, so P0 = diag(level == 0) and E,
    the isometry H0 -> full space, holds the H0 columns of the identity;
    the levels up to the guard level J_max are `represented`, the basis
    vectors whose level block survived truncation intact. The structural
    identities are asserted on that submatrix only, and J_max detects
    truncation leakage in operator compositions. The blocks obey
    errors.as_operators (W the m x m grid) and level_of_basis holds one int
    per basis vector, else a typed error is raised.
    """

    def __init__(self, Y, Ytilde, A, B, F, G, W, level_of_basis, J_max,
                 label="", params=None):
        (self.Y, self.Ytilde, self.A, self.B), (self.F, self.G), self.W = \
            as_operators([Y, Ytilde, A, B], [F, G], W)
        self.m, self.dim = len(self.F), self.Y.shape[0]
        if len(self.G) != self.m:
            raise InvalidDimensionError("F and G channel counts differ")
        level = np.array(level_of_basis)
        if level.dtype.kind not in "iu":
            raise InvalidParameterError("level_of_basis must be integers")
        if level.shape != (self.dim,):
            raise InvalidDimensionError(f"level_of_basis needs {self.dim} entries")
        self.J_max = as_level(J_max, "guard level J_max")
        self.label = label
        self.params = dict(params or {})

        slow = level == 0
        self.h0_indices = np.flatnonzero(slow)
        if self.h0_indices.size == 0:
            raise StructuralModelError("slow space H0 is empty")
        eye = np.eye(self.dim, dtype=complex)
        self.level_of_basis, self.represented = level, level <= self.J_max
        self.P0, self.E = np.diag(slow).astype(complex), eye[:, slow]
        for a in (level, self.represented, self.h0_indices, self.P0, self.E):
            a.setflags(write=False)

        off, mask = eye - self.P0, self.represented
        if opnorm(self.Y @ self.P0) > STRUCTURAL_TOL:
            raise StructuralModelError("Y does not annihilate the slow space")
        for name, prod in (("Ytilde*Y", self.Ytilde @ self.Y),
                           ("Y*Ytilde", self.Y @ self.Ytilde)):
            defect = (prod - off)[np.ix_(mask, mask)]
            if defect.size and np.abs(defect).max() > STRUCTURAL_TOL:
                raise StructuralModelError(
                    f"{name} != I - P0 on represented levels "
                    f"(defect {np.abs(defect).max():.2e})"
                )
        for Fj in self.F:
            if opnorm(adjoint(Fj) @ self.P0) > STRUCTURAL_TOL:
                raise StructuralModelError("F_j* does not annihilate H0")
        if opnorm(self.P0 @ self.A @ self.P0) > STRUCTURAL_TOL:
            raise StructuralModelError("A has a diagonal H0 block")

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"AeModel({self.label!r}, dim={self.dim}, J_max={self.J_max})"


@dataclass(frozen=True)
class AeConstants:
    """Reduction-error rates M1, M2 at scaling parameter k.

    M1 and M2 are nonnegative rates under `errors.check_rates`: scalars, or
    1-d columns of one length with one entry per interval (compare such
    instances field by field, not with ==); k is a level (errors.as_level).
    """

    M1: float
    M2: float
    k: float

    def __post_init__(self):
        check_rates(self, ("M1", "M2"))
        as_level(self.k, "scaling parameter")


def ae_operators(model: AeModel, alpha, beta):
    """Displaced slow/fast coupling blocks A^(ab), B^(ab) at model.m channel
    amplitudes alpha, beta (errors.as_amplitudes)."""
    alpha = as_amplitudes(alpha, model.m, "alpha")
    beta = as_amplitudes(beta, model.m, "beta")
    eye = np.eye(model.dim, dtype=complex)
    Aab = model.A.astype(complex).copy()
    for j in range(model.m):
        Aab += model.F[j] * beta[j]
        for i in range(model.m):
            Aab -= np.conj(alpha[i]) * (model.W[i][j] @ adjoint(model.F[j]))
    Bab = model.B - 0.5 * float(np.vdot(alpha, alpha).real + np.vdot(beta, beta).real) * eye
    for j in range(model.m):
        Bab += model.G[j] * beta[j]
        for i in range(model.m):
            Bab += np.conj(alpha[i]) * (
                model.W[i][j] @ (beta[j] * eye - adjoint(model.G[j]))
            )
    return Aab, Bab


def limit_coefficients(model: AeModel) -> SlhModel:
    """Reduced (S, L, H) on the slow space H0.

    The assembled scattering block must be unitary to 1e-10: larger defects
    raise StructuralModelError, smaller ones are projected out. H = (X -
    X^dag) / 2i is self-adjoint by construction, and SlhModel checks it.
    """
    E = model.E
    Ed = adjoint(E)
    d0 = E.shape[1]
    Yt = model.Ytilde

    S_adj = [[None] * model.m for _ in range(model.m)]
    for j in range(model.m):
        for i in range(model.m):
            acc = np.zeros((model.dim, model.dim), dtype=complex)
            for l in range(model.m):
                inner = adjoint(model.F[l]) @ Yt @ model.F[j]
                if l == j:
                    inner = inner + np.eye(model.dim, dtype=complex)
                acc += model.W[i][l] @ inner
            S_adj[j][i] = Ed @ acc @ E
    S = [[adjoint(S_adj[j][i]) for i in range(model.m)] for j in range(model.m)]
    L = []
    for j in range(model.m):
        Lj_adj = Ed @ (model.G[j] - model.A @ Yt @ model.F[j]) @ E
        L.append(adjoint(Lj_adj))
    X = Ed @ (model.B - model.A @ Yt @ model.A) @ E
    H = (X - adjoint(X)) / 2j

    big = np.block([[S[j][i] for i in range(model.m)] for j in range(model.m)])
    defect = opnorm(big @ adjoint(big) - np.eye(model.m * d0))
    if defect > LIMIT_TOL:
        raise StructuralModelError(
            f"limit scattering is not unitary (defect {defect:.2e})"
        )
    if defect > 1e-13:
        u, _, vh = np.linalg.svd(big)
        big = u @ vh
        S = [[big[j * d0:(j + 1) * d0, i * d0:(i + 1) * d0]
              for i in range(model.m)] for j in range(model.m)]

    return SlhModel(
        label=f"{model.label}|limit",
        S=S,
        L=L,
        H=H,
        factor_dims=(d0,),
        params={"family": "ae_limit", "parent": model.label, **model.params},
    )


def _m_matrices(model: AeModel, G, alpha, beta):
    """k-affine split of the two M compositions restricted to H0.

    G is the generator of limit_coefficients(model) at (alpha, beta), whose
    callers have checked them as amplitudes. Returns (P1, Q1, P2, Q2) with
    M1 = ||P1 + Q1/k||, M2 = ||P2 + Q2/k||; raises if any composition carries
    amplitude at or beyond the guard level J_max.
    """
    E = model.E
    off = np.eye(model.dim, dtype=complex) - model.P0
    Yt = model.Ytilde

    Aab, Bab = ae_operators(model, alpha, beta)
    C = Bab - Aab @ Yt @ Aab
    YoA = Yt @ (off @ Aab)
    YoC = Yt @ (off @ C)
    EL = E @ G

    P1 = YoA @ E
    Q1 = -YoC @ E
    P2 = YoA @ EL + (Bab @ Yt @ Aab + Aab @ YoC) @ E
    Q2 = -YoC @ EL - (Bab @ YoC) @ E

    guard = model.level_of_basis >= model.J_max
    scale = max(1.0, *(np.abs(M).max() for M in (P1, Q1, P2, Q2)))
    for M in (P1, Q1, P2, Q2):
        if guard.any() and np.abs(M[guard]).max() > LEAK_TOL * scale:
            raise InsufficientTruncationError(
                "composition reaches the guard level; increase J_max"
            )
    return P1, Q1, P2, Q2


def _rates(matrices, k) -> AeConstants:
    """M1, M2 at scaling parameter k from _m_matrices' (P1, Q1, P2, Q2), or
    per-interval columns of them from (n, d, d0) stacks of those matrices."""
    k = as_level(k, "scaling parameter")
    P1, Q1, P2, Q2 = matrices
    M1, M2 = (np.linalg.norm(X, 2, axis=(-2, -1)) for X in (P1 + Q1 / k, P2 + Q2 / k))
    return AeConstants(M1=M1, M2=M2, k=float(k))


def m_constants(model: AeModel, alpha, beta, k) -> AeConstants:
    """Operator-norm rates M1, M2 at scaling parameter k and model.m channel
    amplitudes alpha, beta (errors.as_amplitudes, before any matrix)."""
    a = as_amplitudes(alpha, model.m, "alpha")
    b = as_amplitudes(beta, model.m, "beta")
    return _rates(_m_matrices(model, generator(limit_coefficients(model), a, b), a, b), k)


def ae_semigroup_error(const: AeConstants, t):
    """(1/k)(2 M1 + t M2): reduced-vs-scaled semigroup error at time t.

    M1, M2 and t are scalars or per-interval columns that broadcast against
    each other; all-scalar input returns a float. Every t must be finite and
    nonnegative (`errors.as_times`, as in z_bound), else InvalidParameterError.
    """
    t = as_times(t)
    z = (2.0 * const.M1 + t * const.M2) / const.k
    return float(z) if z.ndim == 0 else z


def _ae_certifier(model: AeModel, reduced: SlhModel, psi, psi_prime: ApproxState,
                  f_prime: SimpleFunction):
    """k -> certificate of one approximant, for a sweep of scaling values.

    reduced is limit_coefficients(model). Each term's per-interval
    (P1, Q1, P2, Q2), stacked over the intervals of its common partition
    with f_prime, are its rates for `certifier`, which computes them once
    with the mismatch and the residual; the returned function takes two
    batched norms per term.
    """
    def term_rates(fr, gr):
        Gs = _generators(reduced, fr.values, gr.values)
        mats = [_m_matrices(model, G, a, b) for G, a, b in zip(Gs, fr.values, gr.values)]
        return [np.stack(Ms) for Ms in zip(*mats)]

    certify = certifier(reduced, psi, psi_prime, f_prime, term_rates)

    def certify_at(k) -> CertificateReport:
        k = as_level(k, "scaling parameter")
        report = certify(lambda mats, dts: ae_semigroup_error(_rates(mats, k), dts), k=k)
        report.k_scaling = 2.0 * report.z_sum
        return report

    return certify_at


def ae_theorem_bound(model: AeModel, psi, psi_prime: ApproxState,
                     f_prime: SimpleFunction, k) -> CertificateReport:
    """Certificate against the scaled unitary at scaling parameter k.

    Here the computable propagator is the reduced limit model, so the
    residual chain runs on H0; the reduction error enters through the
    (2/k)-scaled M sums recorded in the k_scaling column. A k that is not
    a finite integer >= 1 raises InvalidParameterError; a residual, z sum or
    bound that is not finite raises NumericError.
    """
    return _ae_certifier(model, limit_coefficients(model), psi, psi_prime, f_prime)(k)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def oscillator_elimination(E00, E01, E10, E11, F, G, W, J_max: int = 4) -> AeModel:
    """Eliminate one strongly damped oscillator mode.

    All arguments are blocks on the retained factor H'; the oscillator enters
    as Y = E11 (x) a*a, A = E10 (x) a* + E01 (x) a, B = E00 (x) I with
    couplings F_j (x) a*, G_j (x) I and scattering W_ij (x) I, truncated at
    oscillator level J_max, a level (errors.as_level). The blocks obey
    errors.as_operators before any of them is inverted or tensored.
    """
    J_max = as_level(J_max, "guard level J_max")
    (E00, E01, E10, E11), (F, G), W = as_operators([E00, E01, E10, E11], [F, G], W)
    if np.linalg.cond(E11) > E11_MAX_COND:
        raise InvalidModelError("fast block E11 is numerically singular")
    E11_inv = np.linalg.inv(E11)
    dp = E00.shape[0]
    df = J_max + 1
    a = annihilation(df)
    ad = creation(df)
    N = number(df)
    eyef = np.eye(df, dtype=complex)

    inv_n = np.diag([0.0] + [1.0 / n for n in range(1, df)]).astype(complex)
    level = np.tile(np.arange(df), dp)

    m = len(F)
    return AeModel(
        Y=tensor(E11, N),
        Ytilde=tensor(E11_inv, inv_n),
        A=tensor(E10, ad) + tensor(E01, a),
        B=tensor(E00, eyef),
        F=[tensor(Fj, ad) for Fj in F],
        G=[tensor(Gj, eyef) for Gj in G],
        W=[[tensor(W[i][j], eyef) for j in range(m)] for i in range(m)],
        level_of_basis=level,
        J_max=J_max,
        label=f"oscillator_elimination(J_max={J_max})",
        params={"family": "oscillator_elimination", "J_max": J_max},
    )


def atom_cavity_ae(gamma: float, g: float, alpha_drive: complex,
                   J_max: int = 4) -> AeModel:
    """Driven three-level atom with a strongly coupled, strongly damped cavity.

    Atomic basis order (|e>, |+>, |->), cavity levels 0..J_max; the level of
    |+-, n> is n and of |e, n> is n+1, so the slow space is spanned by
    |+, 0> and |-, 0>. The fast-block pseudo-inverse is assembled blockwise
    on H_j = span{|+, j>, |-, j>, |e, j-1>} with d_j = j(j-1) gamma^2/4 + j g^2.
    alpha_drive is one amplitude (errors.as_amplitudes, before any matrix).
    """
    as_nonnegative(gamma, "decay rate gamma", positive=True)
    as_nonnegative(g, "coupling g", positive=True)
    alpha_drive = as_amplitudes(alpha_drive, 1, "drive amplitude alpha_drive")[0]
    J_max = as_level(J_max, "guard level J_max")
    if J_max < 2:
        raise InvalidParameterError("need J_max >= 2 for the block structure")
    df = J_max + 1
    a = annihilation(df)
    ad = creation(df)
    eye3 = np.eye(3, dtype=complex)
    eyef = np.eye(df, dtype=complex)
    E, PLUS, MINUS = 0, 1, 2

    def atom_op(ket, bra):
        M = np.zeros((3, 3), dtype=complex)
        M[ket, bra] = 1.0
        return M

    sp_plus = atom_op(E, PLUS)    # |e><+|
    sm_plus = atom_op(PLUS, E)    # |+><e|
    sp_minus = atom_op(E, MINUS)  # |e><-|
    sm_minus = atom_op(MINUS, E)  # |-><e|

    Y = -0.5 * gamma * tensor(eye3, number(df)) + g * (
        tensor(sm_plus, ad) - tensor(sp_plus, a)
    )
    A = tensor(np.conj(alpha_drive) * sm_minus - alpha_drive * sp_minus, eyef)
    B = np.zeros((3 * df, 3 * df), dtype=complex)
    F = [math.sqrt(gamma) * tensor(eye3, ad)]
    G = [np.zeros((3 * df, 3 * df), dtype=complex)]
    W = [[np.eye(3 * df, dtype=complex)]]

    def idx(atom, n):
        return atom * df + n

    dim = 3 * df
    Ytilde = np.zeros((dim, dim), dtype=complex)
    for j in range(1, df):
        d_j = j * (j - 1) * gamma**2 / 4.0 + j * g**2
        block = -(1.0 / d_j) * np.array(
            [
                [gamma * (j - 1) / 2.0, 0.0, g * math.sqrt(j)],
                [0.0, 2.0 * d_j / (j * gamma), 0.0],
                [-g * math.sqrt(j), 0.0, j * gamma / 2.0],
            ],
            dtype=complex,
        )
        ids = [idx(PLUS, j), idx(MINUS, j), idx(E, j - 1)]
        Ytilde[np.ix_(ids, ids)] = block

    level = np.zeros(dim, dtype=int)
    for n in range(df):
        level[idx(PLUS, n)] = n
        level[idx(MINUS, n)] = n
        level[idx(E, n)] = n + 1

    return AeModel(
        Y=Y,
        Ytilde=Ytilde,
        A=A,
        B=B,
        F=F,
        G=G,
        W=W,
        level_of_basis=level,
        J_max=J_max,
        label=f"atom_cavity_ae(J_max={J_max})",
        params={
            "family": "atom_cavity_ae",
            "gamma": gamma,
            "g": g,
            "alpha_drive": complex(alpha_drive),
            "J_max": J_max,
        },
    )


# ---------------------------------------------------------------------------
# Certificate table pipeline
# ---------------------------------------------------------------------------

def ae_certificate_table(k_list=(10**4, 10**5, 10**6, 10**7, 10**8), *,
                         gamma: float = 25.0, g: float = 5.0,
                         alpha: complex = 0.1, t_final: float = 1.0,
                         n_intervals: int = 1000, blocks: int = 100,
                         seed: int = 0, state: ApproxState | None = None,
                         pool_map=None):
    """Certificates for the driven atom-cavity reduction over a k sweep.

    The defaults are the paper's scenario. The model is atom_cavity_ae at its
    own guard level, and the approximant has 5 terms. The approximant, its
    residual and its M matrices are k-independent and computed once on the
    reduced model; pool_map, an order-preserving map, runs only each k's
    norms and assembly. The coarse stage runs the joint search (L-BFGS on
    the exact gradient, from five terms spread around alpha by
    COARSE_SPREAD) and the fine stage the sequential block optimizer; both
    are deterministic and do not use `seed`: any seed gives the same state.
    n_intervals and blocks are counts (errors.as_level) and t_final is
    finite and > 0 (errors.as_nonnegative).
    Returns (reports, optimization result or None if a state was supplied).
    """
    n_intervals = as_level(n_intervals, "number of intervals")
    blocks = as_level(blocks, "number of blocks")
    t_final = as_nonnegative(t_final, "t_final", positive=True)
    model = atom_cavity_ae(gamma, g, alpha)
    reduced = limit_coefficients(model)
    u0 = np.array([0.0, 1.0], dtype=complex)  # |-, 0> in H0 coordinates
    f = SimpleFunction.constant([alpha], t_final)

    result = None
    if state is None:
        # Two stages: a joint gradient search on a coarse partition gets the
        # shape of the minimizer, then the sequential block sweeps polish on
        # the requested partition. The coarse grid has the largest count
        # <= 10 dividing n_intervals, so the fine grid refines it and (the
        # cost being invariant under refinement) the result transplants at
        # its cost.
        n_coarse = max(d for d in range(1, 11) if n_intervals % d == 0)
        coarse_bp = np.linspace(0.0, t_final, n_coarse + 1)
        init = ApproxState(
            [(u0.copy(), SimpleFunction(coarse_bp, np.full((n_coarse, 1), alpha + spread,
                                                           dtype=complex)))
             for spread in 1j * COARSE_SPREAD * np.arange(-2, 3)],
            label="ae sequential-block minimizer",
        )
        coarse = optimize(reduced, (u0, f), init,
                          OptimizeSchedule(seed=seed, u_penalty=COEFF_DAMPING))
        breakpoints = np.linspace(0.0, t_final, n_intervals + 1)
        refined = ApproxState(
            [(u, g.with_breakpoints(breakpoints)) for u, g in coarse.state.terms],
            label=coarse.state.label,
        )
        schedule = OptimizeSchedule(
            seed=seed, block_size=max(1, n_intervals // blocks),
            max_iter=150, u_penalty=COEFF_DAMPING,
        )
        result = optimize(reduced, (u0, f), refined, schedule)
        state = result.state
        result = OptimizeResult(
            state=state,
            cost=result.cost,
            nfev=coarse.nfev + result.nfev,
            search_failure=coarse.search_failure or result.search_failure,
        )

    ks = list(k_list)
    if not ks:
        return [], result
    certify = _ae_certifier(model, reduced, (u0, f), state, f)
    mapper = pool_map or (lambda fn, xs: [fn(x) for x in xs])
    return list(mapper(certify, ks)), result
