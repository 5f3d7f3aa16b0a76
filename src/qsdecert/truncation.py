"""Explicit truncation-error functionals and the certifier both routes share.

The per-interval functional z_{r,s}(t) bounds how far the level-k truncated
interval semigroup drifts from the untruncated one, using only four rates
(gamma, qL, qa, qe) derived per model family, as scalars or per-interval
columns. A certificate for a full horizon combines a coherent-amplitude
mismatch, an optimization residual computed against the computable
propagator, and the weighted sum of per-interval errors. `certifier` builds
it for both routes: truncation passes z_{r,s} and adiabatic elimination its
(2 M1 + dt M2)/k rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameterError,
    NormalizationError,
    NumericError,
    PartitionError,
    UnsupportedModelError,
    as_level,
    as_nonnegative,
    as_times,
    check_rates,
)
from .models import SlhModel, kerr_cavity
from .operators import basis_state
from .semigroup import SimpleFunction, refine_common
from .states import ApproxState, OptimizeResult, OptimizeSchedule, cost, exp_norm, optimize

__all__ = [
    "BoundConstants",
    "CertificateReport",
    "CSV_HEADER",
    "c_sequence",
    "z_bound",
    "kerr_constants",
    "atom_cavity_constants",
    "constants_for",
    "interval_sum",
    "coherent_mismatch",
    "certifier",
    "theorem_bound",
    "kerr_reference_state",
    "kerr_search",
    "kerr_table_row",
    "kerr_certificate_table",
]

CSV_HEADER = "k,r,s,t,z_sum,residual,mismatch,bound"


def _c_table() -> tuple[float, ...]:
    """c_0, c_1, ... of the recursion up to where it stops changing.

    From j = 54 on, 2^j / (2^j - 1) rounds to 1.0, so c_j = sqrt(c_{j-1})
    depends on c_{j-1} alone: once two successive values agree, every later
    value equals them.
    """
    cs = [1.0]
    j = 1
    while j <= 54 or cs[-1] != cs[-2]:
        cs.append(math.sqrt(cs[-1] * 2**j / (2**j - 1)))
        j += 1
    return tuple(cs)


# Built once at import and never mutated, so threads may share it.
_C_TABLE = _c_table()


def c_sequence(n: int) -> list[float]:
    """c_0 .. c_{n-1} with c_0 = 1, c_j = sqrt(c_{j-1} 2^j / (2^j - 1))."""
    n = as_level(n, "sequence length")
    return list(_C_TABLE[:n]) + [_C_TABLE[-1]] * max(0, n - len(_C_TABLE))


# The coefficients 2^i c_i and 2^{i+j} / (2^i - 2^j) hold powers of two up to
# 2^{r+s-2}, and 2^1023 is the largest power of two a double holds. z_bound
# divides by the rates a_i = 2^{-i} gamma instead of multiplying by 2^i / gamma,
# so that these orders do not overflow when gamma is small.
MAX_ORDER_SUM = 1025


@dataclass(frozen=True)
class BoundConstants:
    """Rates feeding z_bound, and the truncation level k they belong to.

    gamma > 0, qL, qa, qe >= 0 are scalars, or 1-d columns of one length with
    one entry per interval (compare such instances field by field, not with
    ==), under `errors.check_rates`; k, if given, is a level (errors.as_level).
    """

    gamma: float
    qL: float
    qa: float
    qe: float
    k: int | None = None

    def __post_init__(self):
        check_rates(self, ("gamma", "qL", "qa", "qe"), positive="gamma")
        if self.k is not None:
            as_level(self.k, "truncation level")


def z_bound(c: BoundConstants, r: int, s: int, t):
    """Interval truncation-error functional.

    Five nonnegative pieces scaled by qL: a linear-in-t leading term, two
    saturating single sums, a difference-of-exponentials double sum and a
    t e^{-gamma_i t} diagonal sum. Both single sums run from i = 0; starting
    the second at i = 1 drops a proof-required piece and underestimates the
    benchmark certificates by ~10%.

    Arrays: the rates in c are scalars or equal-length per-interval columns,
    and t is a float or an array that broadcasts against them. One call
    evaluates every interval; all-scalar input returns a float. z is exactly
    0.0 where t == 0 or qL == 0.

    Orders: r, s are levels (errors.as_level) and r + s <= MAX_ORDER_SUM
    (1025), so that every coefficient 2^i c_i and 2^{i+j} / (2^i - 2^j) is a
    finite double; other orders, and times that fail `errors.as_times`
    (finite and nonnegative), raise InvalidParameterError. The kernel forms those coefficients
    over gamma as 1 / a_i and 1 / (a_j - a_i), with a_i = 2^{-i} gamma, so
    admitted orders give a finite z for small gamma too (gamma = 0.1 at
    r = 1024, say). Rates so extreme that a piece overflows, or that a_i and
    a_j both underflow to 0, raise NumericError: the result is never inf or
    NaN.

    Time law: z is not monotone in t. It equals a nondecreasing part (the
    linear term plus both single sums) plus nonnegative transients. With
    a_i = 2^{-i} gamma, each double-sum coefficient
    2^{i+j} / ((2^i - 2^j) gamma) (e^{-a_i t} - e^{-a_j t}) is the convolution
    of e^{-a_i s} with e^{-a_j s} over [0, t], so it rises and then decays;
    the diagonal terms t e^{-a_i t} do the same. The transients decay like
    e^{-2^{-(max(r,s)-1)} gamma t}, so z dips at early times but never falls
    below its nondecreasing part, and once the transients have died out z
    increases again (strictly when qL, qa, qe > 0).
    """
    r, s = as_level(r, "order r"), as_level(s, "order s")
    if r + s > MAX_ORDER_SUM:
        raise InvalidParameterError(
            f"orders r + s must be <= {MAX_ORDER_SUM} so that the coefficients "
            f"are finite, got r={r}, s={s}"
        )
    t = as_times(t)
    g = np.asarray(c.gamma, dtype=float)
    qL = np.asarray(c.qL, dtype=float)
    n = max(r, s)
    cs = c_sequence(n)
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.asarray(c.qe, dtype=float) / g
        A = np.asarray(c.qa, dtype=float) / g
        e_pow = [E ** (1.0 - 2.0**-i) for i in range(r + 1)]
        a_pow = [A ** (1.0 - 2.0**-j) for j in range(s + 1)]
        # Both single sums share c_i (1 - e^{-a_i t}) / a_i, written as
        # c_i t (1 - e^{-y}) / y with y = a_i t (-> c_i t as y -> 0); the
        # double and diagonal sums share e^{-a_i t}.
        a = [2.0**-i * g for i in range(n)]
        y = [ai * t for ai in a]
        single = [
            cs[i] * t * np.where(y[i] > 0.0, -np.expm1(-y[i]) / y[i], 1.0)
            for i in range(n)
        ]
        decay = [np.exp(-yi) for yi in y]

        total = t * e_pow[r] * a_pow[s]
        for i in range(r):
            total = total + single[i] * e_pow[i] * a_pow[s]
        for i in range(s):
            total = total + single[i] * a_pow[i] * e_pow[r]
        for i in range(r):
            for j in range(s):
                if j == i:
                    continue
                total = total + (
                    cs[i] * cs[j] * (decay[i] - decay[j]) / (a[j] - a[i])
                    * e_pow[i] * a_pow[j]
                )
        for i in range(min(r, s)):
            total = total + t * cs[i] ** 2 * decay[i] * (E * A) ** (1.0 - 2.0**-i)
        z = np.where((t == 0.0) | (qL == 0.0), 0.0, qL * total)
    if not np.isfinite(z).all():
        raise NumericError(
            "z_bound is not finite: the rates are too extreme for a finite bound"
        )
    return float(z) if z.ndim == 0 else z


def kerr_constants(k: int, alpha: complex, beta: complex, lam: float) -> BoundConstants:
    """Rates for the Kerr cavity truncated at level k.

    The amplitudes alpha, beta are scalars, or per-interval arrays that give
    per-interval rate columns (as do atom_cavity_constants and constants_for).
    """
    k = as_level(k, "truncation level")
    as_nonnegative(lam, "coupling lam", positive=True)
    return BoundConstants(
        gamma=0.5 * (lam * k + abs(alpha - beta) ** 2),
        qL=math.sqrt(lam * (k + 1)) * abs(beta),
        qa=abs(beta) * math.sqrt(lam * k),
        qe=abs(alpha) * math.sqrt(lam * (k + 1)) + abs(beta) * math.sqrt(lam * (k + 2)),
        k=k,
    )


def atom_cavity_constants(k: int, alpha: complex, beta: complex,
                          lam: float, chi: float) -> BoundConstants:
    """Rates for the atom-cavity model truncated at field level k."""
    k = as_level(k, "truncation level")
    as_nonnegative(lam, "coupling lam", positive=True)
    as_nonnegative(chi, "coupling chi")
    rl = math.sqrt(lam)
    return BoundConstants(
        gamma=0.5 * (lam * k + abs(alpha - beta) ** 2),
        qL=math.sqrt(k + 1) * (abs(beta) * rl + chi),
        qa=math.sqrt(k) * (chi + abs(beta) * rl),
        qe=math.sqrt(k + 1) * (chi + abs(alpha) * rl)
        + math.sqrt(k + 2) * (chi + abs(beta) * rl),
        k=k,
    )


def constants_for(model: SlhModel, alpha: complex, beta: complex) -> BoundConstants:
    """Dispatch rate constants from a built-in model's parameters."""
    family = model.params.get("family")
    if family == "kerr":
        return kerr_constants(model.params["k"], alpha, beta, model.params["lam"])
    if family == "atom_cavity":
        return atom_cavity_constants(
            model.params["k"], alpha, beta,
            model.params["lam"], model.params["chi"],
        )
    raise UnsupportedModelError(
        "no built-in rate constants for this model; supply BoundConstants"
    )


def interval_sum(c: BoundConstants, partition, r: int, s: int) -> float:
    """Sum of z_bound over a partition, in one z_bound call.

    The partition obeys SimpleFunction's breakpoint rule: 1-d with at least
    two breakpoints, the first 0, strictly increasing and finite. c's rates
    are shared scalars (or one-entry columns) or per-interval columns.
    Anything else raises PartitionError.
    """
    partition = np.asarray(partition, dtype=float)
    if not (partition.ndim == 1 and partition.size >= 2 and partition[0] == 0.0
            and np.all(np.diff(partition) > 0) and math.isfinite(partition[-1])):
        raise PartitionError(
            f"need a partition of >= 2 finite breakpoints from 0, strictly "
            f"increasing, got {partition}")
    n_consts = max(np.size(v) for v in (c.gamma, c.qL, c.qa, c.qe))
    if n_consts not in (1, partition.size - 1):
        raise PartitionError(
            f"{partition.size - 1} intervals but {n_consts} constant sets"
        )
    zs = z_bound(c, r, s, np.diff(partition))
    with np.errstate(over="ignore"):
        z_sum = float(np.sum(zs))
    if not math.isfinite(z_sum):
        raise NumericError(f"interval z sum is not finite ({z_sum})")
    return z_sum


def coherent_mismatch(f: SimpleFunction, f_prime: SimpleFunction) -> float:
    """|| |f> - |f'> || between normalized coherent states."""
    log_ov = f.inner(f_prime) - 0.5 * f.norm_sq() - 0.5 * f_prime.norm_sq()
    val = 2.0 - 2.0 * np.exp(log_ov).real
    return math.sqrt(max(val, 0.0))


@dataclass
class CertificateReport:
    """Assembled state-error certificate with re-checkable parts.

    bound = sqrt(4 (mismatch + residual)^2 + 2 z_sum) is computed here, where
    z_sum already carries the per-component weights ||psi'_j||; a z sum or
    bound that is not finite raises NumericError. Two unit vectors are at
    most 2 apart, so a bound >= 2 is vacuous. For level-scaling
    certificates, k_scaling holds the 2 z_sum total; it is None here.
    """

    k: int
    r: int
    s: int
    t: float
    z_sum: float
    residual: float
    mismatch: float
    bound: float = field(init=False)
    k_scaling: float | None = None
    z_terms: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    partition: list = field(default_factory=list)
    psi_desc: str = ""

    def __post_init__(self):
        self.bound = self.recombined_bound()
        if not (math.isfinite(self.z_sum) and math.isfinite(self.bound)):
            raise NumericError(
                f"certificate is not finite (z_sum={self.z_sum}, bound={self.bound})"
            )

    def recombined_bound(self) -> float:
        return math.sqrt(
            4.0 * (self.mismatch + self.residual) ** 2 + 2.0 * self.z_sum
        )

    def to_row(self) -> dict:
        row = {
            "k": self.k,
            "r": self.r,
            "s": self.s,
            "t": self.t,
            "z_sum": self.z_sum,
            "residual": self.residual,
            "mismatch": self.mismatch,
            "bound": self.bound,
        }
        if self.k_scaling is not None:
            row["k_scaling"] = self.k_scaling
        return row

    def to_json(self) -> dict:
        data = self.to_row()
        data.update(
            z_terms=self.z_terms,
            weights=self.weights,
            partition=self.partition,
            psi_desc=self.psi_desc,
            vacuous=self.bound >= 2.0,
        )
        return data


def certifier(model: SlhModel, psi, psi_prime: ApproxState, f_prime: SimpleFunction,
              term_rates):
    """Certificate maker for one approximant, shared by both routes.

    model is the computable propagator's model. The mismatch, the residual,
    each term's common partition (fr, gr) with f_prime, its rates
    term_rates(fr, gr), and the weights ||u_j|| exp(||g_j||^2 / 2) are
    computed here once. The returned certify(z_of, *, k, r=0, s=0) takes the
    per-interval errors z_of(rates, durations) of every term and builds the
    CertificateReport, with z_sum = sum_j w_j sum_i z_ij accumulated in term
    order; its partition is the first term's.
    """
    u, f = psi
    mismatch = coherent_mismatch(f, f_prime)
    residual = cost(model, (u, f_prime), psi_prime)
    refined = [refine_common(f_prime, gj) for _, gj in psi_prime.terms]
    terms = [(term_rates(fr, gr), fr.durations()) for fr, gr in refined]
    weights = [float(np.linalg.norm(uj)) * exp_norm(gj) for uj, gj in psi_prime.terms]
    partition = [float(b) for b in refined[0][0].breakpoints]

    def certify(z_of, *, k: int, r: int = 0, s: int = 0) -> CertificateReport:
        z_terms = [z_of(rates, dts).tolist() for rates, dts in terms]
        z_sum = 0.0
        for w, zs in zip(weights, z_terms, strict=True):
            z_sum += w * sum(zs)
        return CertificateReport(
            k=k,
            r=r,
            s=s,
            t=f_prime.t_final,
            z_sum=z_sum,
            residual=residual,
            mismatch=mismatch,
            z_terms=z_terms,
            weights=list(weights),
            partition=list(partition),
            psi_desc=psi_prime.label or f"{psi_prime.n_terms}-term approximant",
        )

    return certify


def theorem_bound(model: SlhModel, psi, psi_prime: ApproxState,
                  f_prime: SimpleFunction, r: int, s: int) -> CertificateReport:
    """Assemble the full state-error certificate.

    psi is the pair (u, f) with ||u|| = 1; the residual is computed against
    the truncated propagator through interval semigroups. The rate constants
    take one channel's amplitudes, so a model with more than one channel
    raises UnsupportedModelError; a z sum or bound that is not finite raises
    NumericError.
    """
    u, f = psi
    u = np.asarray(u, dtype=complex)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise NormalizationError("reference system vector must be normalized")
    if model.m > 1:
        raise UnsupportedModelError(
            f"the rate constants take one channel's amplitudes; this model has "
            f"{model.m} channels"
        )
    certify = certifier(
        model, (u, f), psi_prime, f_prime,
        lambda fr, gr: constants_for(model, fr.values[:, 0], gr.values[:, 0]),
    )
    return certify(lambda c, dts: z_bound(c, r, s, dts),
                   k=model.params.get("k", model.dim - 1), r=r, s=s)


# ---------------------------------------------------------------------------
# Kerr benchmark scenario
# ---------------------------------------------------------------------------

# The paper's Kerr cavity: coupling lam, detuning delta and Kerr strength
# chi = -delta / 60, driven at KERR_ALPHA up to KERR_T_FINAL and certified at
# the cutoffs KERR_KS. Both the search and the table rows default to them.
KERR_LAM, KERR_DELTA = 25.0, 50.0
KERR_CHI = -KERR_DELTA / 60.0
KERR_ALPHA, KERR_T_FINAL = 0.1, 5.0
KERR_KS = (19, 29, 39, 49, 59, 69, 79, 89, 99)

# Reference minimizer for the Kerr benchmark (coefficients of *normalized*
# coherent components; the loader rescales them to raw exponential-vector
# coefficients).
_KERR_REF_U = np.array([0.9999, -(0.0024 - 0.0094j), -0.0001], dtype=complex)
_KERR_REF_G = ([0.0, 0.5, 5.0], [[0.0866 + 0.0462j], [0.0882 + 0.0471j]])


def kerr_reference_state(dim: int) -> ApproxState:
    """Bundled reference minimizer for the Kerr benchmark, padded to dim, a
    count (errors.as_level) of at least 3."""
    dim = as_level(dim, "dimension")
    if dim < _KERR_REF_U.size:
        raise InvalidParameterError(f"need dim >= {_KERR_REF_U.size}")
    g = SimpleFunction(*_KERR_REF_G)
    u = np.zeros(dim, dtype=complex)
    u[: _KERR_REF_U.size] = _KERR_REF_U / exp_norm(g)
    return ApproxState([(u, g)], label="kerr reference minimizer")


def kerr_search(k: int = KERR_KS[0], *, alpha: complex = KERR_ALPHA,
                t_final: float = KERR_T_FINAL, seed: int = 0) -> OptimizeResult:
    """Cold-start joint search for the Kerr benchmark approximant at level k."""
    k = as_level(k, "truncation level")
    model = kerr_cavity(KERR_LAM, KERR_DELTA, KERR_CHI, k)
    f = SimpleFunction.constant([alpha], t_final)
    template = SimpleFunction([0.0, 0.1 * t_final, t_final], [[alpha], [alpha]])
    u0 = basis_state(k + 1, 0).astype(complex)
    init = ApproxState([(u0, template)], label="kerr optimized minimizer")
    schedule = OptimizeSchedule(seed=seed, u_support=3)
    return optimize(model, (u0, f), init, schedule)


def kerr_table_row(k: int, *, alpha: complex = KERR_ALPHA,
                   t_final: float = KERR_T_FINAL, n_intervals: int = 10,
                   r: int = 2, s: int = 2,
                   state: ApproxState | None = None) -> CertificateReport:
    """One Kerr benchmark certificate at truncation level k."""
    k = as_level(k, "truncation level")
    n_intervals = as_level(n_intervals, "number of intervals")
    model = kerr_cavity(KERR_LAM, KERR_DELTA, KERR_CHI, k)
    breakpoints = np.linspace(0.0, t_final, n_intervals + 1)
    f = SimpleFunction(breakpoints, np.full((n_intervals, 1), alpha, dtype=complex))
    u = basis_state(k + 1, 0)
    if state is None:
        state = kerr_reference_state(k + 1)
    else:
        state = _padded(state, k + 1)
    return theorem_bound(model, (u, f), state, f, r, s)


def _padded(state: ApproxState, dim: int) -> ApproxState:
    terms = []
    for u, g in state.terms:
        if u.size > dim and np.any(u[dim:] != 0):
            raise InvalidParameterError("state has weight beyond the model space")
        v = np.zeros(dim, dtype=complex)
        v[: min(dim, u.size)] = u[:dim]
        terms.append((v, g))
    return ApproxState(terms, label=state.label)


def kerr_certificate_table(k_list, pool_map=None, **kwargs) -> list[CertificateReport]:
    """Benchmark certificates for a sweep of truncation levels.

    pool_map, if given, is an order-preserving map used to evaluate rows
    (e.g. a thread pool's map); rows are independent.
    """
    mapper = pool_map or (lambda fn, xs: [fn(x) for x in xs])
    return list(mapper(lambda k: kerr_table_row(k, **kwargs), list(k_list)))
