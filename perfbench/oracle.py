"""Independent recomputations that the workload checks compare against.

Nothing here calls into qsdecert: the residual is rebuilt from a model's
(S, L, H) with dense scipy.linalg.expm over merged constant pieces, and the
interval rate functional is evaluated in closed form, vectorised over
intervals. A piecewise-constant amplitude is a pair (breakpoints, values)
with values of shape (n_intervals, m).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# Breakpoints closer than this are one point (the program merges at the same
# distance, so both sides see the same partition).
MERGE_TOL = 1e-12


def _dag(a):
    return a.conj().T


def generator_matrix(S, L, H, alpha, beta):
    """G(alpha, beta) = sum_ij conj(a_i) S_ji^* (b_j - L_j) + sum_j b_j L_j^*
    + iH - (1/2) sum_j L_j^* L_j - (|a|^2 + |b|^2)/2 I."""
    dim = H.shape[0]
    eye = np.eye(dim, dtype=complex)
    G = 1j * H - 0.5 * (np.vdot(alpha, alpha).real + np.vdot(beta, beta).real) * eye
    for j, Lj in enumerate(L):
        G = G - 0.5 * (_dag(Lj) @ Lj) + beta[j] * _dag(Lj)
        for i in range(len(L)):
            G = G + np.conj(alpha[i]) * (_dag(S[j][i]) @ (beta[j] * eye - Lj))
    return G


def common_partition(bf, bg):
    """Union of two partitions, with points closer than MERGE_TOL taken as one."""
    merged = np.union1d(bf, bg)
    points = [merged[0]]
    for t in merged[1:]:
        if t - points[-1] > MERGE_TOL:
            points.append(t)
    points[-1] = min(bf[-1], bg[-1])
    return np.asarray(points)


def values_on(f, partition):
    """Values of a piecewise-constant f on each interval of a finer partition."""
    bp, vals = f
    mids = 0.5 * (partition[:-1] + partition[1:])
    return vals[np.searchsorted(bp, mids, side="right") - 1]


def pieces(f, g):
    """Maximal intervals on which both f and g are constant: (dt, f_val, g_val)."""
    points = common_partition(f[0], g[0])
    out = []
    for lo, hi, a, b in zip(points[:-1], points[1:],
                            values_on(f, points), values_on(g, points)):
        if out and np.array_equal(out[-1][1], a) and np.array_equal(out[-1][2], b):
            out[-1][0] += hi - lo
        else:
            out.append([hi - lo, a, b])
    return out


def l2_inner(f, g):
    """Integral of <f(s), g(s)>, conjugate-linear in f."""
    return sum(dt * np.vdot(a, b) for dt, a, b in pieces(f, g))


def residual(S, L, H, u, f, terms):
    """|| u (x) |f> - sum_j u_j (x) e(g_j) || with |f> normalised and the
    cross terms through the interaction-picture semigroup chain."""
    u = np.asarray(u, dtype=complex)
    sq = 1.0
    for uj, gj in terms:
        row = u.conj()
        for dt, a, b in pieces(f, gj):
            row = row @ scipy.linalg.expm(dt * generator_matrix(S, L, H, a, b))
        weight = math.exp(0.5 * l2_inner(gj, gj).real)
        sq -= 2.0 * weight * (row @ uj).real
    for ui, gi in terms:
        for uk, gk in terms:
            sq += (np.vdot(ui, uk) * np.exp(l2_inner(gi, gk))).real
    return math.sqrt(max(sq, 0.0))


def state_terms(state_json):
    """Terms of an ApproxState as printed by `qsdecert optimize`."""
    terms = []
    for term in state_json["terms"]:
        u = np.array([complex(re, im) for re, im in term["u"]])
        bp = np.asarray(term["g"]["breakpoints"], dtype=float)
        vals = np.array([[complex(re, im) for re, im in row]
                         for row in term["g"]["values"]])
        terms.append((u, (bp, vals)))
    return terms


def c_coefficients(n):
    c = [1.0]
    for j in range(1, n):
        c.append(math.sqrt(c[-1] * 2.0**j / (2.0**j - 1.0)))
    return c


def rate_terms(gamma, qL, qa, qe, r, s, t):
    """(z, M) per interval: the rate functional and its nondecreasing part.

    Arrays over intervals. M is the linear term plus both saturating single
    sums; z adds the difference-of-exponentials double sum and the diagonal
    t e^{-a_i t} sum. The difference e^{-a_i t} - e^{-a_j t} is formed as
    +-e^{-a t} (1 - e^{-|a_j - a_i| t}) with a the smaller rate, so short
    intervals keep their digits and long ones do not overflow.
    """
    gamma, qL, qa, qe, t = (np.asarray(x, dtype=float) for x in (gamma, qL, qa, qe, t))
    E = qe / gamma
    A = qa / gamma
    c = c_coefficients(max(r, s))
    lead_e = E ** (1.0 - 2.0**-r)
    lead_a = A ** (1.0 - 2.0**-s)
    mono = t * lead_e * lead_a
    for i in range(r):
        mono = mono + (2**i * c[i] / gamma) * -np.expm1(-(2.0**-i) * gamma * t) \
            * E ** (1.0 - 2.0**-i) * lead_a
    for i in range(s):
        mono = mono + (2**i * c[i] / gamma) * -np.expm1(-(2.0**-i) * gamma * t) \
            * A ** (1.0 - 2.0**-i) * lead_e
    trans = np.zeros_like(mono)
    for i in range(r):
        for j in range(s):
            if i == j:
                continue
            ai, aj = 2.0**-i * gamma, 2.0**-j * gamma
            if i > j:  # a_i < a_j
                diff = np.exp(-ai * t) * -np.expm1(-(aj - ai) * t)
            else:
                diff = np.exp(-aj * t) * np.expm1(-(ai - aj) * t)
            trans = trans + c[i] * c[j] * 2.0 ** (i + j) / ((2**i - 2**j) * gamma) \
                * diff * E ** (1.0 - 2.0**-i) * A ** (1.0 - 2.0**-j)
    for i in range(min(r, s)):
        trans = trans + t * c[i] ** 2 * np.exp(-(2.0**-i) * gamma * t) \
            * (E * A) ** (1.0 - 2.0**-i)
    return qL * (mono + trans), qL * mono


def kerr_rates(k, lam, alpha, beta):
    """Kerr-cavity rates at level k, arrays over intervals with drive alpha
    and approximant amplitude beta: gamma = (lam k + |alpha - beta|^2) / 2,
    qL = sqrt(lam (k+1)) |beta|, qa = sqrt(lam k) |beta| and
    qe = sqrt(lam (k+1)) |alpha| + sqrt(lam (k+2)) |beta|."""
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    gamma = 0.5 * (lam * k + np.abs(alpha - beta) ** 2)
    qL = math.sqrt(lam * (k + 1)) * np.abs(beta)
    qa = math.sqrt(lam * k) * np.abs(beta)
    qe = math.sqrt(lam * (k + 1)) * np.abs(alpha) + math.sqrt(lam * (k + 2)) * np.abs(beta)
    return gamma, qL, qa, qe


def recombined(row):
    return math.sqrt(4.0 * (row["mismatch"] + row["residual"]) ** 2 + 2.0 * row["z_sum"])
