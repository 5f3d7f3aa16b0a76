"""Input-output model triples (scattering, coupling, Hamiltonian).

An :class:`SlhModel` packages the scattering block matrix S (m x m array of
operators), the coupling vector L (m operators) and the Hamiltonian H on a
finite-dimensional space, together with its tensor-factor layout. Two built-in
families are provided: a Kerr-nonlinear optical cavity and a three-level atom
coupled to a cavity mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedModelError,
)
from .operators import adjoint, annihilation, creation, opnorm, tensor

__all__ = [
    "SlhModel",
    "ModelFamily",
    "kerr_cavity",
    "atom_cavity",
    "truncate",
    "kerr_family",
    "atom_cavity_family",
    "model_to_json",
    "model_from_json",
]

SELF_ADJOINT_TOL = 1e-12
UNITARY_TOL = 1e-12


class SlhModel:
    """A finite-dimensional input-output model.

    Parameters
    ----------
    label : str
        Human-readable identifier; carried into reports.
    S : sequence of sequences of arrays
        m x m block scattering matrix; entry S[j][i] is a dim x dim operator.
    L : sequence of arrays
        m coupling operators.
    H : array
        Self-adjoint Hamiltonian.
    factor_dims : tuple of int
        Tensor-factor dimensions, slow factor first; product equals dim.
    params : dict
        Construction parameters (for provenance and family dispatch).
    """

    def __init__(self, label, S, L, H, factor_dims=None, params=None):
        H = np.asarray(H, dtype=complex)
        dim = H.shape[0]
        if H.shape != (dim, dim):
            raise InvalidDimensionError("H must be square")
        L = [np.asarray(Lj, dtype=complex) for Lj in L]
        m = len(L)
        S = [[np.asarray(S[j][i], dtype=complex) for i in range(m)] for j in range(m)]
        for Lj in L:
            if Lj.shape != (dim, dim):
                raise InvalidDimensionError("coupling operator shape mismatch")
        for row in S:
            for Sji in row:
                if Sji.shape != (dim, dim):
                    raise InvalidDimensionError("scattering block shape mismatch")
        for op in (H, *L, *(Sji for row in S for Sji in row)):
            if not np.isfinite(op).all():
                raise InvalidParameterError("model operators must be finite")
        if factor_dims is None:
            factor_dims = (dim,)
        factor_dims = tuple(int(d) for d in factor_dims)
        if int(np.prod(factor_dims)) != dim:
            raise InvalidDimensionError(
                f"product of factor_dims {factor_dims} != dim {dim}"
            )

        # An exactly zero defect passes without the SVDs of opnorm.
        skew = H - adjoint(H)
        if skew.any() and opnorm(skew) > SELF_ADJOINT_TOL * max(1.0, opnorm(H)):
            raise InvalidParameterError("Hamiltonian is not self-adjoint")
        # Block unitarity of S: sum_l S[j][l] S[i][l]^dag == delta_ji I.
        eye = np.eye(dim, dtype=complex)
        for j in range(m):
            for i in range(m):
                acc = sum(S[j][l] @ adjoint(S[i][l]) for l in range(m))
                defect = acc - eye if i == j else acc
                if defect.any() and opnorm(defect) > UNITARY_TOL * max(1.0, opnorm(acc)):
                    raise InvalidParameterError("scattering matrix is not unitary")

        self.label = str(label)
        self.m = m
        self.dim = dim
        self.factor_dims = factor_dims
        self.S = tuple(tuple(row) for row in S)
        self.L = tuple(L)
        self.H = H
        self.params = dict(params or {})
        for row in self.S:
            for blk in row:
                blk.setflags(write=False)
        for Lj in self.L:
            Lj.setflags(write=False)
        self.H.setflags(write=False)

    def scattering_is_identity(self, tol: float = 1e-14) -> bool:
        eye = np.eye(self.dim, dtype=complex)
        for j in range(self.m):
            for i in range(self.m):
                target = eye if i == j else 0.0 * eye
                if opnorm(self.S[j][i] - target) > tol:
                    return False
        return True

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"SlhModel({self.label!r}, m={self.m}, dim={self.dim})"


@dataclass(frozen=True)
class ModelFamily:
    """A truncation-level-indexed family of models."""

    label: str
    builder: Callable[[int], SlhModel]
    params: dict = field(default_factory=dict)

    def __call__(self, k: int) -> SlhModel:
        return self.builder(k)


def kerr_cavity(lam: float, delta: float, chi: float, k: int) -> SlhModel:
    """Kerr-nonlinear optical cavity truncated at Fock level k.

    Single channel; L = sqrt(lam) a and H diagonal with
    H|n> = (delta*n + chi*n*(n-1)) |n> on dimension k+1.
    """
    if lam <= 0:
        raise InvalidParameterError(f"field coupling rate must be positive, got {lam}")
    if k < 1:
        raise InvalidParameterError(f"truncation level must be >= 1, got {k}")
    dim = k + 1
    a = annihilation(dim)
    n = np.arange(dim, dtype=float)
    H = np.diag(delta * n + chi * n * (n - 1)).astype(complex)
    L = [np.sqrt(lam) * a]
    S = [[np.eye(dim, dtype=complex)]]
    return SlhModel(
        label=f"kerr_cavity(k={k})",
        S=S,
        L=L,
        H=H,
        factor_dims=(dim,),
        params={"family": "kerr", "lam": lam, "delta": delta, "chi": chi, "k": k},
    )


def atom_cavity(lam: float, chi: float, k: int) -> SlhModel:
    """Three-level atom coupled to a cavity mode, Fock level k.

    Atomic basis order (|e>, |+>, |->); composite basis (atom, fock) with the
    atomic factor slow. H = i*chi*(sp (x) a - sm (x) a*) with sp = |e><+|,
    and L = I (x) sqrt(lam) a.
    """
    if lam <= 0 or chi <= 0:
        raise InvalidParameterError("rates must be positive")
    if k < 1:
        raise InvalidParameterError(f"truncation level must be >= 1, got {k}")
    df = k + 1
    a = annihilation(df)
    sp = np.zeros((3, 3), dtype=complex)
    sp[0, 1] = 1.0  # |e><+|
    sm = adjoint(sp)
    H = 1j * chi * (tensor(sp, a) - tensor(sm, adjoint(a)))
    L = [tensor(np.eye(3), np.sqrt(lam) * a)]
    dim = 3 * df
    S = [[np.eye(dim, dtype=complex)]]
    return SlhModel(
        label=f"atom_cavity(k={k})",
        S=S,
        L=L,
        H=H,
        factor_dims=(3, df),
        params={"family": "atom_cavity", "lam": lam, "chi": chi, "k": k},
    )


def _fock_embedding(factor_dims, k_new: int) -> np.ndarray:
    """Isometry from the k_new-truncated space into the source space.

    Only the trailing (oscillator) factor is truncated; leading factors are
    untouched.
    """
    df = factor_dims[-1]
    lead = int(np.prod(factor_dims[:-1])) if len(factor_dims) > 1 else 1
    e = np.zeros((df, k_new + 1), dtype=complex)
    for n in range(k_new + 1):
        e[n, n] = 1.0
    return np.kron(np.eye(lead, dtype=complex), e)


def truncate(model: SlhModel, k: int) -> SlhModel:
    """Compress a trivial-scattering model onto the level-k Fock subspace."""
    if not model.scattering_is_identity():
        raise UnsupportedModelError(
            "truncation is only defined for models with identity scattering"
        )
    k_src = model.factor_dims[-1] - 1
    if k < 1 or k >= k_src:
        raise InvalidParameterError(
            f"target level must satisfy 1 <= k < {k_src}, got {k}"
        )
    E = _fock_embedding(model.factor_dims, k)
    Ed = adjoint(E)
    L = [Ed @ Lj @ E for Lj in model.L]
    H = Ed @ model.H @ E
    dim = E.shape[1]
    S = [
        [np.eye(dim, dtype=complex) if i == j else np.zeros((dim, dim), complex)
         for i in range(model.m)]
        for j in range(model.m)
    ]
    factor_dims = model.factor_dims[:-1] + (k + 1,)
    params = dict(model.params)
    params["k"] = k
    return SlhModel(
        label=f"{model.label}|truncated(k={k})",
        S=S,
        L=L,
        H=H,
        factor_dims=factor_dims,
        params=params,
    )


# Each family builds a level once and keeps it for the family's lifetime.
def kerr_family(lam: float, delta: float, chi: float) -> ModelFamily:
    return ModelFamily(
        label="kerr", builder=functools.cache(lambda k: kerr_cavity(lam, delta, chi, k)),
        params={"lam": lam, "delta": delta, "chi": chi},
    )


def atom_cavity_family(lam: float, chi: float) -> ModelFamily:
    return ModelFamily(
        label="atom_cavity", builder=functools.cache(lambda k: atom_cavity(lam, chi, k)),
        params={"lam": lam, "chi": chi},
    )


# ---------------------------------------------------------------------------
# JSON serialization: complex matrices as nested [re, im] pairs.
# ---------------------------------------------------------------------------

def encode_matrix(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _decode_entry(x) -> complex:
    """One [re, im] pair of a JSON matrix or vector."""
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise InvalidParameterError(f"entries must be [re, im] pairs, got {x!r}")
    try:
        return complex(x[0], x[1])
    except TypeError as exc:
        raise InvalidParameterError(f"entries must be numeric pairs, got {x!r}") from exc


def decode_matrix(data) -> np.ndarray:
    a = np.array([[_decode_entry(x) for x in row] for row in data], dtype=complex)
    if not np.isfinite(a).all():
        raise InvalidParameterError("matrix entries must be finite")
    return a


def encode_vector(v: np.ndarray):
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def decode_vector(data) -> np.ndarray:
    return np.array([_decode_entry(x) for x in data], dtype=complex)


def model_to_json(model: SlhModel) -> dict:
    return {
        "label": model.label,
        "m": model.m,
        "dim": model.dim,
        "factor_dims": list(model.factor_dims),
        "S": [[encode_matrix(model.S[j][i]) for i in range(model.m)]
              for j in range(model.m)],
        "L": [encode_matrix(Lj) for Lj in model.L],
        "H": encode_matrix(model.H),
        "params": model.params,
    }


def model_from_json(data: dict) -> SlhModel:
    try:
        m = int(data["m"])
        S = [[decode_matrix(data["S"][j][i]) for i in range(m)] for j in range(m)]
        L = [decode_matrix(Lj) for Lj in data["L"]]
        H = decode_matrix(data["H"])
        dim = int(data["dim"])
        if len(L) != m:
            raise InvalidParameterError(
                f"model JSON declares m = {m} channels but has {len(L)} L entries"
            )
    except KeyError as exc:
        raise InvalidParameterError(f"model JSON lacks the key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed model JSON: {exc}") from exc
    model = SlhModel(
        label=data.get("label", "model"),
        S=S,
        L=L,
        H=H,
        factor_dims=data.get("factor_dims"),
        params=data.get("params", {}),
    )
    if model.dim != dim:
        raise InvalidDimensionError("declared dim does not match operators")
    return model
