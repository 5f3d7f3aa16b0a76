"""Dense complex-matrix algebra over truncated Hilbert spaces.

Operators are plain ``numpy.ndarray`` matrices with complex entries. Tensor
factors follow the left-factor-slow convention: the composite basis index of
``(i_atom, n_fock)`` is ``i_atom * dim_fock + n_fock``, which is exactly what
``numpy.kron`` produces when the atomic factor is the left argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDimensionError, InvalidIndexError, NumericError

__all__ = [
    "annihilation",
    "creation",
    "number",
    "tensor",
    "adjoint",
    "matexp",
    "opnorm",
    "basis_state",
]


def annihilation(dim: int) -> np.ndarray:
    """Truncated ladder-lowering operator: entry (n-1, n) = sqrt(n)."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def creation(dim: int) -> np.ndarray:
    """Adjoint of :func:`annihilation`; the top rung is annihilated."""
    return adjoint(annihilation(dim))


def number(dim: int) -> np.ndarray:
    """Photon-number operator, defined as creation @ annihilation after
    truncation so the top diagonal entry is ``dim - 1``."""
    return creation(dim) @ annihilation(dim)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor slow (atomic factor first)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=complex).conj().T


# Largest 1-norm for which the degree-13 Pade approximant of exp is accurate
# to double precision (Higham 2005).
THETA13 = 5.371920351148152
# Relative size below which matexp zeroes a real or imaginary part: about
# 1.5e-154, the square root of the smallest normal double.
FLUSH_RATIO = float(np.sqrt(np.finfo(float).tiny))


def _flush(r: np.ndarray) -> np.ndarray:
    """Zero, in place, every real or imaginary part below FLUSH_RATIO times
    the largest one."""
    parts = r.view(float)
    mag = np.abs(parts)
    parts[mag < FLUSH_RATIO * mag.max(initial=0.0)] = 0.0
    return r


def matexp(g: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{t g} via scaling-and-squaring with the degree-13 Pade approximant.

    With A = t g, s = max(0, ceil(log2(||A||_1 / THETA13))) squarings follow
    scipy's exponential of A / 2^s (Higham 2005). After that exponential and
    after each squaring, every real or imaginary part below FLUSH_RATIO
    (about 1.5e-154) times the largest one is set to zero. Strongly damped
    generators otherwise fill the squarings with subnormal numbers, on which
    floating-point arithmetic is many times slower. When the largest part is
    near 1, as for contraction semigroups, the product of two kept parts is
    never subnormal. Each flush moves R by less than sqrt(2) d FLUSH_RATIO
    ||R||_2 in spectral norm (d the dimension), more than 1e130 times below
    rounding; the threshold is relative, so an exponential that is tiny
    everywhere keeps all its entries.

    Accurate to ~1e-12 relative in spectral norm for ||t g|| up to ~1e4.
    A g that is not a square matrix raises InvalidDimensionError, a
    non-finite t or entry NumericError.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidDimensionError(f"matrix must be square, got shape {g.shape}")
    if not np.isfinite(t):
        raise NumericError("time must be finite")
    if not np.all(np.isfinite(g)):
        raise NumericError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        a = g * t
        norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise NumericError("matrix 1-norm overflows")
    s = math.ceil(math.log2(norm / THETA13)) if norm > THETA13 else 0
    import scipy.linalg  # loaded by the first exponential, not by import

    r = _flush(scipy.linalg.expm(a * 2.0**-s))
    for _ in range(s):
        r = _flush(r @ r)
    return r


def opnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def basis_state(dim: int, n: int) -> np.ndarray:
    """Unit vector |n> in a dim-dimensional space."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if n < 0 or n >= dim:
        raise InvalidIndexError(f"basis index {n} out of range [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v
