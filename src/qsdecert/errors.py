"""Exception hierarchy for qsdecert, and the input rules of every module.

Every failure mode raised by the library derives from :class:`QsdeCertError`
so callers can catch library errors without masking programming errors.
Whether an input is valid is decided here alone: a count (level, order,
number of intervals) by as_level, a time by as_times or as_nonnegative, a
rate or coupling by as_nonnegative or, for a record's fields, check_rates,
a vector of channel amplitudes (or one drive amplitude) by as_amplitudes,
a random seed by as_seed, and a model's operator blocks by as_operators.
"""

import math

import numpy as np


class QsdeCertError(Exception):
    """Base class for all qsdecert errors."""


class InvalidDimensionError(QsdeCertError):
    """A Hilbert-space dimension was zero, negative, or inconsistent."""


class InvalidIndexError(QsdeCertError):
    """A basis index fell outside the valid range."""


class InvalidParameterError(QsdeCertError):
    """A physical or numerical parameter violated its precondition."""


class UnsupportedModelError(QsdeCertError):
    """The operation does not support this model (e.g. nontrivial scattering)."""


class InvalidAmplitudeError(QsdeCertError):
    """Field amplitude vector has the wrong length or non-finite entries."""


class ModelIntegrityError(QsdeCertError):
    """A generator or propagator violated dissipativity/contraction checks.

    This signals a broken model or a sign error in generator assembly, not a
    tolerance issue.
    """


class PartitionError(QsdeCertError):
    """Piecewise-constant functions disagree on breakpoints or final time."""


class DegenerateRateError(InvalidParameterError):
    """A rate that must be positive (a decay rate a bound divides by, or a
    model's coupling) was zero or negative."""


class NormalizationError(QsdeCertError):
    """A state that must be normalized was not."""


class InvalidApproximantError(QsdeCertError):
    """An approximating superposition was empty or contained a zero term."""


class InsufficientTruncationError(QsdeCertError):
    """An operator composition leaked amplitude into the guard level."""


class StructuralModelError(QsdeCertError):
    """Reduced-model coefficients failed unitarity/self-adjointness checks."""


class InvalidModelError(QsdeCertError):
    """Model construction inputs were singular or ill-conditioned."""


class NumericError(QsdeCertError):
    """A numerical routine received non-finite data or failed to converge."""


class ReferenceUnconvergedWarning(UserWarning):
    """A reference-level computation changed materially when refined."""


_REAL = (int, float, np.integer, np.floating)


def as_level(value, what: str) -> int:
    """A count `what` (a level, order, scaling parameter, or number of
    intervals or blocks) as an int: value must be a finite integer >= 1 such
    as 19, np.int64(19) or 19.0."""
    try:
        if value >= 1 and math.isfinite(value) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParameterError(f"{what} must be a finite integer >= 1, got {value!r}")


def as_seed(value) -> int:
    """A random seed as an int: a Python or numpy integer >= 0, as
    np.random.default_rng takes it."""
    if isinstance(value, (int, np.integer)) and value >= 0:
        return int(value)
    raise InvalidParameterError(f"seed must be an integer >= 0, got {value!r}")


def as_nonnegative(value, what: str, positive: bool = False) -> float:
    """One rate, coupling or time `what` as a float: value must be a real
    scalar (a Python or numpy int or float) that is finite and >= 0, or > 0
    if `positive` (else DegenerateRateError). The check skips numpy's array
    machinery (0.2 us against 1.5 us for a numpy check of one value):
    rate-bounds builds thousands of rate records per round."""
    if not isinstance(value, _REAL):
        raise InvalidParameterError(f"{what} must be a real number, got {value!r}")
    try:
        ok = (value > 0 if positive else value >= 0) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise (DegenerateRateError if positive else InvalidParameterError)(
            f"{what} must be finite and {'>' if positive else '>='} 0, got {value}")
    return float(value)


def _kind(value) -> str:
    """numpy's dtype kind of value ("U" for strings), "O" for a ragged sequence."""
    try:
        return np.asarray(value).dtype.kind
    except ValueError:
        return "O"


def as_times(t) -> np.ndarray:
    """t as a float array (0-d for a scalar) whose every entry is a time
    under as_nonnegative, else InvalidParameterError. Strings, complex
    numbers and ragged sequences are not times."""
    if _kind(t) not in "biuf":
        raise InvalidParameterError(f"time must be a real number or array, got {t!r}")
    t = np.asarray(t, dtype=float)
    bad = t[~(np.isfinite(t) & (t >= 0))]
    if bad.size:
        as_nonnegative(bad[0].item(), "time")
    return t


def check_rates(record, names, positive=None) -> None:
    """The rate rule of a record's fields `names` (BoundConstants, AeConstants):
    each is a real scalar or a 0-d or 1-d real ndarray whose entries obey
    as_nonnegative, > 0 for the field named `positive`; the 1-d ones share
    one length. Lists, other shapes and non-numeric dtypes raise
    InvalidParameterError."""
    lengths = set()
    for name in names:
        v = getattr(record, name)
        strict = name == positive
        if not isinstance(v, np.ndarray):
            as_nonnegative(v, name, strict)
            continue
        if v.ndim > 1 or v.dtype.kind not in "biuf":
            raise InvalidParameterError(f"{name} must be numeric, a real scalar or "
                                        f"1-d array, got {v.ndim}-d {v.dtype} array")
        lengths.update(v.shape)
        bad = v[~(np.isfinite(v) & ((v > 0) if strict else (v >= 0)))]
        if bad.size:
            as_nonnegative(bad[0].item(), name, strict)
    if len(lengths) > 1:
        raise InvalidParameterError(f"rate columns differ in length: {sorted(lengths)}")


def as_amplitudes(value, m: int, what: str) -> np.ndarray:
    """Channel amplitudes `what` as a complex (m,) array: m real or complex
    numbers whose parts are finite, or a bare scalar when m = 1, else
    InvalidAmplitudeError. Strings, ragged and object sequences are rejected
    before conversion; valid input converts as np.asarray(value, complex)."""
    if _kind(value) in "biufc":
        v = np.atleast_1d(np.asarray(value, dtype=complex))
        if v.shape == (m,) and np.isfinite(v).all():
            return v
    raise InvalidAmplitudeError(f"{what} must be {m} finite real or complex "
                                f"number(s), got {value!r}")


def as_operators(blocks, channels, grid):
    """The operator-block rule of every model: blocks holds single operators
    (H; Y, A, ...), channels per-channel lists (L; F and G) and grid an m x m
    nested sequence (S; W), m the length of channels[0]. Every block must be a
    numeric square matrix of one shared dimension and the grid m x m, else
    InvalidDimensionError, and finite, else InvalidParameterError. Returns
    (blocks, channels, grid) as lists of np.array(block, dtype=complex), copies
    that a model may freeze without freezing the caller's arrays."""
    shapes = set()

    def block(op):
        if _kind(op) not in "biufc":
            raise InvalidParameterError("model operators must be finite numbers, got "
                                        f"numpy kind {_kind(op)!r}")
        a = np.array(op, dtype=complex)
        shapes.add(a.shape)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or len(shapes) > 1:
            raise InvalidDimensionError("model operators must be square, of one shape, "
                                        f"got {sorted(shapes)}")
        if not np.isfinite(a).all():
            raise InvalidParameterError("model operators must be finite")
        return a

    blocks = [block(op) for op in blocks]
    channels, grid = ([[block(op) for op in row] for row in seq] for seq in (channels, grid))
    m = len(channels[0])
    if len(grid) != m or any(len(row) != m for row in grid):
        raise InvalidDimensionError(f"scattering blocks must form a {m} x {m} layout")
    return blocks, channels, grid
