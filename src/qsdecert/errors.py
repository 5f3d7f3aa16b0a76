"""Exception hierarchy for qsdecert.

Every failure mode raised by the library derives from :class:`QsdeCertError`
so callers can catch library errors without masking programming errors.
"""

import math


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


class DegenerateRateError(QsdeCertError):
    """The decay rate entering a bound was zero or negative (division by it)."""


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


def as_level(value, what: str) -> int:
    """A level, order or scaling parameter `what` as an int: value must be a
    finite integer >= 1 such as 19, np.int64(19) or 19.0."""
    try:
        if value >= 1 and math.isfinite(value) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParameterError(f"{what} must be a finite integer >= 1, got {value!r}")
