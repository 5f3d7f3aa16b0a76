"""Rigorous error certificates for finite-dimensional approximations of
input-output open quantum models.

Two approximation routes are covered, each with computable certificates on
the state error of the full unitary dynamics against a finite approximant:

* truncation of an oscillator mode to its lowest k+1 levels, certified by
  per-interval rate functionals (z bounds);
* adiabatic elimination of a strongly damped degree of freedom at scaling
  parameter k, certified by operator-norm rates M1, M2.
"""

from .errors import (
    DegenerateRateError,
    InsufficientTruncationError,
    InvalidAmplitudeError,
    InvalidApproximantError,
    InvalidDimensionError,
    InvalidIndexError,
    InvalidModelError,
    InvalidParameterError,
    ModelIntegrityError,
    NormalizationError,
    NumericError,
    PartitionError,
    QsdeCertError,
    ReferenceUnconvergedWarning,
    StructuralModelError,
    UnsupportedModelError,
)
from .operators import (
    adjoint,
    annihilation,
    basis_state,
    creation,
    matexp,
    number,
    opnorm,
    tensor,
)
from .models import (
    SlhModel,
    atom_cavity,
    kerr_cavity,
    kerr_family,
    model_from_json,
    model_to_json,
    truncate,
)
from .semigroup import SimpleFunction, chain, generator, propagate, refine_common
from .states import (
    ApproxState,
    OptimizeResult,
    OptimizeSchedule,
    approx_norm,
    cost,
    exp_inner,
    exp_norm,
    optimize,
    residual_norm,
)
from .truncation import (
    CSV_HEADER,
    BoundConstants,
    CertificateReport,
    atom_cavity_constants,
    c_sequence,
    certifier,
    coherent_mismatch,
    constants_for,
    interval_sum,
    kerr_certificate_table,
    kerr_constants,
    kerr_reference_state,
    kerr_search,
    kerr_table_row,
    theorem_bound,
    z_bound,
)
from .adiabatic import (
    AeConstants,
    AeModel,
    ae_certificate_table,
    ae_operators,
    ae_semigroup_error,
    ae_theorem_bound,
    atom_cavity_ae,
    limit_coefficients,
    m_constants,
    oscillator_elimination,
)
from .verification import (
    empirical_truncation_error,
    fock_expand_residual,
    ode_propagate,
    run_suite,
)

__version__ = "0.1.0"
