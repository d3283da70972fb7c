"""q-exponentials, q^2-Bessel functions, and their asymptotics."""

from .errors import (
    DomainError,
    LimitUnstable,
    NegativeProduct,
    NonConvergence,
    ParameterPole,
    PoleError,
    QfuncError,
)
from .qcalc import (
    LatticePoint,
    QBase,
    SeriesValue,
    basic_hyper,
    lattice_decompose,
    lattice_reconstruct,
    qdiff_apply,
    qgamma,
    qpoch_finite,
    qpoch_infinite,
)
from .qexp import (
    AsymptoticEstimate,
    KindTag,
    LaurentTable,
    classical_limit_check,
    lambda_closed_form,
    lambda_laurent_coeff,
    lambda_laurent_eval,
    lambda_laurent_table,
    lambda_product,
    qexp_asymptotic,
    qexp_eval,
    qexp_functional_residual,
)
from .qbessel import (
    BesselSpec,
    CoeffPair,
    PhiBracket,
    a_nu,
    bessel_asymptotic,
    bessel_combination,
    bessel_diffeq_residual,
    bessel_laurent_coeff,
    bessel_phi_repr,
    bessel_reference,
    bessel_series,
    bessel_type3_repr,
    bessel_value,
    phi_nu,
    type3_asymptotic_bracket,
    type3_coeff,
    wronskian,
    wronskian_closed,
)
from .harness import (
    CheckResult,
    SuiteConfig,
    asymptotic_decay_report,
    run_suite,
)

__version__ = "0.1.0"
