"""Certified convergence rates for a two-operator resolvent iteration.

The package runs the inertial resolvent scheme for finding zeros of a
difference of maximally monotone operators, computes its quantitative moduli
(metastability rates, Cauchy moduli, membership levels) in exact arithmetic,
and certifies every implemented inequality empirically on recorded traces.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyGrid,
    FejerQuantError,
    HorizonExceeded,
    InvariantViolation,
    MissingSolutions,
    NegativeExponent,
    NonPositiveParameter,
    ResidualFloor,
    ScheduleError,
    SingularSystem,
    TableRangeError,
    UnknownPreset,
    ZeroInfimum,
)
from .iteration import (
    ParameterSchedule,
    PowerRule,
    ProblemInstance,
    QuantitativeData,
    TableRule,
    Trace,
    gamma_k_check,
    gamma_witness,
    run,
)
from .moduli import (
    DEFAULT_CAP,
    Counterfunction,
    ModulusFn,
    NaturalBound,
    RationalUpper,
    bounded_sub,
    chi,
    delta,
    exp_upper,
    kappa,
    kappa_hat,
    omega,
    phi_liminf,
    psi,
    psi_prime,
    sqrt_upper,
    total_boundedness_P,
    varpi_prime,
    xi_tilde,
)
from .operators import (
    AffinePSD,
    NormalConeBox,
    SubdiffAbsSum,
    ValueSet,
    ZeroOperator,
    evaluate,
    hstar_check,
    minimal_selection,
    resolvent,
    resolvent_identity_residual,
    yosida,
)
from .regularity import (
    GapFunctional,
    GHModuli,
    RegularityModulus,
    eval_gap,
    grid_regularity_oracle,
    theta_generic,
    theta_moudafi,
    validate_regularity_ball,
)
from .verification import (
    Certificate,
    EmpiricalPhi,
    build_empirical_phi,
    certify_metastability,
    check_approx_error,
    check_cauchy_modulus,
    check_liminf_witness,
    check_quasi_fejer,
    check_uniform_closedness,
    find_metastable,
    monotonize_table,
)
from .cli import preset

__version__ = "0.1.0"
