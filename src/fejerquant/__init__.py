"""Certified convergence rates for a two-operator resolvent iteration.

The package runs the inertial resolvent scheme for finding zeros of a
difference of maximally monotone operators, computes its quantitative moduli
(metastability rates, Cauchy moduli, membership levels) in exact arithmetic,
and certifies every implemented inequality empirically on recorded traces.

``import fejerquant`` loads no submodule: each public name is imported from
its module on first access (PEP 562), so a process loads only the layers it
uses.
"""

from importlib import import_module

# the public names of each submodule
_EXPORTS = {
    "errors": """ConfigError DimensionMismatch DomainError EmptyGrid FejerQuantError
        HorizonExceeded InvariantViolation MissingSolutions NegativeExponent
        NonPositiveParameter ResidualFloor ScheduleError SingularSystem
        TableRangeError UnknownPreset ZeroInfimum""",
    "iteration": """ParameterSchedule PowerRule ProblemInstance QuantitativeData
        TableRule Trace gamma_k_check preset run""",
    "moduli": """DEFAULT_CAP Counterfunction ModulusFn NaturalBound bounded_sub chi delta
        exp_upper kappa kappa_hat omega phi_liminf psi psi_prime sqrt_upper
        total_boundedness_P varpi_prime xi_tilde""",
    "operators": """AffinePSD NormalConeBox SubdiffAbsSum ZeroOperator evaluate in_box
        least_norm minimal_selection resolvent resolvent_rows value_rows yosida
        yosida_rows""",
    "regularity": """GapFunctional GHModuli RegularityModulus eval_gap eval_gaps
        grid_regularity_oracle theta_generic theta_moudafi validate_regularity_ball""",
    "verification": """Certificate EmpiricalPhi build_empirical_phi certify_metastability
        check_approx_error check_cauchy_modulus check_quasi_fejer find_metastable
        monotonize_table""",
}
# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
