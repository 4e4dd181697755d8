"""Exception types shared across the package.

Every error that a caller can meaningfully react to gets its own class;
plain ValueError/TypeError are reserved for programming mistakes.
"""


class FejerQuantError(Exception):
    """Base class for all package errors."""


class DomainError(FejerQuantError):
    """A point lies outside the domain required by an operation."""


class NonPositiveParameter(FejerQuantError):
    """A resolvent or step parameter that must be > 0 is not."""


class SingularSystem(FejerQuantError):
    """A linear system that should be invertible could not be solved."""


class DimensionMismatch(FejerQuantError):
    """Operands live in spaces of different dimension."""


class HorizonExceeded(FejerQuantError):
    """An index beyond the stored schedule horizon was requested."""


class NegativeExponent(FejerQuantError):
    """exp_upper requires a nonnegative exponent."""


class TableRangeError(FejerQuantError):
    """A lookup-table modulus was evaluated outside its declared range."""


class InvariantViolation(FejerQuantError):
    """A declared invariant failed validation against concrete data."""


class ScheduleError(FejerQuantError):
    """A parameter schedule violates its construction constraints."""


class MissingSolutions(FejerQuantError):
    """A check that needs known solutions was run on an instance without any."""


class ResidualFloor(FejerQuantError):
    """Trace residuals never drop below a required threshold.

    Raised by a query of the empirical residual modulus on a trace that moves
    to its last step; carries the precision level k and the start n of the
    search that found no qualifying index, and the least residual from n on.
    """

    def __init__(self, k: int, n: int, floor: float):
        self.k = k
        self.n = n
        self.floor = floor
        super().__init__(
            f"residuals never drop below 1/{k + 1} past index {n} "
            f"(observed floor {floor:.6g})"
        )


class EmptyGrid(FejerQuantError):
    """A grid oracle was asked to scan an empty region."""


class ZeroInfimum(FejerQuantError):
    """No positive regularity value exists at the requested precision."""


class UnknownPreset(FejerQuantError):
    """An unrecognised problem preset name."""


class ConfigError(FejerQuantError):
    """A run configuration is malformed or contains unknown fields."""
