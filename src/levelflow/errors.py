"""Exception types shared across the package."""


class LevelFlowError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LevelFlowError, ValueError):
    """Invalid parameters, or evaluation outside a chart's domain."""


class SingularPointError(LevelFlowError, ValueError):
    """Evaluation requested within 1e-9 of a declared singular point."""


class CriticalPointError(LevelFlowError, RuntimeError):
    """An operation hit a point where the gradient is (numerically) zero."""


class TopologyError(LevelFlowError, RuntimeError):
    """A level curve is open: it leaves the chart instead of closing up, or
    it is a level of a non-radial field without a level map."""


class NormalizationError(LevelFlowError, ValueError):
    """A conformal factor does not satisfy the required normalisation."""


class PreconditionError(LevelFlowError, ValueError):
    """A sampled mathematical precondition (sign/bound) is violated."""


class SolverError(LevelFlowError, RuntimeError):
    """A numerical solver failed to converge; details in the message."""


class ConfigError(LevelFlowError, ValueError):
    """A scenario configuration failed to parse or validate."""
