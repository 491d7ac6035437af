"""Exception types shared across the package."""


class HccmError(Exception):
    """Base class for all package-specific errors."""


class UnphysicalStateError(HccmError, ValueError):
    """A requested Gaussian state violates the uncertainty relation."""


class PreconditionError(HccmError, ValueError):
    """The splitter or the data cannot support the requested estimate or test."""


class DegenerateSplitterError(PreconditionError):
    """Beam splitter coefficients make the coefficient algebra singular."""


class AnomalousTermInaccessibleError(PreconditionError):
    """The splitter is balanced, so the mixed field-intensity moment cancels."""


class InsufficientDataError(PreconditionError):
    """Too few samples or grid points for the requested estimator."""


class DegenerateDesignError(PreconditionError):
    """Regression design matrix is (numerically) rank deficient."""


class ConfigError(HccmError, ValueError):
    """Invalid or unparsable experiment configuration."""


class DataError(HccmError, ValueError):
    """Record files are missing, malformed, or incomplete."""
