"""Exception types: one per CLI exit code (2, 3, 4), and the Gaussian-state oracle's."""


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration (exit code 2)."""


class DataError(ValueError):
    """Record or analysis files are missing, malformed, or incomplete (exit code 3)."""


class PreconditionError(ValueError):
    """The splitter or the data cannot support the requested estimate or test (exit code 4)."""


class UnphysicalStateError(ValueError):
    """A requested Gaussian state violates the uncertainty relation."""
