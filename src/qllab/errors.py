"""Exception types shared across the library."""


class QllabError(Exception):
    """Base class for all library errors."""


class InfeasibleDegreeError(QllabError):
    """Requested degree sequence cannot be realized as a simple graph."""


class RetryExhaustedError(QllabError):
    """Randomized graph sampler failed to produce a simple graph."""


class MissingLabelsError(QllabError):
    """Operation requires vertex block labels that are absent."""


class PolicyInfeasibleError(QllabError):
    """Connection policy asks for more edges than the block pair admits."""


class AmbiguousReadoutError(QllabError):
    """Witness projections too small to determine a phase."""


class TooLargeError(QllabError):
    """Input exceeds the size limit of an exact algorithm."""


class NumericalError(QllabError):
    """Numerical routine failed to converge or left its validity domain."""


class ConfigError(QllabError):
    """Malformed experiment configuration."""
