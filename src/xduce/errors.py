"""Exception types shared across the package.

The command line front end maps these onto its exit-code contract through
one table, ``cli._EXIT_CODES``, so the class a failure is raised under is
part of the public behaviour.
"""

__all__ = ["DomainError", "NoCriticalPointError", "UndriveablePumpError", "ModelRegimeError",
           "UsageError", "BracketingError", "InstabilityError", "ConfigError"]


class DomainError(ValueError):
    """An input is outside the physical domain of an operation."""


class NoCriticalPointError(DomainError):
    """Critical coupling is unreachable (zero electro-optic coupling)."""


class UndriveablePumpError(DomainError):
    """The pump mode has no external coupling, so no power reaches it."""


class ModelRegimeError(DomainError):
    """Parameters left the regime the statistical model is valid in."""


class UsageError(ValueError):
    """An operation was called in a way its contract does not support."""


class BracketingError(ValueError):
    """An optimization bracket does not contain the optimum."""


class InstabilityError(RuntimeError):
    """Blue-detuned steady state does not exist at or beyond threshold."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""
