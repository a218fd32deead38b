"""Exception types shared across the package."""


class QdbarError(Exception):
    """Base class for all package errors."""


class ParameterError(QdbarError):
    """A constructor or operation argument violates a documented invariant."""


class WindowResourceError(QdbarError):
    """A truncation window would exceed the configured index cap."""

    def __init__(self, message, needed, cap):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class QuadratureError(QdbarError):
    """Adaptive integration ran out of budget before reaching the tolerance."""

    def __init__(self, message, best_estimate, achieved_error):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


class DivergentIntegralError(QdbarError):
    """An integral the computation needs diverges at one of its endpoints."""


class CapabilityError(QdbarError):
    """An operation needs a capability (e.g. a derivative) the input lacks."""


class InsufficientDataError(QdbarError):
    """Too few usable data points for a fit."""


class ConfigSyntaxError(QdbarError):
    """The run configuration document could not be parsed."""


class ConfigInvalidError(QdbarError):
    """The run configuration parsed but violates a module invariant."""
