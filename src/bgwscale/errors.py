"""Exception types shared across the package, and the two argument-domain checks."""

import math


class ModelError(ValueError):
    """A model specification violates a structural requirement."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoImmigrationError(DomainError):
    """The operation needs an immigration/culling mechanism but mu = 0 / law is none."""


class UnsupportedRegimeError(RuntimeError):
    """The requested quantity is only defined in a parameter regime that does not hold.

    ``inequality`` names the violated condition (e.g. ``"phi_q <= varphi"``) so
    callers can surface a precise refusal instead of a silent wrong number.
    """

    def __init__(self, inequality: str, detail: str = ""):
        self.inequality = inequality
        msg = f"unsupported regime: {inequality} violated"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PreconditionError(RuntimeError):
    """A documented precondition of an operation does not hold."""


class QuadratureError(RuntimeError):
    """A quadrature failed to certify the requested tolerance.

    Carries the last estimate and the achieved error so callers can decide
    whether to use the value anyway.
    """

    def __init__(self, message: str, estimate: float, achieved_error: float):
        self.estimate = estimate
        self.achieved_error = achieved_error
        super().__init__(f"{message} (last estimate {estimate!r}, achieved error {achieved_error:.3e})")


class AdmissibilityError(RuntimeError):
    """A control policy let the population reach the protected floor."""


def check_rate(value, name: str, positive: bool = False) -> float:
    """A finite rate >= 0 (> 0 with ``positive``) as a float; else DomainError."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise DomainError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return float(value)


def check_level(value, name: str = "x", low: int = 0) -> int:
    """A finite integer level >= ``low`` as an int; else DomainError."""
    if not (math.isfinite(value) and value == int(value) and value >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)
