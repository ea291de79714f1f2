"""Shared exception types.

DomainError covers inputs outside an operation's domain (non-invertible
element, point outside a kernel's region, malformed literal).
SingularityError marks evaluation too close to a pole of a kernel or
series term.  PolicyError signals that a truncation policy is invalid
or cannot be satisfied within its term budget.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


class SingularityError(DomainError):
    """Evaluation point too close to a singularity."""


class PolicyError(RuntimeError):
    """A truncation policy is invalid or its term budget is too small."""
