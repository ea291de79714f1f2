"""Octonion algebra, monogenic special functions and reproducing kernels.

Layering: ``algebra`` (arithmetic) -> ``regularity`` (Cauchy-Riemann
operators, Cauchy kernel) -> ``trig_series`` (periodized kernel series) ->
``kernels`` (reproducing kernels on ball, strip, half-space) ->
``quadrature`` (seeded Monte Carlo verification) -> ``suites``
(verification suites returning report rows) -> ``cli``.
"""

from .errors import DomainError, PolicyError, SingularityError
from .algebra import (
    Octonion,
    associator,
    commutator,
    format_octonion,
    mul,
    mul_cayley_dickson,
    parse_octonion,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PolicyError",
    "SingularityError",
    "Octonion",
    "associator",
    "commutator",
    "format_octonion",
    "mul",
    "mul_cayley_dickson",
    "parse_octonion",
    "__version__",
]
