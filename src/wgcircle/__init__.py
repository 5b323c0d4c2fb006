"""Desk-scale circle-method toolkit for n = p + x_1^k + ... + x_s^k.

Submodules: specialfn (implicit function, constants, optimizer), exponents
(admissible exponents and the shipped tables), arith (sieves and
multiplicative primitives), series (singular series and local factors),
circle (exponential sums, arc dissections, arc integrals, level sets),
counting (exact representation counts vs the heuristic prediction), cli.
"""

__version__ = "0.1.0"

from .errors import DomainError, InternalConsistencyError, ResourceError, WgcircleError

__all__ = [
    "__version__",
    "DomainError",
    "InternalConsistencyError",
    "ResourceError",
    "WgcircleError",
]
