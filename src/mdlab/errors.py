"""Exception types shared across the library."""
from __future__ import annotations


class MdlabError(Exception):
    """Base class for all library errors."""


class CompositeModulus(MdlabError):
    """Raised when a field characteristic is not prime."""

    def __init__(self, p: int, factor: int):
        super().__init__(f"{p} is not prime (divisible by {factor})")
        self.p = p
        self.factor = factor


class CapExceeded(MdlabError):
    """A size cap that keeps desk-scale structures feasible was exceeded."""


class ZeroInverse(MdlabError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DegreeTooSmall(MdlabError):
    """Trinomial degree below 2."""


class BothZero(MdlabError):
    """gcd(0, 0) requested."""


class ZeroModulus(MdlabError):
    """Polynomial powmod with zero modulus."""


class ZeroPolynomial(MdlabError):
    """Root counting of the zero polynomial requested."""


class MethodDisagreement(MdlabError):
    """Cross-validating root-count methods returned different counts."""


class InvalidExponent(MdlabError):
    """Digraph exponent outside the accepted range."""


class SizeMismatch(MdlabError):
    """Two digraphs of different order compared."""


class NotCoprime(MdlabError):
    """Power-map exponent shares a factor with q - 1."""


class CongruenceFailed(MdlabError):
    """Power-map exponent congruence does not hold.

    Carries the failing congruence as (name, lhs, rhs) with lhs != rhs
    mod (q - 1).
    """

    def __init__(self, name: str, lhs: int, rhs: int, modulus: int):
        super().__init__(f"{name}: {lhs} != {rhs} (mod {modulus})")
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.modulus = modulus


class VerificationFailed(MdlabError):
    """Internal consistency alarm: a constructed certificate failed the
    exhaustive check. Must be unreachable."""


class EvenCharacteristic(MdlabError):
    """Operation requires an odd field (division by 2)."""


class IoFailure(MdlabError):
    """Report emission failed at the I/O layer."""


class WorkerPoolFailed(MdlabError):
    """A scan worker process died, so the pool could not finish the scan."""
