"""Exception types shared across the library.

Every domain failure raises a subclass of DomainError so callers (and the
CLI) can distinguish expected mathematical failure modes from bugs.
"""


class DomainError(Exception):
    """Base class for all expected failure modes."""


class NotASquare(DomainError):
    """Requested a modular square root of a non-residue."""


class NotFundamental(DomainError):
    """Discriminant fails the fundamental-discriminant conditions."""


class NoPrimesPossible(DomainError):
    """d = 7 (mod 8): no prime p with 4p = t^2 + d exists."""


class SearchLimitExceeded(DomainError):
    """Prime search passed its trace cap without meeting the target."""


class SpecialJ(DomainError):
    """j is 0 or 1728 mod p, where the generic curve model degenerates."""


class TooLarge(DomainError):
    """An input above its stated cap: a field to count, a discriminant."""


class Ambiguous(DomainError):
    """Group order could not be pinned down to a single candidate."""


class NotANonResidue(DomainError):
    """Twisting constant is a square mod p."""


class WrongCount(DomainError):
    """Number of surviving j-invariants differs from the class number.

    This is a hard internal-consistency failure: it means either an invalid
    discriminant slipped through validation or point counting is broken.
    Runs abort rather than patch over it.
    """


class NotCoprime(DomainError):
    """Two CRT moduli share a common factor."""


class CertificateFailed(DomainError):
    """A CRT lift disagreed with the shard of a spare prime outside its
    basis: a residue is wrong, or a coefficient is not below
    (1/2 - epsilon) M, so the lift mod n cannot be trusted."""


class OutsideHasse(DomainError):
    """Requested group order lies outside [p+1-2*sqrt(p), p+1+2*sqrt(p)]."""


class ZeroTrace(DomainError):
    """Trace t = 0 (supersingular target), which is unsupported."""


class NoRoot(DomainError):
    """Polynomial has no root in the prime field."""


class InvariantViolation(DomainError):
    """A result the algorithm guarantees failed its check, e.g. a point
    count outside the Hasse interval or a division that was not exact.

    For a prime modulus this means a bug; these checks stay active under
    python -O, unlike assert.
    """
