"""Exception types shared across the package.

Every domain error derives from :class:`ModformError` so callers (and the
CLI) can catch the whole family at once.  ``NonConvergent`` is a warning,
not an error: numeric evaluation outside the reliable disk still returns a
value.
"""


class ModformError(Exception):
    """Base class for all domain errors raised by this package."""


class NonIntegralOffset(ModformError):
    """Two q-expansions live on different q-power lattices."""


class CannotExtend(ModformError):
    """A coefficient or truncation beyond the known terms was requested."""


class OddWeight(ModformError):
    """A classical-form operation was given an odd weight."""


class NotInM(ModformError):
    """A q-expansion is not (to the checked depth) a classical modular form."""


class AmbiguousTruncation(ModformError):
    """Too few known coefficients to pin down a form of the given weight."""


class InsufficientTruncation(ModformError):
    """Too few known coefficients for a rank decision."""


class SingularSampleMatrix(ModformError):
    """The matrix of component values at the sample points is numerically singular."""


class NotARoot(ModformError):
    """The given exponent does not solve the indicial equation."""


class ResonantRoot(ModformError):
    """The indicial polynomial vanishes at root + n for some n >= 1."""


class RootsOutOfRange(ModformError):
    """Indicial roots must lie in [0, 1)."""


class RootsNotDistinct(ModformError):
    """Indicial roots (or prescribed exponents) must be pairwise distinct."""


class IrrationalRoots(ModformError):
    """The indicial equation has roots outside the rationals."""


class NonIntegralWeight(ModformError):
    """A weight that must be an integer is not one, as given or as the exponents force it."""


class OrderTooLarge(ModformError):
    """Exponent-determined construction is limited to order <= 5."""


class OutOfRange(ModformError):
    """A parameter lies outside its documented range."""


class NotIndecomposable(ModformError):
    """The character pair (a, b) does not give an indecomposable extension."""


class DependentGenerators(ModformError):
    """A claimed free generating set is linearly dependent over M."""

    def __init__(self, weight):
        self.weight = weight
        super().__init__(f"dependent generators detected in weight {weight}")


class NonConvergent(UserWarning):
    """Truncated evaluation is unreliable at the given point (|q| too large)."""
