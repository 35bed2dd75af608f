"""Exception types and the record base shared across the package.

Every domain error derives from :class:`ModformError` so callers (and the
CLI) can catch the whole family at once.  ``NonConvergent`` is a warning,
not an error: numeric evaluation outside the reliable disk still returns a
value.

``Record`` is the base of the package's immutable value types.  It lives
here because every layer already imports this module.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    """An immutable record: its fields are the names in ``__slots__``, its value their values.

    A subclass names its fields in ``__slots__`` (a tuple) and the default
    of any optional one in ``_defaults``.  The base gives positional or
    keyword construction, equality and a hash on the fields' values, the
    repr ``Name(field=value, ...)``, and refuses assignment and deletion.
    Records are equal only to records of the same class, so never to a
    tuple.  Nothing is generated: each class gets one ``attrgetter`` of its
    fields, the key that equality and the hash read.  A hot record may
    define its own ``__init__``, setting each field with ``_set``.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
                raise TypeError(
                    f"{type(self).__name__}() takes the fields {', '.join(names)}; "
                    f"got {len(args)} positional and the keywords {', '.join(kwargs) or 'none'}"
                )
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __setstate__(self, state):
        # copy and pickle hand back object.__getstate__'s (None, {field: value})
        for name, value in state[1].items():
            _set(self, name, value)


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
