"""Exception hierarchy shared by all greenring modules."""


class GreenRingError(Exception):
    """Base class for every error raised by this package."""


class ContextError(GreenRingError, ValueError):
    """p is not a prime, nu is not an integer >= 1, or p^nu exceeds the order cap."""


class ContextMismatchError(GreenRingError, ValueError):
    """Two elements from different ring contexts were combined."""


class IndexRangeError(GreenRingError, ValueError):
    """A basis index or generator level is outside its legal range."""


class SupportError(GreenRingError, ValueError):
    """An element has support outside the subring required by an operation."""


class DivisibilityError(GreenRingError, ValueError):
    """An Adams exponent divisible by p was requested where p must not divide it."""


class InvalidModuleError(GreenRingError, ValueError):
    """A matrix does not define a module for the cyclic group of the context."""


class OracleCapacityError(GreenRingError, ValueError):
    """An induced-space construction exceeds the configured oracle cap."""


class ParseError(GreenRingError, ValueError):
    """Element input is malformed.

    A literal off the grammar, an element object from_dict cannot read, a
    multiplicity that is not an integer, or a wrong number of coefficients.
    """


class SettingError(GreenRingError, ValueError):
    """An environment setting, such as a size cap, is not a positive integer."""
