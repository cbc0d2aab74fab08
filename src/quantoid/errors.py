"""Exception types raised across the package.

Every error derives from QuantoidError so callers (and the CLI) can catch
the whole family at once.  The string payload of each error names the
offending key, label, or value.
"""


class QuantoidError(Exception):
    """Base class for all errors raised by this package."""


# -- construction / parsing ------------------------------------------------

class MissingSubset(QuantoidError):
    """A subset key required by the ground set is absent from a value table."""


class UnknownSubsetKey(QuantoidError):
    """A value table contains a key that is not a canonical subset key."""


class DuplicateLabel(QuantoidError):
    """The same element label occurs twice."""


class InvalidLabel(QuantoidError):
    """An element label is empty or contains a comma (reserved as key separator)."""


class GroundSetTooLarge(QuantoidError):
    """More elements than the dense 2^n representation supports."""


class MalformedRational(QuantoidError):
    """A value could not be read as an exact rational."""


class ValueTooLarge(MalformedRational):
    """An exact value whose numerator or denominator has more digits than
    int's str limit, sys.get_int_max_str_digits(), on input or output."""


class MalformedDocument(QuantoidError):
    """A JSON document is missing a field or has one of the wrong shape."""


class NonpositiveScale(QuantoidError):
    """Scaling factors must be strictly positive."""


class UnknownElement(QuantoidError):
    """A named element is not part of the ground set."""


# -- classification preconditions -------------------------------------------

class NotOfKind(QuantoidError):
    """The input does not satisfy the axioms of the requested kind."""


class NotAMatroid(QuantoidError):
    """The input rank function fails the matroid axioms."""


class NotIdeal(QuantoidError):
    """The dealer is not ideal; the message names the violated clause."""


class NotIntegerPolymatroid(QuantoidError):
    """Free expansion requires an integer-valued polymatroid."""


class NotIntegerPolyquantoid(QuantoidError):
    """Free expansion requires an integer-valued polyquantoid."""


class OddSingletonValue(QuantoidError):
    """Pairing copies into two-element blocks needs even singleton values."""


class ExpansionTooLarge(QuantoidError):
    """The expanded ground set would exceed the 16-element ground-set limit."""


# -- entropic constructors ---------------------------------------------------

class InvalidDistribution(QuantoidError):
    """A probability, value or tolerance that is not a finite real number
    (tolerances must also be positive), negative mass, wrong table length,
    or total mass not 1 within tolerance."""


class NotNormalized(QuantoidError):
    """A state vector whose squared norm is not 1 within tolerance."""


class DimensionMismatch(QuantoidError):
    """Amplitude vector length does not match the product of the party dimensions."""


class SnapFailed(QuantoidError):
    """A float value is not close to any rational with a small denominator."""
