"""Exception types shared across the toolkit, and the one rule for
showing a caller's value in their messages.

Every domain error derives from FrcError so callers (and the command line
front end) can catch a single base class. The concrete class name doubles
as the stable error code printed on stderr.
"""

from __future__ import annotations

import math
import sys


class _Phrase(str):
    """Message text that prints as itself under !r as well."""

    __repr__ = str.__str__


def _shown(value: object) -> object:
    """value as an error message interpolates it: value itself, except an
    int with more digits than the interpreter turns into text
    (sys.get_int_max_str_digits), which becomes a phrase giving its sign
    and digit count. Printing that int would raise ValueError in place of
    the error the message belongs to."""
    limit = sys.get_int_max_str_digits()
    # More than limit digits needs more than 3 * limit bits.
    if isinstance(value, int) and limit and value.bit_length() > 3 * limit:
        size = abs(value)
        # 2^(b-1) <= size < 2^b leaves two digit counts; take the right one.
        digits = int(size.bit_length() * math.log10(2)) + 1
        if size < 10 ** (digits - 1):
            digits -= 1
        if digits > limit:
            return _int_phrase(value < 0, digits)
    return value


def _int_phrase(negative: bool, digits: int) -> _Phrase:
    """How _shown names an int of that sign and digit count."""
    return _Phrase(f"{'a negative' if negative else 'an'} int of {digits:,} digits")


class FrcError(Exception):
    """Base class for all toolkit errors."""


class InvariantViolation(FrcError):
    """A code description failed structural validation."""


class EmptySystem(InvariantViolation):
    """Node count or packet count below one, or an incidence matrix with no rows."""


class IndexOutOfRange(InvariantViolation):
    """A packet index falls outside [0, theta)."""


class OrphanPacket(InvariantViolation):
    """Some packet is stored on no node."""


class ParityError(FrcError):
    """A parameter that must be odd is even."""


class DegreeRange(FrcError):
    """Target degree outside the valid range for the node count."""


class RhoRange(FrcError):
    """Replication factor outside [2, n - 1]."""


class DegenerateOffsets(FrcError):
    """Shift step collides packet offsets: n / gcd(t + 1, n) < d."""


class ParseError(FrcError):
    """Input file is not a well-formed code description."""


class KOutOfRange(FrcError):
    """Subset size k outside [1, n]."""


class Unreachable(FrcError):
    """Requested file size exceeds what all n nodes jointly store."""


class BudgetExceeded(FrcError):
    """A search would pass its work budget (counted in steps), or a
    size would pass its cap."""


class Unrepairable(FrcError):
    """A lost packet has no surviving replica."""


class MalformedRow(FrcError):
    """Parameter-table row failed basic shape checks."""
