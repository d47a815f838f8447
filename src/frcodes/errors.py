"""Exception types shared across the toolkit.

Every domain error derives from FrcError so callers (and the command line
front end) can catch a single base class. The concrete class name doubles
as the stable error code printed on stderr.
"""

from __future__ import annotations


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
    """Enumeration would exceed the configured subset budget."""


class Unrepairable(FrcError):
    """A lost packet has no surviving replica."""


class MalformedRow(FrcError):
    """Parameter-table row failed basic shape checks."""
