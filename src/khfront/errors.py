"""Exception types shared across the package."""


class KhfrontError(Exception):
    """Base class for all package errors."""


class FrontError(KhfrontError, ValueError):
    """A front word failed validation."""


class MalformedToken(FrontError):
    """A token is not of the form L<p>, R<p> or X<p> with integer p >= 1."""


class StrandUnderflow(FrontError):
    """An event references a strand position that does not exist."""


class NonzeroEndState(FrontError):
    """Strands remain open after the last event."""


class Disconnected(KhfrontError, ValueError):
    """The diagram is not connected as a subset of the plane."""


class NonplanarRotation(KhfrontError, ValueError):
    """A rotation system fails the Euler-formula planarity check."""


class NotASpanningTree(KhfrontError, ValueError):
    """An edge set is not a spanning tree of the graph it was used with."""


class NotUnknot(KhfrontError, RuntimeError):
    """Splicing all inactive crossings did not produce a one-component
    diagram; this signals a convention bug, not bad user input."""


class ParityViolation(KhfrontError, ValueError):
    """Crossing count and writhe have different parities."""


class TooLarge(KhfrontError, ValueError):
    """A front word has more than ``front.EVENT_LIMIT`` = 50,000 events,
    the diagram exceeds the configured crossing bound for the oracle, the
    Jones sweep holds more than ``oracle.JONES_STATE_LIMIT`` = 2048
    matchings, or the graph has more spanning trees than a listing holds."""


class EmptyTable(KhfrontError, ValueError):
    """A bigraded table with no entries was passed where one is required."""


class ConventionError(KhfrontError, RuntimeError):
    """A spanning-tree certificate contradicts the homology oracle, or an
    identity that the sign and ordering conventions guarantee fails.

    This is the designated tripwire for sign or ordering convention bugs;
    it should never fire on a correct build.
    """
