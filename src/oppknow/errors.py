"""Exception types raised across the package.

Every error is a subclass of :class:`OppknowError`, so callers can catch the
whole family with one clause. Parsing errors carry the 1-based line number of
the offending input line. The module imports nothing, so the CLI loads it
(and the missing-data policy names kept here) without loading numpy.
"""


class OppknowError(Exception):
    """Base class for all errors raised by this package."""


class InternalConsistencyError(OppknowError):
    """A quantity that must be non-negative came out measurably negative.

    Tiny floating-point cancellation (magnitude below 1e-12 bits) is clamped
    to zero instead; anything larger indicates a real bug and raises this.
    """


# --- distribution / information-measure errors -------------------------------

class EmptyInput(OppknowError):
    """An operation that needs at least one sample row received none."""


class MalformedSamples(OppknowError):
    """Sample rows are ragged or contain out-of-range category ids."""


class BadVariableIndex(OppknowError):
    """A user/variable id lies outside [0, user_count)."""


class OverlappingSets(OppknowError):
    """Two variable groups that must be disjoint share a member."""


class EmptySet(OppknowError):
    """A variable group that must be nonempty is empty."""


class SelfNotInKnowledgeSet(OppknowError):
    """A knowledge set does not contain the node it belongs to."""


class DuplicateVariable(OppknowError):
    """A variable id appears more than once in an ordered sequence."""


# --- trace ingestion errors ---------------------------------------------------

# The activity-CSV reader's missing-data policies. They are defined here, in a
# module with no numpy import, so that the CLI can offer them as choices
# without loading the trace layer.
MISSING_POLICIES = ("drop-row", "idle-category")


class ParseError(OppknowError):
    """An input line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class OutOfRange(OppknowError):
    """A parsed user or category id exceeds the declared bounds."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateObservation(OppknowError):
    """The same (timestamp, user) or (round, node) pair was recorded twice."""


# --- topology errors ----------------------------------------------------------

class TooFewNodes(OppknowError):
    """A topology needs at least two nodes."""


class InvalidEdge(OppknowError):
    """An edge references a node id outside [0, node_count)."""


class SelfLoop(OppknowError):
    """An edge connects a node to itself."""


class NotConnected(OppknowError):
    """The graph is not connected where connectivity is required."""


class CouldNotConnect(OppknowError):
    """Repeated random placements never produced a connected graph."""


# --- simulation errors ----------------------------------------------------------

class SelfEncounter(OppknowError):
    """A node cannot encounter itself."""


class NotAnEdge(OppknowError):
    """A scheduled pair is not an edge of the active topology."""


class ShapeMismatch(OppknowError):
    """Distribution, topology, or schedule dimensions disagree."""
