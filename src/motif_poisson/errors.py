"""Exception hierarchy.

Every error the library raises derives from :class:`MotifPoissonError` so
callers can catch broadly; the leaf classes mirror the distinct failure
conditions of the public operations.
"""


class MotifPoissonError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- motifs


class InvalidMotifError(MotifPoissonError):
    """A motif definition violates a structural invariant."""


class EmptyEdgeSet(InvalidMotifError):
    pass


class SelfLoop(InvalidMotifError):
    pass


class DuplicateEdge(InvalidMotifError):
    pass


class IsolatedVertex(InvalidMotifError):
    pass


class SingleEdge(InvalidMotifError):
    """Motifs must have more than one edge."""


class TooLarge(InvalidMotifError):
    """Motif exceeds the supported vertex cap."""


# ---------------------------------------------------------------- models


class InvalidParams(MotifPoissonError):
    """Random-graph model parameters fail validation."""


class WrongFamily(InvalidParams):
    """Operation requires a different graphon family."""


# --------------------------------------------------------------- counting


class MotifLargerThanGraph(MotifPoissonError):
    pass


class GraphTooLargeForOracle(MotifPoissonError):
    """The brute-force counter is capped to very small graphs."""


# ----------------------------------------------------------------- bounds


class TooManyTerms(MotifPoissonError):
    """An exact contraction step would sum more terms than the budget allows."""


class NotStrictlyBalanced(MotifPoissonError):
    """The bound requires a strictly balanced motif."""


class IncompleteNuTable(MotifPoissonError):
    """A conditional-probability table is missing a required entry."""


class UnnormalizedHistogram(MotifPoissonError):
    pass
