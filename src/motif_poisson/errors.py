"""Exception hierarchy, and the readers of values from outside.

Every error the library raises derives from :class:`MotifPoissonError` so
callers can catch broadly; the leaf classes mirror the distinct failure
conditions of the public operations.  Every value from outside is read by
:func:`integer`, :func:`real`, :func:`probability`, :func:`rate`,
:func:`sequence`, :func:`known_keys` or :func:`instance`, which raise
:class:`InvalidParams`, also a ``ValueError``.
"""

import math
import operator


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


class InvalidParams(MotifPoissonError, ValueError):
    """A value from outside fails validation."""


def integer(x, what: str, error: type[Exception] = InvalidParams) -> int:
    """``x`` as an int if it is an integer, NumPy ints too (as
    ``operator.index`` reads them); bools, floats and strings are refused
    with ``error``."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise error(f"{what} must be an integer, got {type(x).__name__}")
    return operator.index(x)


def real(x, what: str) -> float:
    """``x`` as a float if it is an int or a float (np.float64 too)."""
    if type(x) is not int and not isinstance(x, float):
        raise InvalidParams(f"{what} must be a number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise InvalidParams(f"{what} is too large for a float") from None


def probability(x, what: str) -> float:
    """``real(x)`` if it lies in [0, 1]; NaN is refused."""
    p = real(x, what)
    if not 0.0 <= p <= 1.0:
        raise InvalidParams(f"{what}={p!r} not in [0, 1]")
    return p


def rate(x, what: str) -> float:
    """``real(x)`` if it is finite and at least 0; NaN is refused."""
    r = real(x, what)
    if not 0.0 <= r < math.inf:
        raise InvalidParams(f"{what}={r!r} must be finite and >= 0")
    return r


def sequence(x, what: str) -> list | tuple:
    """``x`` if it is a list or a tuple, never a string."""
    if not isinstance(x, (list, tuple)):
        raise InvalidParams(f"{what} must be a list, got {type(x).__name__}")
    return x


def known_keys(x, allowed: tuple[str, ...], what: str) -> dict:
    """``x`` if it is a dict with no key outside ``allowed``; the first
    other key is named, so a misspelt key is never read as absent."""
    if type(x) is not dict:
        raise InvalidParams(f"{what} must be a JSON object, got {type(x).__name__}")
    for key in x:
        if key not in allowed:
            raise InvalidParams(
                f"{what} has unknown key {key!r}; expected {', '.join(allowed)}"
            )
    return x


def instance(x, what: str, *kinds: type):
    """``x`` if it is an instance of one of ``kinds``, or else
    InvalidParams naming the type it is: a model or a graph of the wrong
    type is refused before any of its attributes is read."""
    if not isinstance(x, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise InvalidParams(f"{what} must be {names}, got {type(x).__name__}")
    return x


class WrongFamily(InvalidParams):
    """Operation requires a different graphon family."""


# --------------------------------------------------------------- counting


class MotifLargerThanGraph(InvalidParams):
    """The graph has fewer vertices than the motif."""


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
