"""Exception types shared across the package."""

from __future__ import annotations


class UnknownVertex(ValueError):
    """A vertex id outside the graph's 0..n-1 range was used."""


class EmptySubtree(ValueError):
    """A subtree of the host tree must contain at least one vertex."""


class DisconnectedSubtree(ValueError):
    """A vertex set passed off as a subtree does not induce a connected subgraph."""


class EmptyEdgeSet(ValueError):
    """The selected edge subset of the host tree is empty."""


class TheoremViolation(RuntimeError):
    """A structural guarantee the solvers rely on failed at runtime.

    This always indicates an implementation bug (or an instance outside the
    supported class slipping through validation); it must never be swallowed.
    """


class InstanceTooLarge(ValueError):
    """The instance exceeds the size cap of a brute-force oracle, or a search
    exceeds its node budget."""


class LPInternalError(RuntimeError):
    """The exact simplex produced an inconsistent or infeasible result."""


class NotAClique(ValueError):
    """Two supposed clique vertices are not adjacent."""


class NotIndependent(ValueError):
    """Two supposed independent-side vertices are adjacent."""


class NotAPartition(ValueError):
    """The two sides do not partition the vertex set."""


class ParameterOutOfRange(ValueError):
    """A generator parameter is outside its documented range."""


class BadPermutation(ValueError):
    """The supplied vertex order is not a permutation of the vertex set."""


class InstanceSyntaxError(ValueError):
    """A line of an instance or certificate file could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class InstanceSemanticError(ValueError):
    """The file parsed but describes an invalid instance."""
