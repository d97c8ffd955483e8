"""Exception hierarchy shared across the package."""


class HexnetError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(HexnetError, ValueError):
    """Invalid directed graph input."""


class DuplicateEdgeError(GraphError):
    pass


class VertexOutOfRangeError(GraphError):
    pass


class SelfLoopError(GraphError):
    """An edge (i, i); the construction requires 1-cycle free graphs."""


class TwoCycleError(GraphError):
    """A pair of edges (i, k) and (k, i); 2-cycles cannot be realized."""


class CoefficientSignError(HexnetError, ValueError):
    """A coefficient matrix that does not realize its digraph: a nonzero
    diagonal entry, a non-positive entry on an edge or a non-negative entry
    off the edges (or c_plus, c_minus with the wrong sign)."""


class DimensionMismatchError(HexnetError, ValueError):
    pass


class NonFiniteError(HexnetError, ValueError):
    """NaN or infinity where a finite value is required."""


class NotAnEdgeError(HexnetError, ValueError):
    """A witness was requested for a pair that is not an edge of the superstructure."""


class ScenarioError(HexnetError):
    """Base class for scenario-file problems."""


class ScenarioParseError(ScenarioError):
    """The file is not well-formed YAML."""


class ScenarioSchemaError(ScenarioError):
    """Structurally wrong document; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class ScenarioValidationError(ScenarioError):
    """Well-formed document whose values violate an invariant."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
