"""Exception types shared across the package."""


class SkewLabError(Exception):
    """Base class for all package-specific failures."""


class NotAnosov(SkewLabError):
    """Matrix is not a hyperbolic integer automorphism of the 2-torus."""


class AmbiguousBranch(SkewLabError):
    """Points too far apart to select a unique local leaf intersection."""


class ConstructionFailed(SkewLabError):
    """A geometric construction could not satisfy its certificates."""


class NoConvergence(SkewLabError):
    """A holonomy limit or a bump flow's midpoint solve failed its convergence check."""


class BrokenPath(SkewLabError):
    """A path leg violates leaf membership or chaining tolerances."""


class BumpEscape(SkewLabError):
    """Bump translation too large for its support annulus."""


class OverlapError(SkewLabError):
    """Bump supports overlap where disjointness is required."""


class RegularValueFailure(SkewLabError):
    """No admissible translation vector found within the draw budget."""


class PostconditionFailure(SkewLabError):
    """A scientific postcondition failed; offending data attached."""

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data


class SearchExhausted(SkewLabError):
    """Exact search exhausted its refinement budget (bug signal)."""


class ConfigError(SkewLabError):
    """Invalid experiment configuration."""
