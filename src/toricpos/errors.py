"""Exception types shared across the library."""


class ToricError(Exception):
    """Base class for all library errors."""


class InvalidFan(ToricError):
    """Fan data violates a structural invariant; the message names the reason."""


class NotACone(ToricError):
    """A ray-index set that is not a face of any cone of the fan."""


class EmptySet(ToricError):
    """An operation that requires a nonempty ray subset received an empty one."""


class NotComplete(ToricError):
    """Operation requires a complete fan."""


class NotIntegral(ToricError):
    """Operation requires an integral divisor."""


class NotEffectiveSupport(ToricError):
    """Divisor coefficients must be nonnegative integers with nonempty support."""


class UnboundedRegion(ToricError):
    """Lattice enumeration was asked for an unbounded polyhedron.

    For cohomology regions on complete fans this signals an internal
    consistency failure, never a user error.
    """


class NoStabilizationDetected(ToricError):
    """Base-locus chain did not stabilize within the configured horizon."""

    def __init__(self, horizon, chain):
        self.horizon = horizon
        self.chain = chain
        super().__init__(
            f"base locus chain did not stabilize within horizon {horizon}"
        )


class InternalInconsistency(ToricError):
    """Two computations that must agree did not: a library defect, not an input error."""


class ModeDisagreement(InternalInconsistency):
    """The two q-ample decision modes produced contradictory evidence."""


class WorkspaceError(ToricError):
    """Workspace file failed schema validation; message carries field context."""


class OutputError(ToricError):
    """An output file could not be written; the message names its path."""
