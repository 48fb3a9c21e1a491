"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class ProtocolError(RuntimeError):
    """A collective call violated the group protocol.

    Raised for shape or dtype mismatches between rank payloads, a wrong
    number of contributions or worker programs, worker programs that fall
    out of lockstep (ranks calling different ops, or one rank finishing
    while others wait at a collective), and a forward pass that is not live
    (another engine's, or of an epoch an apply has ended), backpropagated
    twice, or applied without a backward.
    """


class PlacementError(ValueError):
    """A feature was routed to a shard that does not own its field."""


class ConsistencyError(RuntimeError):
    """State diverged from what the synchronous protocol guarantees.

    Covers replicated parameters that stopped being bitwise identical and
    updates addressed to table entries that were never created.
    """


class MetricError(ValueError):
    """A metric is undefined for the given inputs."""


class ParseError(ValueError):
    """Malformed input record."""
