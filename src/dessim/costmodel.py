"""Analytic communication volume and wall-time models for sync strategies.

Volumes count bytes sent per worker for one synchronous iteration. ``q_mesh``
is the exchange cost of a fully decentralized parameter placement, where a
worker fetches and returns the (1 - 1/N) share of batch state it does not
hold: feature keys plus the model state attached to them. ``q_des`` is the
ring all-reduce cost of aggregating the substituted operators' partial
results, which depends on the batch size, never on the number of unique
features. The closed forms here are written independently of the simulated
transport in ``collectives``; tests require the two to agree byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MetricError

KEY_BYTES = 8
VALUE_BYTES = 4

# in the order a composed model's forward aggregates them
COMPONENT_KINDS = ("lr", "fm", "dnn")

# Per-batch unique-feature counts of the default benchmark workload, keyed
# by batch size. These are measurements from a large production CTR dataset
# and drive the headline saving-ratio table.
REFERENCE_UNIQ_FEATS = {
    512: 147664,
    1024: 257757,
    2048: 448814,
    4096: 789511,
    8192: 1389353,
}


@dataclass(frozen=True)
class CostInputs:
    """Workload description for the analytic formulas."""

    n_workers: int
    batch_size: int
    uniq_feats: int
    dim: int = 8
    first_fc_width: int = 16
    n_fields: int = 39
    key_bytes: int = KEY_BYTES
    value_bytes: int = VALUE_BYTES

    def __post_init__(self):
        if self.n_workers < 1 or self.batch_size < 1:
            raise ValueError("need positive worker count and batch size")
        if self.uniq_feats < 0:
            raise ValueError("unique feature count must be nonnegative")


def _state_bytes(kind, c):
    """Bytes of first-layer state attached to the batch's unique features.

    The first layer's gradient has the same size, which is what the ring
    baseline all-reduces.
    """
    if kind == "lr":
        return c.uniq_feats * c.value_bytes
    if kind == "fm":
        return c.uniq_feats * c.value_bytes * c.dim
    if kind == "dnn":
        embed = c.uniq_feats * c.value_bytes * c.dim
        fc = c.n_fields * c.dim * c.first_fc_width * c.value_bytes
        return embed + fc
    raise ValueError(f"unknown component kind {kind!r}")


def q_mesh(kind, c):
    """Bytes per worker to exchange keys plus first-layer state, mesh placement."""
    n = c.n_workers
    keys = c.uniq_feats * c.key_bytes
    return (n - 1) / n * (keys + _state_bytes(kind, c))


def component_payloads(kind, c):
    """(op name, payload bytes) per aggregation of one component's forward."""
    B = c.batch_size
    v = c.value_bytes
    if kind == "lr":
        return (("linear.partial", v * B),)
    if kind == "fm":
        return (("fm2.m1", v * c.dim * B), ("fm2.m2", v * B))
    if kind == "dnn":
        return (("tower.first_fc", v * c.first_fc_width * B),)
    raise ValueError(f"unknown component kind {kind!r}")


def q_des(kind, c):
    """Bytes per worker to ring-allreduce the component's partial results."""
    n = c.n_workers
    return 2 * (n - 1) * sum(size for _, size in component_payloads(kind, c)) / n


def saving_ratio(kind, c):
    """1 - q_des/q_mesh; undefined when the mesh exchange is zero."""
    qm = q_mesh(kind, c)
    if qm == 0:
        raise MetricError(
            f"saving ratio undefined: mesh exchange is zero for {kind} with "
            f"N={c.n_workers}, uniq={c.uniq_feats}"
        )
    return 1.0 - q_des(kind, c) / qm


def allreduce_sent_bytes_formula(nbytes, n_ranks):
    """Closed-form per-rank ring all-reduce bytes: 2S minus the two chunks
    a rank never sends, for the balanced chunking with the remainder leading."""
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if n_ranks == 1:
        return [0]
    base, rem = divmod(int(nbytes), n_ranks)
    sizes = [base + 1] * rem + [base] * (n_ranks - rem)
    return [
        2 * int(nbytes) - sizes[(r + 1) % n_ranks] - sizes[(r + 2) % n_ranks]
        for r in range(n_ranks)
    ]


def model_payload_sizes(graph, batch_size):
    """(op name, payload bytes) per aggregation of a composed model's forward:
    its components in forward order, then one per cross level."""
    c = CostInputs(n_workers=1, batch_size=batch_size, uniq_feats=0, dim=graph.embedding_dim,
                   first_fc_width=graph.first_fc_width, n_fields=graph.n_fields)
    used = (graph.uses_linear, graph.uses_second_order, graph.uses_tower)
    out = [p for kind, u in zip(COMPONENT_KINDS, used) if u for p in component_payloads(kind, c)]
    if graph.uses_cross:
        out += [(f"cross.{k}", VALUE_BYTES * batch_size) for k in range(graph.cross_depth)]
    return out


def expected_forward_bytes(graph, batch_size, n_workers):
    """Per-rank forward bytes of a composed model, from the closed form."""
    totals = [0] * n_workers
    for _, size in model_payload_sizes(graph, batch_size):
        for r, b in enumerate(allreduce_sent_bytes_formula(size, n_workers)):
            totals[r] += b
    return totals


def ring_time(params, n_ranks, payload_bytes):
    """Ring all-reduce wall time: 2(n-1) steps of latency plus chunk transfer."""
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if payload_bytes < 0:
        raise ValueError("payload must be nonnegative")
    return 2.0 * (n_ranks - 1) * (params.alpha + payload_bytes / (n_ranks * params.bandwidth))


def substitution_time(params, n_ranks, payload_sizes):
    """Total time for a forward pass: one ring all-reduce per partial-result payload."""
    sizes = list(payload_sizes)
    if not sizes:
        raise ValueError("need at least one payload")
    total = 0.0
    for s in sizes:
        total += ring_time(params, n_ranks, s)
    return total


def strategy_times(params, kind, c):
    """Wall-time estimates for one synchronous iteration under each strategy.

    Parameter-server strategies move keys and first-layer state through one
    server round trip per worker; the mesh variants scale that by the peer
    count. The async variants divide by N because workers no longer wait for
    each other. The ring baseline all-reduces full first-layer gradients,
    and the substitution strategy all-reduces only partial results.
    """
    n = c.n_workers
    alpha, C = params.alpha, params.bandwidth
    state = c.uniq_feats * c.key_bytes + _state_bytes(kind, c)
    t_sync_ps = 2 * n * (alpha + state / C)
    t_sync_mesh = 2 * n * (alpha + (n - 1) * state / C)
    return {
        "T_sync_ps": t_sync_ps,
        "T_async_ps": t_sync_ps / n,
        "T_sync_mesh": t_sync_mesh,
        "T_async_mesh": t_sync_mesh / n,
        "T_ring": ring_time(params, n, _state_bytes(kind, c)),
        "T_des": substitution_time(
            params, n, (size for _, size in component_payloads(kind, c))
        ),
    }


@dataclass
class CommReportRow:
    model: str
    batch_size: int
    n_workers: int
    uniq_feats: int
    q_mesh: float
    q_des: float
    ratio: float
    measured_bytes: float  # an int when N divides the ranks' total
    deviation: float
