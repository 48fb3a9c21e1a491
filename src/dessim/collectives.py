"""In-process collectives over N logical workers with byte-exact accounting.

There are no sockets here. A collective call takes the per-rank local
payloads, reduces them in ascending rank order, and charges each rank the
bytes it would have sent under a canonical ring schedule (reduce-scatter
followed by all-gather over balanced chunks). Determinism and exact
accounting are the point: the same inputs always produce the same result
and the same ledger, whether the callers run sequentially or on threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError

PHASE_FORWARD = "forward"
PHASE_BACKWARD = "backward"
PHASE_OPTIMIZER = "optimizer"
PHASE_EVAL = "eval"

_PHASES = (PHASE_FORWARD, PHASE_BACKWARD, PHASE_OPTIMIZER, PHASE_EVAL)


@dataclass(frozen=True)
class NetworkParams:
    """Latency (seconds per message round) and bandwidth (bytes per second)."""

    alpha: float
    bandwidth: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"latency must be nonnegative, got {self.alpha}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


@dataclass(frozen=True)
class LedgerEntry:
    phase: str
    op: str
    epoch: int
    rank: int
    nbytes: int


class CommLedger:
    """Append-only record of bytes sent per rank, tagged by phase, op, and epoch."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self.calls = 0

    def charge(self, phase, op, epoch, per_rank_bytes):
        self.calls += 1
        for rank, nbytes in enumerate(per_rank_bytes):
            self.entries.append(LedgerEntry(phase, op, epoch, rank, int(nbytes)))

    def _select(self, phase=None, op=None, rank=None, epoch=None):
        for e in self.entries:
            if phase is not None and e.phase != phase:
                continue
            if op is not None and e.op != op:
                continue
            if rank is not None and e.rank != rank:
                continue
            if epoch is not None and e.epoch != epoch:
                continue
            yield e

    def total_bytes(self, phase=None, op=None, rank=None, epoch=None):
        return sum(e.nbytes for e in self._select(phase, op, rank, epoch))

    def per_rank_bytes(self, n_ranks, phase=None, op=None, epoch=None):
        out = [0] * n_ranks
        for e in self._select(phase, op, None, epoch):
            out[e.rank] += e.nbytes
        return out

    def op_count(self, phase=None, op=None, epoch=None):
        """Number of collective calls matching the filter (not per-rank rows)."""
        seen = set()
        for i, e in enumerate(self.entries):
            if phase is not None and e.phase != phase:
                continue
            if op is not None and e.op != op:
                continue
            if epoch is not None and e.epoch != epoch:
                continue
            seen.add(i - e.rank)  # rows of one call are contiguous, rank 0 first
        return len(seen)

    def ops_in_order(self, phase=None, epoch=None):
        """(op, payload bytes per rank) for each call, in call order."""
        out = []
        for i, e in enumerate(self.entries):
            if e.rank == 0:
                if phase is not None and e.phase != phase:
                    continue
                if epoch is not None and e.epoch != epoch:
                    continue
                n = 1
                while i + n < len(self.entries) and self.entries[i + n].rank != 0:
                    n += 1
                out.append((e.op, [x.nbytes for x in self.entries[i : i + n]]))
        return out

    def records(self):
        return [
            {"phase": e.phase, "op": e.op, "epoch": e.epoch, "rank": e.rank, "bytes": e.nbytes}
            for e in self.entries
        ]


def ring_chunk_sizes(nbytes, n_ranks):
    """Balanced split of a payload into ring chunks; leading chunks take the remainder."""
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    base, rem = divmod(int(nbytes), n_ranks)
    return [base + 1] * rem + [base] * (n_ranks - rem)


def simulate_allreduce_sent_bytes(nbytes, n_ranks):
    """Walk the 2(n-1) ring steps and count what each rank puts on the wire.

    Reduce-scatter step t has rank w send chunk (w - t) mod n; the all-gather
    step t has it send chunk (w + 1 - t) mod n.
    """
    sizes = ring_chunk_sizes(nbytes, n_ranks)
    sent = [0] * n_ranks
    for t in range(n_ranks - 1):
        for w in range(n_ranks):
            sent[w] += sizes[(w - t) % n_ranks]
    for t in range(n_ranks - 1):
        for w in range(n_ranks):
            sent[w] += sizes[(w + 1 - t) % n_ranks]
    return sent


def simulate_allgather_sent_bytes(block_bytes):
    """Ring all-gather: step t has rank w forward block (w - t) mod n."""
    n_ranks = len(block_bytes)
    sent = [0] * n_ranks
    for t in range(n_ranks - 1):
        for w in range(n_ranks):
            sent[w] += int(block_bytes[(w - t) % n_ranks])
    return sent


class WorkerGroup:
    """A fixed set of N logical workers sharing one ledger and one epoch clock.

    Collective results are reduced in ascending rank order, so they are
    deterministic and independent of whether the callers are sequential or
    threaded. ``advance_epoch`` is the barrier between training iterations.
    """

    def __init__(self, n_workers, rendezvous_timeout=30.0):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self.n_workers = int(n_workers)
        self.rendezvous_timeout = float(rendezvous_timeout)
        self.epoch = 0
        self.phase = PHASE_FORWARD
        self.ledger = CommLedger()

    def set_phase(self, phase):
        if phase not in _PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase

    def advance_epoch(self):
        self.epoch += 1
        return self.epoch

    def _validate(self, locals_, op):
        if len(locals_) != self.n_workers:
            raise ProtocolError(
                f"{op}: got {len(locals_)} contributions for {self.n_workers} workers"
            )
        head = locals_[0]
        for rank, arr in enumerate(locals_):
            if not isinstance(arr, np.ndarray):
                raise ProtocolError(f"{op}: rank {rank} contributed {type(arr).__name__}")
            if arr.shape != head.shape or arr.dtype != head.dtype:
                raise ProtocolError(
                    f"{op}: rank {rank} payload {arr.dtype}{arr.shape} does not match "
                    f"rank 0 payload {head.dtype}{head.shape}"
                )

    def all_reduce_sum(self, locals_, op="all_reduce_sum"):
        """Sum the per-rank payloads; every rank conceptually receives the result.

        Ledger charge per rank follows the ring schedule on the payload size.
        """
        self._validate(locals_, op)
        out = locals_[0].copy()
        for rank in range(1, self.n_workers):
            out += locals_[rank]
        sent = simulate_allreduce_sent_bytes(locals_[0].nbytes, self.n_workers)
        self.ledger.charge(self.phase, op, self.epoch, sent)
        return out

    def all_gather(self, locals_, op="all_gather"):
        """Collect the per-rank payloads into a rank-indexed list for every worker."""
        if len(locals_) != self.n_workers:
            raise ProtocolError(
                f"{op}: got {len(locals_)} contributions for {self.n_workers} workers"
            )
        head = locals_[0]
        for rank, arr in enumerate(locals_):
            if not isinstance(arr, np.ndarray):
                raise ProtocolError(f"{op}: rank {rank} contributed {type(arr).__name__}")
            if arr.dtype != head.dtype or arr.ndim != head.ndim:
                raise ProtocolError(
                    f"{op}: rank {rank} payload {arr.dtype} ndim {arr.ndim} does not "
                    f"match rank 0 payload {head.dtype} ndim {head.ndim}"
                )
        sent = simulate_allgather_sent_bytes([a.nbytes for a in locals_])
        self.ledger.charge(self.phase, op, self.epoch, sent)
        return [a.copy() for a in locals_]


class _Station:
    """Rendezvous shared by the threaded workers of one group."""

    def __init__(self, group):
        self.group = group
        self.barrier = threading.Barrier(group.n_workers)
        self.slots = [None] * group.n_workers
        self.result = None


class ThreadedWorkerContext:
    """Per-thread handle offering the same collectives as the sequential path.

    Every call rendezvouses all workers at a barrier, then rank 0 runs the
    group reduction (identical code, identical ledger charge) and publishes
    the result. A worker that never shows up trips the barrier timeout.
    """

    def __init__(self, station, rank):
        self._station = station
        self.rank = rank
        self.n_workers = station.group.n_workers

    def _rendezvous(self, local, reducer, op):
        st = self._station
        st.slots[self.rank] = local
        timeout = st.group.rendezvous_timeout
        try:
            st.barrier.wait(timeout)
            if self.rank == 0:
                st.result = reducer(list(st.slots), op)
            st.barrier.wait(timeout)
        except threading.BrokenBarrierError:
            raise ProtocolError(
                f"{op}: rendezvous timed out after {timeout}s; a worker is missing "
                "or deadlocked"
            ) from None
        out = st.result
        if isinstance(out, np.ndarray):
            return out.copy()
        return [a.copy() for a in out]

    def all_reduce_sum(self, local, op="all_reduce_sum"):
        return self._rendezvous(local, self._station.group.all_reduce_sum, op)

    def all_gather(self, local, op="all_gather"):
        return self._rendezvous(local, self._station.group.all_gather, op)


def run_threaded(group, worker_fn):
    """Run worker_fn(ctx) on one thread per rank; return results by rank.

    The reduction itself still happens in ascending rank order on a single
    thread, so results and ledger are identical to the sequential path.
    """
    station = _Station(group)
    results = [None] * group.n_workers
    errors = [None] * group.n_workers

    def body(rank):
        try:
            results[rank] = worker_fn(ThreadedWorkerContext(station, rank))
        except BaseException as exc:  # noqa: BLE001 - propagated to the caller below
            errors[rank] = exc
            station.barrier.abort()

    threads = [threading.Thread(target=body, args=(r,)) for r in range(group.n_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


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
