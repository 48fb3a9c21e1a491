"""In-process collectives over N logical workers with byte-exact accounting.

There are no sockets here. A collective call takes the per-rank local
payloads, reduces them in ascending rank order, and charges each rank the
bytes it would have sent under a canonical ring schedule (reduce-scatter
followed by all-gather over balanced chunks). Determinism and exact
accounting are the point: the same inputs always produce the same result
and the same ledger.

``WorkerGroup.run`` executes one worker program per rank in lockstep. Each
program is a generator that yields at every collective, so the collectives
are the only points where the ranks meet, as in an SPMD job.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """One collective call: its tags and the bytes each rank sent, by rank."""

    phase: str
    op: str
    epoch: int
    sent: tuple


class CommLedger:
    """Append-only record of the bytes each rank sent, one entry per collective call."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []

    def charge(self, phase, op, epoch, per_rank_bytes):
        self.entries.append(LedgerEntry(phase, op, epoch, tuple(int(b) for b in per_rank_bytes)))

    def _select(self, phase=None, op=None, epoch=None):
        for e in self.entries:
            if phase is not None and e.phase != phase:
                continue
            if op is not None and e.op != op:
                continue
            if epoch is not None and e.epoch != epoch:
                continue
            yield e

    def total_bytes(self, phase=None, op=None, rank=None, epoch=None):
        ranks = slice(None) if rank is None else slice(rank, rank + 1)
        return sum(sum(e.sent[ranks]) for e in self._select(phase, op, epoch))

    def per_rank_bytes(self, n_ranks, phase=None, op=None, epoch=None):
        out = [0] * n_ranks
        for e in self._select(phase, op, epoch):
            for rank, nbytes in enumerate(e.sent):
                out[rank] += nbytes
        return out

    def ops_in_order(self, phase=None, epoch=None):
        """(op, bytes each rank sent under the ring schedule) for each call, in call order."""
        return [(e.op, list(e.sent)) for e in self._select(phase, None, epoch)]

    def records(self):
        """One plain dict per rank per call, in call then rank order."""
        return [
            {"phase": e.phase, "op": e.op, "epoch": e.epoch, "rank": rank, "bytes": nbytes}
            for e in self.entries
            for rank, nbytes in enumerate(e.sent)
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


class WorkerGroup:
    """A fixed set of N logical workers sharing one ledger and one epoch clock.

    Collective results are reduced in ascending rank order, so they are
    deterministic. ``advance_epoch`` is the barrier between training
    iterations.
    """

    def __init__(self, n_workers):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self.n_workers = int(n_workers)
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

    def run(self, programs):
        """Run one worker program per rank in lockstep; return their results by rank.

        A program is a generator. At each collective it yields ``(op,
        partial)`` and is sent ``all_reduce_sum`` of every rank's partial, in
        rank order; all ranks receive the same read-only array. Every rank
        must yield the same op at the same point and finish together.
        """
        programs = list(programs)
        n = self.n_workers
        if len(programs) != n:
            raise ProtocolError(f"run: got {len(programs)} programs for {n} workers")
        results = [None] * n
        reduced = None
        while True:
            yields = {}
            for rank, program in enumerate(programs):
                try:
                    yields[rank] = program.send(reduced)
                except StopIteration as stop:
                    results[rank] = stop.value
            if not yields:
                return results
            op = next(iter(yields.values()))[0]
            if len(yields) < n:
                done = next(r for r in range(n) if r not in yields)
                raise ProtocolError(f"run: rank {done} finished while other ranks wait at {op!r}")
            for rank, (rank_op, _) in yields.items():
                if rank_op != op:
                    raise ProtocolError(
                        f"run: rank {rank} called {rank_op!r} where rank 0 called {op!r}"
                    )
            reduced = self.all_reduce_sum([partial for _, partial in yields.values()], op=op)
            reduced.flags.writeable = False
