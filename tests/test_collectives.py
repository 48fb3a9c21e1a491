"""Collective semantics, ring-schedule byte accounting, and the lockstep driver.

The accounting tests walk the simulated ring schedule and compare it with
the closed form computed in costmodel; the two are written independently,
so agreement over a sweep of payload sizes and rank counts is evidence,
not tautology.
"""

import numpy as np
import pytest

from dessim.collectives import (
    CommLedger,
    NetworkParams,
    PHASE_BACKWARD,
    PHASE_FORWARD,
    WorkerGroup,
    ring_chunk_sizes,
    simulate_allreduce_sent_bytes,
)
from dessim.costmodel import allreduce_sent_bytes_formula, ring_time, substitution_time
from dessim.errors import ProtocolError


class TestChunking:
    def test_even_split(self):
        assert ring_chunk_sizes(8, 4) == [2, 2, 2, 2]

    def test_remainder_leads(self):
        assert ring_chunk_sizes(10, 3) == [4, 3, 3]
        assert ring_chunk_sizes(3, 5) == [1, 1, 1, 0, 0]

    def test_sum_preserved(self):
        for nbytes in range(0, 40):
            for n in range(1, 9):
                assert sum(ring_chunk_sizes(nbytes, n)) == nbytes

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            ring_chunk_sizes(4, 0)


class TestAllReduceAccounting:
    def test_single_rank_sends_nothing(self):
        assert simulate_allreduce_sent_bytes(1024, 1) == [0]

    def test_divisible_payload(self):
        # 2(N-1) steps, each sending a 256-byte chunk
        assert simulate_allreduce_sent_bytes(1024, 4) == [1536, 1536, 1536, 1536]

    def test_uneven_payload(self):
        # chunks [4,3,3]; a rank sends every chunk except the two that
        # finish their reduce-scatter and all-gather legs elsewhere
        assert simulate_allreduce_sent_bytes(10, 3) == [14, 13, 13]

    def test_total_is_two_passes_over_payload(self):
        for nbytes in (0, 1, 7, 64, 1000):
            for n in range(2, 8):
                assert sum(simulate_allreduce_sent_bytes(nbytes, n)) == 2 * (n - 1) * nbytes

    def test_simulation_matches_closed_form(self):
        for nbytes in list(range(0, 65)) + [1 << 10, (1 << 20) + 3, 999_999]:
            for n in range(1, 10):
                sim = simulate_allreduce_sent_bytes(nbytes, n)
                assert sim == allreduce_sent_bytes_formula(nbytes, n)


class TestWorkerGroup:
    def test_single_worker_identity_and_zero_bytes(self):
        group = WorkerGroup(1)
        local = np.array([5.0, 7.0], dtype=np.float32)
        out = group.all_reduce_sum([local])
        assert np.array_equal(out, local)
        assert out is not local
        assert group.ledger.total_bytes() == 0

    def test_two_worker_sum(self):
        group = WorkerGroup(2)
        out = group.all_reduce_sum(
            [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        )
        assert np.array_equal(out, np.array([4.0, 6.0]))

    def test_reduction_is_rank_ordered(self):
        group = WorkerGroup(3)
        locals_ = [
            np.array([0.1], dtype=np.float32),
            np.array([0.2], dtype=np.float32),
            np.array([0.3], dtype=np.float32),
        ]
        want = locals_[0].copy()
        want += locals_[1]
        want += locals_[2]
        assert np.array_equal(group.all_reduce_sum(locals_), want)

    def test_ledger_charge_per_worker(self):
        group = WorkerGroup(4)
        payload = np.zeros(256, dtype=np.float32)  # 1024 bytes
        group.all_reduce_sum([payload.copy() for _ in range(4)])
        assert group.ledger.per_rank_bytes(4) == [1536, 1536, 1536, 1536]

    def test_shape_mismatch_rejected(self):
        group = WorkerGroup(2)
        with pytest.raises(ProtocolError):
            group.all_reduce_sum([np.zeros(3), np.zeros(4)])

    def test_dtype_mismatch_rejected(self):
        group = WorkerGroup(2)
        with pytest.raises(ProtocolError):
            group.all_reduce_sum([np.zeros(3, np.float32), np.zeros(3, np.float64)])

    def test_wrong_contribution_count_rejected(self):
        group = WorkerGroup(3)
        with pytest.raises(ProtocolError):
            group.all_reduce_sum([np.zeros(2), np.zeros(2)])

    def test_non_array_rejected(self):
        group = WorkerGroup(2)
        with pytest.raises(ProtocolError):
            group.all_reduce_sum([np.zeros(2), [0.0, 0.0]])

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            WorkerGroup(0)

    def test_phase_and_epoch_tagging(self):
        group = WorkerGroup(2)
        group.all_reduce_sum([np.zeros(4, np.float32)] * 2, op="a")
        group.set_phase(PHASE_BACKWARD)
        group.advance_epoch()
        group.all_reduce_sum([np.zeros(4, np.float32)] * 2, op="b")
        led = group.ledger
        assert led.total_bytes(phase=PHASE_FORWARD, epoch=0) == 32
        assert led.total_bytes(phase=PHASE_BACKWARD, epoch=1) == 32
        assert led.total_bytes(phase=PHASE_FORWARD, epoch=1) == 0
        assert [op for op, _ in led.ops_in_order()] == ["a", "b"]

    def test_unknown_phase_rejected(self):
        group = WorkerGroup(1)
        with pytest.raises(ValueError):
            group.set_phase("gossip")


class TestLedger:
    def test_ops_in_order(self):
        led = CommLedger()
        led.charge("forward", "x", 0, [3, 4])
        led.charge("forward", "y", 0, [5, 6])
        led.charge("backward", "z", 1, [0, 0])
        assert led.ops_in_order() == [("x", [3, 4]), ("y", [5, 6]), ("z", [0, 0])]
        assert led.ops_in_order(phase="forward") == [("x", [3, 4]), ("y", [5, 6])]
        assert led.ops_in_order(epoch=1) == [("z", [0, 0])]

    def test_filters(self):
        led = CommLedger()
        led.charge("forward", "x", 0, [1, 2, 3])
        led.charge("forward", "x", 2, [10, 20, 30])
        assert led.total_bytes(rank=1) == 22
        assert led.per_rank_bytes(3, epoch=2) == [10, 20, 30]
        assert [op for op, _ in led.ops_in_order()] == ["x", "x"]
        assert led.total_bytes(op="x") == 66
        assert led.total_bytes(op="nope") == 0

    def test_one_entry_per_call_expands_to_one_record_per_rank(self):
        led = CommLedger()
        led.charge("forward", "x", 0, [1, 2, 3])
        led.charge("eval", "y", 4, [4, 5, 6])
        assert len(led.entries) == 2
        assert [(r["op"], r["rank"], r["bytes"]) for r in led.records()] == [
            ("x", 0, 1), ("x", 1, 2), ("x", 2, 3), ("y", 0, 4), ("y", 1, 5), ("y", 2, 6)]
        assert led.total_bytes(rank=2) == 9
        assert led.total_bytes(rank=3) == led.total_bytes(rank=-1) == 0

    def test_records_are_plain_dicts(self):
        led = CommLedger()
        led.charge("forward", "x", 0, [7])
        assert led.records() == [
            {"phase": "forward", "op": "x", "epoch": 0, "rank": 0, "bytes": 7}
        ]

    def test_totals_monotone_under_charges(self):
        led = CommLedger()
        prev = 0
        for i in range(5):
            led.charge("forward", "x", i, [i, i + 1])
            cur = led.total_bytes()
            assert cur >= prev
            prev = cur


def program(locals_, results):
    """A worker program: two collectives, then return what it received."""
    a = yield "first", locals_[0]
    b = yield "second", locals_[1]
    results.append((a, b))
    return a, b


class TestLockstepRun:
    def test_matches_direct_all_reduce_calls(self):
        rng = np.random.default_rng(7)
        n = 4
        locals_by_rank = [
            (rng.uniform(-1, 1, 8).astype(np.float32), rng.uniform(-1, 1, 5).astype(np.float32))
            for _ in range(n)
        ]
        direct = WorkerGroup(n)
        a = direct.all_reduce_sum([x[0] for x in locals_by_rank], op="first")
        b = direct.all_reduce_sum([x[1] for x in locals_by_rank], op="second")

        group = WorkerGroup(n)
        seen = []
        results = group.run(program(x, seen) for x in locals_by_rank)
        assert len(results) == n and len(seen) == n
        for got_a, got_b in results:
            assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
        assert group.ledger.records() == direct.ledger.records()

    def test_every_rank_receives_one_read_only_result(self):
        group = WorkerGroup(2)
        results = group.run(program((np.ones(2), np.ones(3)), []) for _ in range(2))
        assert results[0][0] is results[1][0]
        with pytest.raises(ValueError):
            results[0][0][0] = 5.0

    def test_program_without_collectives_charges_nothing(self):
        def quiet(rank):
            return rank * 10
            yield  # a generator that never reaches a collective

        group = WorkerGroup(3)
        assert group.run(quiet(r) for r in range(3)) == [0, 10, 20]
        assert group.ledger.records() == []

    def test_wrong_program_count_rejected(self):
        group = WorkerGroup(3)
        with pytest.raises(ProtocolError, match="2 programs for 3 workers"):
            group.run(program((np.ones(1), np.ones(1)), []) for _ in range(2))

    def test_mismatched_ops_rejected(self):
        def worker(rank):
            yield ("left" if rank == 0 else "right"), np.zeros(2)

        group = WorkerGroup(2)
        with pytest.raises(ProtocolError, match="rank 1 called 'right' where rank 0 called 'left'"):
            group.run(worker(r) for r in range(2))
        assert group.ledger.records() == []

    def test_early_finishing_rank_rejected(self):
        def worker(rank):
            if rank == 1:
                return None  # never joins the collective
            yield "sum", np.zeros(2, np.float32)

        group = WorkerGroup(3)
        with pytest.raises(ProtocolError, match="rank 1 finished while other ranks wait at 'sum'"):
            group.run(worker(r) for r in range(3))
        assert group.ledger.records() == []

    def test_rank_exception_propagates(self):
        def worker(rank):
            yield "sum", np.zeros(1, np.float32)
            if rank == 1:
                raise RuntimeError("boom")
            yield "sum", np.zeros(1, np.float32)

        group = WorkerGroup(2)
        with pytest.raises(RuntimeError, match="boom"):
            group.run(worker(r) for r in range(2))


class TestTimes:
    def test_network_params_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(alpha=-1e-9, bandwidth=1.0)
        with pytest.raises(ValueError):
            NetworkParams(alpha=0.0, bandwidth=0.0)

    def test_ring_time_single_rank(self):
        assert ring_time(NetworkParams(1e-3, 1e9), 1, 12345) == 0.0

    def test_ring_time_bandwidth_term(self):
        assert ring_time(NetworkParams(0.0, 1.0), 2, 4) == 4.0

    def test_ring_time_latency_term(self):
        assert ring_time(NetworkParams(1.0, 1e9), 4, 0) == 6.0

    def test_substitution_single_payload_equals_ring(self):
        params = NetworkParams(2e-4, 5e8)
        assert substitution_time(params, 4, [4096]) == ring_time(params, 4, 4096)

    def test_substitution_two_payloads(self):
        assert substitution_time(NetworkParams(0.0, 1.0), 2, [4, 4]) == 8.0

    def test_substitution_single_rank_is_zero(self):
        assert substitution_time(NetworkParams(1e-3, 1e6), 1, [4, 8, 16]) == 0.0

    def test_substitution_rejects_empty(self):
        with pytest.raises(ValueError):
            substitution_time(NetworkParams(0.0, 1.0), 2, [])
