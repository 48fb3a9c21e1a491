"""Walk through one all-reduce and read the byte ledger.

Four workers each hold a small float32 vector. The group sums them with a
simulated ring all-reduce and charges every worker for the bytes it would
have sent on a real ring. The point of the walkthrough: the charge depends
only on the payload size and the ring size, and it matches the closed form
2S - (the two chunks a rank never sends) byte for byte.
"""

import numpy as np

from dessim.collectives import NetworkParams, WorkerGroup, ring_chunk_sizes
from dessim.costmodel import allreduce_sent_bytes_formula, ring_time

N = 3
PAYLOAD_FLOATS = 10  # 40 bytes over 3 ranks, so chunks come out uneven


def main():
    group = WorkerGroup(N)
    locals_ = [np.full(PAYLOAD_FLOATS, float(r + 1), dtype=np.float32) for r in range(N)]
    total = group.all_reduce_sum(locals_, op="demo.sum")

    print(f"{N} workers all-reduce {PAYLOAD_FLOATS} float32 values (40 bytes)")
    print(f"every rank receives the same sum: {total[:4]} ...")
    assert np.all(total == sum(range(1, N + 1)))

    nbytes = PAYLOAD_FLOATS * 4
    print(f"\nchunking of {nbytes} bytes over {N} ranks: {ring_chunk_sizes(nbytes, N)}")

    print("\nledger rows (phase, op, epoch, rank, bytes):")
    for row in group.ledger.records():
        print(f"  {row['phase']:>8} {row['op']:>8}  epoch={row['epoch']} "
              f"rank={row['rank']} bytes={row['bytes']}")

    measured = group.ledger.per_rank_bytes(N)
    predicted = allreduce_sent_bytes_formula(nbytes, N)
    print(f"\nper-rank bytes measured : {measured}")
    print(f"per-rank bytes predicted: {predicted}")
    assert measured == predicted

    params = NetworkParams(alpha=5e-6, bandwidth=1e9)
    print(f"\nring time for this payload at alpha=5us, 1 GB/s: "
          f"{ring_time(params, N, nbytes):.3e} s")
    print("\na second all-reduce doubles every charge, nothing hides in totals:")
    group.all_reduce_sum(locals_, op="demo.sum")
    print(f"total bytes now {group.ledger.total_bytes()} "
          f"(was {sum(measured)})")


if __name__ == "__main__":
    main()
