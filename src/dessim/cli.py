"""Command-line surface: train, verify, bench-comm, digest, report.

Exit codes: 0 success, 1 check failure, 2 usage error, 141 (128 + SIGPIPE)
when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .artifacts import encode_cell, rows_to_json, rows_to_tsv, write_files
from .costmodel import CommReportRow
from .models import MODEL_KINDS, ModelGraph
from .training import RunConfig, bench_comm, bits_digest, train
from .verification import DEFAULT_N_GRID, run_verify

USAGE_ERROR = 2
CHECK_FAILURE = 1
CLOSED_STDOUT = 141


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dessim",
        description="Synchronous sharded training with equivalent-substitution collectives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the synchronous training loop")
    p_train.add_argument("--model", choices=MODEL_KINDS, default=None)
    p_train.add_argument("--workers", type=int, default=None, metavar="N")
    p_train.add_argument("--batch", type=int, default=None, metavar="B")
    p_train.add_argument("--data", default=None, metavar="PATH|synthetic")
    p_train.add_argument("--epochs", type=int, default=None, metavar="E")
    p_train.add_argument("--seed", type=int, default=None, metavar="S",
                         help="data seed; without --config also the graph seed, with "
                              "--config the graph seed comes from the file")
    p_train.add_argument("--config", metavar="FILE", help="run config JSON; flags override")
    p_train.add_argument("--out", metavar="DIR", help="write metrics, config, checkpoint here")
    p_train.add_argument("--fields", type=int, default=None,
                         help="field count, of the synthetic data too (default: synthetic "
                              "spec / 39 for Criteo files)")
    p_train.add_argument("--train-samples", type=int, default=None)
    p_train.add_argument("--test-samples", type=int, default=None)

    p_verify = sub.add_parser("verify", help="equivalence, identity, gradient, ledger checks")
    p_verify.add_argument("--trials", type=int, default=100,
                          help="equivalence instances per model kind")
    p_verify.add_argument("--identity-trials", type=int, default=1000)
    p_verify.add_argument("--grad-instances", type=int, default=50)
    p_verify.add_argument("--workers-grid", default=",".join(str(n) for n in DEFAULT_N_GRID),
                          metavar="N1,N2,...")
    p_verify.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench-comm", help="predicted vs measured communication bytes")
    p_bench.add_argument("--workers", type=int, default=4, metavar="N")
    p_bench.add_argument("--dim", type=int, default=8)
    p_bench.add_argument("--fc-width", type=int, default=16)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", metavar="DIR", help="write comm-report.tsv/.json here")

    sub.add_parser(
        "digest", help="checkpoint, metric and ledger digests of 30 fixed training runs"
    )

    p_report = sub.add_parser("report", help="render a metrics or comm report file")
    p_report.add_argument("path", metavar="FILE")

    return parser


def _cmd_train(args):
    if args.config:
        with open(args.config, "rt", encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
    else:
        data = args.data if args.data is not None else "synthetic"
        graph = ModelGraph(kind="lr", n_fields=10 if data == "synthetic" else 39,
                           seed=args.seed or 0)
        cfg = RunConfig(graph=graph, data=data)
    # explicit flags override the config document
    graph = dataclasses.replace(cfg.graph, **_given(kind=args.model, n_fields=args.fields))
    cfg = dataclasses.replace(cfg, graph=graph, **_given(
        n_workers=args.workers, batch_size=args.batch, epochs=args.epochs, seed=args.seed,
        data=args.data, train_samples=args.train_samples, test_samples=args.test_samples,
        out_dir=args.out,
    ))
    if args.fields is not None and cfg.data == "synthetic":
        # synthetic data gets the graph's field count; a spec with every field
        # active keeps them all active, any other active range is clamped
        spec, f = cfg.synthetic, args.fields
        lo, hi = ((spec.min_active_fields, spec.max_active_fields)
                  if spec.min_active_fields < spec.n_fields else (f, f))
        cfg = dataclasses.replace(cfg, synthetic=dataclasses.replace(
            spec, n_fields=f, min_active_fields=min(lo, f), max_active_fields=min(hi, f)))
    if cfg.data != "synthetic" and not os.path.exists(cfg.data):
        print(f"dessim train: data file not found: {cfg.data}", file=sys.stderr)
        return USAGE_ERROR

    result = train(cfg)
    print(f"model={cfg.graph.kind} workers={cfg.n_workers} batch={cfg.batch_size} "
          f"epochs={cfg.epochs} seed={cfg.seed}")
    for snap in result.snapshots:
        print(f"step={snap.step} auc={snap.auc:.6f} logloss={snap.logloss:.6f} "
              f"fwd_bytes={snap.fwd_bytes} bwd_bytes={snap.bwd_bytes} "
              f"wall_ms={snap.wall_ms:.1f}")
    if not result.snapshots:
        print("no training steps (0 epochs); table untouched")
    if cfg.out_dir:
        print(f"artifacts written to {cfg.out_dir}")
    return 0


def _given(**values):
    """The values a flag set, leaving out the flags left at None."""
    return {name: value for name, value in values.items() if value is not None}


def _cmd_verify(args):
    try:
        n_grid = tuple(int(x) for x in args.workers_grid.split(",") if x)
    except ValueError:
        print(f"dessim verify: bad --workers-grid {args.workers_grid!r}", file=sys.stderr)
        return USAGE_ERROR
    if not n_grid or any(n < 1 for n in n_grid):
        print(f"dessim verify: bad --workers-grid {args.workers_grid!r}", file=sys.stderr)
        return USAGE_ERROR
    reports, ok = run_verify(
        trials=args.trials,
        identity_trials=args.identity_trials,
        grad_instances=args.grad_instances,
        n_grid=n_grid,
        seed=args.seed,
    )
    for report in reports:
        print(report.summary())
        for seed, message in report.failures[:20]:
            print(f"  seed {seed}: {message}")
        if len(report.failures) > 20:
            print(f"  ... and {len(report.failures) - 20} more")
    return 0 if ok else CHECK_FAILURE


def _cmd_bench(args):
    rows = bench_comm(
        n_workers=args.workers, dim=args.dim, first_fc_width=args.fc_width, seed=args.seed
    )
    tsv = rows_to_tsv(CommReportRow, rows)
    print(tsv, end="")
    exact = all(row.measured_bytes == row.q_des for row in rows)
    print(f"measured == predicted q_des for all rows: {'yes' if exact else 'NO'}")
    if args.out:
        write_files(args.out, {"comm-report.tsv": tsv, "comm-report.json": rows_to_json(rows)})
        print(f"reports written to {args.out}")
    return 0 if exact else CHECK_FAILURE


def _cmd_digest(args):
    for line in bits_digest():
        print(line, flush=True)
    return 0


def _cmd_report(args):
    if not os.path.exists(args.path):
        print(f"dessim report: file not found: {args.path}", file=sys.stderr)
        return USAGE_ERROR
    with open(args.path, "rt", encoding="utf-8") as fh:
        text = fh.read()
    if args.path.endswith(".json"):
        doc = json.loads(text)
        rows = doc.get("rows", [doc]) if isinstance(doc, dict) else doc
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            raise ValueError(f"{args.path}: expected an object, a list of row objects "
                             f"or an object whose \"rows\" is one")
        # every key of any row, first seen first; a TSV file and its JSON twin print alike
        header = list(dict.fromkeys(key for row in rows for key in row))
        lines = [header] + [[encode_cell(row[k]) if k in row else "" for k in header]
                            for row in rows]
    else:
        numbered = [(n, ln.split("\t"))
                    for n, ln in enumerate(text.splitlines(), start=1) if ln]
        header = numbered[0][1] if numbered else []
        for n, row in numbered:
            if len(row) > len(header):
                raise ValueError(f"{args.path}: line {n} has {len(row)} cells, "
                                 f"more than the header's {len(header)}")
        lines = [row for _, row in numbered]
    if not header:
        print("(empty report)")
        return 0
    widths = [max(len(row[i]) for row in lines if i < len(row)) for i in range(len(header))]
    for row in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "verify": _cmd_verify,
        "bench-comm": _cmd_bench,
        "digest": _cmd_digest,
        "report": _cmd_report,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # so that a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # nobody reads stdout any more; point it at devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except (ValueError, OSError) as exc:
        # bad flag values, malformed documents, unreadable paths; protocol
        # and consistency violations are bugs and stay loud
        print(f"dessim {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
