"""Training benchmark: one workload, one seed, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload deepfm-n4-warm --seed 1 --seconds 60 --trace 0

Each run is a closed loop with one client: it calls ``training.train`` (the
path ``dessim train`` takes) again and again on the same seeded inputs until
``--seconds`` are used, and every synchronous step starts only after the
previous one ended. Before a call whose set-up is cheap it runs set-up probes
that stop ``training.train`` at its first step, so set-up time has several
samples. After a call whose held-out split is small, the trained engine
evaluates it again, so evaluation is timed over enough samples.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics, taken from
traced calls that alternate with untraced ones (the untraced ones give
``trace.overhead``). The lines above it print every metric by name and unit,
the bases of the ratios, and the machine record. The full record, and the
spans of a traced run, go to ``perfbench/out/``.

Every run checks its outputs; any failed check prints ``"correct": false``,
counts every step of the run as failed and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    END, NAME, START, STEP_ROOT, Tracer, patched, roots, self_times,
    step_closure_error, trace_targets,
)
from perfbench.workloads import WORKLOADS, expected_train_steps, run_config, write_criteo_tsv  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "step_ms.p90": "ms",
    "eval_samples_per_s": "samples/s",
    "test_auc": "ratio",
    "test_logloss": "nats",
    "peak_rss_mb": "MB",
}

# Printed and recorded with the end-to-end metrics but not listed among them:
# on a shared host the median step lands between the CPU's fast and slow
# states, and its spread over runs is close to the largest bound allowed.
REPORTED = {"step_ms.p50": "ms"}

# fwd_bytes_per_sample is 0 at N=1 and step_error_rate is 0 on a good run,
# so they ride with the per-layer metrics, which have no bound.
PER_LAYER = {
    "fwd_bytes_per_sample": "bytes/sample",
    "step_error_rate": "ratio",
    "data.load_ms": "ms/setup",
    "data.featurize_us_per_record": "us/record",
    "data.batch_build_ms": "ms/setup",
    "sparse.lookup_ms": "ms/step",
    "sparse.insert_ratio": "ratio",
    "sparse.insert_ratio_after_epoch1": "ratio",
    "sparse.keys_per_step": "count",
    "sparse.update_ms": "ms/step",
    "sparse.dedup_ms": "ms/step",
    "sparse.entries": "count",
    "models.forward_self_ms": "ms/step",
    "models.backward_self_ms": "ms/step",
    "models.apply_self_ms": "ms/step",
    "models.replicated_ms": "ms/step",
    "models.step_self_ms": "ms/step",
    "vecmath.matmul_ms": "ms/step",
    "vecmath.matmul_calls": "calls/step",
    "optim.sparse_step_ms": "ms/step",
    "optim.dense_step_ms": "ms/step",
    "collectives.allreduce_ms": "ms/step",
    "collectives.calls_per_step": "calls/step",
    "collectives.bytes_per_step": "bytes/step",
    "collectives.ledger_rows": "count",
    "training.eval_self_us_per_sample": "us/sample",
    "trace.overhead": "ratio",
}

# Step-level per-layer times: self time of these spans inside training steps.
STEP_SELF_MS = {
    "sparse.lookup_ms": ("sparse.lookup",),
    "sparse.update_ms": ("sparse.slot_values", "sparse.apply_update"),
    "sparse.dedup_ms": ("sparse.unique_with_inverse",),
    "models.forward_self_ms": ("models.forward",),
    "models.backward_self_ms": ("models.backward",),
    "models.apply_self_ms": ("models.apply_gradients",),
    "models.replicated_ms": ("models.mlp_forward", "models.mlp_backward", "models.check_replicas"),
    "models.step_self_ms": (STEP_ROOT,),
    "vecmath.matmul_ms": ("vecmath.matmul_rows",),
    "optim.sparse_step_ms": ("optim.step",),
    "optim.dense_step_ms": ("optim.dense_step",),
    "collectives.allreduce_ms": ("collectives.all_reduce_sum",),
}

# Before every train call, set-up probes run until they and the previous
# call's own set-up took SETUP_PHASE_S together (at most SETUP_PHASE_MAX), so
# a cheap set-up gets many samples and a costly one spends no time on probes
# after the first call.
SETUP_PHASE_S = 0.1
SETUP_PHASE_MAX = 500
# After train returns, the trained engine evaluates the held-out batches
# again until the call has evaluated EVAL_MIN_SAMPLES samples, so a small
# held-out split is still timed long enough to average out the host's speed.
EVAL_MIN_SAMPLES = 12000
# The self times of a step's spans must add up to its root span.
CLOSURE_TOLERANCE_S = 1e-6
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class SetupProbeDone(Exception):
    """Raised at the first train_step of a set-up probe to end ``train`` there."""


class Rep:
    """What one ``training.train`` call did, measured at its public boundaries.

    It keeps counts, not the engine, so one call's memory is gone before the
    next call starts and peak RSS does not grow with the number of calls.
    """

    def __init__(self, traced, n_workers):
        self.traced = traced
        self.setup_s = None
        self.setups = []  # the probes' set-up times before this call, then its own
        self.step_s = []
        self.attempted = 0
        self.samples = 0
        self.keys = 0
        self.expected_fwd = [0] * n_workers  # per-rank forward bytes, closed form
        self.measured_fwd = [0] * n_workers  # per-rank forward bytes, ledger
        self.epochs = []  # (rows created, (field, key) lookups) per training epoch
        self.eval_s = 0.0
        self.eval_samples = 0
        self.test_batches = None
        self.done = False
        self.snapshots = []
        self.moved = {}  # bytes charged to the non-forward phases
        self.entries = 0
        self.ledger_rows = 0
        self._mark = None

    def open_segment(self, engine):
        self._mark = (_ledger_forward(engine), _entries(engine), self.keys)

    def close_segment(self, engine):
        """Attribute what changed since open_segment to training steps."""
        if self._mark is None:
            return
        fwd0, entries0, keys0 = self._mark
        self._mark = None
        fwd = _ledger_forward(engine)
        self.measured_fwd = [m + b - a for m, a, b in zip(self.measured_fwd, fwd0, fwd)]
        if self.keys > keys0:
            lookups = (self.keys - keys0) * len(_tables(engine))
            self.epochs.append((_entries(engine) - entries0, lookups))

    def finish(self, result):
        from dessim.collectives import PHASE_BACKWARD, PHASE_OPTIMIZER

        self.close_segment(result.engine)
        ledger = result.group.ledger
        self.moved = {p: ledger.total_bytes(phase=p) for p in (PHASE_BACKWARD, PHASE_OPTIMIZER)}
        self.entries = _entries(result.engine)
        self.ledger_rows = len(ledger.records())
        self.snapshots = result.snapshots
        self.done = True


def _tables(engine):
    from dessim.sparse import ShardedWeightTable

    return [v for v in vars(engine).values() if isinstance(v, ShardedWeightTable)]


def _entries(engine):
    return sum(t.n_entries() for t in _tables(engine))


def _ledger_forward(engine):
    from dessim.collectives import PHASE_FORWARD

    group = engine.group
    return group.ledger.per_rank_bytes(group.n_workers, phase=PHASE_FORWARD)


class Recorder:
    """Times train_step and evaluate around every call, traced or not.

    It also keeps the ledger and table counts at the edges of each run of
    training steps, so the training bytes stay exact wherever evaluation
    charges its own traffic.
    """

    def __init__(self, cfg, tracer):
        self.cfg = cfg
        self.tracer = tracer
        self.rep = None
        self.probe = False
        self.t_enter = None
        self._expected = {}

    def expected_forward(self, batch_size):
        from dessim.costmodel import expected_forward_bytes

        if batch_size not in self._expected:
            self._expected[batch_size] = expected_forward_bytes(
                self.cfg.graph, batch_size, self.cfg.n_workers
            )
        return self._expected[batch_size]

    def installed(self):
        from dessim import models, training

        stack = ExitStack()
        stack.enter_context(patched(models.SubstitutedModel, "train_step", self._wrap_step))
        stack.enter_context(patched(training, "evaluate", self._wrap_evaluate))
        return stack

    def _wrap_step(self, fn):
        def train_step(engine, batch):
            rep = self.rep
            if rep.setup_s is None:
                rep.setup_s = time.perf_counter() - self.t_enter
                if self.probe:
                    raise SetupProbeDone
                rep.open_segment(engine)
            self.tracer.step = len(rep.step_s)
            rep.attempted += 1
            t0 = time.perf_counter()
            out = fn(engine, batch)
            rep.step_s.append(time.perf_counter() - t0)
            self.tracer.step = None
            rep.samples += batch.batch_size
            rep.keys += batch.keys.size
            rep.expected_fwd = [
                a + b for a, b in zip(rep.expected_fwd, self.expected_forward(batch.batch_size))
            ]
            return out

        return train_step

    def _wrap_evaluate(self, fn):
        def evaluate(engine, batches):
            rep = self.rep
            rep.test_batches = batches
            rep.close_segment(engine)
            t0 = time.perf_counter()
            out = fn(engine, batches)
            rep.eval_s += time.perf_counter() - t0
            rep.eval_samples += sum(b.batch_size for b in batches)
            if not rep.done:
                rep.open_segment(engine)
            return out

        return evaluate

    def run(self, traced, probe=False):
        from dessim import training

        rep = Rep(traced, self.cfg.n_workers)
        self.rep = rep
        self.probe = probe
        with ExitStack() as stack:
            if traced:
                stack.enter_context(self.tracer.installed(trace_targets()))
            stack.enter_context(self.installed())
            self.t_enter = time.perf_counter()
            try:
                result = training.train(self.cfg)
            except SetupProbeDone:
                return rep
            rep.finish(result)
            while 0 < rep.eval_samples < EVAL_MIN_SAMPLES:
                training.evaluate(result.engine, rep.test_batches)
        return rep


def check_rep(rep, workload, reference):
    """Failed correctness checks of one completed ``train`` call."""
    failures = []
    want_steps = expected_train_steps(workload)
    if len(rep.step_s) != want_steps:
        failures.append(f"ran {len(rep.step_s)} train steps, expected {want_steps}")
    if rep.measured_fwd != rep.expected_fwd:
        failures.append(
            f"training forward bytes per rank {rep.measured_fwd} != closed form {rep.expected_fwd}"
        )
    for phase, moved in rep.moved.items():
        if moved:
            failures.append(f"{phase} phase moved {moved} bytes, expected 0")
    final = rep.snapshots[-1]
    if not math.isfinite(final.logloss):
        failures.append(f"test log loss is {final.logloss}")
    if not final.auc >= workload.auc_floor:
        failures.append(f"test AUC {final.auc:.4f} is under the floor {workload.auc_floor}")
    if workload.warm:
        late = sum(created for created, _ in rep.epochs[1:])
        if late:
            failures.append(f"{late} table rows created after epoch 1 of a warm workload")
    if reference is not None:
        got = [s.deterministic_fields() for s in rep.snapshots]
        want = [s.deterministic_fields() for s in reference.snapshots]
        if got != want:
            failures.append(f"replay of the same inputs gave {got[-1]}, first call gave {want[-1]}")
    return failures


def check_trace(spans, workload):
    """Failed checks on the spans of the traced calls."""
    failures = []
    fired = {}
    for s in spans:
        fired[s[NAME]] = fired.get(s[NAME], 0) + 1
    for _, _, name in trace_targets():
        n = fired.get(name, 0)
        if name in workload.silent and n:
            failures.append(f"{name} fired {n} times; predicted 0 on {workload.name}")
        if name not in workload.silent and not n:
            failures.append(f"{name} never fired on {workload.name}")
    err = step_closure_error(spans)
    if err > CLOSURE_TOLERANCE_S:
        failures.append(f"self times of a step miss its root span by {err * 1e6:.3f} us")
    return failures


def end_to_end_metrics(reps):
    """The end-to-end metrics of the untraced train calls.

    Set-up time is the median set-up before each train call, averaged over
    the calls; the step-time percentiles are taken over every untraced step
    of the run.
    """
    final = reps[0].snapshots[-1]
    steps = [t for r in reps for t in r.step_s]
    return {
        "setup_s": statistics.fmean(statistics.median(r.setups) for r in reps),
        "train_samples_per_s": _throughput(reps),
        "step_ms.p50": stats.percentile(steps, 50) * 1e3,
        "step_ms.p90": stats.percentile(steps, 90) * 1e3,
        "eval_samples_per_s": sum(r.eval_samples for r in reps) / sum(r.eval_s for r in reps),
        "test_auc": final.auc,
        "test_logloss": final.logloss,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(spans, traced, untraced, n_workers):
    """Per-layer metrics from the spans of the traced calls."""
    selfs = self_times(spans)
    top = roots(spans)
    in_step = [spans[r][NAME] == STEP_ROOT for r in top]
    steps = sum(len(r.step_s) for r in traced)
    setups = len(traced)

    def step_self(names):
        return sum(x for s, x, ok in zip(spans, selfs, in_step) if ok and s[NAME] in names)

    def step_calls(name):
        return sum(1 for s, ok in zip(spans, in_step) if ok and s[NAME] == name)

    def inclusive(names):
        return sum(s[END] - s[START] for s in spans if s[NAME] in names)

    records = sum(1 for s in spans if s[NAME] == "data.featurize")
    out = {name: step_self(names) / steps * 1e3 for name, names in STEP_SELF_MS.items()}
    out["data.load_ms"] = inclusive({"data.load_batches"}) / setups * 1e3
    out["data.featurize_us_per_record"] = (
        inclusive({"data.parse_criteo", "data.featurize"}) / records * 1e6 if records else 0.0
    )
    out["data.batch_build_ms"] = inclusive({"data.from_samples"}) / setups * 1e3
    out["vecmath.matmul_calls"] = step_calls("vecmath.matmul_rows") / steps
    out["collectives.calls_per_step"] = step_calls("collectives.all_reduce_sum") / steps
    eval_self = sum(x for s, x in zip(spans, selfs) if s[NAME] == "training.evaluate")
    out["training.eval_self_us_per_sample"] = eval_self / sum(r.eval_samples for r in traced) * 1e6
    out["trace.overhead"] = _throughput(traced) / _throughput(untraced)
    out.update(accounting_metrics(traced + untraced, n_workers))
    return out


def _throughput(reps):
    return sum(r.samples for r in reps) / sum(sum(r.step_s) for r in reps)


def accounting_metrics(reps, n_workers):
    """Counts every call records, traced or not: bytes, rows and lookups."""
    samples = sum(r.samples for r in reps)
    steps = sum(len(r.step_s) for r in reps)
    fwd = sum(sum(r.measured_fwd) for r in reps)
    first = [e for r in reps for e in r.epochs[:1]]
    later = [e for r in reps for e in r.epochs[1:]]
    return {
        "fwd_bytes_per_sample": fwd / n_workers / samples,
        "collectives.bytes_per_step": fwd / n_workers / steps,
        "sparse.insert_ratio": _ratio(first + later),
        "sparse.insert_ratio_after_epoch1": _ratio(later),
        "sparse.keys_per_step": sum(r.keys for r in reps) / steps,
        "sparse.entries": reps[-1].entries,
        "collectives.ledger_rows": reps[-1].ledger_rows,
    }


def _ratio(epochs):
    lookups = sum(n for _, n in epochs)
    return sum(c for c, _ in epochs) / lookups if lookups else 0.0


def ratio_bases(reps):
    """Denominators of the reported ratios, for the human-readable report."""
    first = sum(n for r in reps for _, n in r.epochs[:1])
    later = sum(n for r in reps for _, n in r.epochs[1:])
    return {
        "sparse.insert_ratio": f"of {first + later} (field, key) lookups in training steps",
        "sparse.insert_ratio_after_epoch1": f"of {later} lookups after epoch 1",
        "sparse.keys_per_step": f"over {sum(len(r.step_s) for r in reps)} steps",
        "step_error_rate": f"of {sum(r.attempted for r in reps)} attempted train steps",
        "fwd_bytes_per_sample": f"per rank, over {sum(r.samples for r in reps)} training samples",
    }


def machine_record():
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def make_config(stack, workload, seed):
    """The run's RunConfig, with its inputs made before any timed region."""
    from dessim import training

    if workload.source == "synthetic":
        cfg = run_config(workload, seed)
        inputs = {split: training.load_batches(cfg, split) for split in ("train", "test")}
        stack.enter_context(
            patched(training, "load_batches", lambda fn: lambda cfg_, split: list(inputs[split]))
        )
        return cfg
    tmp = stack.enter_context(tempfile.TemporaryDirectory(dir=OUT_DIR))
    return run_config(workload, seed, write_criteo_tsv(os.path.join(tmp, "clicks.tsv"), seed))


def measure(recorder, workload, seconds, trace):
    """Train calls, each after a phase of set-up probes, until ``seconds`` are used.

    Returns (train calls, failed checks).
    """
    reps, failures = [], []
    start = time.perf_counter()
    try:
        while True:
            setups = []
            spent = reps[-1].setup_s if reps else 0.0
            while sum(setups) + spent < SETUP_PHASE_S and len(setups) < SETUP_PHASE_MAX:
                setups.append(recorder.run(traced=False, probe=True).setup_s)
            rep = recorder.run(traced=trace and len(reps) % 2 == 1)
            rep.setups = setups + [rep.setup_s]
            reps.append(rep)
            failures += check_rep(rep, workload, reps[0] if len(reps) > 1 else None)
            if failures:
                break
            # Stop where one more call would end past the deadline by more
            # than half a call, so runs end near ``seconds`` on average.
            elapsed = time.perf_counter() - start
            if len(reps) >= (2 if trace else 1) and elapsed * (len(reps) + 0.5) / len(reps) > seconds:
                break
    except Exception:  # noqa: BLE001 - any engine error fails the run, reported below
        traceback.print_exc()
        failures.append("a train call raised; traceback above")
        if recorder.rep not in reps:
            reps.append(recorder.rep)
    return reps, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dessim" / "__init__.py").is_file():
        print(f"error: no dessim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)

    tracer = Tracer()
    with ExitStack() as stack:
        cfg = make_config(stack, workload, args.seed)
        reps, failures = measure(Recorder(cfg, tracer), workload, args.seconds, trace)

    done = [r for r in reps if r.done]
    untraced = [r for r in done if not r.traced]
    traced = [r for r in done if r.traced]
    if not failures and trace:
        failures += check_trace(tracer.spans, workload)
    metrics = {}
    if not failures and trace:
        metrics = layer_metrics(tracer.spans, traced, untraced, cfg.n_workers)
    elif not failures:
        metrics = end_to_end_metrics(untraced)
        metrics.update(accounting_metrics(done, cfg.n_workers))
    attempted = max(1, sum(r.attempted for r in reps))
    failed = attempted if failures else 0
    metrics["step_error_rate"] = failed / attempted
    units = {**END_TO_END, **REPORTED, **PER_LAYER}
    bases = ratio_bases(reps)

    machine = machine_record()
    print(f"machine: {json.dumps(machine)}")
    print(
        f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced train calls, {sum(len(r.setups) for r in untraced)} set-ups "
        f"and {sum(len(r.step_s) for r in untraced)} steps untraced"
    )
    for name, value in metrics.items():
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"  {name} = {_fmt(value)} {units[name]}{base}")
    for f in failures:
        print(f"FAILED: {f}")

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "config": json.loads(cfg.to_json()),
        "failures": failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "bases": bases, "setup_s": [r.setups for r in reps],
        "step_ms": [[t * 1e3 for t in r.step_s] for r in reps],
        "eval": [{"s": r.eval_s, "samples": r.eval_samples, "traced": r.traced} for r in reps],
    }
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        tracer.write(OUT_DIR / f"{tag}-spans.jsonl")

    wanted = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]} for k in wanted if k in metrics},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
