"""Span tracing from outside the package.

Wrappers replace public functions under the names their callers look them up
by (a module global such as ``models.unique_with_inverse`` or a class
attribute such as ``ShardedWeightTable.lookup``), record one span per call in
memory, and are removed again when the traced block ends. A span is
``[name, start, end, parent, step]``; spans are appended in start order, so a
parent always precedes its children.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack, contextmanager

NAME, START, END, PARENT, STEP = range(5)

STEP_ROOT = "models.train_step"


@contextmanager
def patched(owner, attr, wrap):
    """Replace ``owner.attr`` by ``wrap(original)`` for the block; restore after.

    A staticmethod stays a staticmethod, so class-level wrapping works for
    plain methods and static ones alike.
    """
    raw = owner.__dict__[attr]
    is_static = isinstance(raw, staticmethod)
    fn = raw.__func__ if is_static else raw
    new = wrap(fn)
    setattr(owner, attr, staticmethod(new) if is_static else new)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


def trace_targets():
    """(owner, attribute, span name) for every call boundary the trace times."""
    from dessim import collectives, data, models, sparse, training, vecmath

    table = sparse.ShardedWeightTable
    engine = models.SubstitutedModel
    return [
        (training, "load_batches", "data.load_batches"),
        (data, "parse_criteo", "data.parse_criteo"),
        (data, "featurize", "data.featurize"),
        (models.SparseBatch, "from_samples", "data.from_samples"),
        (table, "lookup", "sparse.lookup"),
        (table, "slot_values", "sparse.slot_values"),
        (table, "apply_update", "sparse.apply_update"),
        (models, "unique_with_inverse", "sparse.unique_with_inverse"),
        (engine, "train_step", STEP_ROOT),
        (engine, "forward", "models.forward"),
        (engine, "backward", "models.backward"),
        (engine, "apply_gradients", "models.apply_gradients"),
        (engine, "check_replicas", "models.check_replicas"),
        (models, "mlp_forward", "models.mlp_forward"),
        (models, "mlp_backward", "models.mlp_backward"),
        (vecmath, "matmul_rows", "vecmath.matmul_rows"),
        (models, "optim_step", "optim.step"),
        (models, "dense_step", "optim.dense_step"),
        (collectives.WorkerGroup, "all_reduce_sum", "collectives.all_reduce_sum"),
        (training, "evaluate", "training.evaluate"),
    ]


class Tracer:
    """In-memory span recorder; ``step`` tags the spans of the running step."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.step = None
        self._stack = []

    def wrap(self, name, fn):
        clock = self.clock
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        with ExitStack() as stack:
            for owner, attr, name in targets:
                stack.enter_context(
                    patched(owner, attr, functools.partial(self.wrap, name))
                )
            yield self

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps([name, start, end, parent, step]) + "\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def roots(spans):
    """Index of the outermost ancestor of every span."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def step_closure_error(spans):
    """Largest |sum of self times - root duration| over the step trees, in seconds."""
    selfs = self_times(spans)
    totals = {}
    for i, r in enumerate(roots(spans)):
        if spans[r][NAME] == STEP_ROOT:
            totals[r] = totals.get(r, 0.0) + selfs[i]
    return max(
        (abs(t - (spans[r][END] - spans[r][START])) for r, t in totals.items()),
        default=0.0,
    )
