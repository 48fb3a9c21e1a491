"""Every call boundary the benchmark's tracer wraps must exist and fire.

A refactor that renames, removes or bypasses a traced function otherwise only
shows up when a traced benchmark run reports that a wrapper never fired, that
a step's self times miss its root span, or that it found no sparse table.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dessim import training  # noqa: E402
from dessim.collectives import WorkerGroup  # noqa: E402
from dessim.models import MODEL_KINDS, ModelGraph, SparseBatch, SubstitutedModel  # noqa: E402
from perfbench.run import CLOSURE_TOLERANCE_S, _tables  # noqa: E402
from perfbench.tracer import NAME, Tracer, step_closure_error, trace_targets  # noqa: E402


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    for owner, attr, name in targets:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        raw = vars(owner)[attr]
        assert callable(getattr(raw, "__func__", raw)), name


def engine_spans(graph):
    """The engine-level spans one train step and one evaluation of ``graph`` reach."""
    names = {name for _, _, name in trace_targets() if not name.startswith("data.")}
    if not graph.uses_mlp:
        names -= {"models.mlp_forward", "models.mlp_backward"}
    if not graph.uses_tower:
        names.discard("vecmath.matmul_rows")
    return names


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_traced_step_and_eval_fire_every_engine_target(kind):
    """What a traced benchmark run checks, on one step and one evaluation."""
    graph = ModelGraph(kind=kind, n_fields=4, embedding_dim=3, first_fc_width=4, seed=2)
    engine = SubstitutedModel(graph, WorkerGroup(3))
    rng = np.random.default_rng(17)
    n = 40
    batch = SparseBatch(
        labels=rng.integers(0, 2, 8).astype(np.float64),
        sample_ids=rng.integers(0, 8, n),
        fields=rng.integers(0, graph.n_fields, n),
        keys=rng.integers(0, 30, n).astype(np.uint64),
        values=rng.uniform(-1, 1, n),
    )
    tracer = Tracer()
    with tracer.installed(trace_targets()):
        engine.train_step(batch)
        training.evaluate(engine, [batch])
    fired = {span[NAME] for span in tracer.spans}
    assert fired == engine_spans(graph)
    assert step_closure_error(tracer.spans) <= CLOSURE_TOLERANCE_S
    assert _tables(engine) == [engine.table]
