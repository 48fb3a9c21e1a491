"""Synchronous sharded training for sparse recommendation models.

The engine replaces each model's weights-rich first layer with shard-local
partial operators, aggregates their results with ring-accounted collectives,
and keeps the backward phase communication-free. Monolithic oracles, analytic
cost models, and a verification suite ship alongside.
"""

from .collectives import CommLedger, NetworkParams, WorkerGroup
from .costmodel import (
    CostInputs,
    q_des,
    q_mesh,
    ring_time,
    saving_ratio,
    strategy_times,
    substitution_time,
)
from .data import SyntheticSpec, featurize, gen_synthetic, parse_criteo, read_criteo_batches
from .errors import (
    ConsistencyError,
    DimensionError,
    MetricError,
    ParseError,
    PlacementError,
    ProtocolError,
)
from .baselines import MonolithicModel
from .metrics import auc, logloss
from .models import ModelGraph, SparseBatch, SubstitutedModel
from .optim import OptimizerConfig
from .sparse import ShardedWeightTable, TablePart
from .training import MetricsSnapshot, RunConfig, bench_comm, evaluate, train
from .verification import run_verify

__version__ = "0.1.0"

__all__ = [
    "CommLedger",
    "ConsistencyError",
    "CostInputs",
    "DimensionError",
    "MetricError",
    "MetricsSnapshot",
    "ModelGraph",
    "MonolithicModel",
    "NetworkParams",
    "OptimizerConfig",
    "ParseError",
    "PlacementError",
    "ProtocolError",
    "RunConfig",
    "ShardedWeightTable",
    "SparseBatch",
    "SubstitutedModel",
    "SyntheticSpec",
    "TablePart",
    "WorkerGroup",
    "auc",
    "bench_comm",
    "evaluate",
    "featurize",
    "gen_synthetic",
    "logloss",
    "parse_criteo",
    "q_des",
    "q_mesh",
    "read_criteo_batches",
    "ring_time",
    "run_verify",
    "saving_ratio",
    "strategy_times",
    "substitution_time",
    "train",
]
