"""Every call boundary the benchmark's tracer wraps must exist under its name.

A refactor that renames or removes a traced function otherwise only shows up
when a traced benchmark run reports that a wrapper never fired.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import trace_targets  # noqa: E402


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    for owner, attr, name in targets:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        raw = vars(owner)[attr]
        assert callable(getattr(raw, "__func__", raw)), name
