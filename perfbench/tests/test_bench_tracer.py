import itertools

import pytest

from perfbench.tracer import (
    END, NAME, PARENT, START, STEP, STEP_ROOT, Tracer, patched, roots, self_times,
    step_closure_error,
)


class Target:
    def method(self, x):
        return x + 1

    @staticmethod
    def static(x):
        return x * 2


def make_tracer():
    ticks = itertools.count()
    return Tracer(clock=lambda: float(next(ticks)))


def test_spans_nest_and_self_time_subtracts_children():
    tracer = make_tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()

    root = tracer.wrap(STEP_ROOT, body)
    tracer.step = 7
    root()
    # clock ticks: root 0, leaf 1-2, leaf 3-4, root ends 5
    spans = tracer.spans
    assert [s[NAME] for s in spans] == [STEP_ROOT, "leaf", "leaf"]
    assert [(s[START], s[END]) for s in spans] == [(0.0, 5.0), (1.0, 2.0), (3.0, 4.0)]
    assert [s[PARENT] for s in spans] == [-1, 0, 0]
    assert all(s[STEP] == 7 for s in spans)
    assert self_times(spans) == [3.0, 1.0, 1.0]
    assert roots(spans) == [0, 0, 0]
    assert step_closure_error(spans) == 0.0


def test_self_time_of_a_deep_chain():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 9.0, 0, 0],
        ["c", 2.0, 4.0, 1, 0],
        ["d", 5.0, 8.0, 1, 0],
        ["e", 6.0, 7.0, 3, 0],
    ]
    assert self_times(spans) == [2.0, 3.0, 2.0, 2.0, 1.0]
    assert sum(self_times(spans)) == spans[0][END] - spans[0][START]


def test_span_closes_when_the_call_raises():
    tracer = make_tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans == [["boom", 0.0, 1.0, -1, None]]
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[1][PARENT] == -1


def test_installed_wraps_methods_and_staticmethods_then_restores():
    tracer = make_tracer()
    method, static = Target.__dict__["method"], Target.__dict__["static"]
    targets = [(Target, "method", "t.method"), (Target, "static", "t.static")]
    with tracer.installed(targets):
        assert Target().method(1) == 2
        assert Target.static(3) == 6
    assert [s[NAME] for s in tracer.spans] == ["t.method", "t.static"]
    assert Target.__dict__["method"] is method
    assert Target.__dict__["static"] is static


def test_patched_restores_after_an_error():
    original = Target.__dict__["method"]
    with pytest.raises(RuntimeError):
        with patched(Target, "method", lambda fn: lambda self, x: fn(self, x) * 10):
            assert Target().method(1) == 20
            raise RuntimeError
    assert Target.__dict__["method"] is original
