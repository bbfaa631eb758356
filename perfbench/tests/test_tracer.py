"""The tracer's span bookkeeping and self-time arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def nested_trace():
    """root [0, 10]: a [1, 4] holding b [2, 3]; c [5, 9] holding
    two d spans [6, 6.5] and [7, 8]."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def at(time, action, *args):
        clock.now = time
        return action(*args)

    root = at(0.0, tracer.begin, "sim.run")
    a = at(1.0, tracer.begin, "twin.rank")
    b = at(2.0, tracer.begin, "traffic.window")
    at(3.0, tracer.end, b)
    at(4.0, tracer.end, a)
    c = at(5.0, tracer.begin, "twin.evaluate")
    d1 = at(6.0, tracer.begin, "traffic.window")
    at(6.5, tracer.end, d1)
    d2 = at(7.0, tracer.begin, "traffic.window")
    at(8.0, tracer.end, d2)
    at(9.0, tracer.end, c)
    at(10.0, tracer.end, root)
    return tracer


def test_self_time_is_duration_minus_direct_children():
    tracer = nested_trace()
    own = tracing.self_times(tracer.spans)
    # root 10 - a 3 - c 4; a 3 - b 1; b 1; c 4 - 0.5 - 1; d 0.5; d 1.
    assert own == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]
    assert sum(own) == 10.0


def test_child_time_belongs_to_the_child_layer():
    split = tracing.layer_self_seconds(nested_trace().spans,
                                       root="sim.run")
    assert split == {"sim": 3.0, "twin": 4.5, "traffic": 2.5}
    assert sum(split.values()) == 10.0


def test_totals_per_span_name():
    by_name = tracing.totals(nested_trace().spans)
    window = by_name["traffic.window"]
    assert (window.calls, window.seconds, window.self_seconds) \
        == (3, 2.5, 2.5)
    rank = by_name["twin.rank"]
    assert (rank.calls, rank.seconds, rank.self_seconds) == (1, 3.0, 2.0)


def test_spans_outside_the_root_are_excluded():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    outside = tracer.begin("topology.smi")
    clock.now = 2.0
    tracer.end(outside)
    root = tracer.begin("sim.run")
    clock.now = 5.0
    tracer.end(root)
    assert tracing.layer_self_seconds(tracer.spans, root="sim.run") \
        == {"sim": 3.0}
    assert tracing.layer_self_seconds(tracer.spans) \
        == {"sim": 3.0, "topology": 2.0}


def test_out_of_order_end_is_refused():
    tracer = tracing.Tracer(FakeClock())
    outer = tracer.begin("sim.run")
    tracer.begin("chaos.safety")
    with pytest.raises(tracing.SpanNestingError):
        tracer.end(outer)


def test_install_wraps_and_remove_restores():
    from dcrobot.sim.engine import Simulation
    from dcrobot.twin.world import TwinWorld

    step = Simulation.__dict__["step"]
    fork = TwinWorld.__dict__["fork"]
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        assert Simulation.__dict__["step"] is not step
        assert isinstance(TwinWorld.__dict__["fork"], classmethod)
        sim = Simulation()
        sim.timeout(1.0)
        sim.run(until=2.0)
    finally:
        installed.remove()
    assert Simulation.__dict__["step"] is step
    assert TwinWorld.__dict__["fork"] is fork
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names == ["sim.run", "sim.step"]
    assert tracer.spans[1][tracing.PARENT] == 0
