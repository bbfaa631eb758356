"""Span tracing from outside the program, by class-level wrappers.

The benchmark adds no tracing inside ``src/``.  Instead, for one traced
campaign per world, :func:`install` replaces the public entry point of
each layer with a wrapper that records a span around the call, and
:func:`Installed.remove` puts the originals back.  It must run *before*
``build_world``: ``BatchTicker`` and the safety monitor's step hook
capture bound methods at build time, and a bound method made before the
wrapper was installed would bypass it.

Spans live in memory as ``[name, start, end, parent, run]`` rows and are
reduced to per-layer metrics when the campaign ends.  A span's *self*
time is its duration minus the durations of its direct children, so the
self times of every span under a root add up to that root's duration.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
import weakref
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, RUN = range(5)


class SpanNestingError(RuntimeError):
    """A span ended while a span it did not open was still open."""


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Identifier stamped on every span; one per traced campaign.
        self.run = 0
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.run])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        if not self._stack or self._stack.pop() != index:
            raise SpanNestingError(
                f"span {self.spans[index][NAME]!r} closed out of order")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


@dataclasses.dataclass
class SpanTotals:
    """Per span name: call count, inclusive and self seconds."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def totals(spans: List[list]) -> Dict[str, SpanTotals]:
    out: Dict[str, SpanTotals] = defaultdict(SpanTotals)
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[NAME]]
        entry.calls += 1
        entry.seconds += span[END] - span[START]
        entry.self_seconds += own
    return out


def layer_of(name: str) -> str:
    """Span names are ``<module layer>.<entry point>``."""
    return name.split(".", 1)[0]


def layer_self_seconds(spans: List[list],
                       root: Optional[str] = None) -> Dict[str, float]:
    """Self time per layer, optionally only of spans under ``root``
    spans (the root's own self time is charged to its layer)."""
    own = self_times(spans)
    under = _under_root(spans, root)
    out: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if under[index]:
            out[layer_of(span[NAME])] += own[index]
    return dict(out)


def _under_root(spans: List[list], root: Optional[str]) -> List[bool]:
    if root is None:
        return [True] * len(spans)
    under: List[bool] = []
    for span in spans:
        parent = span[PARENT]
        under.append(span[NAME] == root
                     or (parent is not None and under[parent]))
    return under


# -- wrappers -----------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _spanned_async(tracer: Tracer, name: str, fn):
    # Correct only for coroutines that finish without suspending (the
    # service's query handlers): a suspension would interleave spans,
    # which Tracer.end reports as SpanNestingError.
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.end(index)
    return wrapper


def _after(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result
    return wrapper


def _route_key(state):
    return (state.fabric.state.route_generation,
            frozenset(state.drained_links))


class Installed:
    """The wrappers one :func:`install` put in place."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._saved.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)


#: (module, class, method, span name) of every traced entry point.
ENTRY_POINTS = (
    ("dcrobot.sim.engine", "Simulation", "run", "sim.run"),
    ("dcrobot.sim.engine", "Simulation", "step", "sim.step"),
    ("dcrobot.failures.health", "HealthModel", "tick_all",
     "failures.health"),
    ("dcrobot.failures.dust", "DustProcess", "step_all", "failures.dust"),
    ("dcrobot.failures.aging", "OxidationAging", "step_all",
     "failures.aging"),
    ("dcrobot.failures.injector", "FaultInjector", "inject",
     "failures.inject"),
    ("dcrobot.telemetry.monitor", "TelemetryMonitor", "poll_all",
     "telemetry.poll"),
    ("dcrobot.chaos.safety", "SafetyMonitor", "check", "chaos.safety"),
    ("dcrobot.core.controller", "MaintenanceController", "on_event",
     "core.on_event"),
    ("dcrobot.core.impact", "CongestionGate", "should_defer",
     "core.impact"),
    ("dcrobot.robots.fleet", "RobotFleet", "submit", "robots.submit"),
    ("dcrobot.traffic.driver", "TrafficDriver", "offer", "traffic.offer"),
    ("dcrobot.traffic.state", "TrafficState", "offer_window",
     "traffic.window"),
    ("dcrobot.core.planner", "TwinPlanner", "rank", "twin.rank"),
    ("dcrobot.core.planner", "TwinPlanner", "evaluate", "twin.evaluate"),
    ("dcrobot.twin.world", "TwinWorld", "fork", "twin.fork"),
    ("dcrobot.twin.world", "TwinWorld", "offer_window", "twin.window"),
    ("dcrobot.topology.smi", "SmiTracker", "report", "topology.smi"),
    ("dcrobot.shard.campus", "CampusWorld", "build", "shard.build"),
    ("dcrobot.shard.federation", "CampusFederation", "run",
     "shard.federation"),
    ("dcrobot.service.readmodel", "ReadModel", "refresh",
     "service.refresh"),
)

#: Query endpoints of the service; their handler time is one span name.
QUERY_ENDPOINTS = ("status", "smi", "link_health", "incident",
                   "planned_touches")


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point in :data:`ENTRY_POINTS` and the service's
    query endpoints.  Call before ``build_world`` / ``serve_world``."""
    from dcrobot.service.server import MaintenanceService
    from dcrobot.traffic.state import TrafficState

    counts = tracer.counts
    #: Route key each TrafficState saw at its previous offer_window.
    previous = weakref.WeakKeyDictionary()

    def after_poll(args, events):
        counts["telemetry.symptoms"] += len(events)

    def before_window(fn):
        def wrapper(self, src_index, *args, **kwargs):
            key = _route_key(self)
            if previous.get(self) != key:
                counts["traffic.route_changes"] += 1
                previous[self] = key
            counts["traffic.flows"] += len(src_index)
            return fn(self, src_index, *args, **kwargs)
        return wrapper

    def after_fork(args, twin):
        # A fork inherits its parent's path cache as of the fork, so
        # its first window counts as a route change only if it differs
        # from the parent's key at that moment.
        previous[twin] = _route_key(args[0])

    def make(name):
        if name == "traffic.window":
            return lambda fn: _spanned(tracer, name, before_window(fn))
        after = after_poll if name == "telemetry.poll" else None
        return lambda fn: _spanned(tracer, name, fn, after)

    installed = Installed()
    for module, cls_name, attr, name in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        installed.replace(cls, attr, make(name))
    # Bookkeeping only, no span: the fork's cost belongs to twin.fork.
    installed.replace(TrafficState, "fork",
                      lambda fn: _after(fn, after_fork))
    for attr in QUERY_ENDPOINTS:
        installed.replace(MaintenanceService, attr,
                          lambda fn: _spanned_async(
                              tracer, "service.query", fn))
    return installed


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics that come from spans and wrapper counts."""
    by_name = totals(tracer.spans)
    counts = tracer.counts

    def calls(name: str) -> int:
        return by_name[name].calls if name in by_name else 0

    def seconds(name: str) -> float:
        return by_name[name].seconds if name in by_name else 0.0

    def own(name: str) -> float:
        return by_name[name].self_seconds if name in by_name else 0.0

    windows = calls("traffic.window")
    return {
        "sim.events": calls("sim.step"),
        "sim.self_s": own("sim.run") + own("sim.step"),
        "failures.health.calls": calls("failures.health"),
        "failures.health.s": seconds("failures.health"),
        "failures.dust.s": seconds("failures.dust"),
        "failures.aging.s": seconds("failures.aging"),
        "failures.inject.calls": calls("failures.inject"),
        "telemetry.poll.calls": calls("telemetry.poll"),
        "telemetry.poll.s": seconds("telemetry.poll"),
        "telemetry.symptoms": counts["telemetry.symptoms"],
        "chaos.safety.calls": calls("chaos.safety"),
        "chaos.safety.s": seconds("chaos.safety"),
        "core.on_event.calls": calls("core.on_event"),
        "core.on_event.s": seconds("core.on_event"),
        "core.impact.calls": calls("core.impact"),
        "core.impact.s": seconds("core.impact"),
        "robots.submit.calls": calls("robots.submit"),
        "robots.submit.s": seconds("robots.submit"),
        "traffic.offer.calls": calls("traffic.offer"),
        "traffic.offer.self_s": own("traffic.offer"),
        "traffic.window.calls": windows,
        "traffic.window.s": seconds("traffic.window"),
        "traffic.flows": counts["traffic.flows"],
        "traffic.route_changes": counts["traffic.route_changes"],
        "traffic.route_change_frac": (
            counts["traffic.route_changes"] / windows if windows else 0.0),
        "twin.rank.calls": calls("twin.rank"),
        "twin.rank.self_s": own("twin.rank"),
        "twin.evaluate.calls": calls("twin.evaluate"),
        "twin.fork.s": seconds("twin.fork"),
        "twin.windows": calls("twin.window"),
        "topology.smi.calls": calls("topology.smi"),
        "topology.smi.s": seconds("topology.smi"),
        "shard.build.s": seconds("shard.build"),
        "shard.federation.s": seconds("shard.federation"),
        "service.refresh.calls": calls("service.refresh"),
        "service.refresh.s": seconds("service.refresh"),
        "service.query.calls": calls("service.query"),
        "service.query.s": seconds("service.query"),
    }
