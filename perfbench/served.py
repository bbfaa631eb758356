"""The served workload: a two-hall campus behind one service plane,
under open-loop load from a single-process asyncio client.

The client sends at a fixed absolute rate, never one calibrated to the
machine: a calibrated rate would move whenever the code it calibrates
against got faster or slower, and the offered load would no longer be
the same input on both sides of a comparison.  Every request is timed
from when it was due, not from when it was sent, so a bridge slice that
holds the event loop shows up in the latency of every request it
delayed.  Time the host held the loop off the CPU (hypervisor steal,
late wake-ups) is taken out again; see :class:`LoopDelays`.  One
process and no threads keep the load within a two-core machine.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import selectors
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from dcrobot.service import (
    AdmissionConfig,
    BridgeConfig,
    ReadModelParityError,
    ServiceConfig,
    serve_world,
)
from perfbench import queries, tracer as tracing
from perfbench.report import (
    REFERENCE_SECONDS,
    Outcome,
    host_scale,
    peak_rss_mb,
    percentile_ms,
    reference_seconds,
)
from perfbench.worlds import served as served_config, world_seeds

#: Offered requests per second (open loop).
RATE = 2000.0
#: Wall seconds each session serves the 10-day campus over.
SERVE_SECONDS = 5.0
#: ``serve_world`` timings per session for ``setup_s`` (the last one is
#: the world that gets served).  A build of the two-hall campus takes
#: about 15 ms, so the three extra builds cost under 1% of a session.
SETUPS_PER_SESSION = 4
#: Wall seconds one session costs, setup and checks included (about
#: 5.3 s measured), so a 25-s run serves five sessions.
SESSION_SECONDS = 5.5
#: Engine events per hall per bridge slice.  Slices hold the event loop,
#: so the p99 is the wait behind the longest of them; a quarter of the
#: service's default gives about 30 slices per session instead of 8,
#: and a p99 set by many slices, not by the two longest.
EVENTS_PER_SLICE = 128
#: Consecutive reads per chunk (about 0.6 s of a session) for the
#: query percentiles, which are medians of per-chunk percentiles.
READ_CHUNK = 1000


def service_config(config, serve_seconds: float,
                   rate: float) -> ServiceConfig:
    """Admission sized above the offered load, so nothing is shed at
    baseline and a shed means the plane fell behind."""
    return ServiceConfig(
        admission=AdmissionConfig(
            query_rate=2 * rate, query_burst=rate,
            command_rate=rate, command_burst=rate),
        bridge=BridgeConfig(max_events_per_slice=EVENTS_PER_SLICE,
                            pace=config.horizon_seconds / serve_seconds))


@dataclasses.dataclass
class Session:
    """One campus served for a fixed wall time, then audited."""

    setup_s: List[float]
    wall_s: float
    sim_days: float
    #: Per query (read) request, in due order: due -> answered in wall
    #: seconds less host delays (:class:`LoopDelays`), scaled to the
    #: reference host; +inf if shed or wrong.  Ingest and commands are
    #: not queries; they count only through ``failed``.
    latencies: np.ndarray
    #: Requests of every kind sent.
    requests: int
    failed: int
    problems: List[str]
    stats: Dict[str, float]
    #: Peak RSS of the process when this session ended.
    rss_mb: float


def session(world_seed: int, serve_seconds: float, rate: float,
            tiny: bool, tracer: Optional[tracing.Tracer] = None) -> Session:
    config = served_config(world_seed, tiny)
    plane = service_config(config, serve_seconds, rate)
    setups = []
    for _ in range(SETUPS_PER_SESSION - 1):
        # Collect the previous build's cycles outside the timed region.
        gc.collect()
        scale = host_scale()
        started = time.perf_counter()
        serve_world(config, plane)
        setups.append((time.perf_counter() - started) * scale)
    gc.collect()
    installed = tracing.install(tracer) if tracer is not None else None
    try:
        scale = host_scale()
        started = time.perf_counter()
        served = serve_world(config, plane)
        setups.append((time.perf_counter() - started) * scale)
        requests = queries.plan(np.random.default_rng(world_seed),
                                int(rate * serve_seconds), queries.SERVED,
                                config.halls)
        # The host's speed, read in CPU time after every round of
        # slices: the rounds are what set the tail (see run()).
        readings = []
        served.service.bridge.add_slice_hook(
            lambda sim_now: readings.append(reference_seconds()))
        delays = LoopDelays()
        loop = asyncio.SelectorEventLoop(delays)
        try:
            record = loop.run_until_complete(
                _drive(served, requests, rate, delays))
        finally:
            loop.close()
        scale = REFERENCE_SECONDS / statistics.median(readings)
        campus = served.summarize()
    finally:
        if installed is not None:
            installed.remove()
    service = served.service
    problems = asyncio.run(_audit(served))
    if campus.invariant_violations:
        problems.append(f"{campus.invariant_violations} safety "
                        f"violations")
    zombies = sum(hall.robot_zombie_accepted
                  for hall in campus.hall_summaries)
    if zombies:
        problems.append(f"{zombies} zombie acks accepted")
    high_shed = service.admission.shed("command-high")
    if high_shed:
        problems.append(f"{high_shed:g} HIGH commands shed")
    if record["wrong"]:
        problems.append(f"{record['wrong']} wrong answers")
    bridge = service.bridge
    stats = {
        "service.slices": bridge.slices,
        "service.slice_max_ms": bridge.max_slice_seconds * 1e3,
        "service.stalls": bridge.stalls,
        "service.shed": service.admission.shed(),
        "service.ingest.offered": service.ingest_offered,
        "service.ingest.shed": service.ingest_shed,
        "service.wait_p99_ms": percentile_ms(record["waits"], 99),
        "service.gen_late_p99_ms": percentile_ms(record["late"], 99),
        "chaos.faults": sum(sum(hall.chaos_fault_counts.values())
                            for hall in campus.hall_summaries),
        "core.incidents": campus.incidents,
        "core.retries": sum(hall.work_order_retries
                            for hall in campus.hall_summaries),
        "core.impact.deferrals": 0,
    }
    reads = np.array([kind in queries.READ_KINDS
                      for kind, _, _ in requests])
    due = np.asarray(record["due"])[reads]
    answered = np.asarray(record["answered"])[reads]
    latencies = ((answered - due)
                 - (delays.delayed_at(answered) - delays.delayed_at(due))
                 ) * scale
    return Session(setups, record["wall"], bridge.sim_now / 86400.0,
                   latencies, len(requests),
                   record["shed"] + record["wrong"], problems, stats,
                   peak_rss_mb())


class LoopDelays(selectors.DefaultSelector):
    """The client's event-loop selector, which also logs the wall time
    the host held the loop off the CPU.

    Between two waits in :meth:`select` the loop's one thread always
    has work: a bridge slice, a handler, the generator.  Wall time there
    that is not thread CPU time is time the hypervisor gave this vCPU to
    another tenant (steal).  On the shared 2-core host it made the
    bridge's rounds of slices 0% to 75% longer in wall time than in CPU
    time, session by session, and moved the p99 with it.  A wait that
    ends by its timeout should end when the timeout, rounded up to
    whole milliseconds as epoll waits, runs out; the loop wakes later
    than that by however long the host takes to run the vCPU again,
    0.1 ms typically and over 3 ms one time in a hundred, and more
    while other tenants are busy.  That is logged too.  A request's
    latency is its wall time less what was logged between its due time
    and its answer.  The rounding itself is left in: it is the
    client's, and steady.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Wall clock at each wait's start and end (and at each late
        #: wake-up's deadline), and the delay summed up to then.
        self.walls: List[float] = []
        self.delays: List[float] = []
        self._total = 0.0
        self._resume()

    def _resume(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = time.thread_time()
        self.walls.append(self._wall)
        self.delays.append(self._total)

    def mark(self) -> None:
        """Close the busy stretch that began at the last wake-up."""
        wall, cpu = time.perf_counter(), time.thread_time()
        self._total += max(0.0, (wall - self._wall) - (cpu - self._cpu))
        self.walls.append(wall)
        self.delays.append(self._total)
        self._wall, self._cpu = wall, cpu

    def select(self, timeout=None):
        self.mark()
        ready = super().select(timeout)
        if not ready and timeout is not None and timeout > 0:
            deadline = self._wall + math.ceil(timeout * 1e3) * 1e-3
            late = time.perf_counter() - deadline
            if late > 0:
                self.walls.append(deadline)
                self.delays.append(self._total)
                self._total += late
        self._resume()
        return ready

    def delayed_at(self, walls: np.ndarray) -> np.ndarray:
        """Delay summed up to each wall time, spread evenly over the
        stretch the time falls in."""
        return np.interp(walls, self.walls, self.delays)


async def _drive(served, requests, rate: float,
                 delays: LoopDelays) -> dict:
    """Serve the campus to its horizon while the client sends
    ``requests`` on a fixed schedule, ``1/rate`` seconds apart."""
    service = served.service
    links = {hall: list(world.fabric.links)
             for hall, world in service.worlds.items()}
    links_total = sum(len(hall_links) for hall_links in links.values())
    count = len(requests)
    record = {"due": [0.0] * count, "answered": [float("inf")] * count,
              "waits": [0.0] * count, "late": [0.0] * count,
              "shed": 0, "wrong": 0}
    tasks = []

    async def one(index: int, kind: str, hall: int, link_id: str,
                  due: float) -> None:
        record["waits"][index] = time.perf_counter() - due
        outcome = await queries.ask(service, kind, hall, link_id,
                                    links_total)
        if outcome == queries.OK:
            record["answered"][index] = time.perf_counter()
        else:
            record[outcome] += 1

    async def generate() -> None:
        start = time.perf_counter()
        sent = 0
        while sent < count:
            now = time.perf_counter()
            due_now = min(count, int((now - start) * rate) + 1)
            # When the loop was held, every request that fell due in
            # the meantime goes out now, stamped with its own due time.
            for index in range(sent, due_now):
                due = start + index / rate
                record["due"][index] = due
                record["late"][index] = now - due
                kind, hall, pick = requests[index]
                hall_links = links[hall]
                tasks.append(asyncio.ensure_future(one(
                    index, kind, hall, hall_links[pick % len(hall_links)],
                    due)))
            sent = max(sent, due_now)
            if sent < count:
                await asyncio.sleep(max(
                    0.0, start + sent / rate - time.perf_counter()))

    started = time.perf_counter()
    client = asyncio.ensure_future(generate())
    await served.serve()
    record["wall"] = time.perf_counter() - started
    await client
    await asyncio.gather(*tasks)
    delays.mark()
    return record


async def _audit(served) -> List[str]:
    """Status and SMI parity against the full-scan oracles, at a fresh
    refresh point (late commands may have landed after the last one)."""
    service = served.service
    await served.serve()
    problems = []
    try:
        await service.status(audit=True)
        for hall in service.worlds:
            await service.smi(hall=hall, audit=True)
    except ReadModelParityError as error:
        problems.append(f"parity: {error}")
    return problems


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    serve_seconds = 1.0 if tiny else SERVE_SECONDS
    rate = RATE / 5 if tiny else RATE
    if trace:
        # Two untraced sessions (the second shows memory growth
        # across sessions), then the first world again, traced.
        first, second = world_seeds(seed, 2)
        plan = [(first, None), (second, None), (first, tracing.Tracer())]
    else:
        count = max(1, round(seconds / SESSION_SECONDS))
        plan = [(world_seed, None)
                for world_seed in world_seeds(seed, count)]
    sessions = [session(world_seed, serve_seconds, rate, tiny, tracer)
                for world_seed, tracer in plan]

    outcome = Outcome()
    for item in sessions:
        outcome.attempted += item.requests
        outcome.failed += item.failed
        outcome.problems.extend(item.problems)
    if not trace:
        # The query percentiles are medians over chunks of consecutive
        # reads (about 40 per run) of each chunk's percentile.  Other
        # tenants of a shared host only ever add latency, in stretches
        # of seconds to minutes: one stretched every bridge slice 1.6
        # times and moved a session's p99 from about 30 ms to 90 ms.
        # A pooled p99 follows whatever share of the run such a stretch
        # covered; the median ignores it while it covers less than half
        # the run.  A slower bridge or handler slows every chunk.
        chunks = [chunk for item in sessions
                  for chunk in np.array_split(
                      item.latencies,
                      max(1, len(item.latencies) // READ_CHUNK))]
        outcome.metrics = {
            "sim_days_per_s": (sum(item.sim_days for item in sessions)
                               / sum(item.wall_s for item in sessions)),
            "setup_s": statistics.median(
                value for item in sessions for value in item.setup_s),
            "peak_rss_mb": sessions[0].rss_mb,
            "query_p50_ms": statistics.median(
                percentile_ms(chunk, 50) for chunk in chunks),
            "query_p99_ms": statistics.median(
                percentile_ms(chunk, 99) for chunk in chunks),
        }
        return outcome

    untraced, later, traced = sessions
    tracer = plan[2][1]
    metrics = tracing.span_metrics(tracer)
    busy = sum(span[tracing.END] - span[tracing.START]
               for span in tracer.spans
               if span[tracing.PARENT] is None
               and span[tracing.NAME] in ("sim.step", "service.refresh"))
    metrics.update(traced.stats)
    metrics["service.busy_frac"] = busy / traced.wall_s
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    metrics["rss.growth_mb"] = later.rss_mb - untraced.rss_mb
    outcome.metrics = metrics
    return outcome
