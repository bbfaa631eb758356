"""The batch workloads: one campaign is ``build_world`` plus
``Simulation.run`` to the horizon, as a researcher's experiment runs it.

Only ``Simulation.run`` is timed for ``sim_days_per_s`` and only
``build_world`` for ``setup_s``.  The idle-plane query probe runs at
checkpoints of the run, between timed stretches, and the checks after
the run.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from dcrobot.experiments.runner import (
    WorldConfig,
    build_world,
    summarize_world,
)
from dcrobot.service import (
    MaintenanceService,
    ReadModelParityError,
    ServiceConfig,
)
from dcrobot.topology.smi import SmiTracker
from perfbench import queries, tracer as tracing
from perfbench.report import (
    SERVICE_STATS,
    Outcome,
    host_scale,
    peak_rss_mb,
    percentile_ms,
)
from perfbench.worlds import CONFIGS, world_seeds


@dataclasses.dataclass(frozen=True)
class Sizing:
    """How much work one batch run does.

    The work is fixed by ``--seconds`` and these constants, never by
    the clock, so both sides of a comparison do the same campaigns and
    the same reads, and peak memory does not follow host speed.
    """

    #: Wall seconds of one round (one campaign per world, probe
    #: included) on a 2-core 2 GHz x86 container shared with other
    #: tenants, measured in one of its slow stretches.
    round_seconds: float
    #: Reads sent to each world over its run: about 0.4 to 0.6 s of
    #: probing, and at least 20 reads beyond the p99.  A read costs
    #: 0.29 ms on average at k=16, 0.038 ms at k=8 and 0.013 ms at
    #: k=4, most of it in ``planned_touches``.
    probe_reads: int


SIZING = {"hall_chaos": Sizing(13.0, 2000),
          "traffic": Sizing(10.5, 10000),
          "twin": Sizing(14.0, 30000)}
#: Consecutive probe reads per chunk for the p99 (ten reads beyond it).
PROBE_CHUNK = 1000
#: ``Simulation.run`` is called once per equal stretch of simulated
#: time; running to the horizon in steps processes the same events in
#: the same order (the service bridge relies on it too).
SLICES = 100
#: Checkpoints of the run, every ``SLICES // PROBE_POINTS`` stretches,
#: at which an equal share of the probe reads is sent with the sim
#: idle.  The shared host's speed wanders within a second: two probes
#: of one finished world two seconds apart read p50s up to 1.5 times
#: apart.  Spread over ten moments per campaign, the probe averages
#: that wander out of each chunk.
PROBE_POINTS = 10


@dataclasses.dataclass
class Campaign:
    """One world built and run to its horizon, then checked.  Times
    are in reference-host seconds (:func:`perfbench.report.host_scale`).
    """

    world: int
    setup_s: float
    #: Seconds of each of the :data:`SLICES` equal stretches of
    #: simulated time ``Simulation.run`` was called for.
    slices: np.ndarray
    digest: str
    problems: List[str]
    #: Probe read latencies, in the order sent (none when traced).
    latencies: np.ndarray
    #: Peak RSS of the process when this campaign ended.
    rss_mb: float
    #: Counts read off the finished world (used by the traced split).
    counts: Dict[str, float]


def summary_digest(summary) -> str:
    """SHA-256 over every field of a ``WorldSummary``."""
    fields = dataclasses.asdict(summary)
    text = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def campaign(index: int, config: WorldConfig, probe_reads: int,
             tracer: Optional[tracing.Tracer] = None) -> Campaign:
    # The previous campaign's world is garbage by now; collecting it
    # here keeps its cycles out of this campaign's timings and peak RSS.
    gc.collect()
    problems: List[str] = []
    latencies: List[np.ndarray] = []
    rng = np.random.default_rng(config.seed)
    installed = tracing.install(tracer) if tracer is not None else None
    loop = asyncio.new_event_loop()
    try:
        scale = host_scale()
        started = time.perf_counter()
        world = build_world(config)
        setup_s = (time.perf_counter() - started) * scale
        # Subscribed before the run so the end-of-run SMI audit checks
        # the incremental tracker, not a fresh scan against itself.
        tracker = SmiTracker(world.topology)
        service = MaintenanceService(world, ServiceConfig(admission=None),
                                     smi_trackers={0: tracker})
        links = list(world.fabric.links)
        fabric = world.fabric
        transceivers = sum(fabric.spare_transceivers.values())
        cables = fabric.spare_cables
        slices = np.empty(SLICES)
        for piece, until in enumerate(np.linspace(
                0.0, config.horizon_seconds, SLICES + 1)[1:]):
            scale = host_scale()
            started = time.perf_counter()
            world.sim.run(until=float(until))
            slices[piece] = (time.perf_counter() - started) * scale
            # Traced campaigns do not probe: their spans must all sit
            # under ``sim.run``.
            if tracer is None and probe_reads and (piece + 1) % (
                    SLICES // PROBE_POINTS) == 0:
                latencies.append(loop.run_until_complete(_probe(
                    service, links, rng, probe_reads // PROBE_POINTS,
                    problems)))
    finally:
        loop.close()
        if installed is not None:
            installed.remove()
    world.spares_consumed_transceivers = (
        transceivers - sum(fabric.spare_transceivers.values()))
    world.spares_consumed_cables = cables - fabric.spare_cables
    summary = summarize_world(world)
    if summary.invariant_violations:
        problems.append(f"{summary.invariant_violations} safety "
                        f"violations: {summary.violations_by_kind}")
    if summary.robot_zombie_accepted:
        problems.append(f"{summary.robot_zombie_accepted} zombie acks "
                        f"accepted")
    asyncio.run(_audit(service, problems))
    gate = world.impact_gate
    counts = {
        "chaos.faults": (sum(world.chaos_engine.summary().values())
                         if world.chaos_engine else 0),
        "core.incidents": summary.incidents,
        "core.retries": summary.work_order_retries,
        "core.impact.deferrals": gate.deferrals if gate else 0,
    }
    return Campaign(index, setup_s, slices, summary_digest(summary),
                    problems, np.concatenate(latencies or [np.empty(0)]),
                    peak_rss_mb(), counts)


async def _probe(service, links, rng, count: int,
                 problems: List[str]) -> np.ndarray:
    """Time a closed loop of ``count`` reads against the world as the
    last stretch of the run left it, with the sim idle."""
    # Serving to "now" runs no event; it refreshes the read model.
    await service.serve(service.bridge.sim_now)
    reads = queries.plan(rng, count, queries.READS, 1)
    latencies = np.empty(count)
    scale = host_scale()
    for index, (kind, _, pick) in enumerate(reads):
        started = time.perf_counter()
        outcome = await queries.ask(service, kind, 0,
                                    links[pick % len(links)], len(links))
        latencies[index] = (time.perf_counter() - started) * scale
        if outcome != queries.OK:
            problems.append(f"{kind} query answered {outcome}")
            latencies[index] = float("inf")
    return latencies


async def _audit(service, problems: List[str]) -> None:
    """Status and SMI parity of the finished world against the
    full-scan oracles."""
    await service.serve(service.bridge.sim_now)
    try:
        await service.status(audit=True)
        await service.smi(audit=True)
    except ReadModelParityError as error:
        problems.append(f"parity: {error}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool) -> Outcome:
    configs = [CONFIGS[workload](world_seed, tiny)
               for world_seed in world_seeds(seed)]
    sizing = SIZING[workload]
    probe_reads = sizing.probe_reads // 50 if tiny else sizing.probe_reads
    # Every world runs at least twice, so a repeat can be checked
    # against the first run's digest.  Traced runs spend half their
    # rounds untraced: the baseline for the tracing overhead and the
    # digests the traced campaigns must reproduce.
    rounds = max(2, round(seconds / sizing.round_seconds))
    if trace:
        rounds = max(1, rounds // 2)
        # Traced campaigns do not probe, so their baseline does not
        # either.
        probe_reads = 0
    campaigns = [campaign(index, config, probe_reads)
                 for _ in range(rounds)
                 for index, config in enumerate(configs)]

    outcome = Outcome(attempted=len(campaigns))
    digests: Dict[int, str] = {}
    for item in campaigns:
        expected = digests.setdefault(item.world, item.digest)
        if item.digest != expected:
            item.problems.append(
                f"world {item.world} repeat digest {item.digest[:12]} "
                f"!= {expected[:12]}")
        outcome.record(item.problems)
    repeats = [[item for item in campaigns if item.world == index]
               for index in range(len(configs))]
    # Each slice's fastest repeat.  The host scale follows phases of the
    # host's speed; the minimum drops interference from other tenants
    # that comes and goes within a slice, which only ever adds time.
    fastest = [np.min([item.slices for item in group], axis=0).sum()
               for group in repeats]

    if not trace:
        latencies = np.concatenate([item.latencies
                                    for item in campaigns])
        outcome.metrics = {
            "sim_days_per_s": (sum(config.horizon_days
                                   for config in configs)
                               / sum(fastest)),
            "setup_s": statistics.median(item.setup_s
                                         for item in campaigns),
            "peak_rss_mb": campaigns[0].rss_mb,
            "query_p50_ms": percentile_ms(latencies, 50),
            # The median of each chunk's p99 (ten reads beyond it): a
            # pooled p99 follows the few chunks a busy neighbour hit.
            "query_p99_ms": statistics.median(
                percentile_ms(latencies[first:first + PROBE_CHUNK], 99)
                for first in range(0, len(latencies), PROBE_CHUNK)),
        }
        return outcome

    tracer = tracing.Tracer()
    traced: List[Campaign] = []
    for index, config in enumerate(configs):
        tracer.run = index
        item = campaign(index, config, probe_reads, tracer)
        if item.digest != digests[index]:
            item.problems.append(
                f"world {index} traced digest differs from untraced")
        traced.append(item)
    outcome.attempted += len(traced)
    for item in traced:
        outcome.record(item.problems)
    outcome.problems.extend(accounting_problems(tracer))
    metrics = tracing.span_metrics(tracer)
    for name in traced[0].counts:
        metrics[name] = sum(item.counts[name] for item in traced)
    metrics.update(dict.fromkeys(SERVICE_STATS, 0))
    untraced = sum(statistics.median(item.slices.sum() for item in group)
                   for group in repeats)
    metrics["trace.overhead_frac"] = (
        sum(item.slices.sum() for item in traced) / untraced - 1.0)
    metrics["rss.growth_mb"] = campaigns[-1].rss_mb - campaigns[0].rss_mb
    outcome.metrics = metrics
    outcome.layer_split = tracing.layer_self_seconds(tracer.spans,
                                                     root="sim.run")
    return outcome


def accounting_problems(tracer: tracing.Tracer) -> List[str]:
    """Every span must sit under a ``sim.run`` root and fit inside its
    parent, so the layers' self times add up to the run time."""
    spans = tracer.spans
    problems = []
    roots = sum(span[tracing.END] - span[tracing.START]
                for span in spans if span[tracing.NAME] == "sim.run")
    own = tracing.self_times(spans)
    if abs(sum(own) - roots) > 1e-9 * max(roots, 1.0):
        problems.append(f"spans outside sim.run: self times add up to "
                        f"{sum(own)} s, run time is {roots} s")
    if min(own, default=0.0) < -1e-9:
        problems.append("a span's children outlast it")
    return problems
