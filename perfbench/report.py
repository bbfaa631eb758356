"""What one benchmark run reports, and the numeric helpers for it."""

from __future__ import annotations

import dataclasses
import resource
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Per-layer metrics only the served workload produces; the batch
#: workloads bypass the service plane and report them as 0.
SERVICE_STATS = (
    "service.slices", "service.slice_max_ms", "service.busy_frac",
    "service.stalls", "service.shed", "service.ingest.offered",
    "service.ingest.shed", "service.wait_p99_ms",
    "service.gen_late_p99_ms")


@dataclasses.dataclass
class Outcome:
    """Operations attempted and failed, check failures, and metrics."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Self seconds per layer of the traced campaigns (traced runs of
    #: batch workloads only).
    layer_split: Optional[Dict[str, float]] = None

    def record(self, problems: Sequence[str]) -> None:
        """One operation's check failures; any failure fails it."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)


#: What :func:`reference_seconds` reads on the 2-core 2 GHz x86
#: container the benchmark was sized on, in its slower phase.  The
#: end-to-end times are in seconds of a host running at this speed
#: (all but the served ``sim_days_per_s``, which checks the wall pace).
REFERENCE_SECONDS = 5e-4
#: Iterations of the reference loop (about 0.5 ms).
REFERENCE_LOOP = 5000


def reference_seconds() -> float:
    """Thread CPU seconds of a fixed stretch of interpreter work.  It
    runs no dcrobot code, so no change to the program moves it; only
    the speed of the host does.  CPU time leaves out the time the
    hypervisor gives this vCPU to other tenants, so one pass needs no
    retries."""
    started = time.thread_time()
    total = 0
    for step in range(REFERENCE_LOOP):
        total += step * step & 7
    return time.thread_time() - started


def host_scale() -> float:
    """The factor that turns wall seconds measured now into seconds of
    the reference host.

    The shared host's speed changes in phases of ten seconds or more:
    a plain Python loop ran 1.6 times faster in some than in others,
    and whole runs of one seed moved with it.  Each timed stretch is
    scaled by the reference loop timed just before it.  On ten seeds of
    the traffic workload this cut the spread of ``sim_days_per_s`` from
    0.32-0.45 to 0.148-0.162 sim-day/s.  The stretch stays in wall
    time; only the reference is read in CPU time.
    """
    return REFERENCE_SECONDS / reference_seconds()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB).

    Runs report it as of their first campaign or session: later ones
    build into a heap fragmented by the earlier worlds, which made the
    whole-process peak jump by about 10% on some seeds and not others.
    Growth that carries from one world to the next (a module-level
    cache that keeps filling, say) is therefore not in ``peak_rss_mb``;
    traced runs report it as ``rss.growth_mb``, the peak after the last
    untraced campaign or session minus the peak after the first.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q``-th percentile in milliseconds.  Failed operations are
    +inf samples, so the nearest-rank method keeps them infinite
    instead of interpolating to NaN."""
    return float(np.percentile(np.asarray(seconds, dtype=float), q,
                               method="inverted_cdf")) * 1e3
