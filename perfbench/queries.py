"""The request mix operators send, and the check of every answer."""

from __future__ import annotations

import math
import traceback
from typing import List, Sequence, Tuple

import numpy as np

from dcrobot.core.api import MaintenanceStatus
from dcrobot.service import ServiceOverloadError, TelemetryReport

#: The read endpoints operators query, in equal shares.  No measured
#: operator mix exists for this system, so no endpoint is weighted
#: above another; the equal split is an assumption, not a measurement.
READS: Tuple[Tuple[str, int], ...] = (
    ("status", 1), ("smi", 1), ("link_health", 1), ("incident", 1),
    ("planned_touches", 1))
#: Request kinds whose latency is query latency.
READ_KINDS = frozenset(kind for kind, _ in READS)
#: The served mix: the five reads and telemetry ingest in equal shares
#: of 99% of requests (33 of 200 each), and 1% urgent (HIGH priority)
#: maintenance commands (2 of 200).
SERVED: Tuple[Tuple[str, int], ...] = tuple(
    (kind, 33) for kind, _ in READS) + (("telemetry", 33), ("command", 2))

OK, SHED, WRONG = "ok", "shed", "wrong"


def plan(rng: np.random.Generator, count: int,
         mix: Sequence[Tuple[str, int]], halls: int
         ) -> List[Tuple[str, int, int]]:
    """``count`` requests as ``(kind, hall, link pick)``; the pick is
    reduced modulo the hall's link count when the request is sent."""
    weights = np.array([weight for _, weight in mix], dtype=float)
    kinds = rng.choice(len(mix), size=count, p=weights / weights.sum())
    hall_ids = rng.integers(0, halls, size=count)
    picks = rng.integers(0, 2 ** 31, size=count)
    return [(mix[kind][0], int(hall), int(pick))
            for kind, hall, pick in zip(kinds, hall_ids, picks)]


async def ask(service, kind: str, hall: int, link_id: str,
              links_total: int) -> str:
    """Send one request through the service's public endpoints and
    check the answer's shape; returns ``OK``, ``SHED`` or ``WRONG``."""
    try:
        if kind == "status":
            answer = await service.status()
            good = (isinstance(answer, MaintenanceStatus)
                    and answer.links_total == links_total)
        elif kind == "smi":
            answer = await service.smi(hall=hall)
            good = (isinstance(answer, float) and math.isfinite(answer)
                    and 0.0 < answer <= 1.0)
        elif kind == "link_health":
            answer = await service.link_health(link_id, hall=hall)
            good = answer["link_id"] == link_id
        elif kind == "incident":
            answer = await service.incident(link_id, hall=hall)
            good = answer is None or answer.link_id == link_id
        elif kind == "planned_touches":
            answer = await service.planned_touches(link_id, hall=hall)
            good = isinstance(answer, list)
        elif kind == "telemetry":
            if not service.offer_telemetry(TelemetryReport(
                    source_id=f"probe-{hall}-{link_id}", link_id=link_id,
                    value=1.0, hall=hall)):
                return SHED
            good = True
        elif kind == "command":
            answer = await service.request_maintenance(
                link_id, urgent=True, hall=hall)
            good = isinstance(answer, bool)
        else:
            raise ValueError(f"unknown request kind {kind!r}")
    except ServiceOverloadError:
        return SHED
    except Exception:  # noqa: BLE001 - a failed request is a result
        traceback.print_exc()
        return WRONG
    return OK if good else WRONG
