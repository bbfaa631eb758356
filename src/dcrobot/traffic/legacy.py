"""The per-flow traffic oracle: object-path twin of ``TrafficState``.

This walks every flow through :class:`~dcrobot.traffic.routing.EcmpRouter`
and the :mod:`~dcrobot.traffic.latency` math one Python object at a
time — the pre-columnar modelling, kept as the correctness oracle the
parity suite (``tests/traffic/test_traffic_parity.py``) and the scale
bench (``benchmarks/bench_traffic_scale.py``) compare against.  Every
float expression here is shared with, or ordered identically to, the
vectorized kernels in :class:`~dcrobot.traffic.state.TrafficState`, so
agreement is bit-for-bit, not approximate.

:func:`sibling_index` and :func:`projected_group_utilization` are the
whole-index oracle for the congestion gate's per-row sibling lookup
(``TrafficState._siblings_of``): they rebuild every row's ECMP fan from
the engine's resolved pairs, one pair and hop at a time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from dcrobot.network.inventory import Fabric
from dcrobot.traffic.latency import (
    MTU_BYTES,
    PROPAGATION_S_PER_M,
    LatencyParams,
    combined_loss,
    congestion_loss,
)
from dcrobot.traffic.routing import EcmpRouter, NoRouteError


@dataclasses.dataclass
class LegacyWindowResult:
    """One offered window measured by the per-flow path."""

    fct: np.ndarray
    routable: np.ndarray
    #: link id -> offered bytes this window.
    offered: Dict[str, float]
    #: link id -> congestion loss fraction this window.
    congestion: Dict[str, float]
    window_seconds: float


class LegacyTrafficModel:
    """Per-flow routing + congestion + FCT over Python objects."""

    def __init__(self, fabric: Fabric, endpoints: Sequence[str],
                 params: Optional[LatencyParams] = None,
                 max_equal_paths: int = 8,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.fabric = fabric
        self.endpoints = list(endpoints)
        self.params = params or LatencyParams()
        self.router = EcmpRouter(fabric,
                                 max_equal_paths=max_equal_paths)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Cumulative per-link accounting, keyed by link id.
        self.util_bytes: Dict[str, float] = {}
        self.util_flows: Dict[str, float] = {}
        self.lost_bytes: Dict[str, float] = {}
        self._topology_watch = None

    def drain(self, link_id: str) -> None:
        self.router.drain(link_id)

    def undrain(self, link_id: str) -> None:
        self.router.undrain(link_id)

    @property
    def drained_links(self) -> set:
        return self.router.drained_links

    def _refresh(self) -> None:
        fs = self.fabric.state
        watch = (fs.generation, fs.route_generation)
        if watch != self._topology_watch:
            self.router.invalidate()
            self._topology_watch = watch

    def offer_window(self, src_index: np.ndarray,
                     dst_index: np.ndarray, sizes: np.ndarray,
                     flow_ids: np.ndarray,
                     window_seconds: float) -> LegacyWindowResult:
        """Route and account one window of flows, one flow at a time."""
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        self._refresh()
        count = len(sizes)
        endpoints = self.endpoints
        paths = []
        offered: Dict[str, float] = {}
        flow_hops: Dict[str, float] = {}
        for i in range(count):
            try:
                path = self.router.route(endpoints[int(src_index[i])],
                                         endpoints[int(dst_index[i])],
                                         flow_hash=int(flow_ids[i]))
            except NoRouteError:
                paths.append(None)
                continue
            paths.append(path)
            size = int(sizes[i])
            for link in path:
                offered[link.id] = offered.get(link.id, 0.0) + size
                flow_hops[link.id] = flow_hops.get(link.id, 0.0) + 1.0

        congestion: Dict[str, float] = {}
        loss_of: Dict[str, float] = {}
        for link_id, offered_bytes in offered.items():
            link = self.fabric.links[link_id]
            cong = float(congestion_loss(offered_bytes,
                                         link.capacity_gbps,
                                         window_seconds))
            congestion[link_id] = cong
            loss_of[link_id] = float(combined_loss(link.loss_rate,
                                                   cong))

        fct = np.full(count, np.nan)
        routable = np.zeros(count, dtype=bool)
        for i in range(count):
            path = paths[i]
            if path is None:
                continue
            routable[i] = True
            survival = 1.0
            total_length = 0.0
            bottleneck = np.inf
            for link in path:
                survival *= (1.0 - loss_of[link.id])
                total_length += link.cable.length_m
                bottleneck = min(bottleneck, link.capacity_gbps)
            propagation = total_length * PROPAGATION_S_PER_M
            switching = len(path) * self.params.switch_hop_seconds
            serialization = int(sizes[i]) * 8 / (bottleneck * 1e9)
            base = propagation + switching + serialization
            loss = 1.0 - survival
            if loss <= 0.0:
                fct[i] = base
                continue
            packets = max(1, int(np.ceil(int(sizes[i]) / MTU_BYTES)))
            effective = min(loss, 0.5)
            retries = int(self.rng.negative_binomial(
                packets, 1.0 - effective))
            retries = min(retries,
                          packets * self.params.max_retries_per_packet)
            fct[i] = base + retries * \
                self.params.retransmission_timeout_seconds

        for link_id, offered_bytes in offered.items():
            self.util_bytes[link_id] = \
                self.util_bytes.get(link_id, 0.0) + offered_bytes
            self.util_flows[link_id] = \
                self.util_flows.get(link_id, 0.0) + flow_hops[link_id]
            self.lost_bytes[link_id] = (
                self.lost_bytes.get(link_id, 0.0)
                + offered_bytes * congestion[link_id])
        return LegacyWindowResult(fct=fct, routable=routable,
                                  offered=offered,
                                  congestion=congestion,
                                  window_seconds=window_seconds)


def sibling_index(traffic) -> Dict[int, set]:
    """Row -> every row sharing a (resolved pair, hop) fan with it
    (itself included), over ``traffic``'s current member resolution."""
    big = traffic._assembled_big()
    offsets, counts, hops = traffic._slot_table()
    index: Dict[int, set] = {}
    for slot in traffic._slot_of[traffic._slot_of >= 0].tolist():
        members = int(counts[slot])
        if not members:
            continue
        offset = int(offsets[slot])
        rows = big[offset:offset + members, :int(hops[slot])]
        for hop in range(rows.shape[1]):
            fan = set(int(r) for r in np.unique(rows[:, hop]))
            for member_row in fan:
                index.setdefault(member_row, set()).update(fan)
    return index


def projected_group_utilization(traffic, index: Dict[int, set],
                                link_id: str) -> float:
    """``TrafficState.projected_group_utilization`` over a
    :func:`sibling_index` of ``traffic``; call the engine's own method
    first so both read the same member resolution."""
    row = traffic.fabric.state.index_of.get(link_id)
    if row is None or traffic.last_offered is None \
            or row >= len(traffic.last_offered):
        return 0.0
    siblings = set(index.get(row, ()))
    siblings.discard(row)
    target_bytes = float(traffic.last_offered[row])
    if not siblings:
        return 0.0 if target_bytes == 0.0 else float("inf")
    sibling_rows = np.fromiter(siblings, dtype=np.int64)
    capacity_bytes = float(
        (traffic._caps[sibling_rows] * 1e9 / 8.0
         * traffic.last_window_seconds).sum())
    if capacity_bytes == 0.0:
        return float("inf")
    moved = float(traffic.last_offered[sibling_rows].sum()) \
        + target_bytes
    return moved / capacity_bytes
