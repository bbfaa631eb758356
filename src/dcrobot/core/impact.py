"""Congestion-aware maintenance gating (§2 impact-aware scheduling).

Draining a link for maintenance moves its traffic onto the ECMP
siblings that share its flow pairs.  When those siblings are already
hot, the reseat that was supposed to be invisible becomes a p99 FCT
regression.  The :class:`CongestionGate` asks the columnar traffic
engine the only question that matters before touching hardware: *if
this link's last-window bytes moved onto its sibling set, how hot
would the group run?* — and defers (bounded) while the answer exceeds
the hot-utilization threshold.

The gate is deliberately advisory and bounded: HIGH-priority repairs
are exempt (a hard-down link is already worse than congestion), links
that carry no traffic (DOWN / under maintenance, or already drained in
the traffic engine) are never deferred (their bytes already moved),
and after ``max_defer_seconds`` the work proceeds hot rather than
starving.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from dcrobot.core.actions import Priority
from dcrobot.network.state import FLAPPING_CODE
from dcrobot.obs import NULL_OBS


@dataclasses.dataclass
class ImpactConfig:
    """Congestion-gate knobs."""

    #: Projected ECMP-group utilization above which work is deferred.
    hot_utilization: float = 0.7
    #: Total defer budget per work item; after this the repair runs hot.
    max_defer_seconds: float = 4 * 3600.0
    #: Re-evaluation cadence while deferred.
    recheck_seconds: float = 900.0
    #: HIGH-priority repairs skip the gate entirely.
    exempt_high_priority: bool = True

    def __post_init__(self) -> None:
        if self.hot_utilization <= 0:
            raise ValueError("hot_utilization must be > 0")
        if self.max_defer_seconds < 0:
            raise ValueError("max_defer_seconds must be >= 0")
        if self.recheck_seconds <= 0:
            raise ValueError("recheck_seconds must be > 0")


class CongestionGate:
    """Defers maintenance while a drain would overload ECMP siblings."""

    def __init__(self, traffic, config: Optional[ImpactConfig] = None,
                 obs=NULL_OBS) -> None:
        self.traffic = traffic
        self.config = config or ImpactConfig()
        self.obs = obs
        #: Defer periods slept (each ``recheck_seconds`` long or less).
        self.deferrals = 0
        #: Work items that exhausted the defer budget and ran hot.
        self.overrides = 0
        #: Total simulated seconds maintenance waited on congestion.
        self.defer_seconds = 0.0

    def projected_utilization(self, link_id: str) -> float:
        """The engine's post-drain sibling-group utilization."""
        if self.traffic is None:
            return 0.0
        return self.traffic.projected_group_utilization(link_id)

    def should_defer(self, link_id: str,
                     priority: Priority = Priority.NORMAL) -> bool:
        """Whether touching ``link_id`` now would push its ECMP group
        past the hot threshold."""
        if self.traffic is None:
            return False
        if self.config.exempt_high_priority \
                and priority is Priority.HIGH:
            return False
        fs = self.traffic.fabric.state
        row = fs.index_of.get(link_id)
        if row is None:
            return False
        if fs.state_code[row] > FLAPPING_CODE \
                or self.traffic.is_drained(link_id):
            # The link carries no traffic; its bytes already moved.
            return False
        utilization = self.projected_utilization(link_id)
        return utilization > self.config.hot_utilization

    def wait_while_hot(self, sim, link_id: str,
                       priority: Priority = Priority.NORMAL):
        """Generator: sleep in ``recheck_seconds`` steps while the
        drain would run the sibling group hot, up to the defer budget."""
        waited = 0.0
        while self.should_defer(link_id, priority):
            remaining = self.config.max_defer_seconds - waited
            if remaining <= 0:
                self.overrides += 1
                if self.obs.enabled:
                    self.obs.count(
                        "dcrobot_congestion_overrides_total")
                    self.obs.tracer.record(
                        "congestion.override", link_id=link_id,
                        waited=waited)
                break
            step = min(self.config.recheck_seconds, remaining)
            self.deferrals += 1
            self.defer_seconds += step
            if self.obs.enabled:
                self.obs.count("dcrobot_congestion_deferrals_total")
            yield sim.timeout(step)
            waited += step
        return waited
