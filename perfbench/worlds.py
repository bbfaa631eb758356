"""The canonical worlds, each a pure function of a seed.

Sizes are fixed here, not taken from the experiment modules, so the
benchmark keeps measuring the same work when an experiment is retuned.
Only the campaign policies are imported from E16/E17: they are the
workload (which links get reseated when), and copying them would fork
the behaviour the experiments document.
"""

from __future__ import annotations

import dataclasses
from typing import List

from dcrobot.chaos.config import ChaosConfig
from dcrobot.core.automation import AutomationLevel
from dcrobot.core.controller import ControllerConfig
from dcrobot.core.impact import ImpactConfig
from dcrobot.core.planner import TwinPlannerConfig
from dcrobot.core.resilience import ResilienceConfig
from dcrobot.experiments.e16_traffic_maintenance import ReseatCampaign
from dcrobot.experiments.e17_twin_planning import MixedCampaign
from dcrobot.experiments.e19_campus_scale import campus_config
from dcrobot.experiments.runner import DAY, WorldConfig
from dcrobot.network.enums import FormFactor
from dcrobot.traffic.patterns import HotspotPattern, UniformPattern

#: Distinct worlds per batch run.  A run cycles through them so that
#: one run's figures average over several worlds instead of hanging on
#: one seed's incident count.
WORLDS_PER_RUN = 3


def world_seeds(seed: int, count: int = WORLDS_PER_RUN) -> List[int]:
    """The world seeds a run with ``--seed seed`` uses (disjoint
    between different run seeds)."""
    if not 0 < count <= 1000:
        raise ValueError("1..1000 worlds per run")
    return [seed * 1000 + index for index in range(count)]


def _diurnal(day_flows: int, night_flows: int):
    """Hotspot on the first two ToRs from 08:00 to 20:00, light
    uniform traffic at night (the E16/E17 matrix)."""
    day_pattern = HotspotPattern(hot_endpoints=2, hot_probability=0.75)
    night_pattern = UniformPattern()

    def schedule(now: float):
        hour = (now % DAY) / 3600.0
        if 8.0 <= hour < 20.0:
            return day_flows, day_pattern
        return night_flows, night_pattern

    return schedule


def hall_chaos(seed: int, tiny: bool = False) -> WorldConfig:
    """E13's hardened controller at 1x chaos on a k=16 fat-tree."""
    return WorldConfig(
        topology_kwargs={"k": 4 if tiny else 16},
        horizon_days=1.0 if tiny else 8.0, seed=seed,
        failure_scale=1.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        chaos=ChaosConfig.moderate(), safety=True,
        stuck_after_seconds=5.0 * DAY,
        mute_ttl_seconds=2.0 * DAY,
        controller_config=ControllerConfig(
            resilience=ResilienceConfig()))


def _traffic_world(seed: int, k: int, days: float, policy,
                   day_flows: int, night_flows: int,
                   max_equal_paths: int) -> WorldConfig:
    return WorldConfig(
        topology_kwargs={"k": k, "form_factor": FormFactor.SFP28},
        horizon_days=days, seed=seed,
        failure_scale=0.0, dust_rate_per_day=0.0,
        aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        policy=policy,
        controller_config=ControllerConfig(defer_proactive=False),
        traffic=True,
        traffic_window_seconds=900.0,
        traffic_sample_seconds=1.0,
        traffic_schedule=_diurnal(day_flows, night_flows),
        traffic_max_equal_paths=max_equal_paths)


def traffic(seed: int, tiny: bool = False) -> WorldConfig:
    """E16's impact-aware arm: reseat campaign on the hot pod's
    uplinks, congestion gate on, k=8 on 25G links."""
    config = _traffic_world(seed, 8, 0.25 if tiny else 1.0,
                            ReseatCampaign, 6400, 1200, 16)
    return dataclasses.replace(config, impact=ImpactConfig(
        hot_utilization=0.7, max_defer_seconds=12 * 3600.0,
        recheck_seconds=900.0))


def twin(seed: int, tiny: bool = False) -> WorldConfig:
    """E17's twin-ranked arm: three forks per policy cycle, each
    rolled one repair window plus two rollout windows, k=4."""
    config = _traffic_world(seed, 4, 0.5 if tiny else 2.0,
                            MixedCampaign, 2400, 400, 4)
    return dataclasses.replace(config, twin_planner=TwinPlannerConfig(
        repair_windows=1, rollout_windows=2, max_candidates=3,
        dispatch_top=1))


def served(seed: int, tiny: bool = False) -> WorldConfig:
    """The E13-style two-hall campus the service plane hosts, 10 days
    per session.  At 30 days per 5 s the bridge was busy a third of the
    time, and a host slowed by other tenants pushed it past half, where
    the median request waits behind a slice and ``query_p50_ms`` jumped
    from about 1 ms to 6-14 ms."""
    return campus_config(2, 2.0 if tiny else 10.0, seed)


CONFIGS = {"hall_chaos": hall_chaos, "traffic": traffic, "twin": twin,
           "served": served}
