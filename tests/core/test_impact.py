"""Congestion gate (impact-aware maintenance scheduling) tests."""

import numpy as np
import pytest

from dcrobot.core.actions import Priority
from dcrobot.core.impact import CongestionGate, ImpactConfig
from dcrobot.network import LinkState, SwitchRole
from dcrobot.sim import Simulation
from dcrobot.topology import build_leafspine
from dcrobot.traffic import TrafficState


@pytest.fixture
def topo():
    return build_leafspine(leaves=4, spines=2, uplinks_per_pair=1,
                           rng=np.random.default_rng(0))


@pytest.fixture
def traffic(topo):
    endpoints = topo.switches(SwitchRole.LEAF)
    return TrafficState(topo.fabric, endpoints,
                        rng=np.random.default_rng(7))


def offer_hot_window(traffic, count=400):
    """All flows source at leaf 0: its two uplinks run hot."""
    rng = np.random.default_rng(1)
    n = len(traffic.endpoints)
    src = np.zeros(count, dtype=np.int64)
    dst = 1 + rng.integers(n - 1, size=count)
    sizes = np.full(count, 200_000_000, dtype=np.int64)
    ids = np.arange(count, dtype=np.int64)
    # A 1-second accounting period: 80 GB offered vs 2x 400G uplinks
    # (100 GB/s of group capacity) — comfortably past any threshold.
    return traffic.offer_window(src, dst, sizes, ids, 1.0)


def hot_uplink(topo):
    leaf = topo.switches(SwitchRole.LEAF)[0]
    return topo.fabric.links_of(leaf)[0]


# -- config -----------------------------------------------------------------

def test_impact_config_validation():
    with pytest.raises(ValueError):
        ImpactConfig(hot_utilization=0.0)
    with pytest.raises(ValueError):
        ImpactConfig(max_defer_seconds=-1.0)
    with pytest.raises(ValueError):
        ImpactConfig(recheck_seconds=0.0)


# -- should_defer -----------------------------------------------------------

def test_gate_without_traffic_never_defers():
    gate = CongestionGate(traffic=None)
    assert gate.projected_utilization("any") == 0.0
    assert not gate.should_defer("any")


def test_gate_defers_hot_links_only(topo, traffic):
    gate = CongestionGate(traffic, ImpactConfig(hot_utilization=0.7))
    link = hot_uplink(topo)
    # No observed traffic yet: nothing to protect.
    assert not gate.should_defer(link.id)
    offer_hot_window(traffic)
    assert gate.projected_utilization(link.id) > 0.7
    assert gate.should_defer(link.id)
    assert not gate.should_defer("no-such-link")


def test_drained_link_is_not_deferred(topo, traffic):
    # A link drained (by another work order) but still UP is out of
    # every path: its last-window bytes have already moved, so the gate
    # must not read it as a fan-less hot link.
    gate = CongestionGate(traffic, ImpactConfig(hot_utilization=0.7))
    offer_hot_window(traffic)
    leaf = topo.switches(SwitchRole.LEAF)[0]
    drained, last = topo.fabric.links_of(leaf)[:2]
    traffic.drain(drained.id)
    assert traffic.is_drained(drained.id)
    assert not gate.should_defer(drained.id)
    # The uplink left carrying the whole fan has no sibling capacity.
    assert gate.projected_utilization(last.id) == float("inf")
    assert gate.should_defer(last.id)
    traffic.undrain(drained.id)
    assert not traffic.is_drained(drained.id)
    assert gate.should_defer(drained.id)


def test_high_priority_is_exempt(topo, traffic):
    gate = CongestionGate(traffic, ImpactConfig(hot_utilization=0.7))
    offer_hot_window(traffic)
    link = hot_uplink(topo)
    assert gate.should_defer(link.id, Priority.NORMAL)
    assert not gate.should_defer(link.id, Priority.HIGH)
    strict = CongestionGate(traffic, ImpactConfig(
        hot_utilization=0.7, exempt_high_priority=False))
    assert strict.should_defer(link.id, Priority.HIGH)


def test_non_carrier_links_are_not_deferred(topo, traffic):
    gate = CongestionGate(traffic, ImpactConfig(hot_utilization=0.7))
    offer_hot_window(traffic)
    link = hot_uplink(topo)
    link.set_state(0.0, LinkState.DOWN)
    # A dead link's bytes already moved; deferring helps nobody.
    assert not gate.should_defer(link.id)


# -- wait_while_hot ---------------------------------------------------------

def test_wait_until_congestion_clears(topo, traffic):
    gate = CongestionGate(traffic, ImpactConfig(
        hot_utilization=0.7, max_defer_seconds=3600.0,
        recheck_seconds=100.0))
    offer_hot_window(traffic)
    link = hot_uplink(topo)
    sim = Simulation()

    def repair(sim):
        yield from gate.wait_while_hot(sim, link.id)
        return sim.now

    def trough(sim):
        # The hotspot drains away after 250 s of simulated time.
        yield sim.timeout(250.0)
        traffic.last_offered[:] = 0.0

    proc = sim.process(repair(sim))
    sim.process(trough(sim))
    sim.run()
    assert proc.value == 300.0  # three 100 s rechecks, then go
    assert gate.deferrals == 3
    assert gate.overrides == 0
    assert gate.defer_seconds == 300.0


def test_defer_budget_exhaustion_overrides(topo, traffic):
    gate = CongestionGate(traffic, ImpactConfig(
        hot_utilization=0.7, max_defer_seconds=250.0,
        recheck_seconds=100.0))
    offer_hot_window(traffic)
    link = hot_uplink(topo)
    sim = Simulation()

    def repair(sim):
        yield from gate.wait_while_hot(sim, link.id)
        return sim.now

    proc = sim.process(repair(sim))
    sim.run()
    # 100 + 100 + 50 exhausts the budget; the repair then runs hot.
    assert proc.value == 250.0
    assert gate.overrides == 1
    assert gate.deferrals == 3
