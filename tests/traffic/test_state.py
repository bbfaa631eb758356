"""Unit tests for the columnar traffic engine (S17)."""

import numpy as np
import pytest

from dcrobot.network import LinkState, SwitchRole
from dcrobot.topology import build_fattree
from dcrobot.traffic import EcmpRouter, TrafficState, sample_sizes


@pytest.fixture
def topo():
    return build_fattree(k=4, rng=np.random.default_rng(0))


@pytest.fixture
def tors(topo):
    return topo.switches(SwitchRole.TOR)


@pytest.fixture
def traffic(topo, tors):
    return TrafficState(topo.fabric, tors,
                        rng=np.random.default_rng(7))


def offer(traffic, rng, count=200, window_seconds=60.0, src=None):
    n = len(traffic.endpoints)
    if src is None:
        src = rng.integers(n, size=count)
    else:
        src = np.full(count, src, dtype=np.int64)
    dst = rng.integers(n - 1, size=count)
    dst = dst + (dst >= src)
    sizes = sample_sizes(rng, count)
    ids = np.arange(count, dtype=np.int64)
    return traffic.offer_window(src, dst, sizes, ids, window_seconds)


# -- construction ----------------------------------------------------------

def test_validation(topo, tors):
    with pytest.raises(ValueError):
        TrafficState(topo.fabric, tors, max_equal_paths=0)
    with pytest.raises(ValueError):
        TrafficState(topo.fabric, tors[:1])


# -- windows and accounting ------------------------------------------------

def test_offer_window_accounts_per_link(traffic, topo):
    result = offer(traffic, np.random.default_rng(1))
    assert result.flows == 200
    assert result.unroutable == 0
    assert result.routable.all()
    assert np.isfinite(result.fct[result.routable]).all()
    n = topo.fabric.state.n_links
    # Every routed flow crosses >= 2 links; offered bytes accumulate.
    assert float(result.offered[:n].sum()) > 0
    assert np.array_equal(traffic.util_bytes.values[:n],
                          result.offered[:n])
    assert float(traffic.util_flows.values[:n].sum()) > 0


def test_accounting_is_cumulative(traffic):
    offer(traffic, np.random.default_rng(1))
    n = traffic.fabric.state.n_links
    first = traffic.util_bytes.values[:n].copy()
    offer(traffic, np.random.default_rng(2))
    assert (traffic.util_bytes.values[:n] >= first).all()
    assert float(traffic.util_bytes.values[:n].sum()) \
        > float(first.sum())


def test_unroutable_flows_are_nan(traffic, topo, tors):
    # Isolate the first ToR: every flow touching it becomes unroutable.
    for link in topo.fabric.links_of(tors[0]):
        link.set_state(0.0, LinkState.DOWN)
    result = offer(traffic, np.random.default_rng(3), src=0)
    assert result.unroutable == result.flows
    assert np.isnan(result.fct).all()
    assert np.isnan(result.fct_percentile(99))


# -- path cache invalidation -----------------------------------------------

def test_paths_follow_link_state(traffic, topo, tors):
    src, dst = tors[0], tors[-1]
    before = traffic.equal_cost_paths(src, dst)
    assert before  # inter-pod: multiple members
    link = topo.fabric.links_of(src)[0]
    link.set_state(0.0, LinkState.DOWN)
    after = traffic.equal_cost_paths(src, dst)
    assert len(after) < len(before)
    downed_agg = (set(link.endpoint_ids) - {src}).pop()
    assert all(downed_agg not in path for path in after)
    link.set_state(1.0, LinkState.UP)
    assert traffic.equal_cost_paths(src, dst) == before


def test_drain_and_undrain_invalidate_paths(traffic, topo, tors):
    src, dst = tors[0], tors[-1]
    before = traffic.equal_cost_paths(src, dst)
    link = topo.fabric.links_of(src)[0]
    traffic.drain(link.id)
    assert link.id in traffic.drained_links
    drained = traffic.equal_cost_paths(src, dst)
    assert len(drained) < len(before)
    traffic.undrain(link.id)
    assert traffic.drained_links == set()
    assert traffic.equal_cost_paths(src, dst) == before


def test_drained_link_receives_no_traffic(traffic, topo, tors):
    link = topo.fabric.links_of(tors[0])[0]
    traffic.drain(link.id)
    result = offer(traffic, np.random.default_rng(4), src=0)
    row = topo.fabric.state.index_of[link.id]
    assert result.unroutable == 0
    assert float(result.offered[row]) == 0.0


def test_paths_match_object_router(traffic, topo, tors):
    router = EcmpRouter(topo.fabric)
    for src in tors[:4]:
        for dst in tors[-4:]:
            if src == dst:
                continue
            assert traffic.equal_cost_paths(src, dst) \
                == router.equal_cost_paths(src, dst)


# -- impact scoring ---------------------------------------------------------

def test_projected_zero_without_observed_traffic(traffic, topo, tors):
    link = topo.fabric.links_of(tors[0])[0]
    assert traffic.projected_group_utilization(link.id) == 0.0
    assert traffic.projected_group_utilization("no-such-link") == 0.0


def test_projected_group_utilization_spreads_over_fan(
        traffic, topo, tors):
    # All traffic sourced at ToR 0: its uplinks are the hot fan.
    offer(traffic, np.random.default_rng(5), count=400,
          window_seconds=1.0, src=0)
    fs = topo.fabric.state
    uplinks = topo.fabric.links_of(tors[0])
    rows = [fs.index_of[link.id] for link in uplinks]
    fan_bytes = float(traffic.last_offered[rows].sum())
    fan_caps = float((traffic._caps[rows] * 1e9 / 8.0).sum())
    for link in uplinks:
        row = fs.index_of[link.id]
        siblings = traffic._siblings_of(row)
        # Hop-position siblings of an uplink are the *other* uplinks
        # of the same ToR — never links elsewhere on the paths.
        assert set(siblings.tolist()) == set(rows) - {row}
        projected = traffic.projected_group_utilization(link.id)
        expected = fan_bytes / (fan_caps - traffic._caps[row]
                                * 1e9 / 8.0)
        assert projected == pytest.approx(expected)
        # Concentrating the same bytes on fewer links runs hotter
        # than the group does today.
        assert projected > fan_bytes / fan_caps


def test_projection_survives_unrelated_drain(traffic, topo, tors):
    # A drain after the window drops the member resolution; the gate
    # must still see the hot ToR's uplink fan, not an empty one.
    offer(traffic, np.random.default_rng(5), count=400,
          window_seconds=1.0, src=0)
    fs = topo.fabric.state
    uplinks = topo.fabric.links_of(tors[0])
    rows = [fs.index_of[link.id] for link in uplinks]
    fan_bytes = float(traffic.last_offered[rows].sum())
    fan_caps = float((traffic._caps[rows] * 1e9 / 8.0).sum())
    traffic.drain(topo.fabric.links_of(tors[-1])[0].id)
    link = uplinks[0]
    projected = traffic.projected_group_utilization(link.id)
    assert np.isfinite(projected)
    assert projected == pytest.approx(
        fan_bytes / (fan_caps - traffic._caps[rows[0]] * 1e9 / 8.0))


# -- work counts ------------------------------------------------------------

def test_one_bfs_per_routing_epoch_and_destination(monkeypatch):
    """A day of the E16 impact-aware world enumerates paths from at
    most one BFS per (routing epoch, destination) — per-pair BFS would
    repeat an origin within an epoch."""
    from dcrobot.core.impact import ImpactConfig
    from dcrobot.experiments.e16_traffic_maintenance import _arm_config
    from dcrobot.experiments.runner import build_world

    runs = []
    bfs = TrafficState._bfs

    def counted(self, origin):
        runs.append((id(self), self._route_key, origin))
        return bfs(self, origin)

    monkeypatch.setattr(TrafficState, "_bfs", counted)
    config = _arm_config(3, 1.0, ImpactConfig(
        hot_utilization=0.7, max_defer_seconds=12 * 3600.0))
    world = build_world(config)
    assert config.topology_kwargs["k"] == 8
    world.sim.run(until=config.horizon_seconds)
    assert world.impact_gate.deferrals > 0
    assert runs
    assert len(set(runs)) == len(runs)
    endpoints = set(world.traffic._endpoint_nodes.tolist())
    assert {origin for _, _, origin in runs} <= endpoints


def test_stash_fills_most_pairs_after_rebuilds(monkeypatch):
    """On the same E16 day, at most a quarter of the pairs the engine
    fills are enumerated; the rest are copied from the resolution a
    routing or loss change retired."""
    from dcrobot.core.impact import ImpactConfig
    from dcrobot.experiments.e16_traffic_maintenance import _arm_config
    from dcrobot.experiments.runner import build_world

    filled = {"all": 0, "enumerated": 0}
    resolve_unseen = TrafficState._resolve_unseen
    resolve_missing = TrafficState._resolve_missing

    def unseen(self, keys):
        before = int((self._slot_of >= 0).sum())
        resolve_unseen(self, keys)
        filled["all"] += int((self._slot_of >= 0).sum()) - before

    def enumerated(self, keys):
        filled["enumerated"] += len(keys)
        resolve_missing(self, keys)

    monkeypatch.setattr(TrafficState, "_resolve_unseen", unseen)
    monkeypatch.setattr(TrafficState, "_resolve_missing", enumerated)
    config = _arm_config(3, 1.0, ImpactConfig(
        hot_utilization=0.7, max_defer_seconds=12 * 3600.0))
    world = build_world(config)
    world.sim.run(until=config.horizon_seconds)
    assert world.impact_gate.deferrals > 0
    assert filled["enumerated"] > 0
    assert filled["enumerated"] <= 0.25 * filled["all"]


def test_sibling_forks_share_fresh_routing_caches(traffic, topo, tors):
    # Forked right after a routing rebuild, before any path query: one
    # twin's BFS fills the shared distance cache, and the other twin
    # must still enumerate paths from it.
    from dcrobot.twin import TwinWorld

    router = EcmpRouter(topo.fabric)
    traffic.drain(topo.fabric.links_of(tors[0])[0].id)
    router.drain(topo.fabric.links_of(tors[0])[0].id)
    first = TwinWorld.fork(topo.fabric, traffic=traffic)
    second = TwinWorld.fork(topo.fabric, traffic=traffic)
    with first, second:
        # Each engine asks from another source class, so every lookup
        # after the first twin's reuses its distances, not its paths.
        for src, engine in zip(tors, (first.traffic, second.traffic,
                                      traffic)):
            for dst in tors:
                assert engine.equal_cost_paths(src, dst) \
                    == router.equal_cost_paths(src, dst)
