"""Property tests for the columnar traffic engine's routing caches.

:class:`TrafficState` enumerates ECMP paths from one BFS per
destination per routing epoch (shared with its forks) and answers the
congestion gate's sibling question one row at a time.  Both are pinned
here against their object-path oracles under random drain, undrain,
failure and loss sequences:

* ``TrafficState.equal_cost_paths`` equals ``EcmpRouter.equal_cost_paths``
  for every ToR pair, at every ``max_equal_paths`` cap, on the live
  engine and on copy-on-write forks that drain on their own;
* ``TrafficState._siblings_of`` equals the whole-index
  :func:`dcrobot.traffic.legacy.sibling_index` for every row, and the
  projected group utilization agrees with the oracle's to 1e-12;
* every pair resolution copied from the stash (the resolution a
  routing or loss change retired, or a fork's parent's) equals a
  freshly built engine's on the same fabric state, and the resolved
  pairs are exactly those requested since the last routing, loss or
  structure change — on fat-trees and on a leaf-spine with parallel
  links, where a loss change moves the least-loss member.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.network import LinkState, SwitchRole
from dcrobot.topology import build_fattree, build_leafspine
from dcrobot.traffic import EcmpRouter, TrafficState, sample_sizes
from dcrobot.traffic import legacy
from dcrobot.twin import TwinWorld

STATES = [LinkState.UP, LinkState.DOWN, LinkState.FLAPPING,
          LinkState.MAINTENANCE]
CAPS = [1, 2, 3, 16]

# An op is (kind, link index, value); "fork" checks a twin that drains
# ``value`` links of its own, then the parent again.
ops = st.lists(
    st.tuples(st.sampled_from(["drain", "undrain", "state", "loss",
                               "fork"]),
              st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=5)


def make(k, cap, seed=0):
    topology = build_fattree(k=k, rng=np.random.default_rng(seed))
    tors = topology.switches(SwitchRole.TOR)
    traffic = TrafficState(topology.fabric, tors, max_equal_paths=cap,
                           rng=np.random.default_rng(seed + 1))
    return topology, tors, traffic


def assert_paths_match(traffic, router, tors):
    router.invalidate()
    for src in tors:
        for dst in tors:
            assert traffic.equal_cost_paths(src, dst) \
                == router.equal_cost_paths(src, dst), (src, dst)


def apply(op, topology, traffic, router, clock):
    kind, index, value = op
    links = list(topology.fabric.links.values())
    link = links[index % len(links)]
    if kind == "drain":
        traffic.drain(link.id)
        router.drain(link.id)
    elif kind == "undrain":
        # Mostly undrain something actually drained.
        drained = sorted(traffic.drained_links)
        link_id = drained[index % len(drained)] if drained else link.id
        traffic.undrain(link_id)
        router.undrain(link_id)
    elif kind == "state":
        link.set_state(clock, STATES[value])
    elif kind == "loss":
        topology.fabric.state.loss_rate[link._row] = value / 8.0


def check_fork(topology, tors, traffic, op):
    _, index, value = op
    links = sorted(topology.fabric.links)
    with TwinWorld.fork(topology.fabric, traffic=traffic,
                        rng=np.random.default_rng(3)) as twin:
        router = EcmpRouter(topology.fabric,
                            max_equal_paths=traffic.max_equal_paths)
        for link_id in traffic.drained_links:
            router.drain(link_id)
        # Untouched, the twin reads (and fills) the shared caches.
        assert_paths_match(twin.traffic, router, tors)
        for step in range(value + 1):
            link_id = links[(index + 7 * step) % len(links)]
            twin.drain(link_id)
            router.drain(link_id)
        assert_paths_match(twin.traffic, router, tors)


def run_ops(k, cap, sequence):
    topology, tors, traffic = make(k, cap)
    router = EcmpRouter(topology.fabric, max_equal_paths=cap)
    assert_paths_match(traffic, router, tors)
    for clock, op in enumerate(sequence, start=1):
        if op[0] == "fork":
            check_fork(topology, tors, traffic, op)
        else:
            apply(op, topology, traffic, router, float(clock))
        assert_paths_match(traffic, router, tors)


@settings(max_examples=40, deadline=None)
@given(cap=st.sampled_from(CAPS), sequence=ops)
def test_paths_match_router_k4(cap, sequence):
    run_ops(4, cap, sequence)


@settings(max_examples=4, deadline=None)
@given(cap=st.sampled_from(CAPS), sequence=ops)
def test_paths_match_router_k8(cap, sequence):
    run_ops(8, cap, sequence)


# -- sibling lookup vs the whole-index oracle --------------------------------

def offer(traffic, rng, count=300):
    n = len(traffic.endpoints)
    src = rng.integers(n, size=count)
    dst = rng.integers(n - 1, size=count)
    dst = dst + (dst >= src)
    sizes = sample_sizes(rng, count)
    ids = rng.integers(1 << 30, size=count)
    traffic.offer_window(src, dst, sizes, ids, 1.0)


def assert_siblings_match(topology, traffic):
    link_ids = sorted(topology.fabric.links)
    # The engine's own projection first: it settles the member
    # resolution both sides then read.
    projected = [traffic.projected_group_utilization(link_id)
                 for link_id in link_ids]
    index = legacy.sibling_index(traffic)
    for row in range(topology.fabric.state.n_links):
        expected = set(index.get(row, ())) - {row}
        assert set(traffic._siblings_of(row).tolist()) == expected, row
    for link_id, value in zip(link_ids, projected):
        oracle = legacy.projected_group_utilization(traffic, index,
                                                    link_id)
        if math.isinf(oracle):
            assert value == oracle, link_id
        else:
            assert abs(value - oracle) <= 1e-12 * max(1.0, oracle), \
                link_id


@settings(max_examples=25, deadline=None)
@given(k=st.sampled_from([4, 8]), cap=st.sampled_from(CAPS),
       seed=st.integers(min_value=0, max_value=2**16), sequence=ops)
def test_siblings_match_oracle(k, cap, seed, sequence):
    topology, tors, traffic = make(k, cap, seed)
    router = EcmpRouter(topology.fabric, max_equal_paths=cap)
    rng = np.random.default_rng(seed)
    offer(traffic, rng)
    assert_siblings_match(topology, traffic)
    for clock, op in enumerate(sequence, start=1):
        if op[0] != "fork":
            apply(op, topology, traffic, router, float(clock))
        if op[2] % 2 == 0:
            offer(traffic, rng)
        assert_siblings_match(topology, traffic)


# -- stashed resolutions vs a fresh engine -------------------------------------

# As ``ops``, plus "reseat" (drain, offer, undrain: a robot's touch)
# and "rewire" (a link is disconnected, renumbering rows).
stash_ops = st.lists(
    st.tuples(st.sampled_from(["drain", "undrain", "reseat", "state",
                               "loss", "fork", "rewire"]),
              st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=6)


class Requests:
    """The pairs an engine was asked for since it last had to drop its
    resolution (a routing, drain, loss or structure change)."""

    def __init__(self, traffic):
        self.traffic = traffic
        self.key = None
        self.pairs = set()

    def offer(self, rng, count=120):
        traffic = self.traffic
        fs = traffic.fabric.state
        key = (fs.generation, fs.route_generation, traffic._drain_epoch,
               fs.loss_rate[:fs.n_links].tobytes())
        if key != self.key:
            self.key = key
            self.pairs = set()
        n = len(traffic.endpoints)
        src = rng.integers(n, size=count)
        dst = rng.integers(n - 1, size=count)
        dst = dst + (dst >= src)
        traffic.offer_window(src, dst, sample_sizes(rng, count),
                             rng.integers(1 << 30, size=count), 1.0)
        nodes = traffic._endpoint_nodes
        self.pairs |= set((nodes[src] * traffic.n_nodes
                           + nodes[dst]).tolist())


def member_rows(traffic, key):
    offsets, members, hops = traffic._slot_table()
    slot = traffic._slot_of[key]
    offset = offsets[slot]
    return traffic._assembled_big()[offset:offset + members[slot],
                                    :hops[slot]]


def assert_matches_fresh(requests):
    traffic = requests.traffic
    resolved = set(np.nonzero(traffic._slot_of >= 0)[0].tolist())
    assert resolved == requests.pairs
    fresh = TrafficState(traffic.fabric, traffic.endpoints,
                         max_equal_paths=traffic.max_equal_paths)
    for link_id in traffic.drained_links:
        fresh.drain(link_id)
    fresh._refresh()
    fresh._check_loss_fresh()
    keys = np.array(sorted(resolved), dtype=np.int64)
    fresh._resolve_unseen(keys)
    for key in keys.tolist():
        assert np.array_equal(member_rows(traffic, key),
                              member_rows(fresh, key)), key


def run_stash_ops(topology, endpoints, cap, seed, sequence):
    traffic = TrafficState(topology.fabric, endpoints,
                           max_equal_paths=cap,
                           rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    requests = Requests(traffic)
    requests.offer(rng)
    for clock, op in enumerate(sequence, start=1):
        kind, index, value = op
        links = sorted(topology.fabric.links)
        link_id = links[index % len(links)]
        if kind == "fork":
            with TwinWorld.fork(topology.fabric, traffic=traffic,
                                rng=np.random.default_rng(3)) as twin:
                twin_requests = Requests(twin.traffic)
                for step in range(value + 1):
                    twin.drain(links[(index + 7 * step) % len(links)])
                twin_requests.offer(rng)
                assert_matches_fresh(twin_requests)
        elif kind == "rewire":
            if len(links) > 8:
                topology.fabric.disconnect(link_id)
        elif kind == "drain":
            traffic.drain(link_id)
        elif kind == "reseat":
            traffic.drain(link_id)
            requests.offer(rng)
            assert_matches_fresh(requests)
            traffic.undrain(link_id)
        elif kind == "undrain":
            drained = sorted(traffic.drained_links)
            if drained:
                traffic.undrain(drained[index % len(drained)])
        elif kind == "state":
            topology.fabric.links[link_id].set_state(float(clock),
                                                     STATES[value])
        else:
            topology.fabric.state.loss_rate[
                topology.fabric.links[link_id]._row] = value / 8.0
        if value % 2:
            # A second window after the change reads the resolution
            # the first one filled (and adds to it).
            requests.offer(rng)
        requests.offer(rng)
        assert_matches_fresh(requests)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([4, 8]), cap=st.sampled_from(CAPS),
       seed=st.integers(min_value=0, max_value=2**16),
       sequence=stash_ops)
def test_stash_matches_fresh_fattree(k, cap, seed, sequence):
    topology = build_fattree(k=k, rng=np.random.default_rng(seed))
    run_stash_ops(topology, topology.switches(SwitchRole.TOR), cap,
                  seed, sequence)


@settings(max_examples=40, deadline=None)
@given(cap=st.sampled_from(CAPS),
       seed=st.integers(min_value=0, max_value=2**16),
       sequence=stash_ops)
def test_stash_matches_fresh_parallel_links(cap, seed, sequence):
    # Two links per leaf-spine pair: a loss change can hand a hop to
    # the parallel link while every node edge stays usable.
    topology = build_leafspine(leaves=4, spines=2, uplinks_per_pair=2,
                               rng=np.random.default_rng(seed))
    run_stash_ops(topology, topology.switches(SwitchRole.LEAF), cap,
                  seed, sequence)
