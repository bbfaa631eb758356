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
  projected group utilization agrees with the oracle's to 1e-12.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.network import LinkState, SwitchRole
from dcrobot.topology import build_fattree
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
