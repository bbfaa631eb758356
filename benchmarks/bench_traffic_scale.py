"""Bench S17 — columnar traffic engine vs the legacy per-flow loop.

The traffic-scale acceptance gate: :class:`TrafficState` must beat
:class:`LegacyTrafficModel` by >=5x on the k=16 fat-tree (2048 links,
128 ToR endpoints) while producing bit-identical per-flow FCTs and
per-link utilization / congestion-loss totals on the shared seed.

After the timed windows, the last window's pairs are offered again
with one ToR uplink drained, then undrained.  Both engines stay bit
for bit identical, and the columnar engine enumerates paths again only
for the pairs whose member paths crossed that link: every other pair
is copied from the resolution the drain (or undrain) retired.  That is
a count, not a timing, so it holds on any host.
"""

import numpy as np
from conftest import run_once

from dcrobot.topology.base import SwitchRole
from dcrobot.topology.fattree import build_fattree
from dcrobot.traffic.flows import sample_sizes
from dcrobot.traffic.legacy import LegacyTrafficModel
from dcrobot.traffic.state import TrafficState

K = 16
WINDOWS = 6
FLOWS_PER_WINDOW = 4000
WINDOW_SECONDS = 60.0


def _windows(n_endpoints):
    rng = np.random.default_rng(21)
    out = []
    flow_id = 0
    for _ in range(WINDOWS):
        src = rng.integers(n_endpoints, size=FLOWS_PER_WINDOW)
        dst = rng.integers(n_endpoints - 1, size=FLOWS_PER_WINDOW)
        dst = dst + (dst >= src)
        sizes = sample_sizes(rng, FLOWS_PER_WINDOW)
        ids = np.arange(flow_id, flow_id + FLOWS_PER_WINDOW,
                        dtype=np.int64)
        flow_id += FLOWS_PER_WINDOW
        out.append((src, dst, sizes, ids))
    return out


def _run_pair():
    import time

    topology = build_fattree(k=K, rng=np.random.default_rng(1))
    fabric = topology.fabric
    tors = topology.switches(SwitchRole.TOR)
    windows = _windows(len(tors))

    columnar = TrafficState(fabric, tors,
                            rng=np.random.default_rng(7))
    legacy = LegacyTrafficModel(fabric, tors,
                                rng=np.random.default_rng(7))

    start = time.perf_counter()
    columnar_results = [columnar.offer_window(*w, WINDOW_SECONDS)
                        for w in windows]
    mid = time.perf_counter()
    legacy_results = [legacy.offer_window(*w, WINDOW_SECONDS)
                      for w in windows]
    end = time.perf_counter()
    return (fabric, columnar, legacy, columnar_results,
            legacy_results, mid - start, end - mid)


def _member_rows(traffic, key):
    offsets, members, hops = traffic._slot_table()
    slot = traffic._slot_of[key]
    return traffic._assembled_big()[
        offsets[slot]:offsets[slot] + members[slot], :hops[slot]]


def _drain_and_undrain(fabric, tors, columnar, legacy, window):
    """Offer ``window`` with ToR 0's first uplink drained, then again
    undrained, on both engines.  Returns the pairs whose pre-drain
    member paths crossed the link, the pairs the columnar engine
    enumerated at each step, and both engines' results per step."""
    link = fabric.links_of(tors[0])[0]
    row = fabric.state.index_of[link.id]
    nodes = columnar._endpoint_nodes
    keys = np.unique(nodes[window[0]] * columnar.n_nodes
                     + nodes[window[1]])
    through = {key for key in keys.tolist()
               if (_member_rows(columnar, key) == row).any()}
    enumerated = []
    resolve = columnar._resolve_missing

    def counted(new_keys):
        enumerated[-1].update(new_keys.tolist())
        resolve(new_keys)

    columnar._resolve_missing = counted
    steps = []
    for fast, slow in ((columnar.drain, legacy.drain),
                       (columnar.undrain, legacy.undrain)):
        fast(link.id)
        slow(link.id)
        enumerated.append(set())
        steps.append((columnar.offer_window(*window, WINDOW_SECONDS),
                      legacy.offer_window(*window, WINDOW_SECONDS)))
    del columnar._resolve_missing
    return through, enumerated, steps


def test_traffic_scale(benchmark):
    (fabric, columnar, legacy, columnar_results, legacy_results,
     columnar_seconds, legacy_seconds) = run_once(benchmark, _run_pair)
    speedup = legacy_seconds / columnar_seconds
    print()
    print(f"k={K} fat-tree, {fabric.state.n_links} links, "
          f"{WINDOWS}x{FLOWS_PER_WINDOW} flows: "
          f"columnar {columnar_seconds:.3f}s, "
          f"legacy {legacy_seconds:.3f}s, speedup {speedup:.1f}x")

    tors = columnar.endpoints
    windows = _windows(len(tors))
    through, enumerated, steps = _drain_and_undrain(
        fabric, tors, columnar, legacy, windows[-1])
    print(f"drain then undrain: {len(through)} pairs crossed the "
          f"link; enumerated {[len(step) for step in enumerated]}")
    assert through
    assert enumerated == [through, through]

    # Bit-identical per-flow completion times, window for window.
    for fast, slow in zip(columnar_results + [f for f, _ in steps],
                          legacy_results + [s for _, s in steps]):
        assert np.array_equal(fast.fct, slow.fct, equal_nan=True)

    # Bit-identical per-link utilization and loss totals: every link
    # the legacy model touched agrees exactly, and links it never
    # touched accumulated nothing in the columns.
    index_of = fabric.state.index_of
    touched = np.zeros(fabric.state.n_links, dtype=bool)
    for link_id, total in legacy.util_bytes.items():
        row = index_of[link_id]
        touched[row] = True
        assert columnar.util_bytes.values[row] == total
        assert columnar.lost_bytes.values[row] == \
            legacy.lost_bytes.get(link_id, 0.0)
    n = fabric.state.n_links
    assert float(columnar.util_bytes.values[:n][~touched].sum()) == 0.0

    assert speedup >= 5.0, (
        f"columnar speedup {speedup:.1f}x at k={K}, expected >= 5x")
