"""Columnar traffic engine: ECMP + congestion + FCT as array kernels.

The per-flow object path (:class:`~dcrobot.traffic.routing.EcmpRouter`
+ :class:`~dcrobot.traffic.latency.LatencyModel`) walks Python objects
per flow and caps traffic experiments at toy fabric sizes, exactly as
the per-link loops once capped the physics (PR 5).
:class:`TrafficState` is the traffic analogue of
:class:`~dcrobot.network.state.FabricState`: whole windows of flows are
offered as arrays, and every hot quantity — path membership, ECMP
member choice, per-link offered bytes, congestion loss, flow-completion
times — is computed by vectorized kernels.

Three structural ideas make it fast without changing the physics:

* **Class-cached paths.**  Endpoints whose *usable* neighbor sets are
  identical (pod twins in a fat-tree) are interchangeable for shortest
  paths: no shortest path can route *through* a twin of either
  endpoint (any such path admits a shortcut).  Paths are therefore
  enumerated once per ``(src_class, dst_class)`` — interiors only —
  and endpoint members are substituted in, collapsing the per-pair
  cache of the object router to a per-class-pair cache.
* **Scoped invalidation.**  Caches key on
  ``FabricState.route_generation`` (bumped on structural changes and
  on carrier-crossing state transitions) plus a local drain epoch, but
  a routing or loss change does not throw the pair resolution away:
  the old member-row matrix and slot map become a *stash*, and a pair
  asked for again copies its stashed rows when they are still exact
  (see below) instead of enumerating its paths again.  A new
  ``FabricState.generation`` renumbers rows and drops the stash too.
* **Unbuffered accumulation.**  Per-link offered bytes and flow counts
  are accumulated with ``np.bincount`` from flow-major flattened hop
  arrays, which adds sequentially in input order — the same float
  additions in the same order as the legacy per-flow loop — so
  utilization totals agree bit for bit with the
  :class:`~dcrobot.traffic.legacy.LegacyTrafficModel` oracle.

Path enumeration follows the shared lexicographic spec in
:func:`dcrobot.traffic.routing.lexicographic_shortest_paths`, from one
BFS per *destination* per routing epoch: a DFS over sorted neighbors
steps from ``node`` to ``step`` iff ``d(step, dst) == d(node, dst) - 1``.
The spec's two tests (``d(src, step) == d(src, node) + 1`` and
``d(step, dst) == total - d(src, node) - 1``) accept exactly the same
steps in an undirected graph: on a shortest path ``d(node, dst) ==
total - d(src, node)``, and the triangle inequality forces
``d(src, step) == d(src, node) + 1`` once ``d(step, dst)`` is one less.
So the lexicographic order and the cap are the spec's, and every
source reuses the destination's distances.  Member selection per hop
reproduces ``links_on_path`` (least-lossy usable parallel link,
insertion order breaking ties); FCT sampling reproduces
``LatencyModel.sample_fct`` including RNG stream order (retry draws
only for lossy routable flows, in flow order).

A stashed pair ``(s, t)`` with old hop count ``L`` (``L`` infinite if
it was unroutable) is copied only if (1) every member row is still the
least-loss usable row of its node pair — so no member row went
unusable or lost its choice to a parallel link — and (2) every node
edge ``(u, v)`` that became usable has ``d(s,u)+1+d(v,t) > L`` and
``d(s,v)+1+d(u,t) > L`` under the new distances, unreachable counting
as infinite.  Then each old member path survives, so ``d(s, t)`` is
unchanged; no path of length ``<= L`` uses a new edge, so the new
shortest paths are a subset of the old ones that still holds every old
member, and the lexicographic capped set and each hop's least-loss
member are the same.  Only requested pairs are checked and copied, so
the set of resolved pairs (which the congestion gate's sibling lookup
reads) is exactly what a fresh resolution would hold.  Forks inherit
their parent's resolution as their stash.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from dcrobot.network.inventory import Fabric
from dcrobot.network.state import FLAPPING_CODE
from dcrobot.obs import NULL_OBS
from dcrobot.traffic.latency import (
    MTU_BYTES,
    PROPAGATION_S_PER_M,
    LatencyParams,
    combined_loss,
    congestion_loss,
)

_NO_ROUTE = None


@dataclasses.dataclass
class WindowResult:
    """One offered traffic window, measured."""

    #: Per-flow completion time; NaN where no route existed.
    fct: np.ndarray
    #: Per-flow routability mask.
    routable: np.ndarray
    #: Per-row offered bytes this window (length ``n_links``).
    offered: np.ndarray
    #: Per-row congestion loss fraction this window.
    congestion: np.ndarray
    window_seconds: float

    @property
    def flows(self) -> int:
        return len(self.fct)

    @property
    def unroutable(self) -> int:
        return int(len(self.routable) - self.routable.sum())

    def fct_percentile(self, q: float) -> float:
        """Percentile over routable flows (NaN if none routed)."""
        samples = self.fct[self.routable]
        if len(samples) == 0:
            return float("nan")
        return float(np.percentile(samples, q))


@dataclasses.dataclass(frozen=True)
class _Stash:
    """A retired member resolution, read-only: its dense slot map, its
    assembled member-row matrix and per-slot table, and the least-loss
    row table (per node pair) it was resolved under."""

    slot_of: np.ndarray
    big: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    hops: np.ndarray
    best_keys: np.ndarray


class TrafficState:
    """Struct-of-arrays traffic engine over one fabric.

    ``endpoints`` are the attachment nodes flows run between (ToR
    switches in the fat-tree experiments); offered windows address them
    by index, which is what :meth:`FlowGenerator.sample_arrays` and the
    matrix samplers in :mod:`dcrobot.traffic.patterns` emit.
    """

    def __init__(self, fabric: Fabric, endpoints: Sequence[str],
                 params: Optional[LatencyParams] = None,
                 max_equal_paths: int = 8,
                 rng: Optional[np.random.Generator] = None,
                 obs=NULL_OBS) -> None:
        if max_equal_paths < 1:
            raise ValueError("max_equal_paths must be >= 1")
        if len(endpoints) < 2:
            raise ValueError("need at least two endpoints")
        self.fabric = fabric
        self.endpoints = list(endpoints)
        self.params = params or LatencyParams()
        self.max_equal_paths = max_equal_paths
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.obs = obs
        #: Cumulative per-link accounting, row-aligned through
        #: structural changes by the fabric state itself.
        fs = fabric.state
        self.util_bytes = fs.add_link_column(0.0)
        self.util_flows = fs.add_link_column(0.0)
        self.lost_bytes = fs.add_link_column(0.0)
        self._drained: set = set()
        self._drain_epoch = 0
        #: Last offered window, kept for impact scoring.
        self.last_offered: Optional[np.ndarray] = None
        self.last_congestion: Optional[np.ndarray] = None
        self.last_window_seconds = 0.0
        #: The last window's distinct (src, dst) endpoint-index pairs.
        self._last_pairs = None
        self._structure_gen = -1
        self._route_key = None
        self._loss_snapshot: Optional[np.ndarray] = None
        self._stash: Optional[_Stash] = None

    # -- drains (administrative removal ahead of maintenance) ---------------

    def drain(self, link_id: str) -> None:
        """Remove a link from routing ahead of maintenance."""
        if link_id not in self._drained:
            self._drained.add(link_id)
            self._drain_epoch += 1

    def undrain(self, link_id: str) -> None:
        """Return a drained link to routing."""
        if link_id in self._drained:
            self._drained.discard(link_id)
            self._drain_epoch += 1

    @property
    def drained_links(self) -> set:
        """A copy of the drained link ids."""
        return set(self._drained)

    def is_drained(self, link_id: str) -> bool:
        """Whether ``link_id`` is drained out of routing."""
        return link_id in self._drained

    # -- copy-on-write forking ----------------------------------------------

    def fork(self, fabric, rng: Optional[np.random.Generator] = None) \
            -> "TrafficState":
        """A twin engine bound to a forked :class:`FabricState`.

        ``fabric`` is the twin's fabric handle — typically a proxy
        whose ``.state`` is ``FabricState.fork()`` of this engine's
        fabric and whose other attributes forward to the live fabric
        (structure is only re-read if the twin's generation moves).
        The fork shares every immutable routing artifact with the
        parent — structure snapshots, usable adjacency, twin classes,
        per-destination distances and the expensive per-class-pair
        path-interior cache.  The twin starts with an empty member
        resolution and takes the parent's (a copy of its slot map) as
        its stash, so pairs a drain leaves alone are copied, not
        enumerated again.  Cumulative accounting columns start
        at zero on the twin (they join the *forked* state's consumer
        column list, so the parent's accounting is untouched).
        """
        self._refresh()
        twin = TrafficState.__new__(TrafficState)
        twin.fabric = fabric
        twin.endpoints = list(self.endpoints)
        twin.params = self.params
        twin.max_equal_paths = self.max_equal_paths
        twin.rng = rng if rng is not None else np.random.default_rng(0)
        twin.obs = NULL_OBS
        fs = fabric.state
        twin.util_bytes = fs.add_link_column(0.0)
        twin.util_flows = fs.add_link_column(0.0)
        twin.lost_bytes = fs.add_link_column(0.0)
        twin._drained = set(self._drained)
        twin._drain_epoch = self._drain_epoch
        twin.last_offered = None
        twin.last_congestion = None
        twin.last_window_seconds = 0.0
        twin._last_pairs = None
        # Structure snapshot (read-only arrays, shared).
        twin._node_ids = self._node_ids
        twin._node_index = self._node_index
        twin.n_nodes = self.n_nodes
        twin._row_u = self._row_u
        twin._row_v = self._row_v
        twin._caps = self._caps
        twin._lengths = self._lengths
        twin._caps_ext = self._caps_ext
        twin._lengths_ext = self._lengths_ext
        twin._endpoint_nodes = self._endpoint_nodes
        twin._structure_gen = self._structure_gen
        # Routing artifacts (each side replaces, never mutates, these
        # on its own rebuild; cache fills into the shared interiors
        # and distance dicts are value-identical on both sides).
        twin._usable = self._usable
        twin._neighbors = self._neighbors
        twin._class_of = self._class_of
        twin._class_interiors = self._class_interiors
        twin._dist_to = self._dist_to
        twin._route_key = self._route_key
        twin._stash = (self._retired(copy=True) if self._slot_count > 1
                       else self._stash)
        twin._reset_resolution()
        return twin

    # -- cache maintenance ---------------------------------------------------

    def _refresh(self) -> None:
        fs = self.fabric.state
        if fs.generation != self._structure_gen:
            self._rebuild_structure()
        route_key = (fs.route_generation, self._drain_epoch)
        if route_key != self._route_key:
            self._rebuild_routing()
            self._route_key = route_key

    def _rebuild_structure(self) -> None:
        """Row-aligned endpoint/capacity/length snapshots (per
        ``FabricState.generation``)."""
        fabric = self.fabric
        fs = fabric.state
        node_ids = sorted(set(fabric.switches) | set(fabric.hosts))
        self._node_ids = node_ids
        self._node_index = {node: i for i, node in enumerate(node_ids)}
        self.n_nodes = len(node_ids)
        n = fs.n_links
        self._row_u = np.empty(n, dtype=np.int64)
        self._row_v = np.empty(n, dtype=np.int64)
        self._caps = np.empty(n, dtype=np.float64)
        self._lengths = np.empty(n, dtype=np.float64)
        for row, link in enumerate(fs.links_by_row):
            a, b = link.endpoint_ids
            self._row_u[row] = self._node_index[a]
            self._row_v[row] = self._node_index[b]
            self._caps[row] = link.capacity_gbps
            self._lengths[row] = link.cable.length_m
        self._caps_ext = np.append(self._caps, np.inf)
        self._lengths_ext = np.append(self._lengths, 0.0)
        self._endpoint_nodes = np.array(
            [self._node_index[node] for node in self.endpoints],
            dtype=np.int64)
        self._structure_gen = fs.generation
        self._route_key = None
        # Rows may have been renumbered: nothing stashed carries over.
        self._stash = None
        self._reset_resolution()

    def _rebuild_routing(self) -> None:
        """Usable-adjacency, twin classes, and cleared path caches (per
        route_generation + drain epoch); the member resolution is
        stashed first, while the old epoch's distances still stand."""
        self._retire_resolution()
        fs = self.fabric.state
        n = fs.n_links
        usable = fs.state_code[:n] <= FLAPPING_CODE
        if self._drained:
            index_of = fs.index_of
            for link_id in self._drained:
                row = index_of.get(link_id)
                if row is not None:
                    usable[row] = False
        self._usable = usable
        # Simple usable adjacency: sorted distinct neighbors per node,
        # as Python ints.  Node ints are assigned in sorted-id order, so
        # ascending ints == the object router's lexicographic neighbor
        # order.
        u = self._row_u[:n][usable]
        v = self._row_v[:n][usable]
        heads = np.concatenate([u, v])
        tails = np.concatenate([v, u])
        edge_keys = np.unique(heads * self.n_nodes + tails)
        indptr = np.searchsorted(edge_keys // self.n_nodes,
                                 np.arange(self.n_nodes + 1)).tolist()
        indices = (edge_keys % self.n_nodes).tolist()
        self._neighbors = [indices[indptr[node]:indptr[node + 1]]
                           for node in range(self.n_nodes)]
        # Twin classes: identical usable-neighbor sets.
        signatures: Dict[tuple, int] = {}
        class_of = np.empty(self.n_nodes, dtype=np.int64)
        for node, peers in enumerate(self._neighbors):
            class_of[node] = signatures.setdefault(
                tuple(peers), len(signatures))
        self._class_of = class_of
        self._class_interiors: Dict = {}
        #: Per-destination BFS hop distances, filled on first use.
        self._dist_to: Dict[int, List[int]] = {}

    def _reset_resolution(self) -> None:
        """Drop loss-dependent member-to-row resolution."""
        #: Stacked member-row matrices, assembled lazily; slot 0 is the
        #: all-dummy row unroutable flows gather from.
        self._big_parts: List[np.ndarray] = []
        self._big_count = 1
        self._big_rows: Optional[np.ndarray] = None
        #: Slot per ``src * n_nodes + dst`` pair key (-1: unresolved).
        self._slot_of = np.full(self.n_nodes * self.n_nodes, -1,
                                dtype=np.int64)
        #: Per-slot (big-matrix offset, members, hops) chunks.
        self._slot_parts: List[tuple] = []
        self._slot_count = 1
        self._slot_arrays = None
        self._loss_snapshot = None
        self._best_keys = None
        #: Whether the last window's pairs hold slots in this resolution.
        self._last_pairs_resolved = False

    def _retired(self, copy: bool) -> _Stash:
        """The current resolution as a read-only stash (``copy`` the
        slot map when this engine keeps filling it)."""
        offsets, members, hops = self._slot_table()
        return _Stash(
            slot_of=self._slot_of.copy() if copy else self._slot_of,
            big=self._assembled_big(), offsets=offsets,
            members=members, hops=hops, best_keys=self._best_keys)

    def _retire_resolution(self) -> None:
        """Stash the current resolution and reset.  The older stash's
        pairs the current resolution never asked for are carried over
        when still exact, so a pair skipped for a few epochs is not
        enumerated again; an empty resolution leaves the older stash in
        place."""
        if self._slot_count > 1:
            if self._stash is not None:
                stashed = self._stash.slot_of >= 0
                self._copy_stashed(np.nonzero(
                    stashed & (self._slot_of < 0))[0])
            self._stash = self._retired(copy=False)
        self._reset_resolution()

    def _check_loss_fresh(self) -> None:
        """Member choice depends on loss rates; re-resolve on change."""
        fs = self.fabric.state
        loss = fs.loss_rate[:fs.n_links]
        if self._loss_snapshot is not None \
                and np.array_equal(loss, self._loss_snapshot):
            return
        self._retire_resolution()
        self._loss_snapshot = loss.copy()
        self._build_best_rows()
        self._diff_stash()

    def _build_best_rows(self) -> None:
        """Per unordered node pair, the row ``links_on_path`` picks:
        least loss, insertion order breaking ties."""
        fs = self.fabric.state
        n = fs.n_links
        rows = np.nonzero(self._usable)[0]
        u, v = self._row_u[rows], self._row_v[rows]
        pair_keys = (np.minimum(u, v) * self.n_nodes
                     + np.maximum(u, v))
        order = np.lexsort((fs.lid_of_row[rows],
                            fs.loss_rate[:n][rows], pair_keys))
        sorted_keys = pair_keys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        self._best_keys = sorted_keys[first]
        self._best_rows = rows[order][first]

    def _diff_stash(self) -> None:
        """The stash's two validity inputs under the current least-loss
        table: which rows are still chosen for their node pair, and
        which node edges are new since the stash was resolved."""
        if self._stash is None:
            return
        chosen = np.zeros(self.fabric.state.n_links + 1, dtype=bool)
        chosen[self._best_rows] = True
        chosen[-1] = True  # the dummy pad
        self._chosen = chosen
        self._new_edges = np.setdiff1d(self._best_keys,
                                       self._stash.best_keys,
                                       assume_unique=True)

    # -- path enumeration (shared lexicographic spec) -----------------------

    def _lex_paths(self, src: int, dst: int) -> List[List[int]]:
        """Shortest node-int paths, lexicographic, capped — the int
        twin of :func:`routing.lexicographic_shortest_paths`."""
        dist = self._distances(dst)
        if dist[src] < 0:
            return []
        neighbors = self._neighbors
        paths: List[List[int]] = []
        stack = [src]
        cap = self.max_equal_paths

        def descend(node: int) -> bool:
            if node == dst:
                paths.append(list(stack))
                return len(paths) >= cap
            nearer = dist[node] - 1
            for step in neighbors[node]:
                if dist[step] == nearer:
                    stack.append(step)
                    if descend(step):
                        return True
                    stack.pop()
            return False

        descend(src)
        return paths

    def _distances(self, origin: int) -> List[int]:
        """Hop distances from ``origin`` under the current routing
        epoch, one BFS per origin per epoch."""
        dist = self._dist_to.get(origin)
        if dist is None:
            dist = self._dist_to[origin] = self._bfs(origin)
        return dist

    def _bfs(self, origin: int) -> List[int]:
        """Hop distances from ``origin`` over usable adjacency (-1 where
        unreachable)."""
        neighbors = self._neighbors
        dist = [-1] * self.n_nodes
        dist[origin] = 0
        frontier = [origin]
        depth = 0
        while frontier:
            depth += 1
            fresh = []
            for node in frontier:
                for step in neighbors[node]:
                    if dist[step] < 0:
                        dist[step] = depth
                        fresh.append(step)
            frontier = fresh
        return dist

    def _interiors(self, src: int, dst: int) -> Optional[np.ndarray]:
        """Path interiors for (class(src), class(dst)), as an (M, L)
        int matrix; ``None`` when no route exists."""
        key = (int(self._class_of[src]), int(self._class_of[dst]))
        if key in self._class_interiors:
            return self._class_interiors[key]
        paths = self._lex_paths(src, dst)
        if not paths:
            interiors = _NO_ROUTE
        else:
            interiors = np.array([path[1:-1] for path in paths],
                                 dtype=np.int64)
            if interiors.size == 0:
                interiors = interiors.reshape(len(paths), 0)
        self._class_interiors[key] = interiors
        return interiors

    def _resolve_unseen(self, keys: np.ndarray) -> None:
        """Resolve those of ``keys`` no slot holds yet: copy the ones
        the stash still holds exactly, enumerate the rest."""
        keys = keys[self._slot_of[keys] < 0]
        if len(keys) and self._stash is not None:
            keys = self._copy_stashed(keys)
        if len(keys):
            self._resolve_missing(keys)

    def _copy_stashed(self, keys: np.ndarray) -> np.ndarray:
        """Give every key whose stashed resolution is still exact a
        slot holding a copy of it; returns the keys left to enumerate."""
        stash = self._stash
        slots = stash.slot_of[keys]
        held = np.nonzero(slots >= 0)[0]
        if not len(held):
            return keys
        valid = self._stash_valid(keys[held], slots[held])
        take = held[valid]
        if not len(take):
            return keys
        slots = slots[take]
        members = stash.members[slots]
        routed = members > 0
        self._slot_of[keys[take[~routed]]] = 0
        if routed.any():
            members = members[routed]
            hops = stash.hops[slots[routed]]
            cells = _block_cells(stash.offsets[slots[routed]], members)
            part = stash.big[cells, :int(hops.max())]
            offsets = self._big_count + np.cumsum(members) - members
            self._big_parts.append(part)
            self._big_rows = None
            self._big_count += len(part)
            self._append_slots(keys[take[routed]], offsets, members,
                               hops)
        left = np.ones(len(keys), dtype=bool)
        left[take] = False
        return keys[left]

    def _stash_valid(self, keys: np.ndarray,
                     slots: np.ndarray) -> np.ndarray:
        """Per stashed pair, whether its stashed member rows are what a
        fresh resolution would build now (the module docstring's two
        conditions)."""
        stash = self._stash
        members = stash.members[slots]
        hops = stash.hops[slots]
        valid = np.ones(len(keys), dtype=bool)
        # (1) Every member row is still its node pair's chosen row.
        routed = np.nonzero(members > 0)[0]
        if len(routed):
            counts = members[routed]
            cells = _block_cells(stash.offsets[slots[routed]], counts)
            kept = self._chosen[stash.big[cells]].all(axis=1)
            valid[routed] = np.logical_and.reduceat(
                kept, np.cumsum(counts) - counts)
        # (2) No new node edge lies on an s-t walk of <= L hops.
        edges = self._new_edges
        check = np.nonzero(valid)[0]
        if not len(edges) or not len(check):
            return valid
        n_nodes = self.n_nodes
        src = keys[check] // n_nodes
        dst = keys[check] % n_nodes
        far = 4 * n_nodes  # unreachable; any sum holding it is > L
        limit = np.where(members[check] > 0, hops[check], far - 1)
        ends = np.unique(np.concatenate([src, dst]))
        table = np.array([self._distances(end) for end in ends.tolist()],
                         dtype=np.int64)
        table[table < 0] = far
        from_src = table[np.searchsorted(ends, src)]
        to_dst = table[np.searchsorted(ends, dst)]
        u, v = edges // n_nodes, edges % n_nodes
        valid[check] = (
            (from_src[:, u] + 1 + to_dst[:, v] > limit[:, None])
            & (from_src[:, v] + 1 + to_dst[:, u] > limit[:, None])
        ).all(axis=1)
        return valid

    def _resolve_missing(self, new_keys: np.ndarray) -> None:
        """Resolve a batch of unseen (src, dst) pairs to their ECMP
        member row matrices, grouped by twin-class pair so one
        vectorized substitution covers every member pair of a class."""
        src = new_keys // self.n_nodes
        dst = new_keys % self.n_nodes
        class_pairs = np.where(
            src == dst, -1,
            self._class_of[src] * (self._class_of.max() + 1)
            + self._class_of[dst])
        order = np.argsort(class_pairs, kind="stable")
        boundaries = np.nonzero(np.diff(class_pairs[order]))[0] + 1
        for group in np.split(order, boundaries):
            self._resolve_class_group(new_keys[group], src[group],
                                      dst[group])

    def _resolve_class_group(self, keys: np.ndarray, src: np.ndarray,
                             dst: np.ndarray) -> None:
        """Resolve every pair of one (src_class, dst_class) group."""
        interiors = _NO_ROUTE
        if src[0] != dst[0]:
            interiors = self._interiors(int(src[0]), int(dst[0]))
        if interiors is _NO_ROUTE:
            self._slot_of[keys] = 0
            return
        members, length = interiors.shape
        pairs = len(keys)
        nodes = np.empty((pairs, members, length + 2), dtype=np.int64)
        nodes[:, :, 0] = src[:, None]
        if length:
            nodes[:, :, 1:-1] = interiors[None, :, :]
        nodes[:, :, -1] = dst[:, None]
        a, b = nodes[..., :-1], nodes[..., 1:]
        hop_keys = np.minimum(a, b) * self.n_nodes + np.maximum(a, b)
        positions = np.searchsorted(self._best_keys, hop_keys.ravel())
        rows = self._best_rows[positions].reshape(pairs, members, -1)
        hops = length + 1
        offset = self._big_count
        self._big_parts.append(rows.reshape(pairs * members, hops))
        self._big_rows = None
        self._big_count += pairs * members
        self._append_slots(keys, offset + members * np.arange(pairs),
                           np.full(pairs, members), np.full(pairs, hops))

    def _append_slots(self, keys: np.ndarray, offsets: np.ndarray,
                      members: np.ndarray, hops: np.ndarray) -> None:
        """Give ``keys`` the next slots, in order (their blocks were
        just appended to the member matrix, in the same order)."""
        first = self._slot_count
        self._slot_of[keys] = np.arange(first, first + len(keys))
        self._slot_parts.append((offsets, members, hops))
        self._slot_count += len(keys)
        self._slot_arrays = None

    def _assembled_big(self) -> np.ndarray:
        """The stacked member-row matrix, padded to a common width."""
        if self._big_rows is None:
            dummy = self.fabric.state.n_links
            width = max([1] + [part.shape[1]
                               for part in self._big_parts])
            big = np.full((self._big_count, width), dummy,
                          dtype=np.int64)
            cursor = 1
            for part in self._big_parts:
                big[cursor:cursor + part.shape[0],
                    :part.shape[1]] = part
                cursor += part.shape[0]
            self._big_rows = big
        return self._big_rows

    def _slot_table(self):
        """Per-slot (big-matrix offset, members, hops) arrays; slot 0
        is the unroutable dummy."""
        if self._slot_arrays is None:
            zero = np.zeros(1, dtype=np.int64)
            self._slot_arrays = tuple(
                np.concatenate([zero] + [part[column] for part
                                         in self._slot_parts])
                .astype(np.int64, copy=False)
                for column in range(3))
        return self._slot_arrays

    # -- the offered-window kernel ------------------------------------------

    def offer_window(self, src_index: np.ndarray, dst_index: np.ndarray,
                     sizes: np.ndarray, flow_ids: np.ndarray,
                     window_seconds: float) -> WindowResult:
        """Route and account one window of flows, vectorized.

        ``src_index``/``dst_index`` index :attr:`endpoints`;
        ``flow_ids`` double as ECMP flow hashes.  Returns per-flow FCTs
        and updates the cumulative utilization/loss columns.
        """
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        self._refresh()
        self._check_loss_fresh()
        fs = self.fabric.state
        n = fs.n_links
        count = len(sizes)
        src = self._endpoint_nodes[src_index]
        dst = self._endpoint_nodes[dst_index]
        pair_keys = src * self.n_nodes + dst
        unique_keys, first = np.unique(pair_keys, return_index=True)
        self._resolve_unseen(unique_keys)
        slot_offset, slot_members, slot_hops = self._slot_table()
        slots = self._slot_of[pair_keys]
        members = slot_members[slots]
        routable = members > 0
        member = np.zeros(count, dtype=np.int64)
        np.mod(flow_ids, members, out=member, where=routable)
        rows = self._assembled_big()[slot_offset[slots] + member]
        rows[~routable] = n  # dummy scratch slot
        hops = slot_hops[slots]

        # Offered bytes + flow counts, flow-major so bincount's
        # sequential sums perform the oracle's additions in its order.
        width = rows.shape[1]
        flat = rows.ravel()
        offered = np.bincount(flat, weights=np.repeat(sizes, width),
                              minlength=n + 1)[:n]
        flow_counts = np.bincount(flat, minlength=n + 1)
        congestion = congestion_loss(offered, self._caps,
                                     window_seconds)
        loss = combined_loss(fs.loss_rate[:n], congestion)
        loss_ext = np.append(loss, 0.0)

        # Per-flow path aggregates, hop-sequential to match the
        # oracle's left-to-right float order (pads are exact no-ops).
        survival = np.ones(count)
        propagation = np.zeros(count)
        bottleneck = np.full(count, np.inf)
        for hop in range(width):
            hop_rows = rows[:, hop]
            survival *= (1.0 - loss_ext[hop_rows])
            propagation += self._lengths_ext[hop_rows]
            bottleneck = np.minimum(bottleneck,
                                    self._caps_ext[hop_rows])
        path_loss = 1.0 - survival
        propagation = propagation * PROPAGATION_S_PER_M
        switching = hops * self.params.switch_hop_seconds
        serialization = sizes * 8 / (bottleneck * 1e9)
        base = propagation + switching + serialization

        fct = np.where(routable, base, np.nan)
        lossy = routable & (path_loss > 0.0)
        if lossy.any():
            packets = np.maximum(
                1, np.ceil(sizes[lossy] / MTU_BYTES).astype(np.int64))
            effective = np.minimum(path_loss[lossy], 0.5)
            retries = self.rng.negative_binomial(packets,
                                                 1.0 - effective)
            retries = np.minimum(
                retries, packets * self.params.max_retries_per_packet)
            fct[lossy] = base[lossy] + retries * \
                self.params.retransmission_timeout_seconds

        self.util_bytes.values[:n] += offered
        self.util_flows.values[:n] += flow_counts[:n]
        self.lost_bytes.values[:n] += offered * congestion
        self.last_offered = offered
        self.last_congestion = congestion
        self.last_window_seconds = window_seconds
        self._last_pairs = (src_index[first], dst_index[first])
        self._last_pairs_resolved = True
        result = WindowResult(fct=fct, routable=routable,
                              offered=offered, congestion=congestion,
                              window_seconds=window_seconds)
        if self.obs.enabled:
            self.obs.count("dcrobot_traffic_flows_total", count)
            self.obs.count("dcrobot_traffic_unroutable_flows_total",
                           result.unroutable)
            self.obs.count("dcrobot_traffic_offered_bytes_total",
                           float(offered.sum()))
            self.obs.count(
                "dcrobot_traffic_congestion_lost_bytes_total",
                float((offered * congestion).sum()))
            if result.unroutable < count:
                self.obs.observe(
                    "dcrobot_traffic_window_p99_fct_seconds",
                    result.fct_percentile(99))
        return result

    # -- object-path views (tests, parity) ----------------------------------

    def equal_cost_paths(self, src_id: str, dst_id: str) -> List[List[str]]:
        """Node-id paths for one pair, reconstructed from the class
        cache — must match ``EcmpRouter.equal_cost_paths``."""
        self._refresh()
        src = self._node_index[src_id]
        dst = self._node_index[dst_id]
        if src == dst:
            return [[src_id]]
        interiors = self._interiors(src, dst)
        if interiors is _NO_ROUTE:
            return []
        ids = self._node_ids
        return [[src_id] + [ids[node] for node in row] + [dst_id]
                for row in interiors]

    # -- impact scoring (the congestion gate's question) --------------------

    def projected_group_utilization(self, link_id: str) -> float:
        """Utilization the link's ECMP sibling group would run at if
        this link were drained and its last-window bytes moved over.

        The group is the set of alternatives rehashing actually lands
        on: for every resolved flow pair, member paths align hop for
        hop, and the distinct links occupying the same hop position
        are the ECMP fan at that tier (a ToR's uplink group, an agg's
        core feeds).  Only those same-position links are siblings —
        links elsewhere on the paths *lose* traffic under a drain and
        must not dilute the projection.  Returns 0.0 for links no
        observed traffic used, and ``inf`` when traffic used the link
        but no sibling capacity exists.  The last window's pairs are
        resolved under the current routing and loss first: a drain,
        failure or loss change since that window drops the resolution,
        and an empty one would report every used link as fan-less.
        """
        self._refresh()
        fs = self.fabric.state
        row = fs.index_of.get(link_id)
        if row is None or self.last_offered is None \
                or row >= len(self.last_offered):
            return 0.0
        self._check_loss_fresh()
        if not self._last_pairs_resolved:
            src, dst = self._last_pairs
            self._resolve_unseen(self._endpoint_nodes[src] * self.n_nodes
                                 + self._endpoint_nodes[dst])
            self._last_pairs_resolved = True
        siblings = self._siblings_of(row)
        target_bytes = float(self.last_offered[row])
        if not len(siblings):
            return 0.0 if target_bytes == 0.0 else float("inf")
        capacity_bytes = float(
            (self._caps[siblings] * 1e9 / 8.0
             * self.last_window_seconds).sum())
        if capacity_bytes == 0.0:
            return float("inf")
        moved = float(self.last_offered[siblings].sum()) + target_bytes
        return moved / capacity_bytes

    def _siblings_of(self, row: int) -> np.ndarray:
        """Sorted rows that share a (resolved pair, hop) column of the
        member matrix with ``row``, ``row`` itself excluded."""
        big = self._assembled_big()
        width = big.shape[1]
        cells, hops = np.nonzero(big == row)
        slot_offset, slot_members, _ = self._slot_table()
        routed = slot_members > 0
        starts = slot_offset[routed]
        counts = slot_members[routed]
        # The pair block each cell lies in; one gather per (pair, hop).
        blocks = np.searchsorted(starts, cells, side="right") - 1
        columns = np.unique(blocks * width + hops)
        blocks, hops = columns // width, columns % width
        sizes = counts[blocks]
        ends = np.cumsum(sizes)
        within = np.arange(ends[-1] if len(ends) else 0) \
            - np.repeat(ends - sizes, sizes)
        flat = np.repeat(starts[blocks] * width + hops, sizes) \
            + within * width
        siblings = np.unique(big.ravel()[flat])
        return siblings[siblings != row]


def _block_cells(offsets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(o, o + c) for o, c in zip(...)])``,
    vectorized: the member-matrix rows of consecutive pair blocks."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(offsets - (ends - counts),
                                           counts)
