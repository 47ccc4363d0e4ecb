"""Network container: routers + links + per-node NIC attachment points.

A topology builder produces a :class:`Network`, which owns the routers and
links and knows how to wire a NIC to each node's injection/ejection port.
All topologies carry two logical networks (request and reply, Section 3) as
disjoint VC groups on every link; they are demand-multiplexed except on the
CM-5 imitation, whose builder creates separate half-bandwidth links instead.

The container also exposes the static characteristics Table 3 reports:
network volume (buffer capacity), bisection bandwidth, and hop counts.  They
are answered from a plain edge list (routers labelled ``r<id>``, nodes
``n<id>``) by a breadth-first search and a small Edmonds-Karp max-flow.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..links import Link
from ..nic.base import BaseNIC
from ..packets import FLIT_BYTES
from ..routers import Router
from ..sim import Simulator

#: Default VC layout helper: ``v`` VCs for the request net then ``v`` for the
#: reply net.
def vc_layout(vcs_per_net: int, nets: int = 2) -> List[int]:
    layout: List[int] = []
    for net in range(nets):
        layout.extend([net] * vcs_per_net)
    return layout


class Network:
    """A built topology, ready for NICs to be attached."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_nodes: int,
        delivers_in_order: bool,
    ) -> None:
        self.sim = sim
        self.name = name
        self.num_nodes = num_nodes
        self.delivers_in_order = delivers_in_order
        self.routers: List[Router] = []
        self.links: List[Link] = []
        self.nics: List[Optional[BaseNIC]] = [None] * num_nodes
        # Filled in by the topology builder:
        self._nic_wiring: Dict[int, Tuple[Router, int, Callable[[BaseNIC], None]]] = {}
        self._nic_link_ids: set = set()
        #: ``(src_label, dst_label, link)``; routers are "r<id>", nodes "n<id>".
        self.edges: List[Tuple[str, str, Link]] = []

    # -------------------------------------------------------------- wiring
    def add_router(self, router: Router) -> Router:
        self.routers.append(router)
        return router

    def register_link(self, link: Link, src_label: str, dst_label: str) -> Link:
        self.links.append(link)
        if src_label.startswith("n") or dst_label.startswith("n"):
            self._nic_link_ids.add(id(link))
        self.edges.append((src_label, dst_label, link))
        return link

    def set_nic_wiring(
        self, node: int, attach: Callable[[BaseNIC], None]
    ) -> None:
        """Record how to wire a NIC for ``node`` (builder-supplied)."""
        self._nic_wiring[node] = attach  # type: ignore[assignment]

    def attach_nics(self, factory: Callable[[int], BaseNIC]) -> List[BaseNIC]:
        """Create and wire one NIC per node using ``factory(node_id)``."""
        for node in range(self.num_nodes):
            nic = factory(node)
            self._nic_wiring[node](nic)  # type: ignore[operator]
            self.nics[node] = nic
        return list(self.nics)  # type: ignore[return-value]

    # ----------------------------------------------------- characteristics
    def volume_flits(self, include_nic_links: bool = False) -> int:
        """Total flit (= word) buffering in the fabric: the network volume
        Table 3 discusses.  The paper counts router buffers only, so NIC
        attachment links are excluded by default."""
        return sum(
            link.vc_count * link._vc_capacity
            for link in self.links
            if include_nic_links or id(link) not in self._nic_link_ids
        )

    def volume_words_per_node(self) -> float:
        return self.volume_flits() / self.num_nodes

    def bisection_bandwidth(self) -> float:
        """Max-flow bandwidth (bytes/cycle) across a balanced node bisection.

        The nodes are split into low-id and high-id halves (the natural
        split for all the regular topologies here); link capacities are
        their wire bandwidths, and the minimum cut between the halves is
        the bisection bandwidth Table 3 discusses.  Links joining the same
        pair of labels (the CM-5's separate request and reply halves)
        count once, with the capacity of the last one registered.
        """
        capacity: Dict[Tuple[str, str], float] = {}
        for u, v, link in self.edges:
            capacity[(u, v)] = FLIT_BYTES / link.cycles_per_flit
        half = self.num_nodes // 2
        for node in range(self.num_nodes):
            if node < half:
                capacity[("SRC", f"n{node}")] = float("inf")
            else:
                capacity[(f"n{node}", "DST")] = float("inf")
        return _max_flow(capacity, "SRC", "DST")

    def _adjacency(self) -> Dict[str, List[str]]:
        adjacency: Dict[str, List[str]] = {}
        for u, v, _link in self.edges:
            adjacency.setdefault(u, []).append(v)
        return adjacency

    def min_hops(self, src: int, dst: int) -> int:
        """Minimum link hops (including NIC links) between two nodes."""
        hops = _bfs(self._adjacency(), f"n{src}").get(f"n{dst}")
        if hops is None:
            raise ValueError(f"{self.name}: no path from node {src} to {dst}")
        return hops

    def hop_stats(self, sample: Optional[int] = None) -> Tuple[float, int]:
        """(average, maximum) hop count over all (or sampled) node pairs."""
        pairs = [
            (s, d)
            for s in range(self.num_nodes)
            for d in range(self.num_nodes)
            if s != d
        ]
        if sample is not None and len(pairs) > sample:
            step = len(pairs) // sample
            pairs = pairs[::step]
        adjacency = self._adjacency()
        from_source: Dict[int, Dict[str, int]] = {}
        hops = []
        for s, d in pairs:
            if s not in from_source:
                from_source[s] = _bfs(adjacency, f"n{s}")
            hops.append(from_source[s][f"n{d}"])
        return sum(hops) / len(hops), max(hops)

    def total_link_bandwidth(self) -> float:
        """Aggregate fabric bandwidth in bytes/cycle."""
        return sum(FLIT_BYTES / link.cycles_per_flit for link in self.links)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Network {self.name} nodes={self.num_nodes} "
            f"routers={len(self.routers)} links={len(self.links)}>"
        )


def _bfs(adjacency: Dict[str, Iterable[str]], source: str) -> Dict[str, int]:
    """Hop distance from ``source`` to every label reachable from it."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _max_flow(
    capacity: Dict[Tuple[str, str], float], source: str, sink: str
) -> float:
    """Edmonds-Karp: augment along shortest residual paths until none is left."""
    residual: Dict[str, Dict[str, float]] = {}
    for (u, v), cap in capacity.items():
        residual.setdefault(u, {})
        residual.setdefault(v, {})
        residual[u][v] = residual[u].get(v, 0.0) + cap
        residual[v].setdefault(u, 0.0)
    flow = 0.0
    while True:
        parent: Dict[str, str] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        bottleneck = float("inf")
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        flow += bottleneck
