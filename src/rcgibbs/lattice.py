"""Hypergraphs, finite regions, boundaries, and standard lattice builders.

Vertices are dense 0-based integers. A hyperbond is a sorted tuple of
distinct vertices of size >= 1 (size-1 bonds carry single-site terms such
as external fields or activities). Structures are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Hypergraph:
    n_vertices: int
    bonds: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]  # vertex -> incident bond indices

    def vertices(self) -> range:
        return range(self.n_vertices)


def hypergraph(n_vertices: int, bonds) -> Hypergraph:
    """Build a hypergraph, validating and normalizing the bond list."""
    if n_vertices < 0:
        raise ValueError("n_vertices must be >= 0")
    norm = []
    for b in bonds:
        bt = tuple(sorted(b))
        if len(bt) == 0:
            raise ValueError("empty hyperbond")
        if len(set(bt)) != len(bt):
            raise ValueError(f"duplicate vertex in hyperbond {bt}")
        if bt[0] < 0 or bt[-1] >= n_vertices:
            raise ValueError(f"hyperbond {bt} out of vertex range")
        norm.append(bt)
    adj = [[] for _ in range(n_vertices)]
    for k, bt in enumerate(norm):
        for v in bt:
            adj[v].append(k)
    return Hypergraph(n_vertices, tuple(norm), tuple(tuple(a) for a in adj))


def boundary_vertices(h: Hypergraph, region) -> frozenset[int]:
    """Vertices of bonds straddling the region cut, on either side.

    Returns { v : exists bond b with v in b, b meets the region and b meets
    its complement }. Vertices inside and outside the region both qualify.
    """
    lam = frozenset(region)
    out = set()
    seen = set()
    for v in lam:
        for k in h.adjacency[v]:
            if k in seen:
                continue
            seen.add(k)
            b = h.bonds[k]
            inside = sum(1 for u in b if u in lam)
            if 0 < inside < len(b):
                out.update(b)
    return frozenset(out)


def build_grid(width: int, height: int, periodic: bool = False) -> Hypergraph:
    """Nearest-neighbor pair bonds on a width x height grid.

    Periodic wrapping deduplicates coincident bonds (width or height 2)
    and drops self-loops (width or height 1): bonds form a set, not a
    multiset.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    idx = lambda x, y: y * width + x
    bonds = set()
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                bonds.add((idx(x, y), idx(x + 1, y)))
            elif periodic and width > 1:
                bonds.add(tuple(sorted((idx(x, y), idx(0, y)))))
            if y + 1 < height:
                bonds.add((idx(x, y), idx(x, y + 1)))
            elif periodic and height > 1:
                bonds.add(tuple(sorted((idx(x, y), idx(x, 0)))))
    return hypergraph(width * height, sorted(bonds))


def build_cayley_tree(depth: int, branching: int) -> Hypergraph:
    """Rooted tree where every interior vertex has `branching` children.

    Vertices are numbered in breadth-first order with the root at 0.
    """
    if depth < 0 or branching < 1:
        raise ValueError("depth must be >= 0 and branching >= 1")
    bonds = []
    level = [0]
    nxt = 1
    for _ in range(depth):
        newlevel = []
        for parent in level:
            for _ in range(branching):
                bonds.append((parent, nxt))
                newlevel.append(nxt)
                nxt += 1
        level = newlevel
    return hypergraph(nxt, bonds)


def ball(h: Hypergraph, seeds, radius: int) -> frozenset[int]:
    """Graph-metric ball: vertices within `radius` hyperbond steps of seeds.

    Two vertices are at distance 1 when they share a bond.
    """
    dist = {v: 0 for v in seeds}
    q = deque(dist)
    while q:
        v = q.popleft()
        if dist[v] == radius:
            continue
        for k in h.adjacency[v]:
            for u in h.bonds[k]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
    return frozenset(dist)


def graph_from_dict(d: dict) -> Hypergraph:
    return hypergraph(int(d["n"]), d["bonds"])

