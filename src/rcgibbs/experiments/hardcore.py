"""Hard-core gas: active-bond connectivity versus disagreement paths.

On bipartite graphs the non-overlap slice of two hard-core configurations
alternates occupation along every disagreement component, so the slice
measure has two configurations per component, every pair bond inside the
disagreement region is active with probability one, and active-chain
connectivity coincides with site disagreement percolation.
"""

from __future__ import annotations

import math
from collections import deque

from ..errors import UsageError
from ..gibbs import gibbs_measure
from ..lattice import Hypergraph, build_grid
from ..models import hardcore_spec
from ..percolation import chain_components, chains_join
from ..rcr import allowed_locals, monotone_base
from ..twocopy import nonoverlap_distribution, symmetrized_spec

SQUARE_LATTICE_SITE_PC = 0.592746  # reference marker for grid instances


def bipartition(graph: Hypergraph) -> tuple[frozenset[int], frozenset[int]]:
    """Two-color the pair bonds; raises on odd cycles."""
    color = {}
    for start in range(graph.n_vertices):
        if start in color:
            continue
        color[start] = 0
        q = deque([start])
        while q:
            v = q.popleft()
            for k in graph.adjacency[v]:
                b = graph.bonds[k]
                if len(b) != 2:
                    continue
                u = b[0] if b[1] == v else b[1]
                if u not in color:
                    color[u] = 1 - color[v]
                    q.append(u)
                elif color[u] == color[v]:
                    raise ValueError("graph is not bipartite")
    return (
        frozenset(v for v, c in color.items() if c == 0),
        frozenset(v for v, c in color.items() if c == 1),
    )


def _site_path_exists(adjacency, allowed, A, B) -> bool:
    """Is there a path from A to B through allowed sites only?"""
    start = [v for v in A if v in allowed]
    targets = {v for v in B if v in allowed}
    if not start or not targets:
        return False
    seen = set(start)
    q = deque(start)
    while q:
        v = q.popleft()
        if v in targets:
            return True
        for u in adjacency[v]:
            if u in allowed and u not in seen:
                seen.add(u)
                q.append(u)
    return False


def _pair_adjacency(graph: Hypergraph):
    adj = [[] for _ in range(graph.n_vertices)]
    for b in graph.bonds:
        if len(b) == 2:
            adj[b[0]].append(b[1])
            adj[b[1]].append(b[0])
    return adj


def _slice_machinery_check(spec, sigma, pair_bonds, A, B):
    """Activity of one slice from the representation machinery.

    Returns (deterministic, active set matches bonds inside the
    disagreement region, support has two configurations per component).
    """
    sl_spec = symmetrized_spec(spec, sigma)
    base = monotone_base(sl_spec)
    no_sites = {v for v, s in zip(spec.region, sigma) if s == 1}
    active = set()
    deterministic = True
    for j, bb in enumerate(base.bonds):
        qs = set()
        for li in allowed_locals(sl_spec, bb.inside):
            sup = bb.support_weight(li)
            if sup == 0:
                continue
            qs.add(bb.active_weight(li) / sup)
        if len(qs) > 1:
            deterministic = False
        if qs and max(qs) > 0:
            if max(qs) != 1:
                deterministic = False
            active.add(bb.vertices)
    expected = {
        b for b in pair_bonds if b[0] in no_sites and b[1] in no_sites
    }
    match = active == expected
    mu_s = nonoverlap_distribution(spec, sigma)
    n_comp = _count_components(spec.graph.n_vertices, pair_bonds, no_sites)
    support_ok = len(mu_s) == 2**n_comp
    return deterministic, match, support_ok


def _inside_mask(pair_bonds, sites) -> int:
    """Bitmask of the pair bonds with both ends in sites."""
    return sum(1 << k for k, (a, b) in enumerate(pair_bonds) if a in sites and b in sites)


def _count_components(n_vertices, pair_bonds, sites) -> int:
    """Connected components of the sites under the pair bonds inside them:
    the chains of those bonds plus the sites no such bond covers."""
    labels = chain_components(n_vertices, pair_bonds, [_inside_mask(pair_bonds, sites)])[0, sorted(sites)].tolist()
    return len(set(labels) - {-1}) + labels.count(-1)


def checkerboard_instance(width: int, height: int, parity: int):
    """Interior box of a padded grid with a checkerboard-occupied ring.

    Returns (graph, region, boundary): the graph is the (width+2) x
    (height+2) grid, the region its interior, and the boundary assigns 1
    to ring sites of the given parity and 0 otherwise. Flipping parity
    gives the opposite checkerboard.
    """
    W, H = width + 2, height + 2
    graph = build_grid(W, H)
    region = tuple(
        y * W + x for y in range(1, H - 1) for x in range(1, W - 1)
    )
    interior = set(region)
    boundary = {}
    for y in range(H):
        for x in range(W):
            v = y * W + x
            if v not in interior:
                boundary[v] = 1 if (x + y) % 2 == parity else 0
    return graph, region, boundary


def hardcore_disagreement(
    graph: Hypergraph,
    activity: float,
    A,
    B,
    boundary1=None,
    boundary2=None,
    region=None,
    site_pc: float = SQUARE_LATTICE_SITE_PC,
    max_slice_checks: int = 200,
) -> dict:
    """Compare disagreement-path and active-chain connectivity exactly.

    Enumerates the product of the two boundary-conditioned measures,
    evaluates both connectivity indicators for every disagreement region,
    and verifies per-slice (same boundary) that the representation
    machinery makes exactly the disagreement-interior bonds active. An
    activity that is not finite and nonnegative raises UsageError.
    """
    if not (math.isfinite(activity) and activity >= 0):
        raise UsageError(f"activity must be finite and nonnegative, got {activity}")
    part0, part1 = bipartition(graph)  # raises when not bipartite
    spec1 = hardcore_spec(graph, activity, region=region, boundary=boundary1)
    spec2 = hardcore_spec(graph, activity, region=region, boundary=boundary2)
    pair_bonds = [b for b in graph.bonds if len(b) == 2]
    adj = _pair_adjacency(graph)
    A = frozenset(A)
    B = frozenset(B)
    n = graph.n_vertices

    mu1 = gibbs_measure(spec1)
    mu2 = gibbs_measure(spec2)
    region = spec1.region

    support1 = [(o, w) for o, w in mu1.items() if w > 0]
    support2 = [(o, w) for o, w in mu2.items() if w > 0]
    by_region: dict[frozenset, float] = {}
    for o1, w1 in support1:
        for o2, w2 in support2:
            D = frozenset(v for v, a, b in zip(region, o1, o2) if a != b)
            by_region[D] = by_region.get(D, 0.0) + w1 * w2

    p_dis = 0.0
    p_act = 0.0
    mismatches = 0
    labels = chain_components(n, pair_bonds, [_inside_mask(pair_bonds, D) for D in by_region])
    for (D, w), ind_act in zip(by_region.items(), chains_join(labels, A, B).tolist()):
        ind_dis = _site_path_exists(adj, D, A, B)
        if ind_dis != ind_act:
            mismatches += 1
        p_dis += w * ind_dis
        p_act += w * ind_act

    # Same-boundary slice checks through the representation machinery.
    sigmas = set()
    for o1, _ in support1:
        for o2, _ in support1:
            sigmas.add(tuple(a + b for a, b in zip(o1, o2)))
            if len(sigmas) >= max_slice_checks:
                break
        if len(sigmas) >= max_slice_checks:
            break
    det_ok = match_ok = support_ok = True
    for sigma in sorted(sigmas):
        d, m, s = _slice_machinery_check(spec1, sigma, pair_bonds, A, B)
        det_ok &= d
        match_ok &= m
        support_ok &= s

    marker = site_pc / (1 - site_pc)
    return {
        "activity": float(activity),
        "n_sites": n,
        "bipartition_sizes": [len(part0), len(part1)],
        "p_disagreement_path": p_dis,
        "p_active_connection": p_act,
        "indicators_equal_everywhere": mismatches == 0,
        "n_disagreement_regions": len(by_region),
        "slice_checks": {
            "n_sigma": len(sigmas),
            "activity_deterministic": bool(det_ok),
            "active_set_matches_disagreement_interior": bool(match_ok),
            "two_configs_per_component": bool(support_ok),
        },
        "uniqueness_marker": {
            "site_percolation_pc": site_pc,
            "activity_threshold": marker,
            "below_threshold": bool(activity < marker),
        },
    }
