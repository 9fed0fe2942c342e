"""Hard-core gas: active-bond connectivity versus disagreement paths.

On bipartite graphs the non-overlap slice of two hard-core configurations
alternates occupation along every disagreement component, so the slice
measure has two configurations per component, every pair bond inside the
disagreement region is active with probability one, and active-chain
connectivity coincides with site disagreement percolation.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from .. import twocopy
from ..errors import UsageError
from ..gibbs import effective_bonds, gibbs_measure, local_index
from ..lattice import Hypergraph, build_grid
from ..models import hardcore_spec
from ..percolation import chain_components, chains_join, pair_coin_table
from ..twocopy import make_slice, nonoverlap_distribution

SQUARE_LATTICE_SITE_PC = 0.592746  # reference marker for grid instances
MAX_SLICE_CHECKS = 200  # same-boundary slices checked through the coin table


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
    """Is there a path from A to B through allowed sites only? allowed[v]
    says whether vertex v is allowed."""
    start = [v for v in A if allowed[v]]
    targets = {v for v in B if allowed[v]}
    if not start or not targets:
        return False
    seen = set(start)
    q = deque(start)
    while q:
        v = q.popleft()
        if v in targets:
            return True
        for u in adjacency[v]:
            if allowed[u] and u not in seen:
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


def _slice_machinery_check(spec, sigma, pair_bonds, bonds, coin_table):
    """Activity of one slice from the representation machinery: each bond's
    coins in coin_table (the spec's pair_coin_table) at the slice's local
    pairs of positive factor, bonds the spec's effective_bonds.

    Returns (deterministic, active set matches bonds inside the
    disagreement region, support has two configurations per component).
    """
    adm, sig = dict(zip(spec.region, make_slice(spec, sigma).admissible)), dict(zip(spec.region, sigma))
    S, idx = spec.alphabet.size, spec.alphabet.index
    no_sites = {v for v, s in zip(spec.region, sigma) if s == 1}
    active = set()
    deterministic = True
    for eb, coins in zip(bonds, coin_table):
        qs = set()
        for y in itertools.product(*(adm[v] for v in eb.inside)):
            x1, x2 = (local_index(S, map(idx, c)) for c in (y, [sig[v] - a for v, a in zip(eb.inside, y)]))
            if eb.table[x1] * eb.table[x2] > 0:
                qs.add(coins[x1, x2])
        if len(qs) > 1:
            deterministic = False
        if qs and max(qs) > 0:
            if max(qs) != 1:
                deterministic = False
            active.add(eb.vertices)
    expected = {
        b for b in pair_bonds if b[0] in no_sites and b[1] in no_sites
    }
    match = active == expected
    mu_s = nonoverlap_distribution(spec, sigma)
    n_comp = _count_components(spec.graph.n_vertices, pair_bonds, no_sites)
    support_ok = len(mu_s) == 2**n_comp
    return deterministic, match, support_ok


def _inside_row(pair_bonds, sites) -> list[bool]:
    """Activity row of the pair bonds: which have both ends in sites."""
    return [a in sites and b in sites for a, b in pair_bonds]


def _count_components(n_vertices, pair_bonds, sites) -> int:
    """Connected components of the sites under the pair bonds inside them:
    the chains of those bonds plus the sites no such bond covers."""
    labels = chain_components(n_vertices, pair_bonds, [_inside_row(pair_bonds, sites)])[0, sorted(sites)].tolist()
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
) -> dict:
    """Compare disagreement-path and active-chain connectivity exactly.

    Enumerates the product of the two boundary-conditioned measures,
    evaluates both connectivity indicators for every disagreement region
    (the regions' activity rows labelled in chunks of twocopy._BLOCK_CELLS
    cells, pair weights multiplied as floats), and verifies per-slice
    (same boundary) that the representation machinery makes exactly the
    disagreement-interior bonds active, on up to MAX_SLICE_CHECKS slices
    read from one pair_coin_table. An activity that is not finite and
    nonnegative raises UsageError.
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
    # a disagreement region as the bitmask, over region positions, of the
    # sites whose occupations differ: the xor of the two configurations' masks
    bit = 1 << np.arange(len(region), dtype=np.int64)
    (c1, w1), (c2, w2) = (
        ((np.array([o for o, _ in s]).reshape(len(s), -1) != 0) @ bit, np.array([w for _, w in s], float))
        for s in (support1, support2)
    )
    by_region: dict[int, float] = {}  # weights summed in pair order, regions in first-seen order
    for c, w in zip(c1, w1):
        for D, p in zip((c ^ c2).tolist(), (w * w2).tolist()):
            by_region[D] = by_region.get(D, 0.0) + p

    p_dis = 0.0
    p_act = 0.0
    mismatches = 0
    # the regions' sites and activity rows in chunks of the cell budget
    regions = np.fromiter(by_region, np.int64, len(by_region))
    weights = list(by_region.values())
    ends = np.array(pair_bonds, np.int64).reshape(-1, 2).T
    K = max(1, twocopy._BLOCK_CELLS // max(1, len(pair_bonds)))
    sites = np.zeros((min(K, len(regions)), n), bool)
    for lo in range(0, len(regions), K):
        chunk = sites[: min(K, len(regions) - lo)]
        chunk[:, list(region)] = regions[lo : lo + K, None] & bit != 0
        labels = chain_components(n, pair_bonds, chunk[:, ends[0]] & chunk[:, ends[1]])
        for w, allowed, ind_act in zip(weights[lo : lo + K], chunk.tolist(), chains_join(labels, A, B).tolist()):
            ind_dis = _site_path_exists(adj, allowed, A, B)
            if ind_dis != ind_act:
                mismatches += 1
            p_dis += w * ind_dis
            p_act += w * ind_act

    # Same-boundary slice checks through the representation machinery.
    sigmas = set()
    for (o1, _), (o2, _) in itertools.product(support1, repeat=2):
        if len(sigmas) == MAX_SLICE_CHECKS:
            break
        sigmas.add(tuple(a + b for a, b in zip(o1, o2)))
    det_ok = match_ok = support_ok = True
    bonds, coin_table = effective_bonds(spec1), pair_coin_table(spec1)
    for sigma in sorted(sigmas):
        d, m, s = _slice_machinery_check(spec1, sigma, pair_bonds, bonds, coin_table)
        det_ok &= d
        match_ok &= m
        support_ok &= s

    marker = SQUARE_LATTICE_SITE_PC / (1 - SQUARE_LATTICE_SITE_PC)
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
            "site_percolation_pc": SQUARE_LATTICE_SITE_PC,
            "activity_threshold": marker,
            "below_threshold": bool(activity < marker),
        },
    }
