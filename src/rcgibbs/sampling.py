"""Generic single-site heat-bath sampling and Monte Carlo connection estimates.

The Monte Carlo path for the integrated connection probability samples two
independent copies and flips each bond's activity coin, read from the
shared pair-coin table (percolation.pair_coin_table) at the two copies'
local values on the bond. Work is split into a fixed number of tasks with
counter-based streams, so estimates are deterministic for any thread count.
"""

from __future__ import annotations

import math

from .errors import UsageError
from .gibbs import GibbsSpec, effective_bonds
from .percolation import pair_coin_table, regions_connected
from .rng import run_tasks, stream


def _chain_tables(spec: GibbsSpec, bonds):
    """Per region vertex: its allowed value indices, and the inside
    vertices and float factors of each incident effective bond."""
    incident = {v: [] for v in spec.region}
    for eb in bonds:
        factors = tuple(float(x) for x in eb.table)
        for v in eb.inside:
            incident[v].append((eb.inside, factors))
    doms = {v: spec.domain_indices(v) for v in spec.region}
    return incident, doms


def heat_bath_chain(spec: GibbsSpec, tables, rng, n_sweeps: int, state=None):
    """Run single-site heat-bath sweeps; returns the configuration as a
    vertex -> value-index dict. tables come from _chain_tables, built once
    for a chain that runs in many short calls."""
    S = spec.alphabet.size
    incident, doms = tables
    if state is None:
        state = {
            v: doms[v][int(rng.integers(0, len(doms[v])))] for v in spec.region
        }
    for _ in range(n_sweeps):
        for v in spec.region:
            weights = []
            for vi in doms[v]:
                w = 1.0
                for inside, factors in incident[v]:
                    li = 0
                    for u in inside:
                        li = li * S + (vi if u == v else state[u])
                    w *= factors[li]
                weights.append(w)
            tot = sum(weights)
            if tot <= 0:
                continue  # frozen site under current neighbors
            u01 = rng.random() * tot
            acc = 0.0
            for vi, w in zip(doms[v], weights):
                acc += w
                if u01 <= acc:
                    state[v] = vi
                    break
    return state


def mc_connection_probability(
    spec: GibbsSpec,
    A,
    B,
    n_samples: int,
    seed: int,
    burn_in: int = 300,
    gap: int = 2,
    n_tasks: int = 8,
    threads: int = 1,
) -> dict:
    """Monte Carlo estimate of the integrated connection probability.

    Two independent heat-bath chains provide the copy pair; each sampled
    pair contributes one Bernoulli connection indicator after per-bond
    activity coins. The standard error is binomial over all samples
    (chains are thinned by `gap` sweeps).
    """
    if n_samples < 1:
        raise UsageError("n_samples must be positive")
    bonds = effective_bonds(spec)
    bond_vertices = tuple(eb.vertices for eb in bonds)
    coins = pair_coin_table(spec)
    tables = _chain_tables(spec, bonds)
    A = frozenset(A)
    B = frozenset(B)
    S = spec.alphabet.size
    per_task = -(-n_samples // n_tasks)

    def task(t):
        rng1 = stream(seed, 300, t, 0)
        rng2 = stream(seed, 300, t, 1)
        rngc = stream(seed, 300, t, 2)
        s1 = heat_bath_chain(spec, tables, rng1, burn_in)
        s2 = heat_bath_chain(spec, tables, rng2, burn_in)
        hits = 0
        n_done = 0
        for _ in range(per_task):
            s1 = heat_bath_chain(spec, tables, rng1, gap, s1)
            s2 = heat_bath_chain(spec, tables, rng2, gap, s2)
            mask = 0
            for j, (eb, coin) in enumerate(zip(bonds, coins)):
                x1 = x2 = 0
                for v in eb.inside:
                    x1 = x1 * S + s1[v]
                    x2 = x2 * S + s2[v]
                q = coin[x1][x2]
                if q > 0 and rngc.random() < q:
                    mask |= 1 << j
            if regions_connected(spec.graph.n_vertices, bond_vertices, mask, A, B):
                hits += 1
            n_done += 1
        return hits, n_done

    results = run_tasks(task, list(range(n_tasks)), threads=threads)
    hits = sum(h for h, _ in results)
    n = sum(c for _, c in results)
    p = hits / n
    se = math.sqrt(max(p * (1 - p), 1e-300) / n)
    return {"estimate": p, "stderr": se, "n_samples": n, "seed": seed}
