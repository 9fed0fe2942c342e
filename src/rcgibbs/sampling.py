"""Generic single-site heat-bath sampling and Monte Carlo connection estimates.

The Monte Carlo path for the integrated connection probability samples two
independent copies and flips each bond's activity coin, read from the
shared pair-coin table (percolation.pair_coin_table) at the two copies'
local values on the bond. Work is split into a fixed number of tasks with
counter-based streams, so estimates are deterministic for any thread count.
Each task returns its samples' activity masks; once every task is done,
percolation.joined_weight labels their distinct masks in one batch and
counts the samples whose active chains join A and B.

A site update is a lookup. Each region position keeps a memo of its
conditional rows (total weight and cumulative weights of its allowed
values), keyed by its neighbours' values; a row is computed on first use as
the product of the incident bond factors in bond order, as the plain
per-site loop did. The chains and the activity coins read their private
uniform streams in blocks (Generator.random(n) yields the doubles of n
scalar calls), and a frozen site (total weight 0) draws nothing, so the
outputs for a seed are unchanged from one scalar draw per update.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import UsageError
from .gibbs import GibbsSpec, effective_bonds
from .percolation import joined_weight, pair_coin_table
from .rng import run_tasks, stream

_BLOCK = 1024  # uniforms read ahead per refill of a private stream


def _chain_tables(spec: GibbsSpec, bonds):
    """Per region position p: (p, a getter of its neighbours' values, an
    empty memo of conditional rows keyed by those values, its allowed value
    indices, its incident bonds as (inside positions, float factors) in bond
    order). The neighbours are the other inside vertices of its bonds."""
    pos = {v: p for p, v in enumerate(spec.region)}
    incident = [[] for _ in spec.region]
    for eb in bonds:
        factors = tuple(float(x) for x in eb.table)
        inside = tuple(pos[u] for u in eb.inside)
        for p in inside:
            incident[p].append((inside, factors))
    tables = []
    for p, v in enumerate(spec.region):
        nbrs = sorted({q for inside, _ in incident[p] for q in inside} - {p})
        getter = itemgetter(*nbrs) if nbrs else _no_neighbours
        tables.append((p, getter, {}, spec.domain_indices(v), tuple(incident[p])))
    return tables


def _no_neighbours(state):
    return ()


def _conditional_row(S, p, dom, incident, state):
    """Position p's row given the other positions of state: the total
    weight and (cumulative weight, value index) pairs in domain order, or
    None when every value has weight 0."""
    pairs = []
    acc = 0.0
    for vi in dom:
        w = 1.0
        for inside, factors in incident:
            li = 0
            for q in inside:
                li = li * S + (vi if q == p else state[q])
            w *= factors[li]
        acc += w
        pairs.append((acc, vi))
    if acc <= 0:
        return None  # frozen site under these neighbours
    return acc, tuple(pairs)


def _uniforms(rng):
    """A private uniform stream read ahead in blocks: Generator.random(n)
    yields the doubles of n scalar rng.random() calls, in order."""
    while True:
        yield from rng.random(_BLOCK).tolist()


class Chain:
    """One heat-bath chain: a value index per region position, drawn with
    one rng.integers call per site in region order, and the chain's uniform
    stream from rng after that."""

    def __init__(self, tables, rng):
        self.state = [dom[int(rng.integers(0, len(dom)))] for _, _, _, dom, _ in tables]
        self.next_uniform = _uniforms(rng).__next__


def heat_bath_chain(spec: GibbsSpec, tables, chain: Chain, n_sweeps: int):
    """Run single-site heat-bath sweeps in region order on chain; returns its
    state list. tables come from _chain_tables, built once per spec; their
    memos fill with the rows the chain visits."""
    S = spec.alphabet.size
    state = chain.state
    next_uniform = chain.next_uniform
    for _ in range(n_sweeps):
        for p, neighbours, memo, dom, incident in tables:
            code = neighbours(state)
            try:
                row = memo[code]
            except KeyError:
                row = memo[code] = _conditional_row(S, p, dom, incident, state)
            if row is None:
                continue
            tot, pairs = row
            u01 = next_uniform() * tot
            for acc, vi in pairs:
                if u01 <= acc:
                    state[p] = vi
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
    pos = {v: p for p, v in enumerate(spec.region)}
    insides = [tuple(pos[v] for v in eb.inside) for eb in bonds]
    S = spec.alphabet.size
    per_task = -(-n_samples // n_tasks)

    def task(t):
        c1 = Chain(tables, stream(seed, 300, t, 0))
        c2 = Chain(tables, stream(seed, 300, t, 1))
        coin_uniform = _uniforms(stream(seed, 300, t, 2)).__next__
        heat_bath_chain(spec, tables, c1, burn_in)
        heat_bath_chain(spec, tables, c2, burn_in)
        s1, s2 = c1.state, c2.state  # updated in place by each call
        masks = []
        for _ in range(per_task):
            heat_bath_chain(spec, tables, c1, gap)
            heat_bath_chain(spec, tables, c2, gap)
            mask = 0
            for j, (inside, coin) in enumerate(zip(insides, coins)):
                x1 = x2 = 0
                for p in inside:
                    x1 = x1 * S + s1[p]
                    x2 = x2 * S + s2[p]
                q = coin[x1][x2]
                if q > 0 and coin_uniform() < q:
                    mask |= 1 << j
            masks.append(mask)
        return masks

    masks = [m for task_masks in run_tasks(task, list(range(n_tasks)), threads=threads) for m in task_masks]
    hits = joined_weight(spec.graph.n_vertices, bond_vertices, masks, [1] * len(masks), A, B)
    n = len(masks)
    p = hits / n
    se = math.sqrt(max(p * (1 - p), 1e-300) / n)
    return {"estimate": p, "stderr": se, "n_samples": n, "seed": seed}
