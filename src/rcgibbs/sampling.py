"""The package's one heat bath, and Monte Carlo connection estimates.

One kernel, HeatBath.sweeps, runs every sampler: the generic one here and
the +-J glass (experiments.ea). It updates C chains at once, one colour
class of sites at a time (the chromatic Gibbs sampler, Geman-Geman, IEEE
PAMI 6, 721, 1984). A site's key is base[site] + sum_k w_k[site] *
state[nbr_k]; a flat table holds per key the tails T_j = P(value >= j |
neighbours), j = 1..S-1. Random stream: per class one rng.random((C,
n_class)) draw, chain-major in its site order; a site takes sum_j [u < T_j].

The generic sampler colours the interaction graph greedily in region order
and keys a site by its table offset plus sum_k S**k * (value of neighbour
k), its neighbours being the other inside vertices of its bonds in region
order. A row weighs each value of the site's domain by 1.0 times its bond
factors in bond order, and sums the tails from the top value down. A row
whose weights are all 0 (a neighbourhood the hard constraints forbid) holds
the uniform law over the domain, so a chain can leave it.

mc_connection_probability runs the copies of n_tasks pairs as the columns
of one state (pair t: columns t and n_tasks + t) on stream(seed, 300): one
rng.random((C, n_sites)) for a start uniform over the domains, the burn-in,
then per sample step the gap sweeps and one rng.random((n_tasks, n_bonds));
bond j of pair t is active when its uniform is below its pair coin
(percolation.pair_coin_table) at the copies' local values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RcgibbsError, TooLargeError, UsageError
from .gibbs import DEFAULT_STATE_CAP, GibbsSpec, effective_bonds
from .percolation import joined_weight, pair_coin_table
from .rng import stream


class HeatBath:
    """The chromatic heat-bath kernel over C chains.

    classes lists per colour class (site, nbrs, w, base): its sites (n,),
    their neighbours (d, n) (padding reads the dummy site n_sites, whose
    value is 0), and int key weights (d, n) or (d, 1) and offsets (n,).
    table holds the (S - 1, n_keys) tails. Keys, and every partial sum of
    their terms, must fit the narrowest int type that holds n_keys - 1.
    state keeps a class's sites in one block of rows (site i in row[i]);
    load and values read and write its int8 values in site order.
    """

    def __init__(self, n_sites: int, classes, table: np.ndarray, C: int):
        self.table = table
        self.state = np.zeros((n_sites + 1, C), np.int8)
        self.order = np.array([i for site, *_ in classes for i in site], np.intp)
        self.row = np.append(np.argsort(self.order), n_sites)
        kd = next(t for t in (np.int8, np.int16, np.int32, np.int64) if table.shape[1] <= np.iinfo(t).max + 1)
        self.classes = []
        lo = 0
        for site, nbrs, w, base in classes:
            d, n = np.shape(nbrs)
            w = np.repeat(np.asarray(w, kd)[:, :, None], C, axis=2)
            bufs = np.empty((d * n, C), np.int8), np.empty((d, n, C), kd), np.empty((n, C), kd), np.empty((n, C))
            self.classes.append((self.state[lo : lo + n], self.row[np.ravel(nbrs)], w, np.asarray(base, kd)[:, None], *bufs))
            lo += n

    def load(self, values):
        """Set the chains to values, (n_sites, C) value indices in site order."""
        self.state[:-1] = values.take(self.order, axis=0)

    def values(self) -> np.ndarray:
        """The chains' value indices in site order, (n_sites, C)."""
        return self.state.take(self.row[:-1], axis=0)

    def sweeps(self, rng, n_sweeps: int):
        """Update every class in order, n_sweeps times, in place."""
        state, table = self.state, self.table
        for _ in range(n_sweeps):
            for block, nbrs, w, base, g, terms, key, p in self.classes:
                u = rng.random(p.shape[::-1])  # (C, n): chain-major
                np.multiply(state.take(nbrs, axis=0, out=g).reshape(terms.shape), w, out=terms)
                np.add.reduce(terms, axis=0, dtype=key.dtype, out=key)
                key += base
                np.less(u.T, table[0].take(key, out=p), out=block.view(bool))
                for tail in table[1:]:
                    block += u.T < tail.take(key, out=p)


def _tails(w: np.ndarray) -> np.ndarray:
    """(S - 1, rows) tails T_j = sum_{i >= j} w_i / sum_i w_i of (rows, S)
    weights, summed from the top value down."""
    tail = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    return (tail[:, 1:] / tail[:, :1]).T


def _generic_heat_bath(spec: GibbsSpec, bonds, C: int):
    """The generic sampler's kernel over C chains, and the tails of each
    site's uniform row over its domain. Past gibbs.DEFAULT_STATE_CAP table
    cells it raises TooLargeError."""
    S, n = spec.alphabet.size, len(spec.region)
    pos = {v: p for p, v in enumerate(spec.region)}
    incident = [[] for _ in range(n)]
    for eb in bonds:
        inside = tuple(pos[u] for u in eb.inside)
        for p in inside:
            incident[p].append((inside, np.array([float(x) for x in eb.table])))
    nbrs = [sorted({q for inside, _ in incident[p] for q in inside} - {p}) for p in range(n)]
    offsets = np.cumsum([0] + [S ** len(nb) for nb in nbrs])
    if S > 127 or offsets[-1] * (S - 1) > DEFAULT_STATE_CAP:
        raise TooLargeError(f"heat-bath table of {offsets[-1] * (S - 1)} cells over {S} values exceeds the cap")
    allowed = np.array([np.isin(np.arange(S), spec.domain_indices(v)) for v in spec.region]).reshape(n, S)
    weights = np.ones((offsets[-1], S))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for p in range(n):
            w = weights[offsets[p] : offsets[p + 1]]
            code = np.arange(len(w))[:, None]
            vals = {q: code // S**k % S for k, q in enumerate(nbrs[p])}
            vals[p] = np.arange(S)
            for inside, factors in incident[p]:
                li = 0
                for q in inside:
                    li = li * S + vals[q]
                w *= factors[li]
            w[:, ~allowed[p]] = 0.0
            w[~w.any(axis=1)] = allowed[p]  # a forbidden neighbourhood: uniform over the domain
        table = _tails(weights)
    if not np.isfinite(table).all():
        raise RcgibbsError("conditional weight overflow; rescale couplings")
    colour = []
    for p in range(n):
        colour.append(min(set(range(len(nbrs[p]) + 1)) - {colour[q] for q in nbrs[p] if q < p}))
    classes = []
    for c in range(max(colour, default=-1) + 1):
        site = [p for p in range(n) if colour[p] == c]
        d = max(len(nbrs[p]) for p in site)
        nb = np.array([nbrs[p] + [n] * (d - len(nbrs[p])) for p in site], np.intp).reshape(len(site), d).T
        classes.append((site, nb, S ** np.arange(d)[:, None], offsets[site]))
    return HeatBath(n, classes, table, C), _tails(allowed.astype(float))


def distinct_masks(rows) -> tuple[list[int], list[int]]:
    """The distinct rows of a (K, n) bool array as int masks, bit j for
    column j, with their counts, in np.unique's order of the rows packed
    little-endian."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    distinct, counts = np.unique(packed, axis=0, return_counts=True)
    return [int.from_bytes(r.tobytes(), "little") for r in distinct], counts.tolist()


def heat_bath_chain(spec: GibbsSpec, hb: HeatBath, rng, n_sweeps: int):
    """Run n_sweeps of the kernel on hb, the chains of spec."""
    hb.sweeps(rng, n_sweeps)


def mc_connection_probability(
    spec: GibbsSpec, A, B, n_samples: int, seed: int, burn_in=300, gap=2, n_tasks=8, threads=1
) -> dict:
    """Monte Carlo estimate of the integrated connection probability.

    n_tasks pairs of chains, the columns of one kernel state (threads
    changes nothing), give ceil(n_samples / n_tasks) samples each, one every
    gap sweeps after burn_in: a connection indicator after per-bond activity
    coins. The standard error is binomial over all samples.
    """
    if n_samples < 1:
        raise UsageError("n_samples must be positive")
    S, n, T = spec.alphabet.size, len(spec.region), n_tasks
    bonds = effective_bonds(spec)
    coins = pair_coin_table(spec)
    hb, start = _generic_heat_bath(spec, bonds, 2 * T)
    # bond j's coin sits at off_j + x1 * S**m + x2, x1 and x2 the copies'
    # codes on its m inside sites, padded in front with the dummy to M sites
    q = np.array([float(x) for coin in coins for row in coin for x in row])
    size = np.array([len(coin) for coin in coins], np.int64)[:, None]
    off = np.cumsum(size**2, axis=0) - size**2
    M = max((len(eb.inside) for eb in bonds), default=0)
    pos = {v: p for p, v in enumerate(spec.region)}
    sites = [[n] * (M - len(eb.inside)) + [pos[u] for u in eb.inside] for eb in bonds]
    rows = hb.row[np.array(sites, np.intp).reshape(len(bonds), M).T]
    radix = S ** np.arange(M - 1, -1, -1)[:, None, None]
    rng = stream(seed, 300)
    hb.load((rng.random((2 * T, n)).T < start[:, :, None]).sum(axis=0))
    heat_bath_chain(spec, hb, rng, burn_in)
    per_task = -(-n_samples // T)
    active = np.empty((per_task, T, len(bonds)), bool)
    for k in range(per_task):
        heat_bath_chain(spec, hb, rng, gap)
        code = (radix * hb.state[rows]).sum(axis=0)  # (n_bonds, 2 T)
        x = off + size * code[:, :T] + code[:, T:]
        np.less(rng.random((T, len(bonds))), q[x].T, out=active[k])
    masks, counts = distinct_masks(active.reshape(per_task * T, -1))
    hits = joined_weight(spec.graph.n_vertices, [eb.vertices for eb in bonds], masks, counts, A, B)
    total = per_task * T
    p = hits / total
    se = math.sqrt(max(p * (1 - p), 1e-300) / total)
    return {"estimate": p, "stderr": se, "n_samples": total, "seed": seed}
