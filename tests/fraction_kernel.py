"""Oracle: the two-copy kernel with Fraction arithmetic throughout.

This is the exact route as it ran before the kernel moved to scaled
integers: configuration weights, pair weights, slice totals, coins and
pattern leaves are Fractions (floats on a float spec), multiplied and added
one by one in the kernel's orders, and every consumer divides Fractions.
The ordering helpers (_first_seen, _runs, product_positions), the weight
source (config_weights) and the connectivity labeller and query
(chain_components, chains_join) are shared with the package; every
multiply, add and divide is this module's own. The new kernel must return
literally equal Fractions, and on a float spec the same floats bit for
bit, in the same dict and row order.

pair_coin_table is the coin kernel as it ran before it was vectorized: one
nested-level base per (bond, local overlap), built with rcr's
bond_level_system and monotone_probabilities, each coin a level-by-level
ratio of Python sums. The package's pair_coin_table must return the same
coins, floats bit for bit and Fractions by value.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from rcgibbs import twocopy
from rcgibbs.errors import RcgibbsError
from rcgibbs.gibbs import (
    FiniteDistribution,
    config_weights,
    effective_bonds,
    local_index,
    product_outcomes,
    product_positions,
)
from rcgibbs.percolation import _first_seen, activity_rows, chain_components, chains_join
from rcgibbs.rcr import bond_level_system, monotone_probabilities
from rcgibbs.twocopy import _runs, make_slice


def pair_coin_table(spec, sigma=None):
    """Per effective bond, table[x1][x2]: the activity coin of the pair of
    local indices, as nested lists, 0 outside the domains, for factor zero
    and (given sigma) outside sigma's slice."""
    S = spec.alphabet.size
    idx = spec.alphabet.index
    exact = spec.exact
    zero = Fraction(0) if exact else 0.0
    pos = {v: p for p, v in enumerate(spec.region)}
    tables = []
    for eb in effective_bonds(spec):
        doms = [spec.domain_values(v) for v in eb.inside]
        n_local = S ** len(eb.inside)
        q = [[zero] * n_local for _ in range(n_local)]
        sums = [sorted({a + b for a in d for b in d}) for d in doms]
        only = None if sigma is None else tuple(sigma[pos[v]] for v in eb.inside)
        for sig in itertools.product(*sums):
            if only is not None and sig != only:
                continue
            adm = [tuple(a for a in d if s - a in d) for d, s in zip(doms, sig)]
            ys = list(itertools.product(*adm))
            loc1 = [local_index(S, (idx(a) for a in y)) for y in ys]
            loc2 = [local_index(S, (idx(s - a) for s, a in zip(sig, y))) for y in ys]
            factors = [eb.table[a] * eb.table[b] for a, b in zip(loc1, loc2)]
            levels, _ = bond_level_system(factors, range(len(factors)), exact)
            if levels[0] <= 0:
                continue
            probs = monotone_probabilities(levels)
            try:
                coin = {f: sum(probs[i:-1]) / sum(probs[i:]) for i, f in enumerate(levels) if f != 0}
            except ZeroDivisionError:  # a float level ratio underflowed to 0
                raise RcgibbsError("activity coin underflow; rescale couplings") from None
            for a, b, f in zip(loc1, loc2, factors):
                if f != 0:
                    q[a][b] = coin[f]
        tables.append(q)
    return tables


class FractionWalk:
    """The pair walk over Fraction (or float) configuration weights."""

    def __init__(self, spec, sigma=None):
        if sigma is None:
            self.domains = [spec.domain_values(v) for v in spec.region]
            self.sums = [sorted({a + b for a in d for b in d}) for d in self.domains]
        else:
            sl = make_slice(spec, sigma)
            self.domains = list(sl.admissible)
            self.sums = [[s] for s in sl.sigma]
        self.indices = [tuple(map(spec.alphabet.index, d)) for d in self.domains]
        weights = config_weights(spec, domains=self.indices)
        if spec.exact:  # Fractions even where every factor is an int
            weights = np.array([Fraction(w) for w in weights.tolist()], dtype=object)
        self.weights = weights

    def blocks(self, cells_per_pair=1):
        budget = twocopy._BLOCK_CELLS
        runs = []
        step = len(self.weights)
        for s, d in zip(self.sums, self.domains):
            step //= len(d)
            pos = {x: n for n, x in enumerate(s)}
            pairs = np.array([(pos[a + b], i * step, j * step) for i, a in enumerate(d)
                              for j, b in enumerate(d) if a + b in pos]).T
            if runs and runs[-1][0].shape[1] * pairs.shape[1] <= budget:
                prev, n = runs[-1]
                prev = prev * np.array([[len(s)], [1], [1]])
                runs[-1] = (prev[:, :, None] + pairs[:, None, :]).reshape(3, -1), n * len(s)
            else:
                runs.append((pairs, len(s)))
        sizes = [n for _, n in runs]
        tables = []
        for (k, f1, f2), n in runs:
            order = np.argsort(k, kind="stable")
            count = np.bincount(k, minlength=n)
            tables.append((count, np.cumsum(count) - count, f1[order], f2[order]))
        slices = np.arange(math.prod(sizes))
        n_pairs = math.prod(count[k] for (count, *_), k in zip(tables, product_positions(slices, sizes)))
        W = self.weights
        for lo, hi in _runs(n_pairs * cells_per_pair):
            digits = product_positions(slices[lo:hi], sizes)
            row = np.arange(hi - lo)
            c1 = c2 = np.zeros(hi - lo, dtype=np.int64)
            for (count, start, f1, f2), k in zip(tables, digits):
                k = k[row]
                reps = count[k]
                take = np.repeat(np.arange(len(row)), reps)
                e = np.arange(len(take)) + np.repeat(start[k] - (np.cumsum(reps) - reps), reps)
                row = row[take]
                c1 = c1[take] + f1[e]
                c2 = c2[take] + f2[e]
            w = W[c1] * W[c2]
            keep = w != 0
            row, c1, c2, w = row[keep], c1[keep], c2[keep], w[keep]
            totals = np.zeros(hi - lo, dtype=W.dtype)
            np.add.at(totals, row, w)
            yield slices[lo:hi], totals, row, c1, c2, w


def _expand(weights, q, live, base):
    grp = np.arange(len(weights))
    mask = base
    val = weights
    for j in range(live.shape[1]):
        split = live[grp, j]
        if not split.any():
            continue
        reps = 1 + split
        at = (np.cumsum(reps) - reps)[split]
        w, q_j = val[split], q[grp[split], j]
        take = np.repeat(np.arange(len(grp)), reps)
        grp, mask, val = grp[take], mask[take], val[take]
        val[at] = w * q_j
        val[at + 1] = w * (1 - q_j)
        mask[at] |= 1 << j
    return grp, mask, val


def pattern_blocks(spec, sigma=None):
    """(sigmas, totals, rec_slice, rec_mask, rec_val) per block, in Fractions."""
    bonds = effective_bonds(spec)
    n_bonds = len(bonds)
    dtype = object if spec.exact else float
    walk = FractionWalk(spec, sigma)
    S = spec.alphabet.size
    pos = {v: p for p, v in enumerate(spec.region)}
    digits = product_positions(np.arange(len(walk.weights)), [len(i) for i in walk.indices])
    alpha = [np.asarray(i)[k] for i, k in zip(walk.indices, digits)]
    local = np.zeros((n_bonds, len(walk.weights)), dtype=np.int64)
    for j, eb in enumerate(bonds):
        for v in eb.inside:
            local[j] = local[j] * S + alpha[pos[v]]
    seen = [{} for _ in bonds]
    coin_ids = [
        np.array([[ids.setdefault(q, len(ids)) for q in row] for row in table]).reshape(len(table), -1)
        for ids, table in zip(seen, pair_coin_table(spec, sigma))
    ]
    bits = np.left_shift(1, np.arange(n_bonds, dtype=np.int64))

    for sids, totals, row, c1, c2, w in walk.blocks(max(n_bonds, 1)):
        positive = np.flatnonzero(totals != 0)
        if not len(positive):
            continue
        sigmas = product_outcomes(sids[positive], walk.sums)
        ids = np.zeros((len(row), n_bonds), dtype=np.int64)
        for j, table in enumerate(coin_ids):
            ids[:, j] = table[local[j, c1], local[j, c2]]
        labels, first = _first_seen(row, *ids.T)
        gw = np.zeros(len(first), dtype=dtype)
        np.add.at(gw, labels, w)
        keep = gw != 0
        gw, grow, gids = gw[keep], row[first[keep]], ids[first[keep]]
        gq = np.empty(gids.shape, dtype=dtype)
        for j, ids_j in enumerate(seen):
            gq[:, j] = np.array(list(ids_j), dtype=dtype)[gids[:, j]]
        live = (gq != 0) & (1 - gq != 0)
        base_mask = ((gq != 0) & ~live) @ bits
        n_leaves = np.zeros(len(totals), dtype=np.int64)
        np.add.at(n_leaves, grow, np.left_shift(1, live.sum(axis=1)))
        for a, b in _runs(n_leaves[positive]):
            rows = positive[a:b]
            ga, gb = np.searchsorted(grow, [rows[0], rows[-1] + 1])
            grp, mask, val = _expand(gw[ga:gb], gq[ga:gb], live[ga:gb], base_mask[ga:gb])
            nz = val != 0
            lrow, mask, val = grow[ga:gb][grp[nz]], mask[nz], val[nz]
            labels, first = _first_seen(lrow, mask)
            rec_val = np.zeros(len(first), dtype=dtype)
            np.add.at(rec_val, labels, val)
            yield (sigmas[a:b], totals[rows].tolist(), np.searchsorted(rows, lrow[first]),
                   mask[first], rec_val)


def laws(spec, A, B):
    """integrated_rc(spec).patterns and sigma_connection_profile(spec, A, B),
    from one pass over the pattern blocks."""
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    sums = {}
    rows = []
    grand = 0
    acc = 0
    blocks = list(pattern_blocks(spec))
    masks = [m for block in blocks for m in block[3].tolist()]
    labels = chain_components(spec.graph.n_vertices, bond_vertices, activity_rows(masks, len(bond_vertices)))
    connected = dict(zip(masks, chains_join(labels, A, B).tolist()))
    for sigmas, totals, rec_slice, rec_mask, rec_val in blocks:
        for total in totals:
            grand += total
        for m, v in zip(rec_mask.tolist(), rec_val.tolist()):
            sums[m] = sums.get(m, 0) + v
        conn = np.array([connected[m] for m in rec_mask.tolist()], dtype=bool)
        num = np.zeros(len(sigmas), dtype=rec_val.dtype)
        np.add.at(num, rec_slice[conn], rec_val[conn])
        for sigma, total, n in zip(sigmas, totals, num.tolist()):
            rows.append((sigma, total, n / total))
            acc += n
    if spec.exact:
        patterns = {m: Fraction(w, 1) / grand for m, w in sums.items()}
    else:
        patterns = {m: w / grand for m, w in sums.items()}
    return patterns, [(s, t / grand, p) for s, t, p in rows], acc / grand


def slice_connection_prob(spec, sigma, A, B):
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    for _, totals, _, mask, val in pattern_blocks(spec, sigma):
        rows = activity_rows(mask.tolist(), len(bond_vertices))
        connected = chains_join(chain_components(spec.graph.n_vertices, bond_vertices, rows), A, B)
        acc = 0
        for w, joined in zip(val.tolist(), connected.tolist()):
            if joined:
                acc += w
        return acc / totals[0]
    return None


def overlap_distribution(spec):
    walk = FractionWalk(spec)
    totals = np.concatenate([totals for _, totals, *_ in walk.blocks()])
    return FiniteDistribution.over_product(walk.sums, totals, sites=spec.region, normalize=True)


def nonoverlap_distribution(spec, sigma):
    walk = FractionWalk(spec, sigma)
    table = {}
    for _, _, _, c1, _, w in walk.blocks():
        table.update(zip(product_outcomes(c1, walk.domains), w.tolist()))
    return FiniteDistribution(table, sites=spec.region, normalize=True)


def decompose_event(spec, predicate):
    walk = FractionWalk(spec)
    hit = np.array([bool(predicate(o)) for o in itertools.product(*walk.domains)])
    totals, events = [], []
    for _, tot, row, c1, _, w in walk.blocks():
        ev = np.zeros(len(tot), dtype=tot.dtype)
        np.add.at(ev, row[hit[c1]], w[hit[c1]])
        totals += tot.tolist()
        events += ev.tolist()
    grand = sum(totals)
    return sum(t / grand * (e / t) for t, e in zip(totals, events) if t != 0)
