"""Two independent copies: overlap sums, slice measures, symmetrized specs.

Conditioning two independent copies of a Gibbs field on the per-vertex sum
of their spins splits the product space into slices. Each slice carries a
symmetric Gibbs measure whose interaction adds the original energy of a
configuration and of its reflection through the sum.

The pair walk's index lists depend only on a spec's shape, its domains and
slice sums, not on its couplings. The module keeps the most recently used
ones of full walks, read-only, in one bounded cache (_retained, at most
1 MiB in 64 entries), so specs of one shape walked in turn build them once.
A one-slice walk seldom repeats its slice and keeps nothing.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RcgibbsError, ZeroSliceError, check_cap
from .gibbs import (
    Alphabet,
    BondTable,
    FiniteDistribution,
    GibbsSpec,
    Interaction,
    config_weights,
    effective_bonds,
    local_index,
    product_outcomes,
    product_positions,
)


@dataclass(frozen=True)
class OverlapSlice:
    """An overlap assignment with its per-vertex admissible sets.

    sigma is aligned with the region (sorted vertex order). The overlap
    region collects the vertices whose admissible set is a single value,
    i.e. where the sum pins both copies.
    """

    region: tuple[int, ...]
    sigma: tuple[int, ...]
    admissible: tuple[tuple[int, ...], ...]
    overlap_region: frozenset[int]


def make_slice(spec: GibbsSpec, sigma) -> OverlapSlice:
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != len(spec.region):
        raise ValueError("sigma length must match region size")
    adm = []
    for v, s in zip(spec.region, sigma):
        dom = spec.domain_values(v)
        domset = set(dom)
        a = tuple(x for x in dom if s - x in domset)
        if not a:
            raise ZeroSliceError(f"overlap value {s} at vertex {v} is not achievable")
        adm.append(a)
    overlap = frozenset(
        v for v, a in zip(spec.region, adm) if len(a) == 1
    )
    return OverlapSlice(spec.region, sigma, tuple(adm), overlap)


# Array cells one block of slices holds: pairs x cells per pair, or leaves.
# Each block repeats a fixed set of numpy calls, so the budget is large enough
# that a query of up to a few thousand configurations takes one or two blocks;
# the per-pair arrays are int32 to keep a block's memory small.
_BLOCK_CELLS = 1 << 16


def _runs(sizes):
    """Consecutive runs [lo, hi) of items whose sizes sum to at most
    _BLOCK_CELLS; an item larger than that makes a run of its own."""
    cum = np.cumsum(sizes)
    lo = 0
    while lo < len(cum):
        hi = int(np.searchsorted(cum, (cum[lo - 1] if lo else 0) + _BLOCK_CELLS, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


class _Retained:
    """A least-recently-used cache of tuples of arrays, made read-only.

    get(key, build, size) returns the tuple build() made for key. It keeps
    the tuple only when size(tuple), the pairs or cells it lists, is at most
    _BLOCK_CELLS, and drops the oldest tuples past max_bytes of array data
    or MAX_ENTRIES tuples (which bounds the arrays' own headers, about 100
    bytes each, when the tuples are small). hits and misses count the gets.
    A lock guards the bookkeeping, not build(), so threads may share the
    cache.
    """

    MAX_ENTRIES = 64

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.entries = collections.OrderedDict()
        self.nbytes = self.hits = self.misses = 0
        self.lock = threading.Lock()

    def get(self, key, build, size):
        with self.lock:
            arrays = self.entries.get(key)
            if arrays is not None:
                self.hits += 1
                self.entries.move_to_end(key)
                return arrays
            self.misses += 1
        arrays = build()
        if size(arrays) <= _BLOCK_CELLS:
            for a in arrays:
                a.flags.writeable = False
            with self.lock:
                if key not in self.entries:  # another thread may have built it meanwhile
                    self.entries[key] = arrays
                    self.nbytes += sum(a.nbytes for a in arrays)
                    while self.nbytes > self.max_bytes or len(self.entries) > self.MAX_ENTRIES:
                        self.nbytes -= sum(a.nbytes for a in self.entries.popitem(last=False)[1])
        return arrays


# The shape-only part of PairWalk.blocks (see PairWalk), which specs of one
# shape share whatever their weights: the C04 sweep's 500 models come in four
# shapes. A walk whose lists do not all fit keeps none of them, since it would
# push out its own first blocks before a repeat reads them, and every other
# walk's; nor does a one-slice walk, whose sigma seldom repeats.
_retained = _Retained(1 << 20)


def _scaled(values):
    """Exact rationals as Python ints over one denominator D, the lcm of
    theirs: (object array of the numerators, D)."""
    D = math.lcm(*(v.denominator for v in values))
    return np.array([v.numerator * (D // v.denominator) for v in values], dtype=object), D


def _slice_sums(spec: GibbsSpec, sigma=None):
    """Each region vertex's slice axis: its sorted sums of two domain values, or sigma's value."""
    if sigma is not None:
        return [[int(s)] for s in sigma]
    return [sorted({a + b for a in d for b in d}) for d in map(spec.domain_values, spec.region)]


class PairWalk:
    """The two-copy pairs of a spec, grouped by their overlap.

    A pair (c1, c2) of region configurations lies in the slice
    sigma = c1 + c2 (vertexwise sums) and weighs w(c1) * w(c2), w from
    config_weights; pairs of weight 0 are dropped. Configurations are
    numbered in itertools.product(*domains) order and slices in
    itertools.product(*sums) order, sums holding each vertex's sorted sums
    of two domain values; the walk takes the pairs in slice order, then
    first-copy order. Given sigma, it walks that slice alone: sums holds
    sigma's values, and the domains keep the values the slice admits (a
    with sigma_v - a in the domain), so an unachievable sigma raises
    ZeroSliceError. This is the one place that forms two-copy pairs: the
    overlap law, the slice measures, decompose_event and the integrated
    activity law all read it. A full walk past the "two-copy pairs" cap
    raises TooLargeError before weighing a configuration; a one-slice walk
    is bounded by the "states" cap of config_weights.

    Exact specs run on integers. Each bond table is scaled to ints over the
    lcm of its denominators (_scaled), so weights holds each configuration's
    weight times D, the product of those scales, as Python ints in an object
    array; every pair weight and slice total of blocks() is an int over
    D**2, and a caller forms each Fraction once, from a ratio of such ints
    (the scales cancel). Float specs hold float64 weights; one whose pairs
    could overflow raises RcgibbsError.

    blocks() splits in two. The shape-only part, the run tables and each
    block's (row, c1, c2) lists, comes from _retained: the tables keyed by
    (sums, domains, configuration count, _BLOCK_CELLS), a block's lists by
    that and its slice range [lo, hi), which carries cells_per_pair. Only
    tables and blocks of at most _BLOCK_CELLS pairs are kept, and only the
    lists of walks whose lists fit the cache at once; retained arrays are
    read-only, and the cache holds at most 1 MiB of them in 64 entries. A
    walk given sigma builds its tables and lists directly and keeps none:
    its slice seldom comes again. The weights part, w(c1) * w(c2), the zero
    filter and the slice totals, runs per walk.
    """

    def __init__(self, spec: GibbsSpec, sigma=None):
        if sigma is None:
            check_cap("two-copy pairs", spec.n_states() ** 2)
            self.domains = [spec.domain_values(v) for v in spec.region]
        else:
            self.domains = list(make_slice(spec, sigma).admissible)
        self.sums = _slice_sums(spec, sigma)
        self.retain = sigma is None
        self.indices = [tuple(map(spec.alphabet.index, d)) for d in self.domains]
        exact = spec.exact
        tables = [(eb.inside, _scaled([Fraction(x) for x in eb.table])[0] if exact else eb.table)
                  for eb in effective_bonds(spec)]
        weights = config_weights(spec, tables, domains=self.indices, exact=exact)
        if not exact and len(weights) and weights.max() > 1e154:  # below the square root of the largest float
            raise RcgibbsError("two-copy pair weight overflow; rescale couplings")
        self.weights = weights

    def blocks(self, cells_per_pair: int = 1):
        """Blocks of whole slices, in order, of at most _BLOCK_CELLS cells at
        cells_per_pair cells per pair (a larger slice makes a block alone),
        each listing its pairs by a ragged product over runs of vertices.

        Yields (slices, totals, row, c1, c2, weight) per block: the slices'
        ids and weights, each summed in pair order, and per pair its slice
        (an index into slices), both copies' configurations and w(c1) * w(c2).
        The run tables and the pair lists of a full walk come from _retained
        (see the class).
        """
        shape = (tuple(map(tuple, self.sums)), tuple(map(tuple, self.domains)), len(self.weights), _BLOCK_CELLS)
        build = functools.partial(_run_tables, self.sums, self.domains, len(self.weights))
        n_pairs, *tables = _retained.get(shape, build, lambda t: sum(map(len, t[3::4]))) if self.retain else build()
        tables = list(zip(*[iter(tables)] * 4))
        fits = self.retain and 12 * int(n_pairs.sum()) <= _retained.max_bytes  # all the walk's lists at once
        W = self.weights
        for lo, hi in _runs(n_pairs * cells_per_pair):
            lists = functools.partial(_pair_lists, tables, lo, hi)
            row, c1, c2 = _retained.get((shape, lo, hi), lists, lambda t: len(t[0])) if fits else lists()
            w = W[c1] * W[c2]
            keep = w != 0
            row, c1, c2, w = row[keep], c1[keep], c2[keep], w[keep]
            totals = np.zeros(hi - lo, dtype=W.dtype)
            np.add.at(totals, row, w)
            yield np.arange(lo, hi), totals, row, c1, c2, w


def _run_tables(sums, domains, n_configs: int) -> tuple:
    """A walk's slice pair counts and run tables: (n_pairs, count, start, f1,
    f2, count, ...), the four arrays of each run in turn.

    A run is consecutive vertices with at most _BLOCK_CELLS joint value pairs
    (or one vertex), in one table: per pair, its sums' position in the run's
    product of sums and what its first and second copy add to the
    configuration numbers, ordered by sums then first copy; count and start
    give each position's pairs. n_pairs[s] counts slice s's pairs.
    """
    runs = []
    step = n_configs
    for s, d in zip(sums, domains):
        step //= len(d)
        pos = {x: n for n, x in enumerate(s)}
        pairs = np.array([(pos[a + b], i * step, j * step) for i, a in enumerate(d)
                          for j, b in enumerate(d) if a + b in pos], np.int32).T
        if runs and runs[-1][0].shape[1] * pairs.shape[1] <= _BLOCK_CELLS:
            prev, n = runs[-1]
            prev = prev * np.array([[len(s)], [1], [1]], np.int32)
            runs[-1] = (prev[:, :, None] + pairs[:, None, :]).reshape(3, -1), n * len(s)
        else:
            runs.append((pairs, len(s)))
    sizes = [n for _, n in runs]
    tables = []
    for (k, f1, f2), n in runs:
        order = np.argsort(k, kind="stable")
        count = np.bincount(k, minlength=n)
        tables += [count, np.cumsum(count) - count, f1[order], f2[order]]
    slices = np.arange(math.prod(sizes))
    n_pairs = math.prod(count[k] for count, k in zip(tables[::4], product_positions(slices, sizes)))
    return (np.asarray(n_pairs), *tables)


def _pair_lists(tables, lo: int, hi: int) -> tuple:
    """(row, c1, c2) of the pairs of slices [lo, hi), by the ragged product of
    the run tables: per pair its slice as an offset from lo and both copies'
    configurations, int32, in slice then first-copy order."""
    digits = product_positions(np.arange(lo, hi), [len(count) for count, *_ in tables])
    row = np.arange(hi - lo, dtype=np.int32)
    c1 = c2 = np.zeros(hi - lo, dtype=np.int32)
    for (count, start, f1, f2), k in zip(tables, digits):
        k = k[row]
        reps = count[k]
        take = np.repeat(np.arange(len(row)), reps)
        e = np.arange(len(take)) + np.repeat(start[k] - (np.cumsum(reps) - reps), reps)
        row = row[take]
        c1 = c1[take] + f1[e]
        c2 = c2[take] + f2[e]
    return row, c1, c2


def overlap_distribution(spec: GibbsSpec) -> FiniteDistribution:
    """Distribution of the per-vertex spin sum of two independent copies.

    Outcomes are tuples of sums aligned with the sorted region, over the
    product of each vertex's sorted sums, zero-weight ones included, as in
    gibbs_measure. Each weight sums its slice's pairs in PairWalk order;
    an exact spec's are Fractions, each slice's int total over the grand
    total.
    """
    walk = PairWalk(spec)
    totals = np.concatenate([totals for _, totals, *_ in walk.blocks()])
    if not (totals != 0).any():
        raise ZeroSliceError("zero measure: every configuration forbidden")
    return FiniteDistribution.over_product(walk.sums, totals, sites=spec.region, normalize=True)


def nonoverlap_distribution(spec: GibbsSpec, sigma) -> FiniteDistribution:
    """Law of one copy given the sum configuration of the two copies.

    Supported on the slice space (admissible values per vertex, the pinned
    value on the overlap region); symmetric under reflection through sigma.
    Outcomes of positive weight only, in first-copy order.
    """
    walk = PairWalk(spec, sigma)
    table = {}
    for _, _, _, c1, _, w in walk.blocks():
        table.update(zip(product_outcomes(c1, walk.domains), w.tolist()))
    if not table:
        raise ZeroSliceError("overlap configuration has probability zero")
    return FiniteDistribution(table, sites=spec.region, normalize=True)


def symmetrized_spec(spec: GibbsSpec, sigma) -> GibbsSpec:
    """Gibbs spec whose measure is the non-overlap slice distribution.

    The interaction table of each bond is replaced by the product of the
    factors of a local configuration and of its reflection through sigma;
    the configuration space is restricted to the admissible values.
    Straddling bonds reflect only their interior part, the exterior spins
    being shared by the two copies.
    """
    sl = make_slice(spec, sigma)
    sig_by_vertex = dict(zip(spec.region, sl.sigma))
    rset = set(spec.region)
    S = spec.alphabet.size
    vals = spec.alphabet.values
    idx = spec.alphabet.index
    zero = Fraction(0) if spec.exact else 0.0
    new_tables = {}
    for k, b in enumerate(spec.graph.bonds):
        if not any(u in rset for u in b):
            continue
        old = spec.interaction.tables[k].factors
        m = len(b)
        new = []
        for x in itertools.product(range(S), repeat=m):
            refl = []
            ok = True
            for v, vi in zip(b, x):
                if v in rset:
                    rv = sig_by_vertex[v] - vals[vi]
                    if rv not in vals:
                        ok = False
                        break
                    refl.append(idx(rv))
                else:
                    refl.append(vi)
            if not ok:
                new.append(zero)
                continue
            new.append(old[local_index(S, x)] * old[local_index(S, refl)])
        if all(f == 0 for f in new):
            raise ZeroSliceError(f"bond {k} forbids the whole slice")
        new_tables[k] = BondTable(tuple(new))
    domains = {v: a for v, a in zip(spec.region, sl.admissible)}
    return GibbsSpec(
        graph=spec.graph,
        alphabet=spec.alphabet,
        interaction=Interaction(new_tables),
        region=spec.region,
        boundary=dict(spec.boundary),
        domains=domains,
    )


def two_copy_spec(spec: GibbsSpec) -> GibbsSpec:
    """Product spec of two independent copies on a paired alphabet.

    Pair values are encoded as S*i1 + i2 where i1, i2 index the original
    alphabet; decode with pair_values(). Boundary spins are shared by the
    two copies.
    """
    S = spec.alphabet.size
    pair_alphabet = Alphabet(tuple(range(S * S)))
    new_tables = {}
    rset = set(spec.region)
    for k, b in enumerate(spec.graph.bonds):
        if not any(u in rset for u in b):
            continue
        old = spec.interaction.tables[k].factors
        m = len(b)
        new = []
        for px in itertools.product(range(S * S), repeat=m):
            x1 = tuple(p // S for p in px)
            x2 = tuple(p % S for p in px)
            new.append(old[local_index(S, x1)] * old[local_index(S, x2)])
        new_tables[k] = BondTable(tuple(new))
    boundary = {
        v: spec.alphabet.index(val) * S + spec.alphabet.index(val)
        for v, val in spec.boundary.items()
    }
    domains = None
    if spec.domains is not None:
        domains = {}
        for v in spec.region:
            dv = spec.domain_indices(v)
            domains[v] = tuple(i1 * S + i2 for i1 in dv for i2 in dv)
    return GibbsSpec(
        graph=spec.graph,
        alphabet=pair_alphabet,
        interaction=Interaction(new_tables),
        region=spec.region,
        boundary=boundary,
        domains=domains,
    )


def pair_values(alphabet: Alphabet, pair_value: int) -> tuple[int, int]:
    """Decode a paired-alphabet value into the two copies' spin values."""
    S = alphabet.size
    return alphabet.values[pair_value // S], alphabet.values[pair_value % S]


def decompose_event(spec: GibbsSpec, predicate):
    """Probability of an event recomputed through the overlap decomposition.

    Returns the sum over overlap slices of the slice's weight times the
    slice probability of the event, both read in one pass over the
    PairWalk; must agree with direct evaluation. On an exact spec the
    slice totals cancel: the sum is the event's pair weights over all pair
    weights, one Fraction.
    """
    walk = PairWalk(spec)
    hit = np.array([bool(predicate(o)) for o in itertools.product(*walk.domains)])
    totals, events = [], []
    for _, tot, row, c1, _, w in walk.blocks():
        ev = np.zeros(len(tot), dtype=tot.dtype)
        np.add.at(ev, row[hit[c1]], w[hit[c1]])
        totals += tot.tolist()
        events += ev.tolist()
    grand = sum(totals)
    if grand == 0:
        raise ZeroSliceError("zero measure: every configuration forbidden")
    if spec.exact:
        return Fraction(sum(events), grand)
    return sum(t / grand * (e / t) for t, e in zip(totals, events) if t != 0)
