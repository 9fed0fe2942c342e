"""Two independent copies: overlap sums, slice measures, symmetrized specs.

Conditioning two independent copies of a Gibbs field on the per-vertex sum
of their spins splits the product space into slices. Each slice carries a
symmetric Gibbs measure whose interaction adds the original energy of a
configuration and of its reflection through the sum.

The pair walk's index lists depend only on a spec's shape, its domains and
slice sums, not on its couplings. The module keeps the most recently used
ones of full walks, read-only, in one bounded cache (_retained, at most
1 MiB of arrays, headers counted; its keys are not), so specs of one shape
walked in turn build them once. A one-slice walk seldom repeats its slice
and keeps nothing.

The walk's values run in lanes of machine words: one float64 lane for a
float spec, and for an exact one int64 residues modulo fixed primes below
2**31, as many as the walk's bound needs, rebuilt into Python ints once per
output (_Residues).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import sys
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
    _BLOCK_CELLS, and drops the oldest tuples past max_bytes, counting each
    array's data and its header (_HEADER bytes). There is no entry cap, so
    many distinct small structures fit (the C04 sweep's reach tables at
    n = 2000); no perfbench workload has that many. max_bytes bounds the
    arrays only: each entry's key and dictionary node are not counted, so
    a cache of tiny arrays (thousands of entries) holds more than it says.
    hits and misses count the gets. A lock guards the bookkeeping, not
    build(), so threads may share the cache.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.entries = collections.OrderedDict()
        self.nbytes = self.hits = self.misses = 0
        self.lock = threading.Lock()

    @staticmethod
    def size(arrays) -> int:
        return sum(a.nbytes + _HEADER for a in arrays)

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
                    self.nbytes += self.size(arrays)
                    while self.nbytes > self.max_bytes:
                        self.nbytes -= self.size(self.entries.popitem(last=False)[1])
        return arrays


# The bytes of an array object without its data, which a cache of small
# arrays must count too.
_HEADER = sys.getsizeof(np.empty(0))


# The shape-only part of PairWalk.blocks (see PairWalk), which specs of one
# shape share whatever their weights: the C04 sweep's 500 models come in four
# shapes. A walk whose lists do not all fit keeps none of them, since it would
# push out its own first blocks before a repeat reads them, and every other
# walk's; nor does a one-slice walk, whose sigma seldom repeats.
_retained = _Retained(1 << 20)


def _scaled(values):
    """Exact rationals as Python ints over one denominator D, the lcm of
    theirs: (list of the numerators, D)."""
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


# The arithmetic of a walk's values, in lanes: a (k, n) array holds n values.
# A float walk has one lane of float64. An exact walk's values are
# nonnegative ints of one scale, at most a bound known before the walk
# (PairWalk.lanes), so it carries each as its residues modulo the k leading
# _PRIMES whose product exceeds the bound, in int64: a product of two residues
# fits in 62 bits, and a value is 0 exactly when all its residues are. Each
# output int is rebuilt once, by Garner's mixed-radix reconstruction (Garner,
# IRE Trans. EC-8, 140, 1959; Knuth, TAOCP vol. 2, 4.3.2).

_PRIMES = [2**31 - 1]  # the lane moduli found so far: primes below 2**31, descending
_PRIMES_LOCK = threading.Lock()


def _lane_primes(bound: int) -> list:
    """The fewest leading _PRIMES, at least one, whose product exceeds bound;
    primes past the known ones are found by trial division below the last."""
    with _PRIMES_LOCK:
        k, product = 1, _PRIMES[0]
        while product <= bound:
            if k == len(_PRIMES):
                n = _PRIMES[-1] - 2
                odd = np.arange(3, math.isqrt(n) + 1, 2)
                while (n % odd == 0).any():
                    n -= 2
                _PRIMES.append(n)
            product *= _PRIMES[k]
            k += 1
        return _PRIMES[:k]


class _Floats:
    """One lane of float64: (1, n) arrays, added in index order."""

    k, dtype = 1, float  # the number of lanes and the type of their values

    def of(self, values) -> np.ndarray:
        return np.asarray(values, dtype=float).reshape(1, -1)

    def zeros(self, n: int) -> np.ndarray:
        return np.zeros((self.k, n), self.dtype)

    def mul(self, a, b):
        return a * b

    def nonzero(self, a) -> np.ndarray:
        return a[0] != 0

    def sum_at(self, index, values, n: int) -> np.ndarray:
        """(k, n) sums of values[:, i] into column index[i], each from 0 in
        the order of i (np.add.at)."""
        out = self.zeros(n)
        for o, v in zip(out, values):
            np.add.at(o, index, v)
        return out

    def values(self, a) -> list:
        """The Python numbers of a (k, n) array."""
        return a[0].tolist()

    def total(self, a):
        """The sum of a (k, n) array's values from 0, in order."""
        return self.values(self.sum_at(np.zeros(a.shape[1], np.intp), a, 1))[0]


_FLOATS = _Floats()


class _Residues(_Floats):
    """int64 residues of nonnegative ints up to bound, modulo _lane_primes(bound)."""

    dtype = np.int64

    def __init__(self, bound: int):
        self.bound = bound
        self.primes = _lane_primes(bound)
        self.k = len(self.primes)
        self.p = np.array(self.primes, dtype=np.int64)[:, None]
        # Garner's constants: 1 / (p_0 ... p_{i-1}) and p_j mod p_i
        self.inverse = [pow(math.prod(self.primes[:i]), -1, p) for i, p in enumerate(self.primes)]
        self.radix = [[q % p for q in self.primes[:i]] for i, p in enumerate(self.primes)]

    def of(self, values) -> np.ndarray:
        values = list(values)
        return np.array([[v % p for v in values] for p in self.primes], np.int64).reshape(self.k, len(values))

    def mul(self, a, b):
        return a * b % self.p

    def nonzero(self, a) -> np.ndarray:
        return (a != 0).any(axis=0)

    def sum_at(self, index, values, n: int) -> np.ndarray:
        return super().sum_at(index, values, n) % self.p

    def values(self, a) -> list:
        """The ints of a (k, n) residue array, by Garner: lane i's mixed-radix
        digit is its residue less the digits below, over p_0 ... p_{i-1}."""
        digits = []
        for x, p, inverse, radix in zip(a, self.primes, self.inverse, self.radix):
            below = np.zeros_like(x)
            for d, r in zip(digits[::-1], radix[::-1]):
                below = (below * r + d) % p
            digits.append((x - below) % p * inverse % p)
        # value = a_0 + r_0 (a_1 + r_1 (a_2 + ...)), a_i = d_2i + p_2i d_2i+1 in
        # 62 bits and r_i = p_2i p_2i+1: half the digits become Python ints
        pairs = [d + p * e for d, e, p in zip(digits[::2], digits[1::2], self.primes[::2])]
        pairs += digits[len(pairs) * 2:]
        radix = [p * q for p, q in zip(self.primes[::2], self.primes[1::2])]
        value = pairs[-1].astype(object)
        for a, r in zip(pairs[-2::-1], radix[len(pairs) - 2::-1]):
            value = value * r + a.astype(object)
        return value.tolist()


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
    array, and total their sum. Every pair weight and slice total of
    blocks() is an int over D**2, at most total**2; blocks() carries them as
    int64 residues in the lanes of lanes(unit), which hold every sum of pair
    weights times unit, and a caller rebuilds each output int once and forms
    each Fraction from a ratio of such ints (the scales cancel). Float specs
    hold float64 weights, in one lane; one whose pairs could overflow raises
    RcgibbsError.

    blocks() splits in two. The shape-only part, the run tables and each
    block's (row, c1, c2) lists, comes from _retained: the tables keyed by
    (sums, domains, configuration count, _BLOCK_CELLS), a block's lists by
    that and its slice range [lo, hi), which carries cells_per_pair. Only
    tables and blocks of at most _BLOCK_CELLS pairs are kept, and only the
    lists of walks whose lists fit the cache at once; retained arrays are
    read-only, and the cache holds at most 1 MiB of them, headers counted
    (keys are not). A walk given sigma builds its tables and lists directly
    and keeps none: its slice seldom comes again. The weights part, w(c1) * w(c2), the zero
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
        self.total = sum(weights.tolist()) if exact else None

    def lanes(self, unit: int = 1):
        """The lanes of the walk's values times unit: float64 on a float spec;
        on an exact one residues up to total**2 * unit, which bounds every
        sum of pair weights times unit."""
        return _Residues(self.total**2 * unit) if self.total is not None else _FLOATS

    def blocks(self, cells_per_pair: int = 1, lanes=None):
        """Blocks of whole slices, in order, of at most _BLOCK_CELLS cells at
        cells_per_pair cells per pair (a larger slice makes a block alone),
        each listing its pairs by a ragged product over runs of vertices.

        Yields (slices, totals, row, c1, c2, weight) per block: the slices'
        ids and weights, each summed in pair order, and per pair its slice
        (an index into slices), both copies' configurations and w(c1) * w(c2).
        Totals and weights are in lanes (default self.lanes()), one column
        per value. The run tables and the pair lists of a full walk come from
        _retained (see the class).
        """
        if lanes is None:
            lanes = self.lanes()
        shape = (tuple(map(tuple, self.sums)), tuple(map(tuple, self.domains)), len(self.weights), _BLOCK_CELLS)
        build = functools.partial(_run_tables, self.sums, self.domains, len(self.weights))
        n_pairs, *tables = _retained.get(shape, build, lambda t: sum(map(len, t[3::4]))) if self.retain else build()
        tables = list(zip(*[iter(tables)] * 4))
        fits = self.retain and 12 * int(n_pairs.sum()) <= _retained.max_bytes  # all the walk's lists at once
        W = lanes.of(self.weights)
        for lo, hi in _runs(n_pairs * cells_per_pair):
            lists = functools.partial(_pair_lists, tables, lo, hi)
            row, c1, c2 = _retained.get((shape, lo, hi), lists, lambda t: len(t[0])) if fits else lists()
            w = lanes.mul(W.take(c1, axis=1), W.take(c2, axis=1))
            keep = lanes.nonzero(w)
            row, c1, c2, w = row[keep], c1[keep], c2[keep], w.compress(keep, axis=1)
            yield np.arange(lo, hi), lanes.sum_at(row, w, hi - lo), row, c1, c2, w


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
    lanes = walk.lanes()
    totals = np.concatenate([lanes.zeros(0), *(totals for _, totals, *_ in walk.blocks(lanes=lanes))], axis=1)
    if not lanes.nonzero(totals).any():
        raise ZeroSliceError("zero measure: every configuration forbidden")
    totals = np.array(lanes.values(totals), dtype=object) if spec.exact else totals[0]
    return FiniteDistribution.over_product(walk.sums, totals, sites=spec.region, normalize=True)


def nonoverlap_distribution(spec: GibbsSpec, sigma) -> FiniteDistribution:
    """Law of one copy given the sum configuration of the two copies.

    Supported on the slice space (admissible values per vertex, the pinned
    value on the overlap region); symmetric under reflection through sigma.
    Outcomes of positive weight only, in first-copy order.
    """
    walk = PairWalk(spec, sigma)
    lanes = walk.lanes()
    table = {}
    for _, _, _, c1, _, w in walk.blocks(lanes=lanes):
        table.update(zip(product_outcomes(c1, walk.domains), lanes.values(w)))
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
    lanes = walk.lanes()
    hit = np.array([bool(predicate(o)) for o in itertools.product(*walk.domains)])
    totals, events = [lanes.zeros(0)], [lanes.zeros(0)]
    for _, tot, row, c1, _, w in walk.blocks(lanes=lanes):
        h = hit[c1]
        totals.append(tot)
        events.append(lanes.sum_at(row[h], w.compress(h, axis=1), tot.shape[1]))
    totals, events = np.concatenate(totals, axis=1), np.concatenate(events, axis=1)
    # a float total keeps builtin sum's order, which is compensated from
    # Python 3.12 on and so is not the lanes' in-order sum
    grand = lanes.total(totals) if spec.exact else sum(lanes.values(totals))
    if grand == 0:
        raise ZeroSliceError("zero measure: every configuration forbidden")
    if spec.exact:
        return Fraction(lanes.total(events), grand)
    return sum(t / grand * (e / t) for t, e in zip(lanes.values(totals), lanes.values(events)) if t != 0)
