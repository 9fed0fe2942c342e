"""The package's one heat bath, and Monte Carlo connection estimates.

One kernel, HeatBath.sweeps, runs every sampler: the generic one here and
the +-J glass (experiments.ea). It updates C chains at once, one colour
class of sites at a time (the chromatic Gibbs sampler, Geman-Geman, IEEE
PAMI 6, 721, 1984). A site's key is base[site] + sum_k w_k[site] *
state[nbr_k]; a flat table holds per key the tails T_j = P(value >= j |
neighbours), j = 1..S-1, in the table's dtype. Random stream: per sweep
one draw of C * n_sites uniforms that fills every class's (C, n_class)
block end to end, in class order, each chain-major in its site order. A
site takes sum_j [u < T_j]. Float64 tails (the generic sampler) draw
rng.random doubles: the same values in the same order as one draw per
class would give. uint32 thresholds t = round(T * 2^31) (the glass) draw
ceil(C * n_sites / 2) words by rng.bit_generator.random_raw and split
each into two 31-bit uniforms, (w & 0xffffffff) >> 1 then (w >> 32) >> 1,
so that t = 0 never fires and t = 2^31 always does. A word serves two
compares where a double serves one, which pays on the glass's 32,768
uniforms a sweep (R = 8, L = 64); on the generic sampler's ~100 the cost
is per call, and the float draw stays the faster.

The generic sampler colours the interaction graph greedily in region order
and keys a site by its table offset plus sum_k S**k * (value of neighbour
k), its neighbours being the other inside vertices of its bonds in region
order. A row weighs each value of the site's domain by 1.0 times its bond
factors in bond order, and sums the tails from the top value down. A row
whose weights are all 0 (a neighbourhood the hard constraints forbid) holds
the uniform law over the domain, so a chain can leave it.

mc_connection_probability runs the copies of T pairs as the columns of one
state (pair t: columns t and T + t) on stream(seed, 300): one
rng.random((C, n_sites)) for a start uniform over the domains, the burn-in,
then per sample step the gap sweeps and one rng.random((T, n_bonds));
bond j of pair t is active when its uniform is below its pair coin
(percolation.pair_coin_table) at the copies' local values. The sample steps
run in chunks of at most twocopy._BLOCK_CELLS (sample, bond) cells, the
package's one cell budget: each step keeps its state and uniforms, and the
chunk's coins are read through one integer product lift @ states and
compared at once, and its bool activity rows go to
percolation.chain_components as they are, in one batch. The burn-in runs
one sweep at a time; its series holds after each sweep the pairs' mean
expected active bond count, sum_j of the pair coins at that sweep's state.
From sweep BURN_IN_MIN on, every BURN_IN_CHECK sweeps, it stops once the
integrated autocorrelation time tau of the series' later half has
converged and the sweeps done are at least TAU_SWEEPS * tau. burn_in caps
it. The burn-in keeps each sweep's state and reads the series of the kept
states in one batch, within the same cell budget, when a check or the cap
needs it; each state's sum adds its coins pairwise in the same order as
one state read alone, so the series has the same bits.

The pair count T is n_tasks when given, else pair_count(n_samples,
n_sites): about PAIR_SAMPLES samples per pair, at least PAIRS_MIN pairs,
and past that floor no more than SWEEP_CELLS (site, chain) cells in the
kernel state. Below that cap a sweep's cost is per numpy call, not per
cell, so more pairs buy fewer sample steps at the same cost per step (on
the benchmark's 3 x 2 grids, 500 samples take 16 steps of 32 pairs where
8 pairs took 63), and the batch-means SE gets T - 1 degrees of freedom.
The stream depends on T, so the default's outputs differ from those of
n_tasks=8 wherever the rule picks more pairs.
"""

from __future__ import annotations

import math

import numpy as np

from . import twocopy
from .errors import RcgibbsError, UsageError, check_cap
from .gibbs import GibbsSpec, effective_bonds
from .percolation import chain_components, chains_join, pair_coin_table
from .rng import stream

BURN_IN_MIN = 32  # the first sweep at which the burn-in may stop
BURN_IN_CHECK = 8  # sweeps between two stopping checks
TAU_SWEEPS = 20  # a stopped burn-in has run at least this many tau
PAIRS_MIN = 8  # the default pair count's floor
PAIR_SAMPLES = 16  # samples per pair the default pair count aims at
SWEEP_CELLS = 512  # (site, chain) cells of kernel state the default stays within past its floor


class HeatBath:
    """The chromatic heat-bath kernel over C chains.

    classes lists per colour class (site, nbrs, w, base): its sites (n,),
    their neighbours (d, n) (padding reads the dummy site n_sites, whose
    value is 0), and int key weights (d, n) or (d, 1) and offsets (n,).
    table holds the (S - 1, n_keys) tails, float64 probabilities or uint32
    thresholds on 31-bit uniforms (any other dtype raises ValueError);
    classes keeps the classes as int arrays, w at its (d, n) shape, for
    readers such as the exact transition check. Keys are summed in the
    narrowest int type that holds n_keys - 1; a partial sum may wrap, since
    that arithmetic is modular and the full key lies in the table.
    state keeps a class's sites in one block of rows (site i in row[i]);
    load and values read and write its int8 values in site order. Each
    class keeps its buffers and views (neighbour values, key terms with the
    offsets as the last term, keys, tails), built at full shape once, so no
    operand broadcasts. A sweep draws into uniforms, which holds every
    class's (C, n) block end to end in class order; each class reads its
    own block. Float tails draw it with one rng.random; Philox gives the
    same doubles however a draw is split, so the stream is that of one draw
    per class. uint32 thresholds copy one random_raw draw into words, a
    '<u8' buffer whose '<u4' view is uniforms, so each word's low half
    comes first on any host, and shift uniforms right by one in place.

    Both gathers of a sweep, the neighbour values and the table tails, run
    in take's mode="clip", which writes straight into the buffer; the
    default mode="raise" buffers out on every call. Clipping never acts:
    the constructor proves every neighbour in 0..n_sites and every key a
    site can reach, over values 0..S-1 at its real neighbours, inside the
    table, and load refuses values outside 0..S-1; each raises ValueError.
    What a sweep still allocates is take's intp copy of a class's narrow
    keys, 8 bytes per (site, chain): tracemalloc peaks at 128 KiB per sweep
    at C = 8 and 512 KiB at C = 32 on the L = 64 glass, against 256 KiB and
    1 MiB with buffered gathers. Keys held as intp would avoid the copy,
    but the wider key sums made a sweep slower.
    """

    def __init__(self, n_sites: int, classes, table: np.ndarray, C: int):
        if table.dtype not in (np.float64, np.uint32):
            raise ValueError("the table holds float64 tails or uint32 thresholds")
        self.table = table
        self.S = table.shape[0] + 1
        n_keys = table.shape[1]
        self.state = np.zeros((n_sites + 1, C), np.int8)
        self.classes = []
        for site, nbrs, w, base in classes:
            nbrs = np.asarray(nbrs, np.intp)
            _check_keys(nbrs, w, base, n_sites, self.S, n_keys)
            d, n = nbrs.shape
            w = np.broadcast_to(np.asarray(w, np.int64), (d, n))
            self.classes.append((np.asarray(site, np.intp), nbrs, w, np.asarray(base, np.int64)))
        self.order = np.array([i for site, *_ in self.classes for i in site], np.intp)
        self.row = np.append(np.argsort(self.order), n_sites)
        m = C * len(self.order)
        if table.dtype == np.uint32:
            # two 31-bit uniforms per raw word, low half first on every host
            self.words = np.empty(-(-m // 2), "<u8")
            self.uniforms = self.words.view("<u4")[:m]
        else:
            self.words, self.uniforms = None, np.empty(m)
        kd = next(t for t in (np.int8, np.int16, np.int32, np.int64) if n_keys <= np.iinfo(t).max + 1)
        self._work = []
        lo = 0
        for site, nbrs, w, base in self.classes:
            d, n = nbrs.shape
            # weights at the full (d, n, C) shape, so that no operand broadcasts;
            # terms[d] holds the offsets, added last as one more term
            wc = np.repeat(w.astype(kd)[:, :, None], C, axis=2)
            terms = np.empty((d + 1, n, C), kd)
            terms[d] = base.astype(kd)[:, None]
            g = np.empty((d * n, C), np.int8)
            u = self.uniforms[lo * C : (lo + n) * C].reshape(C, n)  # chain-major, as the stream fills it
            block = self.state[lo : lo + n]
            bufs = np.empty((n, C), kd), np.empty((n, C), table.dtype), np.empty((n, C), bool)
            self._work.append((block, block.view(bool), self.row[nbrs.ravel()], g, g.reshape(d, n, C), wc,
                               terms, terms[:d], u.T, *bufs))
            lo += n

    def load(self, values):
        """Set the chains to values, (n_sites, C) value indices in site order.
        A value outside 0..S-1 raises ValueError and leaves the chains."""
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() >= self.S):
            raise ValueError(f"chain values must lie in 0..{self.S - 1}")
        self.state[:-1] = values.take(self.order, axis=0)

    def values(self) -> np.ndarray:
        """The chains' value indices in site order, (n_sites, C)."""
        return self.state.take(self.row[:-1], axis=0)

    def sweeps(self, rng, n_sweeps: int):
        """Update every class in order, n_sweeps times, in place."""
        state, first, rest, words, u = self.state, self.table[0], self.table[1:], self.words, self.uniforms
        for _ in range(n_sweeps):
            if words is None:
                rng.random(out=u)
            else:
                words[...] = rng.bit_generator.random_raw(len(words))
                np.right_shift(u, 1, out=u)
            for block, hit, nbrs, g, g3, w, terms, products, uT, key, p, up in self._work:
                state.take(nbrs, axis=0, out=g, mode="clip")
                np.multiply(g3, w, out=products)
                np.add.reduce(terms, axis=0, dtype=key.dtype, out=key)
                np.less(uT, first.take(key, out=p, mode="clip"), out=hit)
                for tail in rest:
                    block += np.less(uT, tail.take(key, out=p, mode="clip"), out=up)


def _check_keys(nbrs, w, base, n_sites: int, S: int, n_keys: int):
    """Raise ValueError unless every neighbour of the class lies in
    0..n_sites and every key its sites reach, their real neighbours (those
    below n_sites) taking any values in 0..S-1, lies in 0..n_keys-1."""
    nbrs = np.asarray(nbrs)
    if nbrs.size and (nbrs.min() < 0 or nbrs.max() > n_sites):
        raise ValueError(f"neighbours must lie in 0..{n_sites}")
    w = np.asarray(w, np.int64) * (nbrs < n_sites) * (S > 1)  # padded slots read the zero row
    # one term of |w| >= n_keys spans more than the table; below that bound
    # the sums cannot overflow
    lo = hi = np.asarray(base, np.int64)
    if w.size:
        if np.abs(w).max() >= n_keys:
            raise ValueError("a key lies outside the table")
        lo = lo + (S - 1) * np.minimum(w, 0).sum(axis=0)
        hi = hi + (S - 1) * np.maximum(w, 0).sum(axis=0)
    if lo.size and (lo.min() < 0 or hi.max() >= n_keys):
        raise ValueError("a key lies outside the table")


def _tails(w: np.ndarray) -> np.ndarray:
    """(S - 1, rows) tails T_j = sum_{i >= j} w_i / sum_i w_i of (rows, S)
    weights, summed from the top value down."""
    tail = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    return (tail[:, 1:] / tail[:, :1]).T


def _generic_heat_bath(spec: GibbsSpec, bonds, C: int):
    """The generic sampler's kernel over C chains, and the tails of each
    site's uniform row over its domain. Past the "heat-bath values" or the
    "heat-bath table cells" cap it raises TooLargeError."""
    S, n = spec.alphabet.size, len(spec.region)
    pos = {v: p for p, v in enumerate(spec.region)}
    incident = [[] for _ in range(n)]
    for eb in bonds:
        inside = tuple(pos[u] for u in eb.inside)
        for p in inside:
            incident[p].append((inside, np.array([float(x) for x in eb.table])))
    nbrs = [sorted({q for inside, _ in incident[p] for q in inside} - {p}) for p in range(n)]
    offsets = np.cumsum([0] + [S ** len(nb) for nb in nbrs])
    check_cap("heat-bath values", S)
    check_cap("heat-bath table cells", offsets[-1] * (S - 1))
    allowed = spec.domain_mask()
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


def integrated_autocorr(x) -> tuple[float, bool]:
    """Integrated autocorrelation time of one series and whether Sokal's
    window m >= 6 tau closed (Madras-Sokal, J. Stat. Phys. 50, 109, 1988).
    A series shorter than 8 gives (1.0, False); a constant one (1.0, True).
    Every lag's products are summed by numpy's pairwise sum, whose order is
    fixed, not by np.dot, whose BLAS kernel and so its rounding depend on
    the CPU: tau has the same bits on every host."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 8:
        return 1.0, False
    x = x - x.mean()
    var = float(np.add.reduce(x * x)) / n
    if var == 0:
        return 1.0, True
    tau = 1.0
    converged = False
    for m in range(1, n // 2):
        rho = float(np.add.reduce(x[:-m] * x[m:])) / ((n - m) * var)
        tau += 2.0 * rho
        if m >= 6.0 * tau:
            converged = True
            break
    return max(tau, 1.0), converged


def heat_bath_chain(spec: GibbsSpec, hb: HeatBath, rng, n_sweeps: int):
    """Run n_sweeps of the kernel on hb, the chains of spec."""
    hb.sweeps(rng, n_sweeps)


def pair_count(n_samples: int, n_sites: int) -> int:
    """The default number of chain pairs for n_samples samples of a model
    on n_sites sites: max(PAIRS_MIN, min(ceil(n_samples / PAIR_SAMPLES),
    SWEEP_CELLS // (2 * n_sites)))."""
    return max(PAIRS_MIN, min(-(-n_samples // PAIR_SAMPLES), SWEEP_CELLS // (2 * max(n_sites, 1))))


def mc_connection_probability(
    spec: GibbsSpec, A, B, n_samples: int, seed: int, burn_in=300, gap=2, n_tasks=None, threads=1
) -> dict:
    """Monte Carlo estimate of the integrated connection probability.

    T pairs of chains, the columns of one kernel state (threads changes
    nothing), give ceil(n_samples / T) samples each, one every gap sweeps
    after the burn-in: a connection indicator after per-bond activity
    coins. T is n_tasks when given, else pair_count(n_samples, n_sites).
    The burn-in stops by the rule in the module docstring, at most burn_in
    sweeps; a burn_in below BURN_IN_MIN runs exactly that many. The result
    reports the samples in all ("n_samples", T * ceil(n_samples / T)), the
    pairs ("n_pairs"), the sweeps run ("burn_in"), the series' tau and
    whether the rule stopped the burn-in ("equilibrated"). The standard
    error is batch means over the pairs, whose chains are independent: the
    sample standard deviation of the per-pair means over sqrt(T). It is
    floored at 1 / N, N the samples in all, the resolution of the estimate,
    so it stays positive when every pair gives the same mean (or T is 1).
    """
    if n_samples < 1:
        raise UsageError("n_samples must be positive")
    if n_tasks is not None and n_tasks < 1:
        raise UsageError("n_tasks must be positive")
    if burn_in < 0 or gap < 0:
        raise UsageError("burn_in and gap must be nonnegative")
    S, n = spec.alphabet.size, len(spec.region)
    T = pair_count(n_samples, n) if n_tasks is None else n_tasks
    bonds = effective_bonds(spec)
    coins = pair_coin_table(spec)
    hb, start = _generic_heat_bath(spec, bonds, 2 * T)
    # bond j's coin sits at off_j + x1 * S**m + x2, x1 and x2 the copies'
    # codes on its m inside sites: rows j and n_bonds + j of lift @ state
    q = np.concatenate([np.zeros(0), *(coin.ravel() for coin in coins)]).astype(float)
    size = np.array([len(coin) for coin in coins], np.int64)[:, None]
    off = np.cumsum(size**2, axis=0) - size**2
    nb = len(bonds)
    code = np.zeros((nb, n + 1), np.int64)
    pos = {v: p for p, v in enumerate(spec.region)}
    for j, eb in enumerate(bonds):
        for k, u in enumerate(eb.inside):
            code[j, hb.row[pos[u]]] = S ** (len(eb.inside) - 1 - k)
    lift = np.vstack((size * code, code))

    def coins_at(x):  # each pair's coins, (..., n_bonds, T), at x = lift @ state(s)
        return q[off + x[..., :nb, :T] + x[..., nb:, T:]]

    per_task = -(-n_samples // T)
    # the kept states of a burn-in batch or a sample chunk, at most K of
    # them, so that their coins stay within the cell budget; a burn-in batch
    # ends at a stopping check, at the cap or when the buffer is full
    budget = max(1, twocopy._BLOCK_CELLS // (T * max(nb, 1)))
    K = min(budget, max(per_task, min(burn_in, BURN_IN_MIN)))
    states = np.empty((K, n + 1, 2 * T), np.int8)

    rng = stream(seed, 300)
    hb.load((rng.random((2 * T, n)).T < start[:, :, None]).sum(axis=0))
    series, equilibrated, b = [], False, 0
    for k in range(1, burn_in + 1):
        heat_bath_chain(spec, hb, rng, 1)
        states[b] = hb.state
        b += 1
        check = k >= BURN_IN_MIN and k % BURN_IN_CHECK == 0
        if check or b == K or k == burn_in:
            # each row's sum adds its (n_bonds, T) coins pairwise, as one state's .sum() does
            series += (coins_at(lift @ states[:b]).reshape(b, nb * T).sum(axis=1) / T).tolist()
            b = 0
        if check:
            tau, converged = integrated_autocorr(series[k // 2 :])
            if converged and k >= TAU_SWEEPS * tau:
                equilibrated = True
                break
    tau, _ = integrated_autocorr(series[len(series) // 2 :])
    # the sample steps in chunks of K: each step's state and coin uniforms
    # are kept, and the chunk's coins are read and compared, and its
    # activity rows labelled, at once, so memory stays within the budget
    K = min(K, per_task)
    u = np.empty((K, T, nb))
    active = np.empty((K, T, nb), bool)
    hits = np.zeros(T, np.int64)
    for lo in range(0, per_task, K):
        m = min(K, per_task - lo)
        for k in range(m):
            heat_bath_chain(spec, hb, rng, gap)
            states[k] = hb.state
            rng.random(out=u[k])
        np.less(u[:m], coins_at(lift @ states[:m]).transpose(0, 2, 1), out=active[:m])
        labels = chain_components(spec.graph.n_vertices, [eb.vertices for eb in bonds], active[:m].reshape(m * T, nb))
        hits += chains_join(labels, A, B).reshape(m, T).sum(axis=0)
    total = per_task * T
    sd = float(np.std(hits / per_task, ddof=1)) if T > 1 else 0.0
    return {
        "estimate": int(hits.sum()) / total,
        "stderr": max(sd / math.sqrt(T), 1 / total),
        "n_samples": total,
        "n_pairs": T,
        "seed": seed,
        "burn_in": len(series),
        "tau": tau,
        "equilibrated": equilibrated,
    }
