"""Active-bond clusters, connectivity events, integrated activity law.

The integrated law mixes, over the two-copy overlap distribution, the
activity pattern of the slice representation. Its key computational fact:
conditionally on one copy's configuration inside a slice, the bond
activities are independent coin flips, so patterns can be accumulated
without enumerating bond assignments. Under the default nested-level base
a bond's coin is a function of the two copies' local values on that bond
alone; pair_coin_table computes it once per spec, and every exact query
and the Monte Carlo sampler read that one table.

One array kernel, _pattern_blocks, computes the law for integrated_rc,
sigma_connection_profile and slice_connection_prob. It reads the two-copy
pairs from twocopy.PairWalk, a pair taking a block cell per effective bond,
groups a slice's pairs by coin vector, and expands each group over its live
bonds only (0 < q < 1). Every sum is sequential: a group sums its pairs in
the walk's order, a slice a mask's leaves in (group, active-first
depth-first) order, and the law a mask's slice weights in slice order.
Masks keep the order of their first nonzero leaf, the order in which float
sums over a pattern dict add. Floats and exact specs run the same code, on
float64 and on object arrays of Python ints: an exact spec's weights are
integers over one denominator (see PairWalk), and so are its coins, so the
kernel runs no Fraction arithmetic and each caller forms a Fraction once
per output value, from a ratio of two ints of one scale. Patterns are int64
bitmasks, so a spec with more than 62 effective bonds raises TooLargeError.

Connectivity has one labeller, edge_components (the only scipy
connected_components call); chain_components labels the active chains of
a batch of masks in one call to it (the batch form of Hoshen-Kopelman
labelling). chains_join is the one A<->B query on its labels, and
joined_weight adds the weights of the joined masks in the given order.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TooLargeError, ZeroSliceError
from .gibbs import GibbsSpec, effective_bonds, local_index, product_outcomes, product_positions
from .lattice import ball, boundary_vertices
from .rcr import RcrBase, assignment_measure, bond_level_system, monotone_probabilities
from .twocopy import PairWalk, _runs, _scaled


def activity_pattern(base: RcrBase, assignment) -> int:
    """Bitmask of active bonds for a full assignment of subset indices."""
    mask = 0
    for j, (bb, a) in enumerate(zip(base.bonds, assignment)):
        if bb.subsets[a] != bb.full_mask:
            mask |= 1 << j
    return mask


def _graph(rows, cols, n: int):
    """Adjacency of the bonds rows -> cols on n nodes, built directly as the
    float CSR matrix that scipy.sparse.csgraph takes without converting."""
    from scipy.sparse import csr_matrix

    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return csr_matrix((np.ones(len(rows)), cols[order].astype(np.int32), indptr), shape=(n, n))


def edge_components(n: int, a, b) -> np.ndarray:
    """Component labels of the graph on nodes 0..n-1 with edges a[i] - b[i],
    and -1 on every node that no edge touches."""
    # imported on first use: csgraph's extension modules would add about
    # 1 MB of resident memory to every process that imports this module
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(_graph(a, b, n), directed=False)
    covered = np.zeros(n, bool)
    covered[a] = covered[b] = True
    return np.where(covered, labels, -1)


def chain_components(n_vertices: int, bond_vertices, masks) -> np.ndarray:
    """Chain labels of K activity masks, as a (K, n_vertices) int array.

    Bit j of a mask marks bond j active; masks are Python ints of any width
    below 2**len(bond_vertices). Two active bonds belong to one chain when
    they share a vertex, and row k gives every vertex covered by mask k's
    active bonds the label of its chain, -1 to a vertex no active bond
    covers. Labels are unique across rows. All masks are labelled by one
    edge_components call on the block-diagonal graph that joins each active
    bond's first vertex to its others, and a one-vertex bond's vertex to
    itself.
    """
    masks = list(masks)
    K, n = len(masks), n_vertices
    width = (len(bond_vertices) + 7) // 8
    raw = np.frombuffer(b"".join(int(m).to_bytes(width, "little") for m in masks), np.uint8)
    active = np.unpackbits(raw, bitorder="little").reshape(K, 8 * width).view(bool)
    star = np.array([(j, vs[0], u) for j, vs in enumerate(bond_vertices) for u in vs[1:] or vs], np.int64)
    star = star.reshape(-1, 3)  # (0, 3) for a model without bonds
    k, e = np.nonzero(active[:, star[:, 0]])
    return edge_components(K * n, k * n + star[e, 1], k * n + star[e, 2]).reshape(K, n)


def chains_join(labels: np.ndarray, A, B) -> np.ndarray:
    """Per row of chain_components labels: whether one chain covers a vertex
    of A and a vertex of B. A chain needs an active bond, so a shared vertex
    of A and B that no active bond covers joins nothing. Raises ValueError
    on a vertex outside the rows."""
    n = labels.shape[1]
    a, b = (np.array(list(R), dtype=np.int64) for R in (A, B))
    for R in (a, b):
        if R.size and (R.min() < 0 or R.max() >= n):
            raise ValueError(f"vertex {R[(R < 0) | (R >= n)][0]} is outside 0..{n - 1}")
    on_b = np.zeros(int(labels.max(initial=-1)) + 2, bool)
    on_b[labels[:, b]] = True
    on_b[-1] = False  # the slot that label -1 indexes
    return on_b[labels[:, a]].any(axis=1)


def joined_weight(n_vertices: int, bond_vertices, masks, weights, A, B):
    """Sum of the weights whose masks have an active chain joining A and B,
    the distinct masks labelled in one batch. It adds them one by one in
    the given order from the int 0, so floats round as a loop does."""
    masks = list(masks)
    distinct = list(dict.fromkeys(masks))
    labels = chain_components(n_vertices, bond_vertices, distinct)
    joined = dict(zip(distinct, chains_join(labels, A, B).tolist()))
    acc = 0
    for mask, w in zip(masks, weights):
        if joined[mask]:
            acc += w
    return acc


def regions_connected(n_vertices: int, bond_vertices, active_mask: int, A, B) -> bool:
    """True when an active chain of one mask touches both vertex sets.

    Requires at least one active bond meeting each side; overlapping
    regions are not automatically connected.
    """
    return bool(chains_join(chain_components(n_vertices, bond_vertices, [active_mask]), A, B)[0])


def base_connection_probability(
    spec: GibbsSpec,
    base: RcrBase,
    A,
    B,
    max_states: int = 1 << 16,
    max_assignments: int = 10**7,
):
    """Probability of the active-chain connection event under the bond
    marginal of the given base (spins summed out, counts exact)."""
    bond_vertices = tuple(bb.vertices for bb in base.bonds)
    masks = []
    weights = []
    den = 0
    for assign, nu, n in assignment_measure(spec, base, max_states, max_assignments):
        if n == 0:
            continue
        w = nu * n
        den += w
        masks.append(activity_pattern(base, assign))
        weights.append(w)
    if den == 0:
        raise ZeroSliceError("representation carries no compatible configuration")
    return joined_weight(base.n_vertices, bond_vertices, masks, weights, A, B) / den


@dataclass(eq=False)
class IntegratedRC:
    """Distribution of the active-bond pattern, integrated over overlaps.

    patterns maps a bond bitmask (bit j = effective bond j active) to its
    probability. bond_vertices keeps the full vertex set per bond for
    connectivity queries.
    """

    n_vertices: int
    bond_vertices: tuple[tuple[int, ...], ...]
    patterns: dict
    exact: bool

    def total(self):
        return sum(self.patterns.values())

    def connection_probability(self, A, B):
        return joined_weight(self.n_vertices, self.bond_vertices, self.patterns, self.patterns.values(), A, B)

    def conditional_active(self, j: int):
        """Per conditioning pattern on the other bonds: P(bond j active | rest).

        Only conditioning events of positive probability appear.
        """
        groups: dict[int, list] = {}
        for mask, p in self.patterns.items():
            rest = mask & ~(1 << j)
            tot_act = groups.setdefault(rest, [0, 0])
            tot_act[0] += p
            if (mask >> j) & 1:
                tot_act[1] += p
        return {rest: act / tot for rest, (tot, act) in groups.items() if tot > 0}


def domination_probability(irc: IntegratedRC, bond_index: int):
    """Supremum over positive-probability exterior patterns of the
    conditional activity of one bond; 0 when nothing conditions it."""
    cond = irc.conditional_active(bond_index)
    return max(cond.values(), default=0)


# ---------------------------------------------------------------------------
# The pair-coin kernel and the pattern kernel


def pair_coin_table(spec: GibbsSpec, sigma=None):
    """Activity coin of the nested-level base for every pair of copies.

    Returns one table per effective bond, in effective_bonds order:
    table[x1][x2] is the probability that the bond is active given the
    full-alphabet local indices x1 and x2 of the two copies on its inside
    vertices. The coin is the one monotone_base gives the bond in the slice
    of the local overlap sigma = x1 + x2: the admissible local values y
    carry the symmetrized factors F(y) = f(y) f(sigma - y), and with x1 in
    level i of their nested levels the coin is the active weight over the
    support weight of the subsets containing x1, both summed in level order
    as BondBase sums them. Pairs outside the domains or of factor zero get
    0. Entries are Fractions for exact specs, int factors included. Given a
    sigma (aligned with the region), each bond gets the coins of the local
    sum sigma gives its inside vertices only, and 0 elsewhere.
    """
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
            coin = {f: sum(probs[i:-1]) / sum(probs[i:]) for i, f in enumerate(levels) if f != 0}
            for a, b, f in zip(loc1, loc2, factors):
                if f != 0:
                    q[a][b] = coin[f]
        tables.append(q)
    return tables


_MASK_BONDS = 62  # patterns are int64 bitmasks, bit j for effective bond j


def _first_seen(*cols):
    """Number the distinct rows of equal-length integer columns in order of
    first appearance; returns each row's number and each number's first row."""
    code = np.zeros(len(cols[0]), dtype=np.int64)
    for col in cols if len(code) else ():
        radix = int(col.max()) + 1
        if (int(code.max()) + 1) * radix > 1 << 62:
            # dense ranks keep the order of the codes and of the column
            code = np.unique(code, return_inverse=True)[1]
            col = np.unique(col, return_inverse=True)[1]
            radix = int(col.max()) + 1
        code = code * radix + col
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _expand(weights, q, q_off, live, base):
    """Leaves (group, mask, weight) of each group's activity tree, in
    (group, active-first depth-first) order: group g's live bond j splits a
    leaf of weight w into w * q[g, j] with bit j set and w * q_off[g, j]
    without it, bonds in order; other bonds keep their bit from base."""
    grp = np.arange(len(weights))
    mask = base
    val = weights
    for j in range(live.shape[1]):
        split = live[grp, j]
        if not split.any():
            continue
        reps = 1 + split
        at = (np.cumsum(reps) - reps)[split]
        w, q_j, off_j = val[split], q[grp[split], j], q_off[grp[split], j]
        take = np.repeat(np.arange(len(grp)), reps)
        grp, mask, val = grp[take], mask[take], val[take]
        val[at] = w * q_j
        val[at + 1] = w * off_j
        mask[at] |= 1 << j
    return grp, mask, val


def _pattern_blocks(spec: GibbsSpec, sigma=None):
    """The integrated law's pattern terms, per block of the PairWalk (its
    leaves cut again at twocopy._BLOCK_CELLS), in the pair and summation
    orders of the module docstring.

    A slice's pairs with equal coin vectors form a group, numbered by first
    pair. Each live bond (0 < q < 1) of a group splits a leaf of weight w
    into w * q and w * (1 - q), bonds in order; a coin of 1 sets the bond's
    bit, a coin of 0 clears it, and zero leaves are dropped.

    On an exact spec the pair weights are ints over D**2 (PairWalk), and
    bond j's coins are ints over E_j, the lcm of the denominators of its
    distinct coins: q becomes the pair (a, E_j - a). A group's weight is
    multiplied by E_j for each bond whose coin is 0 or 1, so every leaf and
    record is an int over one scale, D**2 times the product of the E_j, and
    the totals are brought to that scale too. Float coins stay (q, 1 - q)
    with the float steps above, and the scale is 1.

    Yields (sigmas, totals, rec_slice, rec_mask, rec_val) per block: its
    slices of positive total, their totals, and their (mask, weight)
    records, slice by slice and each slice's masks in order of first leaf;
    rec_slice indexes sigmas. Totals and records share one scale, so a
    ratio of them is a probability. sigma limits the walk to that slice.
    Every coin comes from pair_coin_table.
    """
    bonds = effective_bonds(spec)
    n_bonds = len(bonds)
    if n_bonds > _MASK_BONDS:
        raise TooLargeError(f"{n_bonds} bonds exceeds the {_MASK_BONDS}-bond pattern mask")
    exact = spec.exact
    dtype = object if exact else float
    walk = PairWalk(spec, sigma)
    S = spec.alphabet.size
    pos = {v: p for p, v in enumerate(spec.region)}
    digits = product_positions(np.arange(len(walk.weights)), [len(i) for i in walk.indices])
    alpha = [np.asarray(i)[k] for i, k in zip(walk.indices, digits)]  # alphabet index per configuration
    local = np.zeros((n_bonds, len(walk.weights)), dtype=np.int64)
    for j, eb in enumerate(bonds):
        for v in eb.inside:
            local[j] = local[j] * S + alpha[pos[v]]
    seen = [{} for _ in bonds]  # per bond: coin value -> coin id, in first-seen order
    coin_ids = [
        np.array([[ids.setdefault(q, len(ids)) for q in row] for row in table]).reshape(len(table), -1)
        for ids, table in zip(seen, pair_coin_table(spec, sigma))
    ]
    # per bond: its coins in first-seen order as (q, 1 - q), over the coin scale E_j
    if exact:
        scaled = [_scaled(list(ids)) for ids in seen]
        coins = [q for q, _ in scaled]
        scales = np.array([E for _, E in scaled], dtype=object)
    else:
        coins = [np.array(list(ids), dtype=float) for ids in seen]
        scales = np.ones(n_bonds)
    coins = [(q, E - q) for q, E in zip(coins, scales)]
    unit = scales.prod()
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
        g_off = np.empty(gids.shape, dtype=dtype)
        for j, (q, off) in enumerate(coins):
            gq[:, j] = q[gids[:, j]]
            g_off[:, j] = off[gids[:, j]]
        live = (gq != 0) & (g_off != 0)
        base_mask = ((gq != 0) & ~live) @ bits  # bonds whose coin is 1
        gw = gw * np.where(live, 1, scales).prod(axis=1)  # bonds that do not split keep the scale
        n_leaves = np.zeros(len(totals), dtype=np.int64)
        np.add.at(n_leaves, grow, np.left_shift(1, live.sum(axis=1)))

        for a, b in _runs(n_leaves[positive]):
            rows = positive[a:b]
            ga, gb = np.searchsorted(grow, [rows[0], rows[-1] + 1])
            grp, mask, val = _expand(gw[ga:gb], gq[ga:gb], g_off[ga:gb], live[ga:gb], base_mask[ga:gb])
            nz = val != 0
            lrow, mask, val = grow[ga:gb][grp[nz]], mask[nz], val[nz]
            labels, first = _first_seen(lrow, mask)
            rec_val = np.zeros(len(first), dtype=dtype)
            np.add.at(rec_val, labels, val)
            yield (sigmas[a:b], (totals[rows] * unit).tolist(), np.searchsorted(rows, lrow[first]),
                   mask[first], rec_val)


def _slice_patterns(spec: GibbsSpec, sigma):
    """(total, {mask: weight}) of one overlap slice, unnormalized and of one
    scale, from the pattern blocks; (0, {}) for a slice of zero weight,
    ZeroSliceError for one some vertex cannot reach."""
    for _, totals, _, mask, val in _pattern_blocks(spec, sigma):
        return totals[0], dict(zip(mask.tolist(), val.tolist()))
    return 0, {}


def integrated_rc(spec: GibbsSpec, max_total: int = 1 << 20, max_bonds: int = 20) -> IntegratedRC:
    """Integrated activity-pattern distribution over all overlap slices.

    Each slice carries the nested-level (monotone) base, which is symmetric
    under slice reflection by construction; its coins are read from
    pair_coin_table, the one coin source. Every spec takes the same route
    through the pattern blocks, whatever its size; max_bonds and max_total
    cap the work. A mask's probability sums its slice weights in slice
    order, and masks keep the order of their first slice record; it is
    divided by the total once, into a Fraction on an exact spec.
    """
    bonds = effective_bonds(spec)
    n_bonds = len(bonds)
    if n_bonds > max_bonds:
        raise TooLargeError(f"{n_bonds} bonds exceeds pattern cap {max_bonds}")
    nst = spec.n_states()
    if nst * nst > max_total:
        raise TooLargeError(f"{nst}^2 two-copy states exceeds cap {max_total}")
    sums = {}
    grand = 0
    for _, totals, _, rec_mask, rec_val in _pattern_blocks(spec):
        for total in totals:
            grand += total
        for m, v in zip(rec_mask.tolist(), rec_val.tolist()):
            sums[m] = sums.get(m, 0) + v
    if grand == 0:
        raise ZeroSliceError("zero measure")
    div = Fraction if spec.exact else operator.truediv
    patterns = {m: div(w, grand) for m, w in sums.items()}
    return IntegratedRC(
        spec.graph.n_vertices,
        tuple(eb.vertices for eb in bonds),
        patterns,
        spec.exact,
    )


def slice_connection_prob(spec: GibbsSpec, sigma, A, B):
    """Probability of the active connection event inside one overlap slice."""
    total, pats = _slice_patterns(spec, sigma)
    if total == 0:
        raise ZeroSliceError("overlap configuration has probability zero")
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    div = Fraction if spec.exact else operator.truediv
    return div(joined_weight(spec.graph.n_vertices, bond_vertices, pats, pats.values(), A, B), total)


def sigma_connection_profile(spec: GibbsSpec, A, B, max_total: int = 1 << 20):
    """Per-slice connection probabilities with their overlap weights.

    Returns (rows, pbar) where rows list (sigma, rho, conn prob given
    sigma) over slices of positive weight and pbar is the integrated
    connection probability. Each value is one division, into a Fraction on
    an exact spec.
    """
    nst = spec.n_states()
    if nst * nst > max_total:
        raise TooLargeError(f"{nst}^2 two-copy states exceeds cap {max_total}")
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    div = Fraction if spec.exact else operator.truediv
    blocks = list(_pattern_blocks(spec))
    distinct = np.unique(np.concatenate([np.zeros(0, np.int64), *(b[3] for b in blocks)]))
    labels = chain_components(spec.graph.n_vertices, bond_vertices, distinct.tolist())
    joined = chains_join(labels, A, B)
    rows = []
    grand = 0
    acc = 0
    for sigmas, totals, rec_slice, rec_mask, rec_val in blocks:
        conn = joined[np.searchsorted(distinct, rec_mask)]
        num = np.zeros(len(sigmas), dtype=rec_val.dtype)
        np.add.at(num, rec_slice[conn], rec_val[conn])
        for sigma, total, n in zip(sigmas, totals, num.tolist()):
            grand += total
            rows.append((sigma, total, div(n, total)))
            acc += n
    if grand == 0:
        raise ZeroSliceError("zero measure")
    rows = [(s, div(t, grand), p) for s, t, p in rows]
    return rows, div(acc, grand)


# ---------------------------------------------------------------------------
# Finite-volume extremality diagnostic


def extremality_diagnostic(
    specs,
    A_region,
    epsilon: float,
    radii=None,
    max_total: int = 1 << 20,
):
    """Tabulate connection decay from a region to nested shells.

    For each spec in an increasing family and each radius, computes the
    integrated probability of connecting A_region to the shell boundary
    and the overlap weight of slices whose connection probability is at
    most epsilon. Reports whether each finite-volume criterion holds. This
    is evidence at finite scales, not a proof of extremality.
    """
    A = frozenset(A_region)
    rows = []
    for spec in specs:
        graph = spec.graph
        rset = set(spec.region)
        if radii is None:
            rr = range(1, 9)
        else:
            rr = radii
        for r in rr:
            lam1 = frozenset(ball(graph, A, r)) & rset
            dlam1 = boundary_vertices(graph, lam1)
            if not dlam1:
                continue
            profile, pbar = sigma_connection_profile(spec, A, dlam1, max_total=max_total)
            p_eps = sum(rho for _, rho, p in profile if p <= epsilon)
            rows.append(
                {
                    "volume": len(spec.region),
                    "radius": r,
                    "shell_size": len(dlam1),
                    "connection_prob": float(pbar),
                    "condition_a": bool(pbar <= epsilon),
                    "p_eps": float(p_eps),
                    "condition_b": bool(p_eps >= 1 - epsilon),
                }
            )
    return rows
