"""Active-bond clusters, connectivity events, integrated activity law.

The integrated law mixes, over the two-copy overlap distribution, the
activity pattern of the slice representation. Its key computational fact:
conditionally on one copy's configuration inside a slice, the bond
activities are independent coin flips, so patterns can be accumulated
without enumerating bond assignments. Under the default nested-level base
a bond's coin is a function of the two copies' local values on that bond
alone; pair_coin_table computes it once per spec, and every exact query
and the Monte Carlo sampler read that one table.

One array kernel, _pattern_blocks, computes the law for integrated_rc, and
through one per-slice reduction, _slice_connections, for
sigma_connection_profile (which alone forms sigma tuples) and
slice_connection_prob. It reads
the pairs of twocopy.PairWalk, a pair taking a block cell per effective
bond, gathers all bonds' coin ids at once, groups a slice's pairs by coin
vector, and expands each group over its live bonds only (0 < q < 1). Every
sum is sequential: a group sums its pairs in the walk's order, a slice a
mask's leaves in (group, active-first depth-first) order, and the law a
mask's slice weights in slice order. Masks keep the order of their first
nonzero leaf, the order in which float sums over a pattern dict add. Floats
and exact specs run the same code on lanes of machine words (twocopy): one
float64 lane, or int64 residues of the exact values. An exact spec's weights
are integers over one denominator (see PairWalk), and so are its coins, all
at most a bound known before the walk, so the kernel runs no Fraction or
Python-int arithmetic; each caller sums in lanes, rebuilds each output int
once (Garner) and forms a Fraction once per output value, from a ratio of
two ints of one scale. Patterns are int64 bitmasks, so a spec with more than 62
effective bonds raises TooLargeError; so does a full walk past 2**20 pairs,
or a call that would expand more than 2**22 leaves (the caps in
errors.CAPS).

Connectivity has one labeller, edge_components (the only scipy
connected_components call), and one way in: chain_components labels the
active chains of a batch of bool activity rows in one call to it (the
batch form of Hoshen-Kopelman labelling), and chains_join is the one
A<->B query on its labels. activity_rows is the one place where int masks
become rows, and joined asks the query of a list of int masks, labelling
each distinct mask once, in batches of the cell budget.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RcgibbsError, ZeroSliceError, check_cap
from .gibbs import GibbsSpec, effective_bonds, product_outcomes, product_positions
from .lattice import ball, boundary_vertices
from .rcr import RcrBase, assignment_measure
from . import twocopy
from .twocopy import PairWalk, _runs, _scaled, _slice_sums


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


def activity_rows(masks, n_bonds: int) -> np.ndarray:
    """(K, n_bonds) bool activity rows of K masks below 2**n_bonds, ints or
    an int array: column j of a row is bit j of its mask. Below 64 bonds the
    masks are read as little-endian int64 bytes; wider ones (the rcr bases)
    go through Python ints."""
    width = (n_bonds + 7) // 8
    if n_bonds < 64:
        raw = np.ascontiguousarray(masks, dtype="<i8").reshape(-1, 1).view(np.uint8)[:, :width]
    else:
        masks = list(masks)
        raw = np.frombuffer(b"".join(int(m).to_bytes(width, "little") for m in masks), np.uint8)
        raw = raw.reshape(len(masks), width)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n_bonds].view(bool)


def chain_components(n_vertices: int, bond_vertices, active) -> np.ndarray:
    """Chain labels of K activity rows, as a (K, n_vertices) int array.

    active is a (K, len(bond_vertices)) bool array whose column j marks bond
    j active (activity_rows makes it from int masks). Two active bonds
    belong to one chain when they share a vertex, and row k gives every
    vertex covered by row k's active bonds the label of its chain, -1 to a
    vertex no active bond covers. Labels are unique across rows. All rows
    are labelled by one edge_components call on the block-diagonal graph
    that joins each active bond's first vertex to its others, and a
    one-vertex bond's vertex to itself.
    """
    n = n_vertices
    active = np.asarray(active, bool).reshape(len(active), len(bond_vertices))
    star = np.array([(j, vs[0], u) for j, vs in enumerate(bond_vertices) for u in vs[1:] or vs], np.int64)
    star = star.reshape(-1, 3)  # (0, 3) for a model without bonds
    k, e = np.nonzero(active[:, star[:, 0]])
    return edge_components(len(active) * n, k * n + star[e, 1], k * n + star[e, 2]).reshape(len(active), n)


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


def joined(n_vertices: int, bond_vertices, masks, A, B) -> np.ndarray:
    """Per mask of a list or array of int masks: whether an active chain
    joins A and B. The distinct masks are labelled in batches of at most
    twocopy._BLOCK_CELLS // n_bonds masks, read at call time."""
    values = np.asarray(masks)
    if values.dtype.kind == "f":  # no masks, or masks past 2**63 among smaller ones
        values = np.asarray(masks, dtype=object)
    distinct, inverse = np.unique(values, return_inverse=True)
    nb = len(bond_vertices)
    step = max(1, twocopy._BLOCK_CELLS // max(1, nb))
    hits = [  # one batch even without masks, so that A and B are always checked
        chains_join(chain_components(n_vertices, bond_vertices, activity_rows(distinct[lo : lo + step], nb)), A, B)
        for lo in range(0, max(1, len(distinct)), step)
    ]
    return np.concatenate(hits)[inverse]


def regions_connected(n_vertices: int, bond_vertices, active_mask: int, A, B) -> bool:
    """True when an active chain of one mask touches both vertex sets.

    Requires at least one active bond meeting each side; overlapping
    regions are not automatically connected.
    """
    return bool(joined(n_vertices, bond_vertices, [active_mask], A, B)[0])


def base_connection_probability(spec: GibbsSpec, base: RcrBase, A, B):
    """Probability of the active-chain connection event under the bond
    marginal of the given base (spins summed out, counts exact)."""
    bond_vertices = tuple(bb.vertices for bb in base.bonds)
    masks = []
    weights = []
    den = 0
    for assign, nu, n in assignment_measure(spec, base):
        if n == 0:
            continue
        w = nu * n
        den += w
        masks.append(activity_pattern(base, assign))
        weights.append(w)
    if den == 0:
        raise ZeroSliceError("representation carries no compatible configuration")
    hits = joined(base.n_vertices, bond_vertices, masks, A, B)
    return sum(w for w, j in zip(weights, hits) if j) / den


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
        """Sum of the probabilities of the masks whose active chains join A
        and B, added in pattern order from the int 0."""
        hits = joined(self.n_vertices, self.bond_vertices, list(self.patterns), A, B)
        return sum(p for p, j in zip(self.patterns.values(), hits) if j)

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


def pair_coin_table(spec: GibbsSpec):
    """Activity coin of the nested-level base for every pair of copies.

    Returns one (S**m, S**m) array per effective bond, in effective_bonds
    order, m the bond's inside vertices: table[x1, x2] is the probability
    that the bond is active given the full-alphabet local indices x1 and x2
    of the two copies on its inside vertices. The coin is the one
    monotone_base gives the bond in the slice of the local overlap
    sigma = x1 + x2: the admissible local values y carry the symmetrized
    factors F(y) = f(y) f(sigma - y), whose distinct values are the levels
    L_0 > ... > L_{k-1} with probabilities p_j = (L_j - L_{j+1}) / L_0
    (L_k = 0), and with x1 in level i the coin is the left-to-right sum
    p_i + ... + p_{k-2} over that sum plus p_{k-1}, the float steps of
    summing the active and the support weight in level order as BondBase
    does. Pairs outside the domains or of factor zero get 0. Entries are
    float64, or Fractions in an object array for exact specs, int factors
    included. One table per spec serves every slice: a slice's pairs
    (twocopy.make_slice gives their admissible values) index only entries
    of their own local sums. A float coin whose support underflows, at any
    local sum, raises RcgibbsError.

    The bonds of one inside size are computed together: every pair of
    allowed local indices is keyed by (bond, local sum), sorted by key and
    then by descending factor, and each slice's coins are summed over its
    levels one level offset at a time. An exact spec's factors are ints
    over one scale (twocopy._scaled), and so are its levels and the
    differences L_j - L_{j+1}: the division by L_0 cancels in the coin, so
    each coin is one Fraction of two int sums.
    """
    S = spec.alphabet.size
    exact = spec.exact
    dtype = object if exact else float
    zero = Fraction(0) if exact else 0.0
    bonds = effective_bonds(spec)
    pos = {v: p for p, v in enumerate(spec.region)}
    values = np.array(spec.alphabet.values)
    sums, sum_id = np.unique(values[:, None] + values, return_inverse=True)
    sum_id = sum_id.reshape(S, S)
    allowed = spec.domain_mask()
    groups: dict[int, list[int]] = {}
    for j, eb in enumerate(bonds):
        groups.setdefault(len(eb.inside), []).append(j)
    tables = [None] * len(bonds)
    for m, js in groups.items():
        n_local, n_sums = S**m, len(sums) ** m
        radix = len(sums) ** np.arange(m - 1, -1, -1)
        digits = np.arange(n_local)[:, None] // S ** np.arange(m - 1, -1, -1) % S  # (S**m, m)
        inside = np.array([[pos[v] for v in bonds[j].inside] for j in js], np.intp).reshape(len(js), m)
        ok = allowed[inside[:, None, :], digits].all(axis=2)  # (bonds, S**m)
        b, x1, x2 = np.nonzero(ok[:, :, None] & ok[:, None, :])
        key = b * n_sums + sum_id[digits[x1], digits[x2]] @ radix
        if exact:  # the group's factors as ints over one scale
            f = np.array(_scaled([Fraction(x) for j in js for x in bonds[j].table])[0], dtype=object)
            f = f.reshape(len(js), -1)
        else:
            f = np.array([[float(x) for x in bonds[j].table] for j in js])
        f = f[b, x1] * f[b, x2]
        order = np.lexsort((-f, key))  # by key, then by descending factor
        b, x1, x2, key, f = (a[order] for a in (b, x1, x2, key, f))
        new_slice = np.ones(len(key), bool)
        new_slice[1:] = key[1:] != key[:-1]
        new_level = new_slice.copy()
        new_level[1:] |= f[1:] != f[:-1]
        level = np.cumsum(new_level) - 1  # each pair's level
        L = f[new_level]
        first = np.flatnonzero(new_slice[new_level])  # each slice's top level
        k = np.diff(np.append(first, len(L)))  # levels per slice
        sl = np.repeat(np.arange(len(first)), k)
        r = np.arange(len(L)) - first[sl]  # a level's place in its slice
        nxt = np.zeros(len(L), dtype)
        nxt[:-1] = L[1:]
        nxt[r == k[sl] - 1] = 0
        p = L - nxt
        if not exact:  # exact coins are ratios of ints, in which the top level cancels
            top = L[first[sl]]
            p = p / np.where(top > 0, top, 1)  # a slice without a positive level gets no coin
        num = np.zeros(len(L), dtype)
        for t in range(int(k.max(initial=1)) - 1):
            at = np.flatnonzero(r + t <= k[sl] - 2)
            num[at] += p[at + t]
        den = num + p[first[sl] + k[sl] - 1]
        live = np.flatnonzero(L > 0)
        if not exact and (den[live] == 0).any():  # a float level ratio underflowed to 0
            raise RcgibbsError("activity coin underflow; rescale couplings")
        coin = np.full(len(L), zero, dtype)
        if exact:
            coin[live] = [Fraction(a, c) for a, c in zip(num[live].tolist(), den[live].tolist())]
        else:
            coin[live] = num[live] / den[live]
        out = np.full((len(js), n_local, n_local), zero, dtype)
        out[b, x1, x2] = coin[level]
        for i, j in enumerate(js):
            tables[j] = out[i]
    return tables


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


def _expand(mul, weights, coins, q, q_off, live, base):
    """Leaves (group, mask, weight) of each group's activity tree, in
    (group, active-first depth-first) order: group g's live bond j splits a
    leaf of weight w into mul(w, q[:, c]) with bit j set and
    mul(w, q_off[:, c]) without it, c = coins[g, j], bonds in order; other
    bonds keep their bit from base. Weights and coins are in lanes
    (twocopy), one column per group or leaf and per coin."""
    grp = np.arange(weights.shape[1])
    mask = base
    val = weights
    for j in range(live.shape[1]):
        split = live[grp, j]
        if not split.any():
            continue
        reps = 1 + split
        at = (np.cumsum(reps) - reps)[split]
        w, c = val.compress(split, axis=1), coins[grp[split], j]
        take = np.repeat(np.arange(len(grp)), reps)
        grp, mask, val = grp[take], mask[take], val.take(take, axis=1)
        val[:, at] = mul(w, q.take(c, axis=1))
        val[:, at + 1] = mul(w, q_off.take(c, axis=1))
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

    A bond's coins are numbered by first appearance, and the flattened id
    tables lie end to end in cat, bond j's from offset_j. With lift[j, c] =
    local[j, c] * S**m_j + offset_j, a block's ids are one bond-major gather
    cat[lift[:, c1] + local[:, c2]], and its groups' q, 1 - q, live and one
    flags one take each from all bonds' coins laid end to end.

    On an exact spec the pair weights are ints over D**2 (PairWalk), and
    bond j's coins are ints over E_j, the lcm of the denominators of its
    distinct coins: q becomes the pair (a, E_j - a). A group's weight is
    multiplied by E_j for each bond whose coin is 0 or 1, so every leaf and
    record is an int over one scale, D**2 times the product of the E_j, and
    the totals are brought to that scale too. All of them are at most the
    walk's total**2 times that product, so they run in the walk's residue
    lanes for that bound (PairWalk.lanes), int64 throughout. Float coins
    stay (q, 1 - q) with the float steps above in one float64 lane, and the
    scale is 1: no weight is scaled.

    Returns (lanes, blocks). blocks yields (slice_ids, totals, rec_slice,
    rec_mask, rec_val) per block: its slices of positive total (ids in
    twocopy._slice_sums), their totals and (mask, weight) records, slice by
    slice and each slice's masks in order of first leaf; rec_slice indexes
    slice_ids, and totals and rec_val are in lanes. Totals and records share
    one scale, so a ratio of them is a probability. sigma limits the walk to
    that slice (twocopy.make_slice). Every coin is read from
    pair_coin_table.

    The caps are checked before the work they bound: the bonds (bit j of a
    pattern is bond j) and a full walk's pairs before any configuration is
    weighed, and the leaves the call has expanded so far, summed as Python
    ints, before each block is expanded.
    """
    bonds = effective_bonds(spec)
    n_bonds = len(bonds)
    check_cap("bonds", n_bonds)
    if sigma is None:
        check_cap("pattern pairs", spec.n_states() ** 2)
    walk = PairWalk(spec, sigma)
    S = spec.alphabet.size
    digits = product_positions(np.arange(len(walk.weights)), [len(i) for i in walk.indices])
    alpha = {v: np.asarray(i)[k] for v, i, k in zip(spec.region, walk.indices, digits)}  # v's value index per c
    local, lift, coin_ids, distinct = [], [], [], []
    for eb, table in zip(bonds, pair_coin_table(spec)):
        loc = np.zeros(len(walk.weights), dtype=np.int64)  # c's index on the inside vertices
        for v in eb.inside:
            loc = loc * S + alpha[v]
        local.append(loc)
        lift.append(loc * len(table) + len(coin_ids))
        number = {}
        coin_ids.extend(number.setdefault(q, len(number)) for q in table.ravel().tolist())
        distinct.append(list(number))
    cat = np.array(coin_ids, dtype=np.min_scalar_type(max(map(len, distinct), default=0)))
    index_type = np.min_scalar_type(max(len(cat) - 1, 0))  # holds every index, a coin's too
    local, lift = (np.array(a, dtype=index_type).reshape(n_bonds, len(walk.weights)) for a in (local, lift))
    coin_at = np.cumsum([0, *map(len, distinct)])[:-1].astype(index_type)  # bond j's first coin
    scaled = [_scaled(d) if spec.exact else (d, 1.0) for d in distinct]  # bond j's coins over E_j
    scale = math.prod(E for _, E in scaled)
    lanes = walk.lanes(scale)
    q = lanes.of([x for values, _ in scaled for x in values])
    off = lanes.of([E - x for values, E in scaled for x in values])
    rescaled = [(j, E) for j, (_, E) in enumerate(scaled) if E != 1]  # bonds whose coins have a scale
    unit = lanes.of([scale])
    is_live = lanes.nonzero(q) & lanes.nonzero(off)
    is_one = lanes.nonzero(q) & ~is_live
    bits = np.left_shift(1, np.arange(n_bonds, dtype=np.int64))

    def blocks():
        leaves = 0
        for sids, totals, row, c1, c2, w in walk.blocks(max(n_bonds, 1), lanes):
            positive = np.flatnonzero(lanes.nonzero(totals))
            if not len(positive):
                continue
            ids = cat.take(lift.take(c1, axis=1) + local.take(c2, axis=1))  # (bonds, pairs)
            labels, first = _first_seen(row, *ids)
            gw = lanes.sum_at(labels, w, len(first))
            keep = lanes.nonzero(gw)
            gw, grow = gw.compress(keep, axis=1), row[first[keep]]
            at = ids.T[first[keep]] + coin_at  # (groups, bonds): each group's coins
            live, one = is_live.take(at), is_one.take(at)
            base_mask = one @ bits  # bonds whose coin is 1
            if rescaled:  # bonds that do not split keep the scale, one product per live set
                codes, inverse = np.unique(live @ bits, return_inverse=True)
                kept = lanes.of([math.prod(E for j, E in rescaled if not c >> j & 1) for c in codes.tolist()])
                gw = lanes.mul(gw, kept.take(inverse, axis=1))
            n_live = live.sum(axis=1)
            leaves += sum(int(n) << k for k, n in enumerate(np.bincount(n_live)))
            check_cap("pattern leaves", leaves)
            n_leaves = np.zeros(totals.shape[1], dtype=np.int64)
            np.add.at(n_leaves, grow, np.left_shift(1, n_live))

            for a, b in _runs(n_leaves[positive]):
                rows = positive[a:b]
                ga, gb = np.searchsorted(grow, [rows[0], rows[-1] + 1])
                grp, mask, val = _expand(lanes.mul, gw[:, ga:gb], at[ga:gb], q, off, live[ga:gb], base_mask[ga:gb])
                nz = lanes.nonzero(val)
                lrow, mask, val = grow[ga:gb][grp[nz]], mask[nz], val.compress(nz, axis=1)
                labels, first = _first_seen(lrow, mask)
                yield (sids[rows], lanes.mul(totals.take(rows, axis=1), unit), np.searchsorted(rows, lrow[first]),
                       mask[first], lanes.sum_at(labels, val, len(first)))

    return lanes, blocks()


def integrated_rc(spec: GibbsSpec) -> IntegratedRC:
    """Integrated activity-pattern distribution over all overlap slices.

    Each slice carries the nested-level (monotone) base, which is symmetric
    under slice reflection by construction; its coins are read from
    pair_coin_table, the one coin source. Every spec takes the same route
    through the pattern blocks, whatever its size, and their caps bound the
    work. Each block's records are merged into the masks seen so far by one
    _first_seen and one in-order sum, so a mask's probability sums its slice
    weights in slice order, and masks keep the order of their first slice
    record; it is divided by the total once, into a Fraction on an exact
    spec.
    """
    lanes, blocks = _pattern_blocks(spec)
    masks, sums, totals = np.zeros(0, np.int64), lanes.zeros(0), [lanes.zeros(0)]
    for _, block_totals, _, rec_mask, rec_val in blocks:
        totals.append(block_totals)
        masks = np.concatenate([masks, rec_mask])
        labels, first = _first_seen(masks)
        sums = lanes.sum_at(labels, np.concatenate([sums, rec_val], axis=1), len(first))
        masks = masks[first]
    grand = lanes.total(np.concatenate(totals, axis=1))
    if grand == 0:
        raise ZeroSliceError("zero measure")
    div = Fraction if spec.exact else operator.truediv
    return IntegratedRC(
        spec.graph.n_vertices,
        tuple(eb.vertices for eb in effective_bonds(spec)),
        {m: div(w, grand) for m, w in zip(masks.tolist(), lanes.values(sums))},
        spec.exact,
    )


def _slice_connections(spec: GibbsSpec, A, B, sigma=None):
    """(lanes, ids, totals, joined) over the slices of positive weight, in
    slice order: their ids in twocopy._slice_sums, and in lanes of one scale
    their totals and joined weights. Each block's distinct masks are labelled
    in one batch as the block arrives, and a slice adds its joined records
    in order from 0. sigma limits the walk to it."""
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    lanes, blocks = _pattern_blocks(spec, sigma)
    ids, totals, hits = [np.zeros(0, np.int64)], [lanes.zeros(0)], [lanes.zeros(0)]
    for sids, block_totals, rec_slice, rec_mask, rec_val in blocks:
        conn = joined(spec.graph.n_vertices, bond_vertices, rec_mask, A, B)
        ids.append(sids)
        totals.append(block_totals)
        hits.append(lanes.sum_at(rec_slice[conn], rec_val.compress(conn, axis=1), len(sids)))
    return lanes, np.concatenate(ids), np.concatenate(totals, axis=1), np.concatenate(hits, axis=1)


def slice_connection_prob(spec: GibbsSpec, sigma, A, B):
    """Probability of the active connection event inside one overlap slice."""
    div = Fraction if spec.exact else operator.truediv
    lanes, _, totals, hits = _slice_connections(spec, A, B, sigma)
    if not totals.shape[1]:
        raise ZeroSliceError("overlap configuration has probability zero")
    return div(lanes.values(hits)[0], lanes.values(totals)[0])


def sigma_connection_profile(spec: GibbsSpec, A, B):
    """Per-slice connection probabilities with their overlap weights.

    Returns (rows, pbar) where rows list (sigma, rho, conn prob given
    sigma) over slices of positive weight and pbar is the integrated
    connection probability. Each value is one division, into a Fraction on
    an exact spec, of ints rebuilt once from their lanes; slices that join
    nothing share one zero of that type.
    """
    div = Fraction if spec.exact else operator.truediv
    zero = Fraction(0) if spec.exact else 0.0
    lanes, ids, totals, hits = _slice_connections(spec, A, B)
    grand = lanes.total(totals)
    if grand == 0:
        raise ZeroSliceError("zero measure")
    sigmas = product_outcomes(ids, _slice_sums(spec))
    rows = [(s, div(t, grand), div(h, t) if h else zero)
            for s, t, h in zip(sigmas, lanes.values(totals), lanes.values(hits))]
    return rows, div(lanes.total(hits), grand)


# ---------------------------------------------------------------------------
# Finite-volume extremality diagnostic


def extremality_diagnostic(specs, A_region, epsilon: float, radii=None):
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
            profile, pbar = sigma_connection_profile(spec, A, dlam1)
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
