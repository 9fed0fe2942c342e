"""Active-bond clusters, connectivity events, integrated activity law.

The integrated law mixes, over the two-copy overlap distribution, the
activity pattern of the slice representation. Its key computational fact:
conditionally on one copy's configuration inside a slice, the bond
activities are independent coin flips, so patterns can be accumulated
without enumerating bond assignments. Under the default nested-level base
a bond's coin is a function of the two copies' local values on that bond
alone; pair_coin_table computes it once per spec, and every exact query
and the Monte Carlo sampler read that one table. All specs take one
slice-by-slice route; only a custom base_factory rebuilds each slice's
symmetrized spec and base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import TooLargeError, ZeroSliceError
from .gibbs import GibbsSpec, config_weights, effective_bonds, local_index
from .lattice import ball, boundary_vertices
from .rcr import (
    RcrBase,
    assignment_measure,
    bond_level_system,
    monotone_probabilities,
    reconstruct,
)
from .twocopy import (
    make_slice,
    nonoverlap_distribution,
    symmetrized_spec,
)


class UnionFind:
    """Array union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def activity_pattern(base: RcrBase, assignment) -> int:
    """Bitmask of active bonds for a full assignment of subset indices."""
    mask = 0
    for j, (bb, a) in enumerate(zip(base.bonds, assignment)):
        if bb.subsets[a] != bb.full_mask:
            mask |= 1 << j
    return mask


def chain_components(n_vertices: int, bond_vertices, active_mask: int):
    """Vertex sets of the chains formed by the active bonds.

    Two active bonds belong to one chain when they share a vertex; each
    component is returned as the frozenset of vertices its bonds cover.
    """
    uf = UnionFind(n_vertices)
    covered = set()
    for j, verts in enumerate(bond_vertices):
        if (active_mask >> j) & 1:
            covered.update(verts)
            for u in verts[1:]:
                uf.union(verts[0], u)
    comps: dict[int, set] = {}
    for v in covered:
        comps.setdefault(uf.find(v), set()).add(v)
    return [frozenset(c) for c in comps.values()]


def regions_connected(n_vertices: int, bond_vertices, active_mask: int, A, B) -> bool:
    """True when an active chain touches both vertex sets.

    Requires at least one active bond meeting each side; overlapping
    regions are not automatically connected.
    """
    A = set(A)
    B = set(B)
    if not A or not B or active_mask == 0:
        return False
    for comp in chain_components(n_vertices, bond_vertices, active_mask):
        if comp & A and comp & B:
            return True
    return False


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
    conn_cache: dict[int, bool] = {}
    num = 0
    den = 0
    for assign, nu, n in assignment_measure(spec, base, max_states, max_assignments):
        if n == 0:
            continue
        w = nu * n
        den += w
        mask = activity_pattern(base, assign)
        ok = conn_cache.get(mask)
        if ok is None:
            ok = regions_connected(base.n_vertices, bond_vertices, mask, A, B)
            conn_cache[mask] = ok
        if ok:
            num += w
    if den == 0:
        raise ZeroSliceError("representation carries no compatible configuration")
    return num / den


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
    _conn_cache: dict = field(default_factory=dict, repr=False)

    def total(self):
        return sum(self.patterns.values())

    def connection_probability(self, A, B):
        A, B = frozenset(A), frozenset(B)
        key = (A, B)
        acc = 0
        for mask, p in self.patterns.items():
            ck = (mask, key)
            ok = self._conn_cache.get(ck)
            if ok is None:
                ok = regions_connected(self.n_vertices, self.bond_vertices, mask, A, B)
                self._conn_cache[ck] = ok
            if ok:
                acc += p
        return acc

    def active_marginal(self, j: int):
        return sum(p for mask, p in self.patterns.items() if (mask >> j) & 1)

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
# The pair-coin kernel and slice activity terms


def pair_coin_table(spec: GibbsSpec):
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
    0. Entries are Fractions for exact specs.
    """
    S = spec.alphabet.size
    idx = spec.alphabet.index
    zero = Fraction(0) if spec.exact else 0.0
    tables = []
    for eb in effective_bonds(spec):
        doms = [spec.domain_values(v) for v in eb.inside]
        n_local = S ** len(eb.inside)
        q = [[zero] * n_local for _ in range(n_local)]
        sums = [sorted({a + b for a in d for b in d}) for d in doms]
        for sig in itertools.product(*sums):
            adm = [tuple(a for a in d if s - a in d) for d, s in zip(doms, sig)]
            ys = list(itertools.product(*adm))
            loc1 = [local_index(S, (idx(a) for a in y)) for y in ys]
            loc2 = [local_index(S, (idx(s - a) for s, a in zip(sig, y))) for y in ys]
            factors = [eb.table[a] * eb.table[b] for a, b in zip(loc1, loc2)]
            levels, _ = bond_level_system(factors, range(len(factors)))
            if levels[0] <= 0:
                continue
            probs = monotone_probabilities(levels)
            coin = {f: sum(probs[i:-1]) / sum(probs[i:]) for i, f in enumerate(levels) if f != 0}
            for a, b, f in zip(loc1, loc2, factors):
                if f != 0:
                    q[a][b] = coin[f]
        tables.append(q)
    return tables


class _SpecTerms:
    """Per-spec work shared by the slices of one call.

    Holds the pair-coin table (default base only), every configuration's
    weight from config_weights and, per configuration of alphabet indices,
    its bonds' local indices, computed on first use.
    """

    def __init__(self, spec: GibbsSpec, coins: bool):
        self.coins = pair_coin_table(spec) if coins else None
        self.index = {v: i for i, v in enumerate(spec.alphabet.values)}
        self._S = spec.alphabet.size
        pos = {v: p for p, v in enumerate(spec.region)}
        self._insides = [tuple(pos[v] for v in eb.inside) for eb in effective_bonds(spec)]
        self._where = [{a: i for i, a in enumerate(spec.domain_indices(v))} for v in spec.region]
        self._weights = config_weights(spec).tolist()
        self._configs: dict[tuple, tuple] = {}

    def config(self, c):
        """(weight, per-bond local indices) of a configuration."""
        got = self._configs.get(c)
        if got is None:
            S = self._S
            i = 0
            for where, a in zip(self._where, c):
                i = i * len(where) + where[a]
            locs = tuple(local_index(S, (c[p] for p in pos)) for pos in self._insides)
            got = self._configs[c] = (self._weights[i], locs)
        return got


def _slice_pattern_terms(spec, sigma, base_factory, validate, terms=None):
    """Unnormalized activity-pattern weights contributed by one overlap slice.

    Returns (slice_total, pattern dict); both carry the raw two-copy weight
    w(omega) * w(sigma - omega) summed over the slice. The default base
    reads its coins from the pair-coin table; a custom base_factory gets the
    slice's symmetrized spec, built only for slices of positive weight, and
    its bond j is read at the first copy's local index on effective bond j.
    """
    if terms is None:
        terms = _SpecTerms(spec, base_factory is None)
    try:
        sl = make_slice(spec, sigma)
    except ZeroSliceError:
        return 0, {}
    index = terms.index
    pairs = []
    total = 0
    for vals in itertools.product(*sl.admissible):
        c1 = tuple(index[v] for v in vals)
        w1, l1 = terms.config(c1)
        if w1 == 0:
            continue
        w2, l2 = terms.config(tuple(index[s - v] for s, v in zip(sl.sigma, vals)))
        w = w1 * w2
        if w == 0:
            continue
        total += w
        pairs.append((l1, l2, w))
    if total == 0:
        return 0, {}
    by_q: dict[tuple, object] = {}
    if base_factory is None:
        coins = terms.coins
        for l1, l2, w in pairs:
            key = tuple(q[a][b] for q, a, b in zip(coins, l1, l2))
            by_q[key] = by_q.get(key, 0) + w
    else:
        slice_spec = symmetrized_spec(spec, sigma)
        base = base_factory(slice_spec)
        if validate:
            got = reconstruct(slice_spec, base)
            want = nonoverlap_distribution(spec, sigma)
            for o, p in want.items():
                diff = got.prob(o) - p
                if abs(diff) > 1e-9:
                    raise ValueError("slice base does not reproduce the slice measure")
        for l1, _, w in pairs:
            key = tuple(
                bb.active_weight(li) / bb.support_weight(li) for bb, li in zip(base.bonds, l1)
            )
            by_q[key] = by_q.get(key, 0) + w
    patterns: dict[int, object] = {}
    for qs, w in by_q.items():
        _expand_pattern(qs, w, patterns)
    return total, patterns


def _expand_pattern(qs, weight, out, bond=0, mask=0):
    if weight == 0:
        return
    if bond == len(qs):
        out[mask] = out.get(mask, 0) + weight
        return
    q = qs[bond]
    if q != 0:
        _expand_pattern(qs, weight * q, out, bond + 1, mask | (1 << bond))
    one_minus = 1 - q
    if one_minus != 0:
        _expand_pattern(qs, weight * one_minus, out, bond + 1, mask)


def _iter_sigmas(spec: GibbsSpec):
    per_vertex = []
    for v in spec.region:
        dom = spec.domain_values(v)
        sums = sorted({a + b for a in dom for b in dom})
        per_vertex.append(sums)
    return itertools.product(*per_vertex)


def integrated_rc(
    spec: GibbsSpec,
    base_factory=None,
    validate: bool | None = None,
    max_total: int = 1 << 20,
    max_bonds: int = 20,
) -> IntegratedRC:
    """Integrated activity-pattern distribution over all overlap slices.

    base_factory maps a slice spec to its representation; None selects the
    nested-level default, which is symmetric under slice reflection by
    construction and reads its coins from pair_coin_table. Custom
    factories are validated against the slice measure unless
    validate=False. Every spec takes the same slice-by-slice route,
    whatever its size; max_bonds and max_total cap the work.
    """
    bonds = effective_bonds(spec)
    n_bonds = len(bonds)
    if n_bonds > max_bonds:
        raise TooLargeError(f"{n_bonds} bonds exceeds pattern cap {max_bonds}")
    nst = spec.n_states()
    if nst * nst > max_total:
        raise TooLargeError(f"{nst}^2 two-copy states exceeds cap {max_total}")
    if validate is None:
        validate = base_factory is not None
    terms = _SpecTerms(spec, base_factory is None)
    patterns: dict[int, object] = {}
    grand = 0
    for sigma in _iter_sigmas(spec):
        total, pats = _slice_pattern_terms(spec, sigma, base_factory, validate, terms)
        if total == 0:
            continue
        grand += total
        for mask, w in pats.items():
            patterns[mask] = patterns.get(mask, 0) + w
    if grand == 0:
        raise ZeroSliceError("zero measure")
    if spec.exact:
        patterns = {m: Fraction(w, 1) / grand for m, w in patterns.items()}
    else:
        patterns = {m: w / grand for m, w in patterns.items()}
    return IntegratedRC(
        spec.graph.n_vertices,
        tuple(eb.vertices for eb in bonds),
        patterns,
        spec.exact,
    )


def slice_connection_prob(
    spec: GibbsSpec, sigma, A, B, base_factory=None, validate: bool | None = None
):
    """Probability of the active connection event inside one overlap slice."""
    if validate is None:
        validate = base_factory is not None
    total, pats = _slice_pattern_terms(spec, tuple(sigma), base_factory, validate)
    if total == 0:
        raise ZeroSliceError("overlap configuration has probability zero")
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    acc = 0
    for mask, w in pats.items():
        if regions_connected(spec.graph.n_vertices, bond_vertices, mask, A, B):
            acc += w
    return acc / total


def sigma_connection_profile(
    spec: GibbsSpec,
    A,
    B,
    base_factory=None,
    validate: bool | None = None,
    max_total: int = 1 << 20,
):
    """Per-slice connection probabilities with their overlap weights.

    Returns (rows, pbar) where rows list (sigma, rho, conn prob given
    sigma) over slices of positive weight and pbar is the integrated
    connection probability.
    """
    if validate is None:
        validate = base_factory is not None
    nst = spec.n_states()
    if nst * nst > max_total:
        raise TooLargeError(f"{nst}^2 two-copy states exceeds cap {max_total}")
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    terms = _SpecTerms(spec, base_factory is None)
    rows = []
    grand = 0
    acc = 0
    conn_cache: dict[int, bool] = {}
    for sigma in _iter_sigmas(spec):
        total, pats = _slice_pattern_terms(spec, sigma, base_factory, validate, terms)
        if total == 0:
            continue
        grand += total
        num = 0
        for mask, w in pats.items():
            ok = conn_cache.get(mask)
            if ok is None:
                ok = regions_connected(spec.graph.n_vertices, bond_vertices, mask, A, B)
                conn_cache[mask] = ok
            if ok:
                num += w
        rows.append((sigma, total, num / total))
        acc += num
    if grand == 0:
        raise ZeroSliceError("zero measure")
    rows = [(s, t / grand, p) for s, t, p in rows]
    return rows, acc / grand


# ---------------------------------------------------------------------------
# Finite-volume extremality diagnostic


def extremality_diagnostic(
    specs,
    A_region,
    epsilon: float,
    radii=None,
    base_factory=None,
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
            profile, pbar = sigma_connection_profile(
                spec, A, dlam1, base_factory=base_factory, max_total=max_total
            )
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
