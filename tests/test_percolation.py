import itertools
import math
from collections import deque
from fractions import Fraction

import pytest

from conftest import random_binary_spec
from rcgibbs.errors import TooLargeError, ZeroSliceError
from rcgibbs import percolation, rcr, twocopy
from rcgibbs.gibbs import (
    SPIN,
    Alphabet,
    BondTable,
    GibbsSpec,
    Interaction,
    config_weights,
    effective_bonds,
    gibbs_measure,
    local_index,
)
from rcgibbs.lattice import build_cayley_tree, hypergraph
from rcgibbs.experiments.examples import _random_spec
from rcgibbs.models import example1_exact_spec, example1_spec, ising_spec
from rcgibbs.percolation import (
    IntegratedRC,
    _pattern_blocks,
    _slice_patterns,
    activity_pattern,
    chain_components,
    domination_probability,
    extremality_diagnostic,
    integrated_rc,
    joined_weight,
    pair_coin_table,
    regions_connected,
    sigma_connection_profile,
    slice_connection_prob,
)
from rcgibbs.rcr import assignment_measure, monotone_base
from rcgibbs.rng import stream
from rcgibbs.sampling import mc_connection_probability
from rcgibbs.twocopy import make_slice, overlap_distribution, symmetrized_spec
from rcgibbs.experiments.cayley import nonoverlap_connection_recursion


# ---------------------------------------------------------------------------
# activity and connectivity


def test_activity_pattern_cases():
    spec = example1_spec(1.0, 1.0)
    base = monotone_base(spec)
    assert activity_pattern(base, (1, 1)) == 0  # both full subsets
    assert activity_pattern(base, (0, 0)) == 0b11  # both restricted
    assert activity_pattern(base, (0, 1)) == 0b01


def test_connected_trivial_cases():
    bonds = ((0, 1), (1, 2))
    assert not regions_connected(3, bonds, 0b00, {0}, {2})
    assert regions_connected(3, bonds, 0b01, {0}, {1})  # one bond meets both
    assert not regions_connected(3, bonds, 0b01, {0}, {2})
    assert regions_connected(3, bonds, 0b11, {0}, {2})


def test_connected_overlapping_regions_need_a_bond():
    bonds = ((0, 1),)
    # shared vertex 2 is covered by no active bond
    assert not regions_connected(3, bonds, 0b1, {2}, {2, 0})
    assert regions_connected(3, bonds, 0b1, {0, 2}, {1, 2})


def test_joined_weight_adds_joined_weights_in_order_from_int_zero():
    bonds = ((0, 1), (1, 2))
    masks = [0b11, 0b01, 0b11, 0b10, 0b11]  # only 0b11 joins 0 and 2
    floats = [0.1, 0.5, 0.2, 0.25, 0.3]
    assert joined_weight(3, bonds, masks, floats, {0}, {2}) == 0 + 0.1 + 0.2 + 0.3
    fractions = [Fraction(1, k) for k in range(2, 7)]
    got = joined_weight(3, bonds, masks, fractions, {0}, {2})
    assert got == Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 6) and isinstance(got, Fraction)
    for masks, weights in (([], []), ([0b01, 0b10], [0.5, 0.5])):
        got = joined_weight(3, bonds, masks, weights, {0}, {2})
        assert got == 0 and type(got) is int


def _bfs_connected(n, bond_sets, A, B):
    """Oracle: breadth-first search over active bonds as chain nodes."""
    start = [i for i, b in enumerate(bond_sets) if set(b) & set(A)]
    target = {i for i, b in enumerate(bond_sets) if set(b) & set(B)}
    seen = set(start)
    q = deque(start)
    while q:
        i = q.popleft()
        if i in target:
            return True
        for j in range(len(bond_sets)):
            if j not in seen and set(bond_sets[i]) & set(bond_sets[j]):
                seen.add(j)
                q.append(j)
    return False


def _random_bonds(rng, n, n_bonds):
    """n_bonds random bonds of 1-3 distinct vertices out of n."""
    return [
        tuple(sorted(rng.permutation(n)[: int(rng.integers(1, min(3, n) + 1))].tolist()))
        for _ in range(n_bonds)
    ]


def _random_mask(rng, n_bonds):
    """A mask over n_bonds bonds, each bit set with one random density."""
    keep = rng.random(n_bonds) < rng.random()
    return sum(1 << j for j in range(n_bonds) if keep[j])


def test_connected_matches_bfs_oracle_randomized():
    rng = stream(12, 0)
    for _ in range(3000):
        n = int(rng.integers(2, 10))
        n_bonds = int(rng.integers(0, 13))
        bonds = []
        for _ in range(n_bonds):
            size = int(rng.integers(1, min(4, n) + 1))
            verts = tuple(sorted(rng.permutation(n)[:size].tolist()))
            bonds.append(verts)
        mask = int(rng.integers(0, 1 << len(bonds))) if bonds else 0
        active = [b for j, b in enumerate(bonds) if (mask >> j) & 1]
        A = set(rng.permutation(n)[: int(rng.integers(1, 3))].tolist())
        B = set(rng.permutation(n)[: int(rng.integers(1, 3))].tolist())
        got = regions_connected(n, bonds, mask, A, B)
        assert got == _bfs_connected(n, active, A, B)
    # masks of 63-100 bonds on up to 60 vertices, beyond one int64 word
    rng = stream(12, 1)
    for _ in range(200):
        n = int(rng.integers(20, 61))
        bonds = _random_bonds(rng, n, int(rng.integers(63, 101)))
        mask = _random_mask(rng, len(bonds))
        active = [b for j, b in enumerate(bonds) if (mask >> j) & 1]
        A = set(rng.permutation(n)[: int(rng.integers(1, 4))].tolist())
        B = set(rng.permutation(n)[: int(rng.integers(1, 4))].tolist())
        assert regions_connected(n, bonds, mask, A, B) == _bfs_connected(n, active, A, B)


def test_chain_labels_match_bfs_oracle():
    # batches of K = 0..5 masks, empty and wider than 62 bits among them,
    # on random hypergraphs with vertices that no bond covers
    rng = stream(14, 0)
    seen_wide = seen_empty = seen_uncovered = 0
    batch_sizes = set()
    for _ in range(150):
        n = int(rng.integers(1, 13))
        bonds = _random_bonds(rng, n, int(rng.choice([0, 3, 12, 70])))
        masks = [0 if rng.random() < 0.2 else _random_mask(rng, len(bonds)) for _ in range(int(rng.integers(0, 6)))]
        labels = chain_components(n, bonds, masks)
        assert labels.shape == (len(masks), n)
        batch_sizes.add(len(masks))
        rows = []
        for row, mask in zip(labels.tolist(), masks):
            active = [b for j, b in enumerate(bonds) if (mask >> j) & 1]
            covered = {v for b in active for v in b}
            assert [v for v in range(n) if row[v] < 0] == [v for v in range(n) if v not in covered]
            for u, v in itertools.combinations(sorted(covered), 2):
                assert (row[u] == row[v]) == _bfs_connected(n, active, {u}, {v}), (bonds, mask, u, v)
            rows.append({label for label in row if label >= 0})
            seen_wide += mask >= 1 << 62
            seen_empty += mask == 0
            seen_uncovered += len(covered) < n
        assert all(not (r & q) for r, q in itertools.combinations(rows, 2))  # unique across rows
    assert seen_wide and seen_empty and seen_uncovered and 0 in batch_sizes


def test_connected_rejects_vertices_outside_the_graph():
    for A in ({-1}, {3}, {0, 99}):
        with pytest.raises(ValueError):
            regions_connected(3, ((0, 1), (1, 2)), 0b11, A, {2})
        with pytest.raises(ValueError):
            regions_connected(3, ((0, 1), (1, 2)), 0b11, {2}, A)


def test_connected_symmetry_and_monotonicity():
    rng = stream(13, 0)
    for _ in range(300):
        n = 8
        bonds = [tuple(sorted(rng.permutation(n)[:2].tolist())) for _ in range(6)]
        mask = int(rng.integers(0, 64))
        A = {0}
        B = {n - 1}
        c1 = regions_connected(n, bonds, mask, A, B)
        assert c1 == regions_connected(n, bonds, mask, B, A)
        bigger = mask | int(rng.integers(0, 64))
        if c1:
            assert regions_connected(n, bonds, bigger, A, B)


# ---------------------------------------------------------------------------
# integrated distribution: closed forms and the full brute-force oracle


def test_integrated_three_spin_closed_form():
    for J12, J23 in ((1.0, 1.0), (0.5, 2.0)):
        spec = example1_spec(J12, J23)
        mu = gibbs_measure(spec)
        dmu = mu.event(lambda o: o[0] == o[2] == 1) - mu.event(
            lambda o: o[0] == 1
        ) * mu.event(lambda o: o[2] == 1)
        irc = integrated_rc(spec)
        pbar = irc.connection_probability({0}, {2})
        Z = 2 * (2 + math.exp(J12) + math.exp(J23))
        closed = 2 * (1 - math.exp(J12)) * (1 - math.exp(J23)) / Z**2
        assert abs(pbar - closed) < 1e-13
        assert abs(pbar - 2 * abs(dmu)) < 1e-13


def test_integrated_zero_interaction_never_connects():
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    spec = ising_spec(g, 0.0)
    irc = integrated_rc(spec)
    assert irc.connection_probability({0}, {3}) == 0
    assert irc.connection_probability({0}, {1}) == 0


def brute_integrated_patterns(spec):
    """Fully independent oracle for the integrated activity distribution.

    Enumerates overlap assignments, builds each slice's nested-level base,
    enumerates all bond assignments with exact compatibility counts, and
    accumulates activity patterns weighted by the slice bond-marginal times
    the overlap weight.
    """
    mu = gibbs_measure(spec)
    rho = overlap_distribution(spec)
    patterns = {}
    for sigma, r in rho.items():
        if r == 0:
            continue
        sl_spec = symmetrized_spec(spec, sigma)
        base = monotone_base(sl_spec)
        rows = assignment_measure(sl_spec, base)
        Z1 = sum(nu * n for _, nu, n in rows)
        for assign, nu, n in rows:
            if n == 0:
                continue
            mask = activity_pattern(base, assign)
            patterns[mask] = patterns.get(mask, 0) + r * nu * n / Z1
    return patterns


def test_integrated_matches_bruteforce_oracle():
    specs = [
        random_binary_spec(m, seed=131, n_min=3, n_max=4,
                           allow_forbidden=(m % 3 == 0),
                           with_boundary=(m % 2 == 0))
        for m in range(6)
    ]
    # a boundary spin plus a forbidden factor leaves slices of zero weight
    specs += [
        random_binary_spec(m, seed=9, n_min=3, n_max=4, exact=exact,
                           allow_forbidden=True, with_boundary=True)
        for m in (2, 7)
        for exact in (False, True)
    ]
    for spec in specs:
        irc = integrated_rc(spec)
        ref = brute_integrated_patterns(spec)
        keys = set(irc.patterns) | set(ref)
        for k in keys:
            assert abs(irc.patterns.get(k, 0) - ref.get(k, 0)) < 1e-11


def test_fast_binary_path_matches_generic():
    for m in range(5):
        spec = random_binary_spec(m, seed=141, n_min=4, n_max=5)
        fast = integrated_rc(spec)  # pair-coin kernel
        slow, *_ = _oracle_laws(spec, {spec.region[0]}, {spec.region[-1]}, monotone_base)
        assert list(fast.patterns.items()) == list(slow.items())


def test_seven_site_chain_bond_order():
    # bit j of a pattern is bond j at every size, here 2^7 states per copy
    g = hypergraph(7, [(i, i + 1) for i in range(6)])
    spec = ising_spec(g, [0.2, 0.4, 0.6, 0.8, 1.0, 1.2])
    irc = integrated_rc(spec)
    got = irc.connection_probability({0}, {1})
    assert abs(got - 0.0987) < 1e-4
    _, pbar = sigma_connection_profile(spec, {0}, {1})
    assert abs(got - pbar) < 1e-12
    ref, *_ = _oracle_laws(spec, {0}, {1}, monotone_base)
    assert list(irc.patterns.items()) == list(ref.items())


def _three_valued_spec(exact):
    """Alphabet (-1, 0, 1) on a triangle plus a tail, with per-vertex
    domains and a boundary spin."""
    g = hypergraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    rng = stream(181, 0)
    tables = {}
    for k in range(len(g.bonds)):
        if exact:
            facs = [Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
                    for _ in range(9)]
        else:
            facs = rng.uniform(0.2, 3.0, 9).tolist()
        tables[k] = BondTable.from_factors(facs)
    return GibbsSpec(g, Alphabet((-1, 0, 1)), Interaction(tables), (0, 1, 2, 3),
                     {4: 1}, domains={0: (-1, 1), 3: (0, 1)})


def test_pair_coin_kernel_matches_slice_bases():
    for exact in (False, True):
        spec = _three_valued_spec(exact)
        irc = integrated_rc(spec)
        ref, *_ = _oracle_laws(spec, {0}, {3}, monotone_base)
        assert irc.exact == exact
        # literal equality, dict order included: Fractions exactly, floats bit for bit
        assert list(irc.patterns.items()) == list(ref.items())
        assert all(type(p) is type(ref[m]) for m, p in irc.patterns.items())


def test_default_base_builds_no_slice_spec(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-slice spec or base built on the default route")

    for module, name in ((percolation, "symmetrized_spec"), (twocopy, "symmetrized_spec"),
                         (percolation, "monotone_base"), (rcr, "monotone_base")):
        monkeypatch.setattr(module, name, forbidden, raising=False)
    spec = _three_valued_spec(False)
    integrated_rc(spec)
    sigma_connection_profile(spec, {0}, {3})
    mc_connection_probability(spec, {0}, {3}, 16, seed=0, burn_in=2, n_tasks=2)


def test_integrated_exact_rational():
    spec_e = random_binary_spec(1, seed=151, exact=True, n_min=3, n_max=3)
    irc = integrated_rc(spec_e)
    assert irc.exact
    assert sum(irc.patterns.values()) == 1


# ---------------------------------------------------------------------------
# slice connection probabilities


def test_slice_full_overlap_disconnected():
    spec = example1_spec(1.0, 1.0)
    assert slice_connection_prob(spec, (2, -2, 2), {0}, {2}) == 0


def test_slice_zero_probability_raises():
    g = hypergraph(1, [(0,)])
    pinned = Interaction({0: BondTable.from_factors((0.0, 1.0))})
    spec = GibbsSpec(g, SPIN, pinned, (0,))
    with pytest.raises(ZeroSliceError):
        slice_connection_prob(spec, (-2,), {0}, {0})
    with pytest.raises(ZeroSliceError):  # no two spins add up to 1
        slice_connection_prob(spec, (1,), {0}, {0})
    with pytest.raises(ValueError, match="length"):
        slice_connection_prob(spec, (0, 0), {0}, {0})


def test_slice_connection_closed_form_and_printed_ratio():
    # the all-zero overlap slice of the corner chain: connection needs both
    # doubled bonds active and two compatible configurations survive
    J12, J23 = 1.0, 0.7
    spec = example1_spec(J12, J23)
    Zs = 2 * (math.exp(J12 + J23) + math.exp(J12) + math.exp(J23) + 1)
    got = slice_connection_prob(spec, (0, 0, 0), {0}, {2})
    want = (
        2 * (1 - math.exp(-J12)) * (1 - math.exp(-J23)) * math.exp(J12 + J23) / Zs
    )
    assert abs(got - want) < 1e-13
    # the printed closed form omits the exp(J12+J23) factor; record the ratio
    printed = 2 * (1 - math.exp(-J12)) * (1 - math.exp(-J23)) / Zs
    assert abs(got / printed - math.exp(J12 + J23)) < 1e-10


def test_single_overlap_site_slices_disconnected():
    spec = example1_spec(1.0, 1.0)
    for sigma in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, 0, 0), (0, -2, 0), (0, 0, -2)):
        assert slice_connection_prob(spec, sigma, {0}, {2}) == 0


def test_sigma_profile_consistent_with_integrated():
    spec = example1_spec(1.0, 1.0)
    rows, pbar = sigma_connection_profile(spec, {0}, {2})
    irc = integrated_rc(spec)
    assert abs(pbar - irc.connection_probability({0}, {2})) < 1e-12
    assert abs(sum(r for _, r, _ in rows) - 1) < 1e-12


def test_overlap_interior_bonds_never_active():
    for m in range(4):
        spec = random_binary_spec(m, seed=161, n_min=3, n_max=4)
        irc_bonds = [eb.vertices for eb in effective_bonds(spec)]
        rho = overlap_distribution(spec)
        for sigma in itertools.islice(rho.outcomes(), 0, 30, 3):
            K = {v for v, s in zip(spec.region, sigma) if s != 0}
            total, pats = _slice_patterns(spec, sigma)
            if total == 0:
                continue
            for j, verts in enumerate(irc_bonds):
                if set(verts) <= K:
                    assert all(not (mask >> j) & 1 for mask in pats)


# ---------------------------------------------------------------------------
# the pattern kernel against the slice-by-slice loop it replaced


class _SpecTerms:
    """Oracle: per-spec work shared by the slices of one call (the pair-coin
    table, every configuration's weight, each configuration's bond local
    indices on first use)."""

    def __init__(self, spec, coins):
        self.coins = pair_coin_table(spec) if coins else None
        self.index = {v: i for i, v in enumerate(spec.alphabet.values)}
        self._S = spec.alphabet.size
        pos = {v: p for p, v in enumerate(spec.region)}
        self._insides = [tuple(pos[v] for v in eb.inside) for eb in effective_bonds(spec)]
        self._where = [{a: i for i, a in enumerate(spec.domain_indices(v))} for v in spec.region]
        self._weights = config_weights(spec).tolist()
        self._configs = {}

    def config(self, c):
        got = self._configs.get(c)
        if got is None:
            i = 0
            for where, a in zip(self._where, c):
                i = i * len(where) + where[a]
            locs = tuple(local_index(self._S, (c[p] for p in pos)) for pos in self._insides)
            got = self._configs[c] = (self._weights[i], locs)
        return got


def _slice_pattern_terms(spec, sigma, base_factory, terms=None):
    """Oracle: (slice total, pattern dict) of one slice, pair by pair."""
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
        w1, l1 = terms.config(tuple(index[v] for v in vals))
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
    by_q = {}
    if base_factory is None:
        for l1, l2, w in pairs:
            key = tuple(q[a][b] for q, a, b in zip(terms.coins, l1, l2))
            by_q[key] = by_q.get(key, 0) + w
    else:
        base = base_factory(symmetrized_spec(spec, sigma))
        for l1, _, w in pairs:
            key = tuple(bb.active_weight(li) / bb.support_weight(li) for bb, li in zip(base.bonds, l1))
            by_q[key] = by_q.get(key, 0) + w
    patterns = {}
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


def _oracle_slices(spec, base_factory=None):
    """Oracle: {sigma: (total, pattern dict)} over the slices of positive
    weight, in slice order."""
    terms = _SpecTerms(spec, base_factory is None)
    sums = [sorted({a + b for a in d for b in d}) for d in map(spec.domain_values, spec.region)]
    out = {}
    for sigma in itertools.product(*sums):
        total, pats = _slice_pattern_terms(spec, sigma, base_factory, terms)
        if total != 0:
            out[sigma] = total, pats
    return out


def _oracle_laws(spec, A, B, base_factory=None):
    """Oracle: integrated patterns, profile rows and pbar, and each positive
    slice's connection probability, summed as the slice loop summed them."""
    bond_vertices = tuple(eb.vertices for eb in effective_bonds(spec))
    patterns = {}
    rows = []
    slice_probs = {}
    grand = 0
    acc = 0
    slices = _oracle_slices(spec, base_factory)
    masks = [mask for _, pats in slices.values() for mask in pats]
    labels = percolation.chain_components(spec.graph.n_vertices, bond_vertices, masks)
    connected = dict(zip(masks, percolation.chains_join(labels, A, B).tolist()))
    for sigma, (total, pats) in slices.items():
        grand += total
        num = 0
        for mask, w in pats.items():
            patterns[mask] = patterns.get(mask, 0) + w
            if connected[mask]:
                num += w
        rows.append((sigma, total, num / total))
        slice_probs[sigma] = num / total
        acc += num
    if spec.exact:
        patterns = {m: Fraction(w, 1) / grand for m, w in patterns.items()}
    else:
        patterns = {m: w / grand for m, w in patterns.items()}
    return patterns, [(s, t / grand, p) for s, t, p in rows], acc / grand, slice_probs


def _hyperbond_spec():
    """Three-vertex hyperbonds, a boundary spin, and vertex 5 bound only by
    its own site factor, so that it has no neighbours."""
    g = hypergraph(6, [(0, 1, 2), (1, 3), (2, 3, 4), (0, 4), (5,)])
    rng = stream(77, 0)
    tables = {
        k: BondTable.from_exponents(rng.uniform(-1.5, 1.5, 2 ** len(b)).tolist())
        for k, b in enumerate(g.bonds)
    }
    return GibbsSpec(g, SPIN, Interaction(tables), (0, 1, 2, 3, 5), {4: 1})


KERNEL_CASES = [
    *[(f"c04_{m}", lambda m=m: _random_spec(m, 7), None) for m in range(1, 61)],
    *[
        (f"random{m}", lambda m=m: random_binary_spec(
            m, seed=9, n_min=3, n_max=4, allow_forbidden=True, with_boundary=True), None)
        for m in (2, 7, 12, 14, 19, 20)
    ],
    ("three_valued", lambda: _three_valued_spec(False), None),
    ("three_valued_exact", lambda: _three_valued_spec(True), None),
    ("example1_exact", lambda: example1_exact_spec(Fraction(3), Fraction(5, 2)), None),
    ("hyperbond", _hyperbond_spec, None),
    ("three_valued_monotone", lambda: _three_valued_spec(False), monotone_base),
    ("three_valued_exact_monotone", lambda: _three_valued_spec(True), monotone_base),
    ("random7_monotone", lambda: random_binary_spec(
        7, seed=9, n_min=3, n_max=4, allow_forbidden=True, with_boundary=True), monotone_base),
]


@pytest.mark.parametrize("name,make,factory", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_pattern_kernel_matches_slice_loop_literally(monkeypatch, name, make, factory):
    # factory None: the oracle reads pair_coin_table; monotone_base: it builds
    # each slice's base and reads the coins from its bonds
    spec = make()
    # a small block budget splits every case into several blocks
    cells = spec.n_states() ** 2 * max(len(effective_bonds(spec)), 1)
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", cells // 8)
    assert sum(1 for _ in _pattern_blocks(spec)) > 1
    A, B = {spec.region[0]}, {spec.region[-1]}
    patterns, want_rows, want_pbar, slice_probs = _oracle_laws(spec, A, B, factory)
    irc = integrated_rc(spec)
    # literal equality, dict order included: floats bit for bit, Fractions exactly
    assert list(irc.patterns.items()) == list(patterns.items())
    rows, pbar = sigma_connection_profile(spec, A, B)
    assert rows == want_rows and pbar == want_pbar
    sums = [sorted({a + b for a in d for b in d}) for d in map(spec.domain_values, spec.region)]
    for sigma in itertools.islice(itertools.product(*sums), 0, None, 17):
        if sigma in slice_probs:
            assert slice_connection_prob(spec, sigma, A, B) == slice_probs[sigma]
        else:
            with pytest.raises(ZeroSliceError):
                slice_connection_prob(spec, sigma, A, B)


def test_more_than_62_bonds_raise_before_enumeration(monkeypatch):
    # 63 parallel bonds on two sites: four states, but pattern masks would
    # overflow int64
    g = hypergraph(2, [(0, 1)] * 63)
    tables = {k: BondTable.from_factors((2.0, 1.0, 1.0, 2.0)) for k in range(63)}
    spec = GibbsSpec(g, SPIN, Interaction(tables), (0, 1))

    def forbidden(*args, **kwargs):
        raise AssertionError("enumerated before the bond check")

    monkeypatch.setattr(twocopy, "config_weights", forbidden)
    monkeypatch.setattr(percolation, "pair_coin_table", forbidden)
    with pytest.raises(TooLargeError, match="63 bonds"):
        sigma_connection_profile(spec, {0}, {1})
    with pytest.raises(TooLargeError, match="63 bonds"):
        slice_connection_prob(spec, (0, 0), {0}, {1})
    with pytest.raises(TooLargeError, match="63 bonds"):
        integrated_rc(spec, max_bonds=100)


# ---------------------------------------------------------------------------
# theorem-style bound on small random instances


def test_correlation_bound_small_instances():
    for m in range(8):
        spec = random_binary_spec(m, seed=171, n_min=3, n_max=5)
        mu = gibbs_measure(spec)
        irc = integrated_rc(spec)
        n = len(spec.region)
        for A, B in (({0}, {n - 1}), ({0, 1}, {n - 1})):
            if set(A) & set(B):
                continue
            pbar = irc.connection_probability(A, B)
            for valsA in itertools.product((-1, 1), repeat=len(A)):
                for valsB in itertools.product((-1, 1), repeat=len(B)):
                    pa = mu.event(lambda o: all(o[list(spec.region).index(v)] == x
                                                for v, x in zip(sorted(A), valsA)))
                    pb = mu.event(lambda o: all(o[list(spec.region).index(v)] == x
                                                for v, x in zip(sorted(B), valsB)))
                    pab = mu.event(lambda o: all(o[list(spec.region).index(v)] == x
                                                 for v, x in zip(sorted(A), valsA))
                                   and all(o[list(spec.region).index(v)] == x
                                           for v, x in zip(sorted(B), valsB)))
                    assert abs(pab - pa * pb) <= pbar + 1e-10


# ---------------------------------------------------------------------------
# domination probability


def test_domination_of_product_pattern_is_marginal():
    # hand-built independent pattern distribution on two bonds
    p1, p2 = 0.3, 0.8
    patterns = {}
    for a in (0, 1):
        for b in (0, 1):
            patterns[a | (b << 1)] = (p1 if a else 1 - p1) * (p2 if b else 1 - p2)
    irc = IntegratedRC(3, ((0, 1), (1, 2)), patterns, False)
    assert abs(domination_probability(irc, 0) - p1) < 1e-14
    assert abs(domination_probability(irc, 1) - p2) < 1e-14


def test_domination_zero_interaction():
    g = hypergraph(3, [(0, 1), (1, 2)])
    irc = integrated_rc(ising_spec(g, 0.0))
    assert domination_probability(irc, 0) == 0


def test_domination_exhaustive_conditioning_oracle():
    spec = example1_spec(1.0, 1.0)
    irc = integrated_rc(spec)
    for j in (0, 1):
        groups = {}
        for mask, p in irc.patterns.items():
            rest = mask & ~(1 << j)
            tot, act = groups.get(rest, (0.0, 0.0))
            groups[rest] = (tot + p, act + (p if (mask >> j) & 1 else 0.0))
        want = max((act / tot) for tot, act in groups.values() if tot > 0)
        assert abs(domination_probability(irc, j) - want) < 1e-14


# ---------------------------------------------------------------------------
# extremality diagnostic


def test_diagnostic_chain_decay_matches_recursion():
    # open spin chain: the integrated connection from the end vertex decays
    # geometrically with the exact per-edge factor tanh(J)
    J = 0.1
    n = 7
    g = hypergraph(n, [(i, i + 1) for i in range(n - 1)])
    spec = ising_spec(g, J)
    rows = extremality_diagnostic([spec], {0}, epsilon=0.05, radii=range(1, 5))
    probs = [r["connection_prob"] for r in rows]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    for r, p in zip(range(1, 5), probs):
        assert abs(p - 0.5 * math.tanh(J) ** r) < 1e-10
    assert all(r["condition_a"] for r in rows[1:])


def test_diagnostic_zero_coupling_all_zero():
    g = hypergraph(5, [(i, i + 1) for i in range(4)])
    spec = ising_spec(g, 0.0)
    rows = extremality_diagnostic([spec], {0}, epsilon=0.01, radii=range(1, 4))
    assert all(r["connection_prob"] == 0 for r in rows)
    assert all(r["condition_a"] and r["condition_b"] for r in rows)


def test_diagnostic_tree_matches_branching_recursion():
    # depth-2 binary tree, exact machinery against the closed-form recursion
    for J in (0.3, 1.2):
        g = build_cayley_tree(2, 2)
        spec = ising_spec(g, J)
        leaves = {3, 4, 5, 6}
        _, pbar = sigma_connection_profile(spec, {0}, leaves)
        assert abs(pbar - nonoverlap_connection_recursion(J, 2)) < 1e-11


def test_diagnostic_supercritical_tree_does_not_vanish():
    # closed-form recursion: for strong coupling the root-to-shell
    # connection stays bounded away from zero as the shell recedes
    vals = [nonoverlap_connection_recursion(1.2, d) for d in range(1, 30)]
    assert vals[-1] > 0.4
    sub = [nonoverlap_connection_recursion(0.1, d) for d in range(1, 30)]
    assert sub[-1] < 1e-20
