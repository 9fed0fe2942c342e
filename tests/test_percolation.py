import itertools
import math
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

import fraction_kernel as oracle
from conftest import random_binary_spec
from rcgibbs.errors import RcgibbsError, TooLargeError, ZeroSliceError
from rcgibbs import errors, percolation, rcr, twocopy
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
from rcgibbs.lattice import build_cayley_tree, build_grid, hypergraph
from rcgibbs.experiments.examples import _random_spec
from rcgibbs.models import example1_exact_spec, example1_spec, ising_spec
from rcgibbs.percolation import (
    IntegratedRC,
    _pattern_records,
    activity_pattern,
    activity_rows,
    chain_components,
    domination_probability,
    extremality_diagnostic,
    integrated_rc,
    joined,
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


def test_connection_probability_adds_joined_weights_in_order_from_int_zero():
    bonds = ((0, 1), (1, 2), (0, 2))
    # 0b011, 0b111 and 0b100 join 0 and 2; in dict order their floats add to
    # 0.6000000000000001, in mask order to 0.6
    masks = [0b111, 0b001, 0b011, 0b010, 0b100]
    floats = IntegratedRC(3, bonds, dict(zip(masks, [0.1, 0.5, 0.2, 0.25, 0.3])), False)
    assert floats.connection_probability({0}, {2}) == 0 + 0.1 + 0.2 + 0.3 != 0.2 + 0.3 + 0.1
    fractions = IntegratedRC(3, bonds, {m: Fraction(1, k) for k, m in enumerate(masks, 2)}, True)
    got = fractions.connection_probability({0}, {2})
    assert got == Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 6) and isinstance(got, Fraction)
    for patterns in ({}, {0b001: 0.5, 0b010: 0.5}):
        got = IntegratedRC(3, bonds, patterns, False).connection_probability({0}, {2})
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
        labels = chain_components(n, bonds, activity_rows(masks, len(bonds)))
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


def _mask_partition(n, bonds, mask):
    """Oracle: per vertex, the least vertex of its chain under the active
    bonds of an int mask (union-find), -1 where no active bond covers it."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    covered = set()
    for j, b in enumerate(bonds):
        if mask >> j & 1:
            covered.update(b)
            for u in b[1:]:
                ru, rv = sorted((find(b[0]), find(u)))
                parent[rv] = ru
    return [min(u for u in covered if find(u) == find(v)) if v in covered else -1 for v in range(n)]


@pytest.mark.parametrize("n_bonds", [0, 1, 7, 8, 9, 62, 63, 64, 65, 130])
def test_activity_rows_put_bit_j_in_column_j(n_bonds):
    # one, two and three 8-byte words; repeated rows, and K = 0 and 1
    rng = np.random.default_rng(n_bonds)
    n = 12
    bonds = [tuple(sorted(rng.permutation(n)[: int(rng.integers(1, 4))].tolist())) for _ in range(n_bonds)]
    for K in (0, 1, 40):
        rows = rng.random((K, n_bonds)) < 0.05 + 2 / max(n_bonds, 1)
        rows[K // 2 :] = rows[: K - K // 2][::-1]
        if K > 1:
            rows[1] = True  # the widest mask, 2**63 - 1 at 63 bonds
        masks = [sum(1 << j for j in np.flatnonzero(r).tolist()) for r in rows]
        got = activity_rows(masks, n_bonds)
        assert got.dtype == bool and got.shape == (K, n_bonds) and (got == rows).all()
        # below 64 bonds the masks are read as int64 bytes, ints or an int64
        # array; the Python-int route of wider masks gives the same columns
        wide = activity_rows(masks, max(n_bonds, 64))
        assert (wide[:, :n_bonds] == rows).all() and not wide[:, n_bonds:].any()
        if n_bonds < 64:
            assert (activity_rows(np.array(masks, dtype=np.int64), n_bonds) == rows).all()
        else:  # as joined passes them, an object array from np.unique
            assert (activity_rows(np.array(masks, dtype=object), n_bonds) == rows).all()
        labels = chain_components(n, bonds, rows)
        assert labels.shape == (K, n)
        for row, mask in zip(labels.tolist(), masks):
            least = {}
            for v, label in enumerate(row):
                least.setdefault(label, v)
            assert [least[label] if label >= 0 else -1 for label in row] == _mask_partition(n, bonds, mask)


def test_joined_matches_regions_connected_per_mask():
    # repeated masks, masks of 63-100 bonds, and masks with bit 63 set among
    # smaller ones, which numpy would turn into floats
    rng = stream(15, 0)
    for n_bonds in (3, 12, 63, 64, 65, 100):
        for _ in range(20):
            n = int(rng.integers(4, 30))
            bonds = _random_bonds(rng, n, n_bonds)
            masks = [_random_mask(rng, n_bonds) for _ in range(5)]
            masks += [masks[0], masks[3], 0, (1 << n_bonds) - 1, masks[3]]
            if n_bonds >= 64:
                masks += [m | 1 << 63 for m in masks[:3]]
            A = set(rng.permutation(n)[: int(rng.integers(1, 3))].tolist())
            B = set(rng.permutation(n)[: int(rng.integers(1, 3))].tolist())
            got = joined(n, bonds, masks, A, B)
            assert got.dtype == bool and got.shape == (len(masks),)
            want = [regions_connected(n, bonds, m, A, B) for m in masks]
            assert got.tolist() == want
            assert want == [_bfs_connected(n, [b for j, b in enumerate(bonds) if m >> j & 1], A, B) for m in masks]
            if n_bonds < 63:
                assert joined(n, bonds, np.array(masks, np.int64), A, B).tolist() == want
    bonds = [(0, 1)] + [(3, 4)] * 62 + [(1, 2)]
    assert joined(5, bonds, [1 << 63, 1 << 63 | 1, 1], {0}, {2}).tolist() == [False, True, False]
    assert joined(5, bonds, [], {0}, {2}).shape == (0,)


def test_joined_in_batches_of_the_cell_budget(monkeypatch):
    # 12 distinct masks among 17, labelled in slices of the budget read at
    # call time: 1 mask (a budget at or below one row), 2, an exact divisor
    # of 12, one that is not, and one past the count; 70 bonds take the
    # object-mask route
    rng = stream(16, 0)
    label = percolation.chain_components
    for n_bonds in (12, 70):
        n = 20
        bonds = _random_bonds(rng, n, n_bonds)
        masks = [0, (1 << n_bonds) - 1]
        while len(masks) < 12:
            m = _random_mask(rng, n_bonds)
            masks += [m] if m not in masks else []
        masks += [masks[k] for k in (3, 0, 11, 3, 7)]
        A, B = {0, 1}, {18}
        want = joined(n, bonds, masks, A, B).tolist()
        assert want == [_bfs_connected(n, [b for j, b in enumerate(bonds) if m >> j & 1], A, B) for m in masks]
        for budget, step in ((1, 1), (n_bonds, 1), (2 * n_bonds + 1, 2), (4 * n_bonds, 4), (5 * n_bonds, 5), (99 * n_bonds, 99)):
            rows = []
            monkeypatch.setattr(percolation, "chain_components", lambda nv, bv, active: rows.append(len(active)) or label(nv, bv, active))
            monkeypatch.setattr(twocopy, "_BLOCK_CELLS", budget)
            assert joined(n, bonds, masks, A, B).tolist() == want, (n_bonds, budget)
            assert rows == [min(step, 12 - lo) for lo in range(0, 12, step)], (n_bonds, budget)
            assert joined(n, bonds, [], A, B).shape == (0,)
            with pytest.raises(ValueError):
                joined(n, bonds, [], A, {n})


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


def _assert_coins_equal(got, want, exact):
    """Literal equality with the oracle's nested lists: float64 tables bit
    for bit, object tables of Fractions by value and type."""
    assert len(got) == len(want)
    for table, ref in zip(got, want):
        assert table.shape == (len(ref), len(ref))
        if exact:
            assert table.dtype == object
            assert all(type(q) is Fraction for q in table.ravel())
            assert all(type(q) is Fraction for row in ref for q in row)
            assert table.tolist() == ref
        else:
            assert table.dtype == np.float64
            assert all(type(q) is float for row in ref for q in row)
            assert table.view(np.uint64).tolist() == np.array(ref).view(np.uint64).tolist()


def _domain_spec():
    """Three values on a chain plus a triangle hyperbond, one vertex
    pinned to a single value and one restricted to two."""
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 2, 3)])
    rng = stream(191, 0)
    tables = {k: BondTable.from_factors(rng.uniform(0.1, 4.0, 3 ** len(b)).tolist()) for k, b in enumerate(g.bonds)}
    return GibbsSpec(g, Alphabet((-1, 0, 1)), Interaction(tables), (0, 1, 2, 3), domains={1: (0,), 2: (-1, 1)})


def _int_factor_spec():
    g = hypergraph(3, [(0, 1), (1, 2), (0, 2), (1,)])
    factors = [(3, 1, 1, 3), (5, 2, 1, 4), (1, 0, 2, 2), (7, 3)]
    return GibbsSpec(g, SPIN, Interaction({k: BondTable.from_factors(f) for k, f in enumerate(factors)}), (0, 1, 2))


COIN_CASES = [
    *[(f"c04_seed{seed}", lambda seed=seed: [_random_spec(m, seed) for m in range(1, 61)]) for seed in (1, 7)],
    ("three_valued", lambda: [_three_valued_spec(False), _three_valued_spec(True)]),
    ("hyperbond", lambda: [_hyperbond_spec()]),
    ("domains", lambda: [_domain_spec()]),
    # the bonds between the last two rows straddle the region's edge
    ("boundary", lambda: [ising_spec(build_grid(3, 3), [0.4, -0.9, 1.3, 0.2, 0.7, -0.5, 1.1, 0.6, -0.3, 0.8, 1.4, 0.5],
                                     h=0.2, region=range(6), boundary={6: 1, 7: -1, 8: 1})]),
    ("exact", lambda: [_int_factor_spec(), example1_exact_spec(Fraction(3), Fraction(5, 2))]),
]


@pytest.mark.parametrize("name,make", COIN_CASES, ids=[c[0] for c in COIN_CASES])
def test_pair_coin_table_matches_level_loop_literally(name, make):
    for spec in make():
        _assert_coins_equal(pair_coin_table(spec), oracle.pair_coin_table(spec), spec.exact)


def test_one_pair_coin_table_holds_every_slice_coin():
    # at the local pairs of each sigma, the spec's one table holds the coins
    # of the level loop restricted to that slice, and the restricted loop
    # has no coin elsewhere
    for exact in (False, True):
        spec = _three_valued_spec(exact)
        S, values = spec.alphabet.size, spec.alphabet.values
        pos = {v: p for p, v in enumerate(spec.region)}
        sums = [sorted({a + b for a in d for b in d}) for d in map(spec.domain_values, spec.region)]
        sigmas = [*itertools.product(*sums), (3, 0, 0, 0), (0, 0, 0, -1)]  # the last two: no pair makes them
        assert len(sigmas) == 227
        tables = pair_coin_table(spec)
        live = 0
        for sigma in sigmas:
            for eb, table, ref in zip(effective_bonds(spec), tables, oracle.pair_coin_table(spec, sigma)):
                local = [sigma[pos[v]] for v in eb.inside]
                locals_ = list(itertools.product(range(S), repeat=len(eb.inside)))
                pairs = [(local_index(S, y1), local_index(S, y2)) for y1 in locals_ for y2 in locals_
                         if [values[a] + values[b] for a, b in zip(y1, y2)] == local]
                got = [table[x1, x2] for x1, x2 in pairs]
                want = [ref[x1][x2] for x1, x2 in pairs]
                assert sum(q != 0 for row in ref for q in row) == sum(q != 0 for q in want)
                if exact:
                    assert all(type(q) is Fraction for q in got + want) and got == want
                else:
                    assert all(type(q) is float for q in want)
                    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
                live += sum(0 < q < 1 for q in want)
        assert live > 0


def test_one_slice_query_refuses_a_spec_whose_coin_underflows():
    # the slice sigma = (2, 2) has a single coin level, but the spec's one
    # coin table underflows at the local overlap (0, 0), and every query
    # reads that table
    spec = ising_spec(build_grid(2, 1), 190.0)
    for query in (lambda: slice_connection_prob(spec, (2, 2), {0}, {1}), lambda: integrated_rc(spec)):
        with pytest.raises(RcgibbsError, match="^activity coin underflow; rescale couplings$"):
            query()


def test_pair_coin_underflow_raises():
    # at J = 190 the lower level of a bond's coin underflows against the top
    spec = ising_spec(build_grid(2, 2), 190.0)
    for kernel in (pair_coin_table, oracle.pair_coin_table):
        with pytest.raises(RcgibbsError, match="underflow"):
            kernel(spec)


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
            masks = _pattern_records(spec, sigma)[4].tolist()
            for j, verts in enumerate(irc_bonds):
                if set(verts) <= K:
                    assert all(not (mask >> j) & 1 for mask in masks)


# ---------------------------------------------------------------------------
# the pattern kernel against the slice-by-slice loop it replaced


class _SpecTerms:
    """Oracle: per-spec work shared by the slices of one call (the pair-coin
    table, every configuration's weight, each configuration's bond local
    indices on first use)."""

    def __init__(self, spec, coins):
        self.coins = oracle.pair_coin_table(spec) if coins else None
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
            key = tuple(_active_weight(bb, li) / bb.support_weight(li) for bb, li in zip(base.bonds, l1))
            by_q[key] = by_q.get(key, 0) + w
    patterns = {}
    for qs, w in by_q.items():
        _expand_pattern(qs, w, patterns)
    return total, patterns


def _active_weight(bb, local):
    """Probability of the bond base's active subsets (all but the full
    mask) containing the local configuration."""
    return sum(p for s, p in zip(bb.subsets, bb.probs) if s != bb.full_mask and (s >> local) & 1)


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
    labels = percolation.chain_components(spec.graph.n_vertices, bond_vertices, activity_rows(masks, len(bond_vertices)))
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
    A, B = {spec.region[0]}, {spec.region[-1]}
    patterns, want_rows, want_pbar, slice_probs = _oracle_laws(spec, A, B, factory)
    sums = [sorted({a + b for a in d for b in d}) for d in map(spec.domain_values, spec.region)]
    # the default block budget takes every case in one walk block, the route
    # of small specs; a small one splits every case into several blocks
    n_bonds = max(len(effective_bonds(spec)), 1)
    cells = spec.n_states() ** 2 * n_bonds
    for budget, one_block in ((twocopy._BLOCK_CELLS, True), (cells // 8, False)):
        monkeypatch.setattr(twocopy, "_BLOCK_CELLS", budget)
        assert (sum(1 for _ in twocopy.PairWalk(spec).blocks(n_bonds)) == 1) == one_block
        irc = integrated_rc(spec)
        # literal equality, dict order included: floats bit for bit, Fractions exactly
        assert list(irc.patterns.items()) == list(patterns.items())
        rows, pbar = sigma_connection_profile(spec, A, B)
        assert rows == want_rows and pbar == want_pbar
        for sigma in itertools.islice(itertools.product(*sums), 0, None, 17):
            if sigma in slice_probs:
                assert slice_connection_prob(spec, sigma, A, B) == slice_probs[sigma]
            else:
                with pytest.raises(ZeroSliceError):
                    slice_connection_prob(spec, sigma, A, B)


def test_pattern_records_peak_memory_is_bounded():
    # 16,384 pairs over 6 bonds: two blocks of pairs, cut again into runs of
    # leaves. With Python 3.11 and numpy 2.4 the peak reads 1.35 MB at a
    # budget of 2^16 cells and 1.96 MB at 2^17; the bound lies between, so
    # that a doubled block budget fails here.
    spec = ising_spec(hypergraph(7, [(i, i + 1) for i in range(6)]), 0.5)
    want = sigma_connection_profile(spec, {0}, {6})  # imports and caches outside the trace
    tracemalloc.start()
    try:
        got = sigma_connection_profile(spec, {0}, {6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1.65e6
    # The 4x2 grid's 65,536 pairs over 10 bonds span 10 blocks of 2^16
    # cells. Its records, all kept until the call returns, peak at 4.6 MB at
    # 2^16 and 6.7 MB at 2^17 (Python 3.11, numpy 2.4); the bound lies
    # between.
    spec = ising_spec(build_grid(4, 2), 0.5)
    assert spec.n_states() ** 2 * len(effective_bonds(spec)) == 10 << 16
    _pattern_records(spec)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        _pattern_records(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.6e6


def test_leaf_cap_refuses_before_labelling_and_a_query_labels_once(monkeypatch):
    # the 7-site chain's 16,384 pairs over 6 bonds take 13 walk blocks at a
    # budget of 2^13 cells. With the leaf cap set so that the last block
    # crosses it, the call refuses with nothing labelled; without it, the
    # profile labels all its records by one joined call
    spec = ising_spec(hypergraph(7, [(i, i + 1) for i in range(6)]), 0.5)
    want = sigma_connection_profile(spec, {0}, {6})
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", 1 << 13)
    assert sum(1 for _ in twocopy.PairWalk(spec).blocks(6)) == 13
    calls = {"chain_components": 0, "joined": 0, "leaves": []}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    def check_cap(name, count):
        if name == "pattern leaves":
            calls["leaves"].append(count)
        errors.check_cap(name, count)

    monkeypatch.setattr(percolation, "chain_components", counted("chain_components", percolation.chain_components))
    monkeypatch.setattr(percolation, "joined", counted("joined", percolation.joined))
    monkeypatch.setattr(percolation, "check_cap", check_cap)
    assert sigma_connection_profile(spec, {0}, {6}) == want
    assert calls["joined"] == 1 and calls["chain_components"] >= 1
    leaves = calls["leaves"]
    assert len(leaves) > 2 and leaves[-2] < leaves[-1]
    monkeypatch.setitem(errors.CAPS, "pattern leaves", leaves[-2])
    calls.update(chain_components=0, joined=0)
    with pytest.raises(TooLargeError, match="pattern leaves"):
        sigma_connection_profile(spec, {0}, {6})
    assert calls["chain_components"] == 0 and calls["joined"] == 0


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
        integrated_rc(spec)


def test_integrated_rc_past_twenty_bonds_matches_the_profile():
    # 13 pair bonds and 8 field bonds on 8 sites: 21 effective bonds and
    # 2^16 two-copy pairs, whose leaves fit the leaf cap
    pairs = [(i, i + 1) for i in range(7)] + [(0, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 2)]
    g = hypergraph(8, pairs + [(v,) for v in range(8)])
    tables = {k: BondTable.from_factors((Fraction(3, 2), 1, 1, Fraction(3, 2))) for k in range(len(pairs))}
    for v in range(8):
        tables[len(pairs) + v] = BondTable.from_factors((1, Fraction(4 + v % 3, 4)))
    spec = GibbsSpec(g, SPIN, Interaction(tables), tuple(range(8)))
    assert len(effective_bonds(spec)) == 21 and spec.n_states() ** 2 == 1 << 16
    for A, B in (({0}, {6}), ({1, 2}, {5})):
        _, pbar = sigma_connection_profile(spec, A, B)
        got = integrated_rc(spec).connection_probability(A, B)
        assert type(got) is Fraction and got == pbar


def _columns_past_two_to_the_62():
    # 11 columns with a radix of 2**20 each: the mixed-radix code passes
    # 2**62 at the fourth column, so the codes and columns are re-ranked,
    # and a code left to wrap would merge rows that differ only in early columns
    rng = stream(193, 0)
    base = rng.integers(0, 1 << 20, (40, 11))
    base[0] = (1 << 20) - 1
    base[1:10] = base[10]
    base[1:10, :3] = rng.integers(0, 1 << 20, (9, 3))  # rows equal from the fourth column on
    return np.concatenate([base, base[::-1], base[rng.integers(0, 40, 100)]])


def _small_radix_columns():
    rng = stream(194, 0)
    return rng.integers(0, [2, 3, 1, 5], (60, 4))


FIRST_SEEN_ROWS = {
    "no-rows": lambda: np.zeros((0, 3), dtype=np.int64),
    "one-row": lambda: np.array([[4, 0, 7]]),
    "all-equal": lambda: np.full((9, 2), 5),
    "small-radix": _small_radix_columns,
    "past-2-to-the-62": _columns_past_two_to_the_62,
}


@pytest.mark.parametrize("case", FIRST_SEEN_ROWS)
def test_first_seen_numbers_rows_as_a_dict_does(case):
    rows = FIRST_SEEN_ROWS[case]()
    number = {}
    want = [number.setdefault(tuple(r), len(number)) for r in rows.tolist()]
    firsts = {}
    for i, n in enumerate(want):
        firsts.setdefault(n, i)
    got, first = percolation._first_seen(*rows.T)
    assert got.tolist() == want
    assert first.tolist() == list(firsts.values())


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
