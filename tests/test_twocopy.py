import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_binary_spec
from test_percolation import _hyperbond_spec, _three_valued_spec
from rcgibbs import twocopy
from rcgibbs.experiments import examples
from rcgibbs.experiments.examples import check_model_bounds
from rcgibbs.errors import ZeroSliceError
from rcgibbs.gibbs import (
    BondTable,
    FiniteDistribution,
    GibbsSpec,
    Interaction,
    SPIN,
    config_weights,
    effective_bonds,
    gibbs_measure,
    local_index,
)
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import example1_exact_spec, example1_spec, ising_exact_spec, ising_spec
from rcgibbs.percolation import integrated_rc, sigma_connection_profile, slice_connection_prob
from rcgibbs.rcr import allowed_locals
from rcgibbs.twocopy import (
    PairWalk,
    decompose_event,
    make_slice,
    nonoverlap_distribution,
    overlap_distribution,
    pair_values,
    symmetrized_spec,
    two_copy_spec,
)


def _free_spin(n=1):
    g = hypergraph(n, [(v,) for v in range(n)])
    tables = {k: BondTable.from_exponents([0.0, 0.0]) for k in range(n)}
    return GibbsSpec(g, SPIN, Interaction(tables), tuple(range(n)))


def test_single_spin_overlap_distribution():
    rho = overlap_distribution(_free_spin(1))
    assert abs(rho.prob((0,)) - 0.5) < 1e-14
    assert abs(rho.prob((2,)) - 0.25) < 1e-14
    assert abs(rho.prob((-2,)) - 0.25) < 1e-14


def test_point_mass_overlap():
    g = hypergraph(1, [(0,)])
    pinned = Interaction({0: BondTable.from_factors((0.0, 1.0))})
    spec = GibbsSpec(g, SPIN, pinned, (0,))
    rho = overlap_distribution(spec)
    assert rho.prob((2,)) == 1.0


def test_overlap_zero_weight_closed_form():
    J12, J23 = 1.0, 1.0
    spec = example1_spec(J12, J23)
    rho = overlap_distribution(spec)
    Z = 2 * (2 + math.exp(J12) + math.exp(J23))
    Zs = 2 * (math.exp(J12 + J23) + math.exp(J12) + math.exp(J23) + 1)
    assert abs(rho.prob((0, 0, 0)) - Zs / Z**2) < 1e-13
    assert abs(rho.total() - 1) < 1e-12


def test_overlap_binary_fast_path_matches_pure():
    # 9 spins, float and rational: both walk the pairs the same way
    n = 9
    g = hypergraph(n, [(i, i + 1) for i in range(n - 1)])
    t = Fraction(2)
    exact_tables = {
        k: BondTable.from_factors(
            tuple(t if a * b > 0 else 1 / t for a in (-1, 1) for b in (-1, 1))
        )
        for k in range(n - 1)
    }
    spec_e = GibbsSpec(g, SPIN, Interaction(exact_tables), tuple(range(n)))
    spec_f = ising_spec(g, math.log(2.0))
    rho_e = overlap_distribution(spec_e)
    rho_f = overlap_distribution(spec_f)
    assert len(rho_e) == len(rho_f)
    for s, p in itertools.islice(sorted(rho_e.items()), 0, 200, 7):
        assert abs(float(p) - rho_f.prob(s)) < 1e-12


def test_full_overlap_slice_is_point_mass():
    spec = example1_spec(1.0, 1.0)
    mu_s = nonoverlap_distribution(spec, (2, -2, 2))
    assert mu_s.prob((1, -1, 1)) == 1.0
    assert len(mu_s) == 1


def test_zero_slice_raises():
    g = hypergraph(1, [(0,)])
    pinned = Interaction({0: BondTable.from_factors((0.0, 1.0))})
    spec = GibbsSpec(g, SPIN, pinned, (0,))
    with pytest.raises(ZeroSliceError):
        nonoverlap_distribution(spec, (-2,))  # needs both copies at -1
    with pytest.raises(ZeroSliceError):
        make_slice(spec, (3,))


def test_zero_overlap_slice_closed_form():
    J12, J23 = 1.0, 0.6
    spec = example1_spec(J12, J23)
    mu_s = nonoverlap_distribution(spec, (0, 0, 0))
    Zs = 2 * (math.exp(J12 + J23) + math.exp(J12) + math.exp(J23) + 1)
    for o in itertools.product((-1, 1), repeat=3):
        want = math.exp(J12 * (o[0] == o[1]) + J23 * (o[1] == o[2])) / Zs
        assert abs(mu_s.prob(o) - want) < 1e-13


def test_nonoverlap_matches_bruteforce_conditioning():
    # oracle: loop over all pairs of the product measure directly
    for m in range(6):
        spec = random_binary_spec(m, seed=21, n_min=4, n_max=4)
        mu = gibbs_measure(spec)
        outcomes = list(mu.outcomes())
        rng_sigma = [(0, 0, 0, 0), (2, 0, 0, 0), (0, -2, 0, 2)]
        for sigma in rng_sigma:
            table = {}
            for o1 in outcomes:
                o2 = tuple(s - x for s, x in zip(sigma, o1))
                if o2 not in mu.outcomes():
                    continue
                w = mu.prob(o1) * mu.prob(o2)
                if w:
                    table[o1] = table.get(o1, 0) + w
            tot = sum(table.values())
            if tot == 0:
                with pytest.raises(ZeroSliceError):
                    nonoverlap_distribution(spec, sigma)
                continue
            mu_s = nonoverlap_distribution(spec, sigma)
            for o, w in table.items():
                assert abs(mu_s.prob(o) - w / tot) < 1e-12


def test_sigma_symmetry_exact():
    for m in range(6):
        spec = random_binary_spec(m, seed=31, exact=True, n_min=3, n_max=5)
        mu = gibbs_measure(spec)
        outcomes = list(mu.outcomes())
        for sigma in [(0,) * len(spec.region), (2, 0) + (0,) * (len(spec.region) - 2)]:
            try:
                mu_s = nonoverlap_distribution(spec, sigma)
            except ZeroSliceError:
                continue
            for o in mu_s.outcomes():
                refl = tuple(s - x for s, x in zip(sigma, o))
                assert mu_s.prob(o) == mu_s.prob(refl)  # exact rational


def test_symmetrized_interaction_of_corner_chain():
    # the all-zero overlap turns corner couplings into equal-spin couplings
    spec = example1_spec(1.0, 0.6)
    sym = symmetrized_spec(spec, (0, 0, 0))
    for k, J in ((0, 1.0), (1, 0.6)):
        eb = [e for e in effective_bonds(sym) if e.index == k][0]
        facs = [eb.table[li] for li in allowed_locals(sym, eb.inside)]
        # local order: (-1,-1), (-1,1), (1,-1), (1,1)
        assert abs(facs[0] - math.exp(J)) < 1e-14
        assert abs(facs[3] - math.exp(J)) < 1e-14
        assert abs(facs[1] - 1.0) < 1e-14
        assert abs(facs[2] - 1.0) < 1e-14


def test_symmetrized_zero_interaction_stays_zero():
    g = hypergraph(2, [(0, 1)])
    spec = ising_spec(g, 0.0)
    sym = symmetrized_spec(spec, (0, 0))
    eb = effective_bonds(sym)[0]
    facs = [eb.table[li] for li in allowed_locals(sym, eb.inside)]
    assert all(abs(f - 1.0) < 1e-14 for f in facs)


def test_symmetrized_spec_reproduces_slice_measure():
    for m in range(8):
        exact = m % 2 == 0
        spec = random_binary_spec(m, seed=41, exact=exact, n_min=3, n_max=6,
                                  with_boundary=(m % 3 == 0))
        mu = gibbs_measure(spec)
        sigmas = set()
        outs = list(mu.outcomes())
        for i, o1 in enumerate(outs[:8]):
            o2 = outs[(i * 7 + 3) % len(outs)]
            sigmas.add(tuple(a + b for a, b in zip(o1, o2)))
        for sigma in sigmas:
            mu_s = nonoverlap_distribution(spec, sigma)
            mu_sym = gibbs_measure(symmetrized_spec(spec, sigma))
            for o in mu_s.outcomes():
                if exact:
                    assert mu_sym.prob(o) == mu_s.prob(o)
                else:
                    assert abs(mu_sym.prob(o) - mu_s.prob(o)) < 1e-12


def test_phi_prime_symmetry_exact():
    for m in range(5):
        spec = random_binary_spec(m, seed=51, exact=True, n_min=3, n_max=4)
        sigma = (0,) * len(spec.region)
        sym = symmetrized_spec(spec, sigma)
        sig_by_v = dict(zip(spec.region, sigma))
        S = sym.alphabet.size
        for eb in effective_bonds(sym):
            for li in allowed_locals(sym, eb.inside):
                # reflect the local index coordinatewise
                digits = []
                x = li
                for _ in eb.inside:
                    digits.append(x % S)
                    x //= S
                digits.reverse()
                refl = []
                for v, vi in zip(eb.inside, digits):
                    val = SPIN.values[vi]
                    rv = sig_by_v[v] - val
                    refl.append(SPIN.index(rv))
                assert eb.table[li] == eb.table[local_index(S, refl)]


def test_binary_overlap_region_is_nonzero_sigma():
    spec = example1_spec(1.0, 1.0)
    sl = make_slice(spec, (0, 2, 0))
    assert sl.overlap_region == frozenset({1})
    sl = make_slice(spec, (0, 0, 0))
    assert sl.overlap_region == frozenset()


def test_decompose_trivial_and_empty():
    spec = _free_spin(1)
    assert abs(decompose_event(spec, lambda o: o[0] == 1) - 0.5) < 1e-13
    assert decompose_event(spec, lambda o: False) == 0


def test_decompose_matches_direct():
    spec = example1_spec(1.0, 1.0)
    mu = gibbs_measure(spec)
    ev = lambda o: o[0] == 1 and o[2] == 1
    assert abs(decompose_event(spec, ev) - mu.event(ev)) < 1e-12


def test_decomposition_identity_randomized():
    # 200 randomized (spec, event) pairs
    import random as _random

    checked = 0
    m = 0
    while checked < 200:
        spec = random_binary_spec(m, seed=61, n_min=3, n_max=7,
                                  allow_forbidden=(m % 4 == 0))
        mu = gibbs_measure(spec)
        r = _random.Random(m)
        n = len(spec.region)
        for _ in range(4):
            verts = r.sample(range(n), r.randint(1, min(3, n)))
            target = {v: r.choice((-1, 1)) for v in verts}
            ev = lambda o, t=target: all(o[v] == x for v, x in t.items())
            direct = mu.event(ev)
            via = decompose_event(spec, ev)
            assert abs(direct - via) < 1e-12
            checked += 1
        m += 1


def test_overlap_pair_cap():
    from rcgibbs.errors import TooLargeError
    from rcgibbs.lattice import hypergraph as hg

    # 2**13 states: 2**26 pairs pass the 2**24 cap, though the states fit
    n = 13
    spec = ising_spec(hg(n, [(i, i + 1) for i in range(n - 1)]), 0.3)
    with pytest.raises(TooLargeError, match="two-copy pairs"):
        overlap_distribution(spec)


def test_two_copy_spec_is_product_measure():
    for m in range(4):
        spec = random_binary_spec(m, seed=71, n_min=2, n_max=4, with_boundary=(m % 2 == 0))
        mu = gibbs_measure(spec)
        spec2 = two_copy_spec(spec)
        mu2 = gibbs_measure(spec2)
        for o2, p2 in mu2.items():
            vals = [pair_values(spec.alphabet, pv) for pv in o2]
            o_a = tuple(v[0] for v in vals)
            o_b = tuple(v[1] for v in vals)
            assert abs(p2 - mu.prob(o_a) * mu.prob(o_b)) < 1e-12


def test_two_copy_spec_of_a_domain_restricted_spec_is_the_product_measure():
    # exact factors, a boundary spin and per-vertex domains: the pair
    # alphabet's domains are the pairs of each vertex's allowed values
    spec = _three_valued_spec(True)
    mu = gibbs_measure(spec)
    spec2 = two_copy_spec(spec)
    mu2 = gibbs_measure(spec2)
    assert spec2.domains is not None
    assert len(mu2) == len(mu) ** 2
    for o2, p2 in mu2.items():
        vals = [pair_values(spec.alphabet, pv) for pv in o2]
        o_a = tuple(v[0] for v in vals)
        o_b = tuple(v[1] for v in vals)
        assert type(p2) is Fraction and p2 == mu.prob(o_a) * mu.prob(o_b)


# ---------------------------------------------------------------------------
# the one pair walk against the routes it replaced


def _pair_loop_totals(spec):
    """Oracle: the overlap law's pair loop; unnormalized sigma totals in
    order of first appearance."""
    vals = spec.alphabet.values
    configs = list(itertools.product(*[spec.domain_indices(v) for v in spec.region]))
    weights = config_weights(spec).tolist()
    rho = {}
    for c1, w1 in zip(configs, weights):
        if w1 == 0:
            continue
        for c2, w2 in zip(configs, weights):
            if w2 == 0:
                continue
            sig = tuple(vals[a] + vals[b] for a, b in zip(c1, c2))
            rho[sig] = rho.get(sig, 0) + w1 * w2
    return rho


def _binary_overlap(spec):
    """Oracle: the float route for full-binary specs, a bincount of base-3
    overlap codes over normalized weights."""
    n = len(spec.region)
    N = 1 << n
    # reversing the axes puts site p's alphabet index at bit p
    w = config_weights(spec, domains=[(0, 1)] * n).reshape((2,) * n).T.ravel()
    w = w / w.sum()
    bits = (np.arange(N, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    code = bits @ 3 ** np.arange(n, dtype=np.int64)
    rho = np.zeros(3**n)
    chunk = max(1, (1 << 22) // N)
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        sidx = (code[lo:hi, None] + code[None, :]).ravel()
        rho += np.bincount(sidx, weights=(w[lo:hi, None] * w[None, :]).ravel(), minlength=3**n)
    v0, v1 = spec.alphabet.values
    sums = (2 * v0, v0 + v1, 2 * v1)
    table = {}
    for si in np.nonzero(rho)[0]:
        x = int(si)
        digs = []
        for _ in range(n):
            digs.append(sums[x % 3])
            x //= 3
        table[tuple(digs)] = float(rho[si])
    return FiniteDistribution(table, sites=spec.region, normalize=True)


def _reflection_slice_measure(spec, sigma):
    """Oracle: the slice measure as w(c) * w(sigma - c), the second factor
    read through a per-vertex reflection permutation of the weight array."""
    sl = make_slice(spec, sigma)
    idx = spec.alphabet.index
    w1 = config_weights(spec, domains=[[idx(a) for a in adm] for adm in sl.admissible])
    w2 = w1.reshape([len(adm) for adm in sl.admissible])
    for k, (s, adm) in enumerate(zip(sl.sigma, sl.admissible)):
        w2 = w2.take([adm.index(s - a) for a in adm], axis=k)
    table = {
        vals: w
        for vals, w in zip(itertools.product(*sl.admissible), (w1 * w2.ravel()).tolist())
        if w != 0
    }
    if not table:
        raise ZeroSliceError("overlap configuration has probability zero")
    return FiniteDistribution(table, sites=spec.region, normalize=True)


def _per_slice_decompose(spec, predicate):
    """Oracle: the decomposition summed slice by slice from the pair loop's
    overlap law and the reflection slice measures."""
    rho = FiniteDistribution(_pair_loop_totals(spec), sites=spec.region, normalize=True)
    acc = 0
    for sig, r in rho.items():
        if r != 0:
            acc += r * _reflection_slice_measure(spec, sig).event(predicate)
    return acc


def _chain9():
    """A float chain above 256 states: the binary route's inputs."""
    g = hypergraph(9, [(i, i + 1) for i in range(8)])
    return ising_spec(g, [0.3, -0.5, 0.7, 0.2, -0.4, 0.6, 0.1, 0.8])


WALK_CASES = [
    ("example1_exact", lambda: example1_exact_spec(Fraction(3), Fraction(5, 2))),
    *[
        (f"random{m}", lambda m=m: random_binary_spec(
            m, seed=9, n_min=3, n_max=4, allow_forbidden=True, with_boundary=True))
        for m in (2, 7, 12, 14, 19, 20)
    ],
    ("three_valued", lambda: _three_valued_spec(False)),
    ("three_valued_exact", lambda: _three_valued_spec(True)),
    ("hyperbond", _hyperbond_spec),
    ("chain9", _chain9),
]


@pytest.mark.parametrize("name,make", WALK_CASES, ids=[c[0] for c in WALK_CASES])
def test_pair_walk_matches_replaced_routes(monkeypatch, name, make):
    spec = make()
    # a small block budget splits every case into several blocks
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", spec.n_states() ** 2 // 8)
    walk = PairWalk(spec)
    lanes = walk.lanes()
    blocks = list(walk.blocks(lanes=lanes))
    assert len(blocks) > 1
    totals = np.concatenate([totals for _, totals, *_ in blocks], axis=1)
    sigmas = list(itertools.product(*walk.sums))
    want = _pair_loop_totals(spec)
    totals = lanes.values(totals)
    if spec.exact:
        # exact totals are ints over D**2, D the product over bond tables of
        # the lcm of each table's denominators
        D = math.prod(math.lcm(*(Fraction(x).denominator for x in eb.table)) for eb in effective_bonds(spec))
        assert all(type(t) is int for t in totals)
        totals = [Fraction(t, D * D) for t in totals]
    # unnormalized sigma totals bit for bit (Fractions literally)
    assert {s: t for s, t in zip(sigmas, totals) if t != 0} == {
        s: t for s, t in want.items() if t != 0}

    rho = overlap_distribution(spec)
    ref = FiniteDistribution(want, sites=spec.region, normalize=True)
    assert list(rho.outcomes()) == sigmas
    if spec.exact:
        assert {s: p for s, p in rho.items() if p != 0} == dict(ref.items())
    else:
        # the normalizing total adds in another order
        for s, p in rho.items():
            assert abs(p - ref.prob(s)) <= 1e-14 * ref.prob(s)
    if name == "chain9":
        binary = _binary_overlap(spec)
        for s, p in rho.items():
            assert abs(p - binary.prob(s)) <= 1e-13 * p

    # slice measures, outcome order included; the chain's in a stride, about
    # 200 of its 3^9 slices
    positive = [s for s, t in want.items() if t != 0]
    for sigma in positive[::97] if name == "chain9" else positive:
        got = nonoverlap_distribution(spec, sigma)
        assert repr(list(got.items())) == repr(list(_reflection_slice_measure(spec, sigma).items()))
    for sigma in set(sigmas) - set(positive):
        with pytest.raises(ZeroSliceError):
            nonoverlap_distribution(spec, sigma)

    n = len(spec.region)
    events = [lambda o: o[0] == max(o), lambda o: o[n - 1] != o[0], lambda o: sum(o) > 0]
    mu = gibbs_measure(spec)
    for ev in events:
        got = decompose_event(spec, ev)
        if spec.exact:
            assert got == _per_slice_decompose(spec, ev) == mu.event(ev)
        elif name == "chain9":
            assert abs(got - mu.event(ev)) < 1e-12
        else:
            assert abs(got - _per_slice_decompose(spec, ev)) < 1e-12


def _shape_twins(exact):
    """Two specs of one shape (domains and slice sums) with other couplings."""
    g = hypergraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    if exact:
        return [ising_exact_spec(g, f) for f in (Fraction(2), Fraction(5, 3))]
    return [ising_spec(g, J, h=0.2) for J in ([0.3, -0.5, 0.9, 0.1, 0.7, -0.2], 0.6)]


def _queries(spec):
    """The exact routes that read the walk, as literal reprs."""
    irc = integrated_rc(spec)
    return [
        repr(list(irc.patterns.items())),
        repr(sigma_connection_profile(spec, {0}, {3})),
        repr(list(overlap_distribution(spec).items())),
        repr(list(check_model_bounds(spec).items())),
    ]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_retained_walks_give_the_cold_results(monkeypatch, exact):
    first, second = _shape_twins(exact)
    cold = []
    for spec in (first, second):
        monkeypatch.setattr(twocopy, "_retained", twocopy._Retained(1 << 21))
        monkeypatch.setattr(examples, "_cells", twocopy._Retained(1 << 21))
        monkeypatch.setattr(examples, "_reach", twocopy._Retained(1 << 21))
        cold.append(_queries(spec))
    # one cache for both: the second spec's walks, chunks and reach table
    # (one bond structure) are all served from what the first one left
    caches = twocopy._retained, examples._cells, examples._reach
    assert _queries(first) == cold[0]
    misses = [cache.misses for cache in caches]
    assert _queries(second) == cold[1]
    assert [cache.misses for cache in caches] == misses and all(cache.hits > 0 for cache in caches)
    for a in [a for cache in caches for entry in cache.entries.values() for a in entry]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_walk_past_the_block_budget_retains_nothing(monkeypatch):
    cache = twocopy._Retained(twocopy._retained.max_bytes)
    monkeypatch.setattr(twocopy, "_retained", cache)
    # one slice of 2^17 pairs: its block and its run tables (2^16 + 2 pairs)
    # list more than _BLOCK_CELLS pairs
    spec = ising_spec(hypergraph(17, [(i, i + 1) for i in range(16)]), 0.4)
    blocks = list(PairWalk(spec, (0,) * 17).blocks())
    assert len(blocks) == 1 and len(blocks[0][2]) == 1 << 17
    # the 3x3 grid's 2^18 pairs come in blocks of at most 2^16, but its lists
    # do not fit the cache at once, and its run tables list 2^16 + 4 pairs
    blocks = list(PairWalk(ising_spec(build_grid(3, 3), 0.5)).blocks())
    assert len(blocks) > 1 and max(len(b[2]) for b in blocks) <= twocopy._BLOCK_CELLS
    assert not cache.entries and cache.nbytes == 0 and cache.hits == 0
    # the 7-site chain's 2^14 pairs: its tables and its one block are kept
    spec = ising_spec(hypergraph(7, [(i, i + 1) for i in range(6)]), 0.4)
    list(PairWalk(spec).blocks())
    assert len(cache.entries) == 2
    assert cache.nbytes == sum(map(cache.size, cache.entries.values())) <= cache.max_bytes


def test_one_slice_walks_leave_the_cache_alone(monkeypatch):
    cache = twocopy._Retained(1 << 20)
    monkeypatch.setattr(twocopy, "_retained", cache)
    spec = ising_spec(hypergraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 0.4)
    integrated_rc(spec)  # a full walk keeps its tables and lists
    books = cache.hits, cache.misses, list(cache.entries), cache.nbytes
    assert books[2]
    for _ in range(2):  # a repeated sigma is built again, not looked up
        mu = nonoverlap_distribution(spec, (0, 2, 0, -2, 0))
        p = slice_connection_prob(spec, (0, 0, 2, 0, 0), {0}, {3})
    assert (cache.hits, cache.misses, list(cache.entries), cache.nbytes) == books
    assert len(list(mu.items())) == 8 and 0 < p < 1


def test_retained_drops_the_least_recently_used():
    cost = np.zeros(5).nbytes + twocopy._HEADER  # an array's data and its header
    cache = twocopy._Retained(3 * cost - 1)
    built = []

    def build(key):
        built.append(key)
        return (np.zeros(5),)

    for key in ("a", "b", "a", "c", "b"):
        cache.get(key, lambda: build(key), len)
    # past two arrays, c dropped b (a had been read since) and b then dropped a
    assert built == ["a", "b", "c", "b"] and list(cache.entries) == ["c", "b"]
    assert (cache.hits, cache.misses, cache.nbytes) == (1, 4, 2 * cost)
    # small tuples are bounded by their bytes alone: 1 KiB holds the last
    # floor(1024 / (8 + header)) one-float arrays
    cache = twocopy._Retained(1 << 10)
    for key in range(100):
        cache.get(key, lambda: (np.zeros(1),), len)
    kept = (1 << 10) // (8 + twocopy._HEADER)
    assert list(cache.entries) == list(range(100 - kept, 100)) and cache.nbytes == kept * (8 + twocopy._HEADER)


def test_retained_shared_by_threads_keeps_its_books():
    # four threads walk three shapes through a cache that holds about one
    # walk, so gets, inserts and evictions interleave
    specs = [ising_spec(hypergraph(n, [(i, i + 1) for i in range(n - 1)]), 0.3 + 0.1 * n) for n in (5, 6, 7)]
    want = [repr(list(integrated_rc(spec).patterns.items())) for spec in specs]
    cache = twocopy._Retained(200_000)
    errors, got = [], []

    def work(k):
        try:
            for i in range(12):
                j = (i + k) % 3
                got.append((j, repr(list(integrated_rc(specs[j]).patterns.items()))))
        except Exception as e:  # a race shows as an exception in a worker
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(twocopy, "_retained", cache)
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(got) == 48 and all(text == want[j] for j, text in got)
    assert cache.hits + cache.misses > 48 and cache.hits > 0
    assert cache.nbytes == sum(map(cache.size, cache.entries.values())) <= cache.max_bytes
