import itertools
import math
from fractions import Fraction

import pytest

from conftest import random_binary_spec
from rcgibbs.errors import ZeroSliceError
from rcgibbs.gibbs import (
    BondTable,
    GibbsSpec,
    Interaction,
    SPIN,
    effective_bonds,
    gibbs_measure,
    local_index,
)
from rcgibbs.lattice import hypergraph
from rcgibbs.models import example1_spec, ising_spec
from rcgibbs.rcr import allowed_locals
from rcgibbs.twocopy import (
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
    # 9 spins routes through the vectorized path; rational twin is pure python
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

    n = 9
    spec = ising_spec(hg(n, [(i, i + 1) for i in range(n - 1)]), 0.3)
    with pytest.raises(TooLargeError):
        overlap_distribution(spec, max_pairs=1 << 10)


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
