import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_gibbs, random_binary_spec
from rcgibbs.errors import AllForbiddenError, TooLargeError
from rcgibbs.gibbs import (
    Alphabet,
    BondTable,
    FiniteDistribution,
    GibbsSpec,
    Interaction,
    OCCUPANCY,
    SPIN,
    gibbs_measure,
)
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import example1_spec, hardcore_spec, ising_spec


def test_zero_coupling_is_uniform():
    g = hypergraph(2, [(0, 1)])
    mu = gibbs_measure(ising_spec(g, 0.0))
    for o in itertools.product((-1, 1), repeat=2):
        assert abs(mu.prob(o) - 0.25) < 1e-14


def test_three_spin_partition_function():
    J12, J23 = 1.3, 0.4
    spec = example1_spec(J12, J23)
    mu = gibbs_measure(spec)
    # closed form for the corner-coupling chain
    Z = 2 * (2 + math.exp(J12) + math.exp(J23))
    assert abs(mu.prob((-1, -1, -1)) - math.exp(J12) / Z) < 1e-14
    assert abs(mu.prob((1, 1, 1)) - math.exp(J23) / Z) < 1e-14
    assert abs(mu.prob((1, -1, 1)) - 1 / Z) < 1e-14


def test_hardcore_single_edge():
    g = hypergraph(2, [(0, 1)])
    mu = gibbs_measure(hardcore_spec(g, 1.0))
    assert mu.prob((1, 1)) == 0
    for o in ((0, 0), (0, 1), (1, 0)):
        assert abs(mu.prob(o) - 1 / 3) < 1e-14


def test_expectation_uniform_and_point_mass():
    g = hypergraph(1, [(0,)])
    tables = Interaction({0: BondTable.from_exponents([0.0, 0.0])})
    mu = gibbs_measure(GibbsSpec(g, SPIN, tables, (0,)))
    assert abs(mu.expectation(lambda o: o[0])) < 1e-14
    pinned = Interaction({0: BondTable.from_factors((0.0, 1.0))})
    mu = gibbs_measure(GibbsSpec(g, SPIN, pinned, (0,)))
    assert mu.prob((1,)) == 1.0
    assert mu.expectation(lambda o: o[0] * 7) == 7


def test_covariance_matches_enumeration_oracle():
    spec = example1_spec(1.0, 1.0)
    mu = gibbs_measure(spec)
    # independent oracle: raw loop over the eight configurations
    w = {}
    for c in itertools.product((-1, 1), repeat=3):
        w[c] = math.exp(1.0 * (c[0] == c[1] == -1) + 1.0 * (c[1] == c[2] == 1))
    Z = sum(w.values())
    e13 = sum(v * c[0] * c[2] for c, v in w.items()) / Z
    e1 = sum(v * c[0] for c, v in w.items()) / Z
    e3 = sum(v * c[2] for c, v in w.items()) / Z
    cov_oracle = e13 - e1 * e3
    assert abs(mu.covariance(lambda o: o[0], lambda o: o[2]) - cov_oracle) < 1e-14
    dmu = mu.event(lambda o: o[0] == o[2] == 1) - mu.event(lambda o: o[0] == 1) * mu.event(
        lambda o: o[2] == 1
    )
    assert abs(cov_oracle - 4 * dmu) < 1e-14


def test_covariance_degenerate_cases():
    spec = example1_spec(0.7, 0.7)
    mu = gibbs_measure(spec)
    assert abs(mu.covariance(lambda o: 3.0, lambda o: 3.0)) < 1e-14
    g = hypergraph(2, [(0, 1)])
    mu = gibbs_measure(ising_spec(g, 0.0))
    assert abs(mu.covariance(lambda o: o[0], lambda o: o[1])) < 1e-12


def test_normalization_random_models():
    for m in range(25):
        spec = random_binary_spec(m, seed=3, allow_forbidden=True)
        mu = gibbs_measure(spec)
        assert abs(mu.total() - 1) < 1e-12


def test_float_normalizing_totals_are_correctly_rounded():
    # the 12-site chain: a sequential sum of its overlap law's 3^12 totals
    # is 1.7e-13 relative off; math.fsum's total leaves the normalized law
    # summing to 1 within two roundings. gibbs_measure's Z (2^12 states) and
    # a dict table take the same total
    from rcgibbs import twocopy

    spec = ising_spec(build_grid(12, 1), 0.4)
    law = twocopy.overlap_distribution(spec)
    assert len(law) == 3**12
    assert abs(math.fsum(law.weights.tolist()) - 1) <= 4e-16
    mu = gibbs_measure(spec)
    assert abs(math.fsum(mu.weights.tolist()) - 1) <= 4e-16
    raw = [0.1] * 10 + [1e-17] * 1000
    table = FiniteDistribution(dict(enumerate(raw)), normalize=True)
    assert [table.prob(i) for i in range(len(raw))] == [w / math.fsum(raw) for w in raw]
    flat = FiniteDistribution.over_product([range(len(raw))], np.array(raw), normalize=True)
    assert flat.weights.tolist() == [w / math.fsum(raw) for w in raw]
    # finite weights whose sum overflows give an infinite total, as sum did
    assert FiniteDistribution.over_product([range(2)], np.array([1e308, 1e308]), normalize=True).weights.tolist() == [0.0, 0.0]


def test_float_and_pure_python_engines_agree():
    # 13 spins in float64; the rational twin with the same factor tables
    # is enumerated in Fractions.
    n = 13
    g = hypergraph(n, [(i, i + 1) for i in range(n - 1)])
    t = Fraction(3, 2)
    exact_tables = {
        k: BondTable.from_factors(
            tuple(t if a * b > 0 else 1 / t for a in (-1, 1) for b in (-1, 1))
        )
        for k in range(n - 1)
    }
    float_tables = {
        k: BondTable.from_factors(
            tuple(float(t) if a * b > 0 else float(1 / t) for a in (-1, 1) for b in (-1, 1))
        )
        for k in range(n - 1)
    }
    mu_exact = gibbs_measure(GibbsSpec(g, SPIN, Interaction(exact_tables), tuple(range(n))))
    mu_float = gibbs_measure(GibbsSpec(g, SPIN, Interaction(float_tables), tuple(range(n))))
    for o in [(-1,) * n, (1,) * n, tuple((-1) ** i for i in range(n))]:
        assert abs(float(mu_exact.prob(o)) - mu_float.prob(o)) < 1e-13


def test_packed_distribution_interface():
    # 2**18 states: the product-backed distribution answers the same
    # interface as a small one
    n = 18
    g = hypergraph(n, [(i, i + 1) for i in range(n - 1)])
    mu = gibbs_measure(ising_spec(g, 0.2))
    assert len(mu) == 1 << n
    assert abs(mu.total() - 1) < 1e-10
    assert next(iter(mu.outcomes())) == (-1,) * n
    # spin-flip symmetry of the zero-field chain
    assert abs(mu.prob((-1,) * n) - mu.prob((1,) * n)) < 1e-18
    mean0 = mu.site_means()[0]
    assert abs(mean0) < 1e-12


def _loop_weights(spec, domains):
    # reference: one configuration at a time, bonds in effective_bonds order
    from rcgibbs.gibbs import effective_bonds, local_index

    S = spec.alphabet.size
    pos = {v: p for p, v in enumerate(spec.region)}
    out = []
    for cfg in itertools.product(*domains):
        w = Fraction(1) if spec.exact else 1.0
        for eb in effective_bonds(spec):
            w = w * eb.table[local_index(S, (cfg[pos[v]] for v in eb.inside))]
        out.append(w)
    return out


def test_config_weights_match_loop_oracle():
    from rcgibbs.gibbs import config_weights

    specs = [
        random_binary_spec(m, seed=8, exact=(m % 2 == 0), allow_forbidden=True, with_boundary=(m % 3 == 0))
        for m in range(12)
    ]
    g = hypergraph(4, [(0, 1), (1, 2, 3), (2,)])
    A3 = Alphabet((-1, 0, 1))
    tables = {
        0: BondTable.from_factors(tuple(Fraction(1 + i, 3) for i in range(9))),
        1: BondTable.from_factors(tuple(Fraction(i % 5, 2) for i in range(27))),
        2: BondTable.from_factors((Fraction(1), Fraction(0), Fraction(3))),
    }
    specs.append(GibbsSpec(g, A3, Interaction(tables), (0, 1, 2, 3), domains={1: (1, -1), 3: (0, 1)}))
    for spec in specs:
        doms = [spec.domain_indices(v) for v in spec.region]
        assert config_weights(spec).tolist() == _loop_weights(spec, doms)  # literal
        flipped = [d[::-1] for d in doms]
        assert config_weights(spec, domains=flipped).tolist() == _loop_weights(spec, flipped)


def test_product_backing_answers_like_a_dict():
    from rcgibbs.gibbs import FiniteDistribution

    spec = random_binary_spec(4, seed=9, exact=True, allow_forbidden=True)
    mu = gibbs_measure(spec)
    ref = FiniteDistribution(dict(mu.items()), sites=spec.region)
    assert list(mu.items()) == list(ref.items()) and len(mu) == len(ref)
    assert mu.total() == ref.total() == 1
    assert mu.site_means() == ref.site_means()
    f = lambda o: o[0] * o[-1]
    assert mu.expectation(f) == ref.expectation(f)
    assert mu.event(lambda o: o[1] == 1) == ref.event(lambda o: o[1] == 1)
    assert mu.prob((1,) * len(spec.region)) == ref.prob((1,) * len(spec.region))
    assert mu.prob((5,) * len(spec.region)) == 0 == mu.prob((1,))
    cond = lambda o: o[0] == -1
    assert list(mu.condition(cond).items()) == list(ref.condition(cond).items())
    assert list(mu.map_outcomes(sum).items()) == list(ref.map_outcomes(sum).items())


def test_boundary_condition_folding():
    # chain 0-1-2 with spin at 2 fixed to +1: explicit weights by hand
    g = hypergraph(3, [(0, 1), (1, 2)])
    J = 0.9
    spec = ising_spec(g, J, region=(0, 1), boundary={2: 1})
    mu = gibbs_measure(spec)
    w = {}
    for a, b in itertools.product((-1, 1), repeat=2):
        w[(a, b)] = math.exp(J * a * b + J * b * 1)
    Z = sum(w.values())
    for o, v in w.items():
        assert abs(mu.prob(o) - v / Z) < 1e-14


def test_uncovered_straddling_bond_dropped():
    g = hypergraph(3, [(0, 1), (1, 2)])
    spec = ising_spec(g, 1.1, region=(0, 1))  # no boundary value at 2
    mu = gibbs_measure(spec)
    ref = gibbs_measure(ising_spec(hypergraph(2, [(0, 1)]), 1.1))
    for o in itertools.product((-1, 1), repeat=2):
        assert abs(mu.prob(o) - ref.prob(o)) < 1e-14


def test_dlr_consistency_exact():
    # conditioning the larger-volume measure on an outside configuration
    # equals the smaller-volume measure with that boundary condition
    for m in range(8):
        spec = random_binary_spec(m, seed=11, exact=True, n_min=4, n_max=6)
        mu = gibbs_measure(spec)
        n = len(spec.region)
        inner = spec.region[: n // 2]
        outer = spec.region[n // 2 :]
        for fixed in itertools.product((-1, 1), repeat=len(outer)):
            try:
                cond = mu.condition(
                    lambda o: all(o[spec.region.index(v)] == x for v, x in zip(outer, fixed))
                )
            except ZeroDivisionError:
                continue
            sub = GibbsSpec(
                spec.graph,
                spec.alphabet,
                spec.interaction,
                inner,
                {**spec.boundary, **dict(zip(outer, fixed))},
            )
            mu_sub = gibbs_measure(sub)
            for o_sub, p in mu_sub.items():
                got = cond.event(
                    lambda o: tuple(o[spec.region.index(v)] for v in inner) == o_sub
                )
                assert got == p  # exact rational equality


def test_gibbs_matches_bruteforce_oracle():
    for m in range(10):
        spec = random_binary_spec(m, seed=5, with_boundary=(m % 2 == 0))
        mu = gibbs_measure(spec)
        ref = brute_gibbs(spec)
        for o, p in ref.items():
            assert abs(mu.prob(o) - p) < 1e-12


def test_fk_identity_on_4x3_grid():
    # zero-field ferromagnet: pair covariance equals the active-chain
    # connection probability of the nested-level representation
    from rcgibbs.percolation import base_connection_probability
    from rcgibbs.rcr import monotone_base

    g = build_grid(4, 3)
    spec = ising_spec(g, 0.45)
    mu = gibbs_measure(spec)
    cov = mu.covariance(lambda o: o[0], lambda o: o[11])
    p = base_connection_probability(spec, monotone_base(spec), {0}, {11})
    assert abs(cov - p) < 1e-10


def test_spin_config_helpers():
    from rcgibbs.gibbs import SpinConfig

    c = SpinConfig((0, 2, 5), (-1, 1, 1))
    assert dict(zip(c.sites, c.values)) == {0: -1, 2: 1, 5: 1}
    with pytest.raises(ValueError):
        SpinConfig((0, 1), (1,))


def test_all_forbidden_raises():
    g = hypergraph(2, [(0, 1)])
    t = BondTable.from_factors((0.0, 1.0, 1.0, 0.0))
    t2 = BondTable.from_factors((1.0, 0.0, 0.0, 1.0))
    spec = GibbsSpec(
        hypergraph(2, [(0, 1), (0, 1)]),
        SPIN,
        Interaction({0: t, 1: t2}),
        (0, 1),
    )
    with pytest.raises(AllForbiddenError):
        gibbs_measure(spec)


def test_too_large_raises():
    g = build_grid(6, 6)
    spec = ising_spec(g, 0.5)
    with pytest.raises(TooLargeError, match="states exceeds the cap"):
        gibbs_measure(spec)


def test_boundary_vertex_outside_graph_rejected():
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    for v in (4, 9, -1):
        with pytest.raises(ValueError, match="outside graph"):
            ising_spec(g, 0.5, region=(0, 1, 2), boundary={v: 1})
    assert ising_spec(g, 0.5, region=(0, 1, 2), boundary={3: 1}).boundary == {3: 1}


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet((1, 1))
    with pytest.raises(ValueError):
        Alphabet((1,))
    assert OCCUPANCY.index(1) == 1


def test_bond_table_validation():
    with pytest.raises(ValueError):
        BondTable.from_factors((0.0, 0.0))
    with pytest.raises(ValueError):
        BondTable.from_factors((-1.0, 2.0))


def test_derived_tables_do_not_share_writes():
    # effective_bonds and domain_mask are derived once per spec: a caller's
    # edits must not reach the next caller
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    tables = {k: BondTable.from_factors((2.0, 1.0, 1.0, 2.0)) for k in range(3)}
    spec = GibbsSpec(g, SPIN, Interaction(tables), (0, 1, 2), {3: 1}, domains={1: (1,)})
    from rcgibbs.gibbs import effective_bonds

    bonds = effective_bonds(spec)
    want = list(bonds)
    bonds.reverse()
    bonds.pop()
    bonds[0] = None
    assert effective_bonds(spec) == want and len(want) == 3
    mask = spec.domain_mask()
    assert mask.tolist() == [[True, True], [False, True], [True, True]]
    with pytest.raises(ValueError):
        mask[1, 0] = True
    assert spec.domain_mask().tolist() == [[True, True], [False, True], [True, True]]
