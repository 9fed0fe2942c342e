import math

import pytest

from conftest import random_binary_spec
from test_percolation import _bfs_connected, _hyperbond_spec, _three_valued_spec
from rcgibbs import sampling
from rcgibbs.gibbs import SPIN, BondTable, GibbsSpec, Interaction, effective_bonds
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import ising_spec
from rcgibbs.percolation import pair_coin_table
from rcgibbs.rng import run_tasks, stream


# Reference oracle: the dict-based heat bath that recomputed every incident
# bond factor for each site and value and drew one scalar uniform per
# update, and the sample loop that drove it.


def _oracle_tables(spec, bonds):
    incident = {v: [] for v in spec.region}
    for eb in bonds:
        factors = tuple(float(x) for x in eb.table)
        for v in eb.inside:
            incident[v].append((eb.inside, factors))
    doms = {v: spec.domain_indices(v) for v in spec.region}
    return incident, doms


def _oracle_chain(spec, tables, rng, n_sweeps, state=None, frozen=None):
    S = spec.alphabet.size
    incident, doms = tables
    if state is None:
        state = {
            v: doms[v][int(rng.integers(0, len(doms[v])))] for v in spec.region
        }
    for _ in range(n_sweeps):
        for v in spec.region:
            weights = []
            for vi in doms[v]:
                w = 1.0
                for inside, factors in incident[v]:
                    li = 0
                    for u in inside:
                        li = li * S + (vi if u == v else state[u])
                    w *= factors[li]
                weights.append(w)
            tot = sum(weights)
            if tot <= 0:
                if frozen is not None:
                    frozen.append(v)
                continue  # frozen site under current neighbors
            u01 = rng.random() * tot
            acc = 0.0
            for vi, w in zip(doms[v], weights):
                acc += w
                if u01 <= acc:
                    state[v] = vi
                    break
    return state


def _oracle_mc(spec, A, B, n_samples, seed, burn_in=300, gap=2, n_tasks=8, threads=1):
    bonds = effective_bonds(spec)
    coins = pair_coin_table(spec)
    tables = _oracle_tables(spec, bonds)
    A = frozenset(A)
    B = frozenset(B)
    S = spec.alphabet.size
    per_task = -(-n_samples // n_tasks)

    def task(t):
        rng1 = stream(seed, 300, t, 0)
        rng2 = stream(seed, 300, t, 1)
        rngc = stream(seed, 300, t, 2)
        s1 = _oracle_chain(spec, tables, rng1, burn_in)
        s2 = _oracle_chain(spec, tables, rng2, burn_in)
        hits = 0
        n_done = 0
        for _ in range(per_task):
            s1 = _oracle_chain(spec, tables, rng1, gap, s1)
            s2 = _oracle_chain(spec, tables, rng2, gap, s2)
            active = []
            for eb, coin in zip(bonds, coins):
                x1 = x2 = 0
                for v in eb.inside:
                    x1 = x1 * S + s1[v]
                    x2 = x2 * S + s2[v]
                q = coin[x1][x2]
                if q > 0 and rngc.random() < q:
                    active.append(eb.vertices)
            if _bfs_connected(spec.graph.n_vertices, active, A, B):
                hits += 1
            n_done += 1
        return hits, n_done

    results = run_tasks(task, list(range(n_tasks)), threads=threads)
    hits = sum(h for h, _ in results)
    n = sum(c for _, c in results)
    p = hits / n
    se = math.sqrt(max(p * (1 - p), 1e-300) / n)
    return {"estimate": p, "stderr": se, "n_samples": n, "seed": seed}


def _equal_chain_spec(n):
    """A path whose pair factors vanish unless the two spins agree: a site
    whose neighbours disagree has total weight 0."""
    g = hypergraph(n, [(i, i + 1) for i in range(n - 1)])
    tables = {k: BondTable.from_factors((1.0, 0.0, 0.0, 1.0)) for k in range(n - 1)}
    return GibbsSpec(g, SPIN, Interaction(tables), tuple(range(n)))


ORACLE_CASES = [
    ("grid3x2_field", lambda: ising_spec(build_grid(3, 2), [0.3, 0.9, 0.5, 1.1, 0.7, 0.4, 0.8], h=0.3), {0}, {5}),
    ("three_valued", lambda: _three_valued_spec(False), {0}, {3}),
    *[
        (f"random{m}", lambda m=m: random_binary_spec(
            m, seed=9, n_min=3, n_max=4, allow_forbidden=True, with_boundary=True), {0}, {2})
        for m in (2, 7, 12, 14, 19, 20)
    ],
    ("hyperbond", _hyperbond_spec, {0}, {3}),
]


@pytest.mark.parametrize("name,make,A,B", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_mc_matches_oracle_literally(name, make, A, B):
    spec = make()
    for seed in (0, 5):
        kw = dict(burn_in=20, gap=2)
        assert sampling.mc_connection_probability(spec, A, B, 120, seed, **kw) == _oracle_mc(
            spec, A, B, 120, seed, **kw
        )


@pytest.mark.parametrize("threads", [1, 4])
def test_mc_matches_oracle_uneven_tasks_and_threads(threads):
    spec = ising_spec(build_grid(3, 2), 0.6, h=0.2)
    kw = dict(burn_in=30, gap=3, n_tasks=3, threads=threads)
    got = sampling.mc_connection_probability(spec, {0}, {5}, 100, 11, **kw)
    assert got == _oracle_mc(spec, {0}, {5}, 100, 11, **kw)
    assert got["n_samples"] == 102  # 100 samples over 3 tasks round up to 34 each


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_matches_oracle_on_masks_wider_than_62_bits(threads):
    spec = ising_spec(build_grid(8, 8), 0.8)
    assert len(effective_bonds(spec)) == 112
    kw = dict(burn_in=5, gap=1, threads=threads)
    got = sampling.mc_connection_probability(spec, {0}, {18}, 24, 3, **kw)
    assert got == _oracle_mc(spec, {0}, {18}, 24, 3, **kw)
    assert 0 < got["estimate"] < 1


def test_frozen_site_draws_nothing():
    spec = _equal_chain_spec(6)
    bonds = effective_bonds(spec)
    for seed in range(4):
        frozen = []
        rng_o = stream(seed, 5)
        want = _oracle_chain(spec, _oracle_tables(spec, bonds), rng_o, 3, frozen=frozen)
        tables = sampling._chain_tables(spec, bonds)
        chain = sampling.Chain(tables, stream(seed, 5))
        got = sampling.heat_bath_chain(spec, tables, chain, 3)
        if frozen:
            break
    assert frozen, "no seed froze a site"
    assert got == [want[v] for v in spec.region]
    # both streams stand at the same uniform after the frozen updates
    assert chain.next_uniform() == rng_o.random()
    kw = dict(burn_in=3, gap=1, n_tasks=2)
    assert sampling.mc_connection_probability(spec, {0}, {5}, 40, seed, **kw) == _oracle_mc(
        spec, {0}, {5}, 40, seed, **kw
    )
