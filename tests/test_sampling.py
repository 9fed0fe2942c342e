import itertools
import math

import numpy as np
import pytest

import fraction_kernel as oracle
from conftest import random_binary_spec
from test_percolation import _bfs_connected, _hyperbond_spec, _three_valued_spec
from rcgibbs import sampling, twocopy
from rcgibbs.errors import TooLargeError, UsageError
from rcgibbs.gibbs import SPIN, Alphabet, BondTable, GibbsSpec, Interaction, effective_bonds
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import ising_spec
from rcgibbs.percolation import integrated_rc
from rcgibbs.rng import stream


# Reference oracle: a scalar loop per (chain, site) that recomputes every
# incident bond factor, colours the sites greedily in region order, and
# reads the kernel's uniforms in its order: one (C, n_sites) block for the
# start, one (C, n_class) block per colour class and sweep, and one
# (n_tasks, n_bonds) block of coin uniforms per sample step. Its burn-in
# series sums each sweep's coins as one contiguous (n_bonds, n_tasks)
# array; the sampler sums the same values as one row of a batch of states,
# and numpy adds a contiguous row pairwise in the same order as the whole
# array. Its standard error reduces an array of the same shape and values
# as the sampler's with the same numpy expression. So floats round alike.


def _oracle_plan(spec, bonds):
    pos = {v: p for p, v in enumerate(spec.region)}
    incident = [[] for _ in spec.region]
    for eb in bonds:
        inside = tuple(pos[u] for u in eb.inside)
        for p in inside:
            incident[p].append((inside, [float(x) for x in eb.table]))
    nbrs = [{q for inside, _ in incident[p] for q in inside} - {p} for p in range(len(spec.region))]
    colour = []
    for p in range(len(spec.region)):
        c = 0
        while any(colour[q] == c for q in nbrs[p] if q < p):
            c += 1
        colour.append(c)
    classes = [[p for p in range(len(spec.region)) if colour[p] == c] for c in range(max(colour, default=-1) + 1)]
    doms = [spec.domain_indices(v) for v in spec.region]
    return incident, classes, doms


def _oracle_value(S, weights, u):
    """The value sum_j [u < T_j], the tails summed from the top value down."""
    tails = [0.0] * S
    acc = 0.0
    for j in range(S - 1, -1, -1):
        acc = weights[j] + acc
        tails[j] = acc
    return sum(1 for j in range(1, S) if u < tails[j] / tails[0])


def _oracle_update(spec, plan, state, p, u):
    S = spec.alphabet.size
    incident, _, doms = plan
    weights = [0.0] * S
    for vi in doms[p]:
        w = 1.0
        for inside, factors in incident[p]:
            li = 0
            for q in inside:
                li = li * S + (vi if q == p else state[q])
            w *= factors[li]
        weights[vi] = w
    if not any(weights):
        weights = [1.0 if vi in doms[p] else 0.0 for vi in range(S)]
    return _oracle_value(S, weights, u)


def _oracle_sweeps(spec, plan, states, rng, n_sweeps):
    _, classes, _ = plan
    for _ in range(n_sweeps):
        for sites in classes:
            u = rng.random((len(states), len(sites)))
            for c, state in enumerate(states):
                new = [_oracle_update(spec, plan, state, p, u[c, i]) for i, p in enumerate(sites)]
                for p, vi in zip(sites, new):
                    state[p] = vi


def _oracle_mc(spec, A, B, n_samples, seed, burn_in=300, gap=2, n_tasks=8, threads=1):
    S = spec.alphabet.size
    bonds = effective_bonds(spec)
    coins = oracle.pair_coin_table(spec)
    plan = _oracle_plan(spec, bonds)
    doms = plan[2]
    pos = {v: p for p, v in enumerate(spec.region)}

    def pair_coins(t):
        s1, s2 = states[t], states[n_tasks + t]
        out = []
        for eb, coin in zip(bonds, coins):
            x1 = x2 = 0
            for v in eb.inside:
                x1 = x1 * S + s1[pos[v]]
                x2 = x2 * S + s2[pos[v]]
            out.append(float(coin[x1][x2]))
        return out

    rng = stream(seed, 300)
    u = rng.random((2 * n_tasks, len(spec.region)))
    states = [
        [_oracle_value(S, [1.0 if vi in doms[p] else 0.0 for vi in range(S)], u[c, p]) for p in range(len(spec.region))]
        for c in range(2 * n_tasks)
    ]
    series, equilibrated = [], False
    for k in range(1, burn_in + 1):
        _oracle_sweeps(spec, plan, states, rng, 1)
        coin_rows = np.array([pair_coins(t) for t in range(n_tasks)]).reshape(n_tasks, len(bonds))
        series.append(float(np.ascontiguousarray(coin_rows.T).sum()) / n_tasks)
        if k >= 32 and k % 8 == 0:
            tau, converged = sampling.integrated_autocorr(series[k // 2 :])
            if converged and k >= 20 * tau:
                equilibrated = True
                break
    tau, _ = sampling.integrated_autocorr(series[len(series) // 2 :])
    per_task = -(-n_samples // n_tasks)
    hits = [0] * n_tasks
    for _ in range(per_task):
        _oracle_sweeps(spec, plan, states, rng, gap)
        u = rng.random((n_tasks, len(bonds)))
        for t in range(n_tasks):
            active = [eb.vertices for eb, c, uj in zip(bonds, pair_coins(t), u[t]) if uj < c]
            hits[t] += _bfs_connected(spec.graph.n_vertices, active, A, B)
    n = per_task * n_tasks
    sd = float(np.std(np.array(hits) / per_task, ddof=1)) if n_tasks > 1 else 0.0
    return {
        "estimate": sum(hits) / n,
        "stderr": max(sd / math.sqrt(n_tasks), 1 / n),
        "n_samples": n,
        "seed": seed,
        "burn_in": len(series),
        "tau": tau,
        "equilibrated": equilibrated,
    }


def _equal_chain_spec(n):
    """A path whose pair factors vanish unless the two spins agree: a site
    whose neighbours disagree has total weight 0."""
    g = hypergraph(n, [(i, i + 1) for i in range(n - 1)])
    tables = {k: BondTable.from_factors((1.0, 0.0, 0.0, 1.0)) for k in range(n - 1)}
    return GibbsSpec(g, SPIN, Interaction(tables), tuple(range(n)))


def _three_colour_spec():
    """Alphabet (0, 1, 2) on a wheel (hub 0, rim 1..6) with a pendant path
    1-7-8-2 and the boundary vertex 9 next to 8: colour classes {0, 7},
    {1, 3, 5, 8} and {2, 4, 6}. Vertex 3 allows two values, and some
    factors are 0."""
    rim = [(k, k % 6 + 1) for k in range(1, 7)]
    g = hypergraph(10, [(0, k) for k in range(1, 7)] + rim + [(1, 7), (7, 8), (2, 8), (8, 9)])
    rng = stream(29, 0)
    tables = {}
    for k in range(len(g.bonds)):
        facs = rng.uniform(0.2, 3.0, 9)
        facs[rng.random(9) < 0.15] = 0.0
        facs[0] = max(facs[0], 0.5)
        tables[k] = BondTable.from_factors(facs.tolist())
    return GibbsSpec(g, Alphabet((0, 1, 2)), Interaction(tables), tuple(range(9)), {9: 2}, domains={3: (0, 2)})


ORACLE_CASES = [
    ("grid3x2_field", lambda: ising_spec(build_grid(3, 2), [0.3, 0.9, 0.5, 1.1, 0.7, 0.4, 0.8], h=0.3), {0}, {5}),
    ("three_valued", lambda: _three_valued_spec(False), {0}, {3}),
    *[
        (f"random{m}", lambda m=m: random_binary_spec(
            m, seed=9, n_min=3, n_max=4, allow_forbidden=True, with_boundary=True), {0}, {2})
        for m in (2, 7, 12, 14, 19, 20)
    ],
    ("hyperbond", _hyperbond_spec, {0}, {3}),
    ("three_colour", _three_colour_spec, {0}, {8}),
]


@pytest.mark.parametrize("name,make,A,B", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_mc_matches_oracle_literally(name, make, A, B):
    spec = make()
    # gap 0: no sweep runs between two samples, so consecutive states are equal
    for seed, gap in itertools.product((0, 5), (2, 0)):
        kw = dict(burn_in=20, gap=gap)
        assert sampling.mc_connection_probability(spec, A, B, 120, seed, **kw) == _oracle_mc(
            spec, A, B, 120, seed, **kw
        )


@pytest.mark.parametrize("name,make,A,B", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_mc_matches_oracle_at_the_default_cap(name, make, A, B):
    # the burn-in stops by its rule: the series, tau and the sweeps run match
    spec = make()
    got = sampling.mc_connection_probability(spec, A, B, 120, 3)
    assert got == _oracle_mc(spec, A, B, 120, 3)
    assert sampling.BURN_IN_MIN <= got["burn_in"] <= 300


@pytest.mark.parametrize("threads", [1, 4])
def test_mc_matches_oracle_uneven_tasks_and_threads(threads):
    spec = ising_spec(build_grid(3, 2), 0.6, h=0.2)
    kw = dict(burn_in=30, gap=3, n_tasks=3, threads=threads)
    got = sampling.mc_connection_probability(spec, {0}, {5}, 100, 11, **kw)
    assert got == _oracle_mc(spec, {0}, {5}, 100, 11, **kw)
    assert got["n_samples"] == 102  # 100 samples over 3 tasks round up to 34 each


def test_mc_matches_oracle_in_chunks_of_the_cell_budget(monkeypatch):
    # 15 sample steps of 8 pairs, read and labelled in chunks of 7, 7 and 1
    spec = ising_spec(build_grid(3, 2), 0.6, h=0.2)
    want = _oracle_mc(spec, {0}, {5}, 120, 4, burn_in=20)
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", 7 * 8 * len(effective_bonds(spec)))
    assert sampling.mc_connection_probability(spec, {0}, {5}, 120, 4, burn_in=20) == want


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_matches_oracle_on_masks_wider_than_62_bits(threads):
    spec = ising_spec(build_grid(8, 8), 0.8)
    assert len(effective_bonds(spec)) == 112
    kw = dict(burn_in=5, gap=1, threads=threads)
    got = sampling.mc_connection_probability(spec, {0}, {18}, 24, 3, **kw)
    assert got == _oracle_mc(spec, {0}, {18}, 24, 3, **kw)
    assert 0 < got["estimate"] < 1


@pytest.mark.parametrize("burn_in", [0, 5, 32, 33, 39, 40, 41, 47, 300])
def test_mc_burn_in_caps_match_oracle(burn_in):
    # caps on and beside a stopping check, under BURN_IN_MIN and past the
    # rule's stop; at this seed the rule stops the burn-in at sweep 40
    spec = ORACLE_CASES[0][1]()
    kw = dict(burn_in=burn_in, gap=1)
    got = sampling.mc_connection_probability(spec, {0}, {5}, 48, 1, **kw)
    assert got == _oracle_mc(spec, {0}, {5}, 48, 1, **kw)
    assert got["burn_in"] == min(burn_in, 40)


@pytest.mark.parametrize("burn_in", [0, 5, 33, 41, 300])
def test_mc_in_small_batches_and_chunks_matches_the_unsplit_call(burn_in, monkeypatch):
    # a budget of 3 states: the burn-in reads its series in batches of at
    # most 3 between its checks, and the 6 sample steps run in 2 chunks
    spec = ORACLE_CASES[0][1]()
    kw = dict(burn_in=burn_in, gap=1)
    want = sampling.mc_connection_probability(spec, {0}, {5}, 48, 1, **kw)
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", 3 * 8 * len(effective_bonds(spec)))
    assert sampling.mc_connection_probability(spec, {0}, {5}, 48, 1, **kw) == want


def test_mc_keeps_at_most_the_budget_of_states(monkeypatch):
    # the burn-in's batches and the sample chunks share one buffer of kept
    # states, sized by the cell budget, not by the burn-in's length
    spec = ORACLE_CASES[0][1]()
    n, T, nb = len(spec.region), 8, len(effective_bonds(spec))
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", 3 * T * nb)
    shapes = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, *args, **kw):
            shapes.append(tuple(np.atleast_1d(shape)))
            return np.empty(shape, *args, **kw)

    monkeypatch.setattr(sampling, "np", Spy())
    got = sampling.mc_connection_probability(spec, {0}, {5}, 48, 1, burn_in=300, gap=1)
    assert got["burn_in"] == 40
    assert [s[0] for s in shapes if s[1:] == (n + 1, 2 * T)] == [3]


def test_three_colour_spec_has_unequal_classes():
    # the per-sweep uniform block holds classes of 2, 4 and 3 sites end to end
    spec = _three_colour_spec()
    hb, _ = sampling._generic_heat_bath(spec, effective_bonds(spec), 2)
    assert [len(c[0]) for c in hb.classes] == [2, 4, 3] and hb.S == 3


def test_heat_bath_proves_its_index_ranges():
    table = np.array([[0.5] * 4])  # S = 2, keys 0..3
    site = np.arange(2)
    # keys base + 2 * value(site 2): 1 + 2 = 3 fits, 2 + 2 = 4 does not
    ok = [(site, np.array([[2, 2]]), np.array([[2]]), np.array([0, 1])), (np.array([2]), np.zeros((0, 1), np.intp), 1, [2])]
    hb = sampling.HeatBath(3, ok, table, 2)
    with pytest.raises(ValueError, match="outside the table"):
        sampling.HeatBath(3, [(site, np.array([[2, 2]]), np.array([[2]]), np.array([0, 2])), ok[1]], table, 2)
    with pytest.raises(ValueError, match="outside the table"):  # a negative weight reaches key -1
        sampling.HeatBath(3, [(site, np.array([[2, 2]]), np.array([[-1]]), np.array([0, 1])), ok[1]], table, 2)
    with pytest.raises(ValueError, match="neighbours"):
        sampling.HeatBath(3, [(site, np.array([[4, 2]]), np.array([[2]]), np.array([0, 1])), ok[1]], table, 2)
    # padding (the dummy site 3) adds nothing to a key, whatever its weight
    sampling.HeatBath(3, [(site, np.array([[2, 3]]), np.array([[2, 100]]), np.array([0, 1])), ok[1]], table, 2)
    with pytest.raises(ValueError, match="values"):
        hb.load(np.full((3, 2), 2))
    with pytest.raises(ValueError, match="values"):
        hb.load(np.full((3, 2), -1))
    hb.load(np.ones((3, 2), np.int8))
    assert (hb.values() == 1).all()
    # fields alone, and a model without bonds: one class, no neighbours
    for h in (0.4, 0.0):
        spec = ising_spec(hypergraph(3, []), [], h=h)
        assert len(effective_bonds(spec)) == (3 if h else 0)
        hb, _ = sampling._generic_heat_bath(spec, effective_bonds(spec), 4)
        assert len(hb.classes) == 1 and hb.classes[0][2].size == 0
        hb.sweeps(stream(0), 2)


def _weight(spec, bonds, config):
    pos = {v: p for p, v in enumerate(spec.region)}
    S = spec.alphabet.size
    w = 1.0
    for eb in bonds:
        li = 0
        for v in eb.inside:
            li = li * S + int(config[pos[v]])
        w *= float(eb.table[li])
    return w


def test_chains_leave_zero_weight_configurations():
    # a site whose neighbours disagree has weight 0 for both of its values;
    # its uniform row lets the chain move on to an allowed configuration
    spec = _equal_chain_spec(6)
    bonds = effective_bonds(spec)
    hb, start = sampling._generic_heat_bath(spec, bonds, 200)
    rng = stream(4, 0)
    hb.load((rng.random((200, 6)).T < start[:, :, None]).sum(axis=0))
    assert sum(_weight(spec, bonds, col) == 0 for col in hb.values().T) > 100
    sampling.heat_bath_chain(spec, hb, rng, 300)
    assert all(_weight(spec, bonds, col) > 0 for col in hb.values().T)


# (name, spec, A, B, n_tasks, seed). Each chain of the equal chain settles
# in one of its two allowed configurations, so only independent pairs
# average: it runs one sample per pair.
STAT_CASES = [
    ("equal_chain", lambda: _equal_chain_spec(6), {0}, {5}, 4000, 1),
    *[(name, make, A, B, 8, 1) for name, make, A, B in ORACLE_CASES if name in ("grid3x2_field", "three_valued", "hyperbond")],
]


@pytest.mark.parametrize("name,make,A,B,n_tasks,seed", STAT_CASES, ids=[c[0] for c in STAT_CASES])
def test_mc_estimate_within_005_of_exact(name, make, A, B, n_tasks, seed):
    spec = make()
    exact = float(integrated_rc(spec).connection_probability(A, B))
    got = sampling.mc_connection_probability(spec, A, B, 4000, seed, n_tasks=n_tasks)
    assert got["n_samples"] == 4000
    assert abs(got["estimate"] - exact) <= 0.05, (got, exact)


def test_table_past_the_cap_raises_too_large():
    # the centre of a 25-leaf star has 2**25 neighbour codes
    spec = ising_spec(hypergraph(26, [(0, k) for k in range(1, 26)]), 0.3)
    with pytest.raises(TooLargeError, match="heat-bath table"):
        sampling.mc_connection_probability(spec, {0}, {1}, 8, 0)


def test_batch_means_stderr_matches_the_spread_around_exact():
    # over 200 seeds at this size the mean reported SE is 0.94 of the RMS
    # error (the binomial SE read 0.80); 20-seed windows range 0.73-1.22
    spec = ising_spec(build_grid(3, 3), 0.5)
    exact = float(integrated_rc(spec).connection_probability({0}, {8}))
    runs = [sampling.mc_connection_probability(spec, {0}, {8}, 1000, seed) for seed in range(20)]
    rms = math.sqrt(sum((r["estimate"] - exact) ** 2 for r in runs) / len(runs))
    mean_se = sum(r["stderr"] for r in runs) / len(runs)
    assert abs(mean_se / rms - 1) <= 0.3, (mean_se, rms)


def test_stderr_is_floored_at_one_over_the_sample_count():
    # A and B lie in two components: every pair's mean is 0
    spec = ising_spec(hypergraph(4, [(0, 1), (2, 3)]), 0.5)
    for n_tasks in (1, 8):
        got = sampling.mc_connection_probability(spec, {0}, {3}, 96, 2, n_tasks=n_tasks)
        assert got["estimate"] == 0.0 and got["stderr"] == 1 / 96


def test_capped_burn_in_reports_not_equilibrated():
    spec = ORACLE_CASES[0][1]()
    got = sampling.mc_connection_probability(spec, {0}, {5}, 16, 0, burn_in=20)
    assert (got["burn_in"], got["equilibrated"]) == (20, False)  # below BURN_IN_MIN: no check
    # a coarsening chain: domain walls only annihilate, and at this seed no
    # check up to the cap of 64 sweeps passes
    chain = ising_spec(hypergraph(256, [(i, i + 1) for i in range(255)]), 8.0)
    got = sampling.mc_connection_probability(chain, {0}, {255}, 8, 4, burn_in=64)
    assert (got["burn_in"], got["equilibrated"]) == (64, False)
    assert got["tau"] > 64 / sampling.TAU_SWEEPS


@pytest.mark.parametrize("kw", [dict(n_tasks=0), dict(burn_in=-3), dict(gap=-1), dict(n_samples=0)])
def test_bad_arguments_raise_usage_error(kw):
    args = dict(n_samples=8, seed=0) | kw
    with pytest.raises(UsageError):
        sampling.mc_connection_probability(ising_spec(build_grid(3, 2), 0.5), {0}, {5}, **args)
