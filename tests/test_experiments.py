import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rcgibbs import twocopy
from rcgibbs.experiments.cayley import (
    LOG3_HALF,
    argmax_boundary_t,
    cayley_fixed_points,
    cayley_pbar,
    critical_field,
    crossing_scan,
    fixed_point_residual,
    nonoverlap_connection_recursion,
    run_cayley,
    transition_matrix,
)
from rcgibbs.experiments import examples
from rcgibbs.experiments.examples import (
    check_model_bounds,
    run_example1,
    run_example2,
    sweep_correlation_bound,
)
from rcgibbs.experiments import hardcore
from rcgibbs.experiments.hardcore import (
    bipartition,
    checkerboard_instance,
    hardcore_disagreement,
)
from rcgibbs.gibbs import SPIN, Alphabet, BondTable, GibbsSpec, Interaction, effective_bonds, gibbs_measure
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import example1_spec, hardcore_spec, ising_spec
from rcgibbs.percolation import activity_rows, chain_components, integrated_rc, pair_coin_table


# ---------------------------------------------------------------------------
# worked examples


def test_example1_report():
    rep = run_example1((0.5, 1.0, 2.0))
    assert rep["all_counterexample"]
    assert rep["max_connection_prob"] == 0.0
    for row in rep["rows"]:
        assert abs(row["delta_mu"] - row["delta_mu_closed"]) < 1e-12
        assert row["cov_is_4_delta"] < 1e-12


def test_example2_report():
    rep = run_example2(1.0, 1.0)
    assert rep["nonzero_sigmas_all_disconnected"]
    assert rep["bound_holds"] and rep["cov_bound_holds"]
    assert abs(rep["ratio_pbar_to_abs_dmu"] - 2.0) < 1e-9
    assert abs(rep["rho_zero_sigma"] - rep["rho_zero_closed"]) < 1e-12
    assert rep["slice_measure_max_err"] < 1e-12
    for got, want in zip(rep["nu_active_probs"], rep["nu_active_closed"]):
        assert abs(got - want) < 1e-12


def test_sweep_short_run_clean():
    rep = sweep_correlation_bound(24, seed=7)
    assert rep["violations"] == 0
    assert rep["support_pairs_checked"] > 200


def test_zero_interaction_model_all_slack_zero():
    spec = ising_spec(hypergraph(4, [(0, 1), (1, 2), (2, 3)]), 0.0)
    rep = check_model_bounds(spec)
    assert rep["event_violations"] == 0 and rep["cov_violations"] == 0
    # both sides vanish identically: the worst slack is 0 - 0
    assert abs(rep["worst_event_slack"]) < 1e-14


def _per_pair_oracle(spec):
    """(ev_max, pbar, cov_max) per support pair, in _support_pairs order,
    by the one-pair-at-a-time loop check_model_bounds ran before it
    evaluated the pairs of one shape together."""
    n = len(spec.region)
    pos = {v: p for p, v in enumerate(spec.region)}
    w = np.asarray(gibbs_measure(spec).weights, dtype=float).reshape((2,) * n).T.ravel()
    irc = integrated_rc(spec)
    masks = sorted(irc.patterns)
    probs = np.asarray([float(irc.patterns[m]) for m in masks])
    comp_lists = []
    maxc = 1
    for row in chain_components(irc.n_vertices, irc.bond_vertices, activity_rows(masks, len(irc.bond_vertices))).tolist():
        comps = {}  # label -> vertex mask of its chain
        for v, label in enumerate(row):
            if label >= 0:
                comps[label] = comps.get(label, 0) | 1 << v
        cm = list(comps.values()) or [0]
        maxc = max(maxc, len(cm))
        comp_lists.append(cm)
    comp_arr = np.zeros((len(masks), maxc), dtype=np.int64)
    for i, cm in enumerate(comp_lists):
        comp_arr[i, : len(cm)] = cm

    cfg = np.arange(1 << n, dtype=np.int64)
    bit = {v: (cfg >> p) & 1 for v, p in pos.items()}
    out = []
    for A, B in examples._support_pairs(n):
        if len(A) > len(B):
            A, B = B, A
        amask = sum(1 << v for v in A)
        bmask = sum(1 << v for v in B)
        hitA = (comp_arr & amask) != 0
        hitB = (comp_arr & bmask) != 0
        conn = (hitA & hitB).any(axis=1)
        pbar = float(probs @ conn)

        ia = np.zeros(1 << n, dtype=np.int64)
        for j, v in enumerate(sorted(A)):
            ia |= bit[v] << j
        ib = np.zeros(1 << n, dtype=np.int64)
        for j, v in enumerate(sorted(B)):
            ib |= bit[v] << j
        ra, rb = 1 << len(A), 1 << len(B)
        joint = np.bincount(ia * rb + ib, weights=w, minlength=ra * rb).reshape(ra, rb)
        C = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))
        M = ((np.arange(1 << ra)[:, None] >> np.arange(ra)) & 1).astype(float)
        V = M @ C
        ev_max = float(np.maximum(V.clip(min=0).sum(axis=1), (-V).clip(min=0).sum(axis=1)).max())
        cov_max = float(np.abs((2.0 * M - 1.0) @ C).sum(axis=1).max())
        out.append((ev_max, pbar, cov_max))
    return out


_ORACLE_CASES = {
    "example1": lambda: example1_spec(1.0, 1.0),
    "zero-chain4": lambda: ising_spec(hypergraph(4, [(0, 1), (1, 2), (2, 3)]), 0.0),
    **{f"random{m}": (lambda m=m: examples._random_spec(m, 7)) for m in range(1, 49)},
}


@pytest.mark.parametrize("block", ["default", "small"])
def test_shape_batches_match_per_pair_loop_literally(monkeypatch, block):
    # every kind (m % 6), sizes 3-6 and forbidden entries; "small" cuts each
    # shape into chunks of a few pairs
    if block == "small":
        monkeypatch.setattr(twocopy, "_BLOCK_CELLS", 1 << 10)
    for name, make in _ORACLE_CASES.items():
        spec = make()
        got = list(zip(*(a.tolist() for a in examples._pair_values(spec))))
        assert got == _per_pair_oracle(spec), name


def test_sweep_pinned_values():
    # recorded with the one-pair-at-a-time loop
    rep = sweep_correlation_bound(60, seed=7)
    assert rep["worst_event_slack"] == -1.6059436487332245e-08
    assert rep["worst_cov_slack"] == -6.423774663129215e-08
    assert rep["support_pairs_checked"] == 8814
    assert rep["violations"] == 0


def _three_valued_spec():
    tables = {0: BondTable.from_exponents([0.1 * k for k in range(9)])}
    return GibbsSpec(hypergraph(2, [(0, 1)]), Alphabet((-1, 0, 1)), Interaction(tables), (0, 1))


def _reach_oracle(n_vertices, bond_vertices, mask):
    """Per vertex, the vertex mask of its chain in one activity mask, 0 if
    no active bond covers it, by union-find over the active bonds."""
    parent = list(range(n_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    covered = set()
    for j, vs in enumerate(bond_vertices):
        if mask >> j & 1:
            covered.update(vs)
            for u in vs[1:]:
                parent[find(u)] = find(vs[0])
    chain = {}
    for v in covered:
        chain[find(v)] = chain.get(find(v), 0) | 1 << v
    return [chain[find(v)] if v in covered else 0 for v in range(n_vertices)]


@pytest.mark.parametrize("m", range(1, 7), ids=["cycle", "grid", "random", "hyper", "field", "path"])
def test_reach_table_matches_direct_labelling(monkeypatch, m):
    cache = twocopy._Retained(1 << 20)
    monkeypatch.setattr(examples, "_reach", cache)
    spec = examples._random_spec(m, 7)  # m % 6 picks the graph kind
    n, bonds = spec.graph.n_vertices, tuple(eb.vertices for eb in effective_bonds(spec))
    kind = ["path", "cycle", "grid", "random", "hyper", "field"][m % 6]
    assert {len(b) for b in bonds} == {"hyper": {2, 3}, "field": {1, 2}}.get(kind, {2})
    masks = np.random.default_rng(m).permutation(1 << len(bonds))
    got = examples._reach_of(n, bonds, masks)
    (table,) = cache.entries[(n, bonds)]
    assert (cache.hits, cache.misses) == (0, 1) and table.shape == (n, 1 << len(bonds))
    assert np.array_equal(got, examples._chain_reach(n, bonds, masks))
    assert np.array_equal(examples._reach_of(n, bonds, masks[::-1]), got[:, ::-1]) and cache.hits == 1
    assert table.T.tolist() == [_reach_oracle(n, bonds, mask) for mask in range(1 << len(bonds))]


def test_reach_keeps_many_small_structures(monkeypatch):
    # 126 bond structures of 4 and 5 vertices, each table at most 2.5 KB: the
    # cache's 1 MiB holds them all, so each one misses once, whatever their
    # number
    cache = twocopy._Retained(1 << 20)
    monkeypatch.setattr(examples, "_reach", cache)
    edges = list(itertools.combinations(range(4), 2))
    structures = [(n, tuple(e for k, e in enumerate(edges) if s >> k & 1)) for n in (4, 5) for s in range(1, 64)]
    for _ in range(2):
        for n, bonds in structures:
            masks = np.arange(1 << len(bonds))
            assert np.array_equal(examples._reach_of(n, bonds, masks), examples._chain_reach(n, bonds, masks))
    assert (cache.misses, cache.hits, len(cache.entries)) == (126, 126, 126)
    assert cache.nbytes == sum(map(cache.size, cache.entries.values())) <= cache.max_bytes


def _all_subsets_spec():
    """4 sites and one bond on every nonempty vertex set: 15 bonds, so the
    reach table would hold 4 * 2**15 = 2**17 cells, past _BLOCK_CELLS."""
    bonds = [b for k in range(1, 5) for b in itertools.combinations(range(4), k)]
    rng = np.random.default_rng(3)
    tables = {k: BondTable.from_exponents(rng.uniform(-1, 1, 2 ** len(b)).tolist()) for k, b in enumerate(bonds)}
    return GibbsSpec(hypergraph(4, bonds), SPIN, Interaction(tables), tuple(range(4)))


def test_model_past_the_cell_rule_labels_its_patterns_directly(monkeypatch):
    table = (8 << 17) + twocopy._HEADER  # 2**17 int64 cells and the array's header
    cache = twocopy._Retained(table)
    monkeypatch.setattr(examples, "_reach", cache)
    spec = _all_subsets_spec()

    def run():
        return repr(check_model_bounds(spec)), [a.tolist() for a in examples._pair_values(spec)]

    direct = run()
    assert (cache.hits, cache.misses, len(cache.entries)) == (0, 0, 0)
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", 1 << 17)
    assert run() == direct
    assert (cache.hits, cache.misses) == (1, 1) and cache.nbytes == table


@pytest.mark.parametrize(
    "make",
    [
        lambda: ising_spec(hypergraph(4, [(0, 1), (1, 2), (2, 3)]), 0.5, region=(1, 2, 3), boundary={0: 1}),
        lambda: ising_spec(hypergraph(4, [(0, 1), (1, 2), (2, 3)]), 0.5, region=(0, 1, 2), boundary={3: -1}),
        lambda: dataclasses.replace(ising_spec(hypergraph(3, [(0, 1), (1, 2)]), 0.5), domains={0: (1,)}),
        _three_valued_spec,
    ],
    ids=["region-1-3-boundary", "boundary-outside-0-n", "domains", "three-valued"],
)
def test_check_model_bounds_rejects_specs_outside_its_scope(make):
    with pytest.raises(ValueError, match="check_model_bounds needs"):
        check_model_bounds(make())


# ---------------------------------------------------------------------------
# binary tree


def test_fixed_points_unique_below_threshold():
    for J in (0.1, 0.3, 0.5, 0.54):
        roots = cayley_fixed_points(J, 0.0)
        assert len(roots) == 1 and abs(roots[0]) < 1e-9


def test_fixed_points_three_above_threshold():
    roots = cayley_fixed_points(1.0, 0.0)
    assert len(roots) == 3
    assert abs(roots[1]) < 1e-9
    assert abs(roots[0] + roots[2]) < 1e-9  # symmetric pair


def test_fixed_point_zero_coupling_is_field():
    roots = cayley_fixed_points(0.0, 0.7)
    assert len(roots) == 1 and abs(roots[0] - 0.7) < 1e-9


def test_fixed_point_residuals_tiny():
    for J, h in ((0.4, 0.0), (1.0, 0.0), (0.9, 0.2)):
        for t in cayley_fixed_points(J, h):
            assert fixed_point_residual(J, h, t) < 1e-12


def test_transition_matrix_rows_sum_to_one():
    for J, t in ((0.5, 0.0), (1.3, 0.8), (0.2, -1.0)):
        A = transition_matrix(J, t)
        assert np.allclose(A.sum(axis=1), 1.0, atol=1e-14)


def test_activity_at_symmetric_chain():
    J = 0.8
    act = cayley_pbar(J, 0.0, 0.0)
    assert abs(act.det - math.tanh(J)) < 1e-13
    assert abs(act.value - math.tanh(J) * math.tanh(4 * J)) < 1e-13
    assert abs(act.p_single - math.tanh(2 * J)) < 1e-13
    assert abs(act.p_nonoverlap - math.tanh(4 * J)) < 1e-13


def test_zero_coupling_activity_vanishes():
    act = cayley_pbar(0.0, 0.0, 0.0)
    assert act.value == 0.0
    assert act.branching_value == 0.0


def test_determinant_identity():
    # det A = a00 a11 (1 - e^{-4J}) = sinh 2J / (cosh 2J + cosh 2t)
    for J, t in ((0.7, 0.0), (1.0, 0.4), (0.3, 1.2)):
        A = transition_matrix(J, t)
        det = A[0, 0] * A[1, 1] - A[1, 0] * A[0, 1]
        assert abs(det - A[0, 0] * A[1, 1] * (1 - math.exp(-4 * J))) < 1e-13
        assert abs(det - math.sinh(2 * J) / (math.cosh(2 * J) + math.cosh(2 * t))) < 1e-13


def test_crossing_formula_against_independent_rootfind():
    got = crossing_scan("formula")
    want = brentq(lambda J: math.tanh(J) * math.tanh(4 * J) - 0.5, 0.3, 1.0, xtol=1e-12)
    assert abs(got["J_star"] - want) < 1e-6
    assert abs(got["gap_to_log3_half"] - (want - LOG3_HALF)) < 1e-6


def test_crossing_branching_hits_threshold():
    got = crossing_scan("branching")
    assert abs(got["J_star"] - LOG3_HALF) < 1e-6


def test_boundary_comparison():
    # at the coexistence-boundary chain the bare determinant equals 1/2
    # exactly, while the printed formula falls short by the tanh factor
    for J in (0.7, 1.0, 1.5):
        tm = argmax_boundary_t(J)
        act = cayley_pbar(J, critical_field(J), tm)
        assert abs(act.branching_value - 0.5) < 1e-10
        assert abs(act.value - 0.5 * math.tanh(4 * J)) < 1e-10


def test_critical_field_zero_below_threshold():
    assert critical_field(0.4) == 0.0
    assert critical_field(1.0) > 0.0


def test_run_cayley_report():
    rep = run_cayley([0.3, 0.8])
    assert rep["crossing_branching"]["gap_to_log3_half"] < 1e-6
    assert abs(rep["crossing_formula"]["J_star"] - 0.5641919823) < 1e-6
    for row in rep["rows"]:
        assert row["max_residual"] < 1e-12


# ---------------------------------------------------------------------------
# hard-core


def test_bipartition_rejects_triangle():
    with pytest.raises(ValueError):
        bipartition(hypergraph(3, [(0, 1), (1, 2), (0, 2)]))


def test_hardcore_zero_activity_no_disagreement():
    g = build_grid(2, 2)
    rep = hardcore_disagreement(g, 0.0, {0}, {3})
    assert rep["p_disagreement_path"] == 0.0
    assert rep["p_active_connection"] == 0.0
    assert rep["n_disagreement_regions"] == 1  # the empty region only


def test_hardcore_grid_equivalence():
    g = build_grid(3, 2)
    rep = hardcore_disagreement(g, 1.0, {0}, {5})
    assert rep["indicators_equal_everywhere"]
    assert rep["p_disagreement_path"] == rep["p_active_connection"]
    assert rep["p_disagreement_path"] > 0
    checks = rep["slice_checks"]
    assert checks["activity_deterministic"]
    assert checks["active_set_matches_disagreement_interior"]
    assert checks["two_configs_per_component"]


def test_hardcore_opposite_checkerboards():
    graph, region, bc1 = checkerboard_instance(2, 3, 0)
    _, _, bc2 = checkerboard_instance(2, 3, 1)
    rep = hardcore_disagreement(
        graph, 1.0, {region[0]}, {region[-1]}, boundary1=bc1, boundary2=bc2, region=region
    )
    assert rep["indicators_equal_everywhere"]
    assert rep["p_disagreement_path"] == rep["p_active_connection"]
    assert rep["uniqueness_marker"]["activity_threshold"] == pytest.approx(
        0.592746 / (1 - 0.592746)
    )


def _oracle_region_weights(spec1, spec2):
    """Pair weights summed per disagreement region (a frozenset of sites),
    in pair order, regions in first-seen order."""
    out = {}
    for o1, w1 in gibbs_measure(spec1).items():
        for o2, w2 in gibbs_measure(spec2).items():
            if w1 > 0 and w2 > 0:
                D = frozenset(v for v, a, b in zip(spec1.region, o1, o2) if a != b)
                out[D] = out.get(D, 0.0) + w1 * w2
    return out


@pytest.mark.parametrize("budget", [None, 1, 7 * 31])
def test_hardcore_regions_in_chunks_match_the_region_sets(monkeypatch, budget):
    # chunks of one region, of 7 regions (31 pair bonds) and of the default budget
    graph, region, bc1 = checkerboard_instance(3, 2, 0)
    _, _, bc2 = checkerboard_instance(3, 2, 1)
    A, B = {region[0]}, {region[-1]}
    weights = _oracle_region_weights(*(hardcore_spec(graph, 1.3, region=region, boundary=bc) for bc in (bc1, bc2)))
    adj = hardcore._pair_adjacency(graph)
    p_dis = 0.0
    for D, w in weights.items():
        p_dis += w * hardcore._site_path_exists(adj, [v in D for v in range(graph.n_vertices)], A, B)
    if budget:
        monkeypatch.setattr(twocopy, "_BLOCK_CELLS", budget)
    rep = hardcore_disagreement(graph, 1.3, A, B, boundary1=bc1, boundary2=bc2, region=region)
    assert rep["n_disagreement_regions"] == len(weights) > 7
    assert rep["p_disagreement_path"] == rep["p_active_connection"] == p_dis > 0
    assert rep["indicators_equal_everywhere"]


def test_hardcore_checks_its_slices_on_one_coin_table(monkeypatch):
    tables = []

    def counted(spec):
        tables.append(spec)
        return pair_coin_table(spec)

    monkeypatch.setattr(hardcore, "pair_coin_table", counted)
    monkeypatch.setattr(hardcore, "MAX_SLICE_CHECKS", 5)
    rep = hardcore_disagreement(build_grid(3, 2), 1.0, {0}, {5})
    assert len(tables) == 1
    assert rep["slice_checks"] == {
        "n_sigma": 5,
        "activity_deterministic": True,
        "active_set_matches_disagreement_interior": True,
        "two_configs_per_component": True,
    }


def test_hardcore_threshold_marker_flag():
    g = build_grid(2, 2)
    low = hardcore_disagreement(g, 0.5, {0}, {3})
    high = hardcore_disagreement(g, 3.0, {0}, {3})
    assert low["uniqueness_marker"]["below_threshold"]
    assert not high["uniqueness_marker"]["below_threshold"]


def test_recursion_reference_values():
    # frozen from the closed form: p = tanh(J), f_d = 1 - (1 - p f_{d-1})^2
    J = 1.0
    p = math.tanh(J)
    f1 = 1 - (1 - p) ** 2
    f2 = 1 - (1 - p * f1) ** 2
    assert abs(nonoverlap_connection_recursion(J, 1) - 0.5 * f1) < 1e-15
    assert abs(nonoverlap_connection_recursion(J, 2) - 0.5 * f2) < 1e-15
