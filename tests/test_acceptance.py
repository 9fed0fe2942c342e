"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Each test pins the tolerance stated for its criterion and prints a single
summary line. Monte Carlo criteria use fixed seeds, so the whole suite is
deterministic.
"""

import itertools
import json
import math
import time
from fractions import Fraction

from scipy import stats
from scipy.optimize import brentq

from conftest import acceptance_line, random_binary_spec
from rcgibbs.cli import main as cli_main
from rcgibbs.experiments.cayley import LOG3_HALF, cayley_fixed_points, crossing_scan
from rcgibbs.experiments.ea import (
    ea_mns_percolation,
    glass_spec,
    mc_bond_joint,
    quenched_couplings,
)
from rcgibbs.experiments.examples import run_example2, sweep_correlation_bound
from rcgibbs.experiments.hardcore import checkerboard_instance, hardcore_disagreement
from rcgibbs.gibbs import gibbs_measure
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import (
    ea_spec,
    example1_exact_spec,
    example1_spec,
    ising_exact_spec,
    ising_spec,
)
from rcgibbs.percolation import base_connection_probability
from rcgibbs.rcr import mns_base, monotone_base, reconstruct, typed_joint
from rcgibbs.twocopy import nonoverlap_distribution, symmetrized_spec


def test_c01_fk_identity():
    t0 = time.time()
    worst = 0.0
    cases = []
    for n in range(2, 11):
        g = hypergraph(n, [(i, i + 1) for i in range(n - 1)])
        cases.append((g, 0, n - 1, 0.7))
    cases.append((build_grid(3, 2), 0, 5, 0.5))
    cases.append((build_grid(3, 3), 0, 8, 0.45))
    cases.append((build_grid(5, 2), 0, 9, 0.6))
    for g, i, j, J in cases:
        spec = ising_spec(g, J)
        mu = gibbs_measure(spec)
        pos = {v: p for p, v in enumerate(spec.region)}
        cov = mu.covariance(lambda o: o[pos[i]], lambda o: o[pos[j]])
        base = monotone_base(spec)
        p_conn = base_connection_probability(spec, base, {i}, {j})
        worst = max(worst, abs(cov - p_conn))
    # exact-rational twin: equality holds with no tolerance at all
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    spec = ising_exact_spec(g, Fraction(2))
    mu = gibbs_measure(spec)
    cov = mu.covariance(lambda o: o[0], lambda o: o[3])
    p_conn = base_connection_probability(spec, monotone_base(spec), {0}, {3})
    exact_equal = cov == p_conn
    dt = time.time() - t0
    acceptance_line(
        1,
        "FK identity on chains and grids",
        worst <= 1e-10 and exact_equal and dt < 10,
        f"max |cov - conn| = {worst:.2e}, exact case equal = {exact_equal}, {dt:.1f}s",
    )


def test_c02_three_spin_counterexample():
    t0 = time.time()
    ok = True
    worst_dmu = worst_cov = 0.0
    for J12 in (0.5, 1.0, 2.0):
        for J23 in (0.5, 1.0, 2.0):
            spec = example1_spec(J12, J23)
            mu = gibbs_measure(spec)
            # independent oracle: raw enumeration of the eight configurations
            w = {
                c: math.exp(J12 * (c[0] == c[1] == -1) + J23 * (c[1] == c[2] == 1))
                for c in itertools.product((-1, 1), repeat=3)
            }
            Z = sum(w.values())
            p13 = sum(v for c, v in w.items() if c[0] == c[2] == 1) / Z
            p1 = sum(v for c, v in w.items() if c[0] == 1) / Z
            p3 = sum(v for c, v in w.items() if c[2] == 1) / Z
            dmu_oracle = p13 - p1 * p3
            dmu = mu.event(lambda o: o[0] == o[2] == 1) - mu.event(
                lambda o: o[0] == 1
            ) * mu.event(lambda o: o[2] == 1)
            cov = mu.covariance(lambda o: o[0], lambda o: o[2])
            p_conn = base_connection_probability(spec, monotone_base(spec), {0}, {2})
            worst_dmu = max(worst_dmu, abs(dmu - dmu_oracle))
            worst_cov = max(worst_cov, abs(cov - 4 * dmu_oracle))
            ok &= p_conn == 0.0 and abs(cov) > p_conn
    dt = time.time() - t0
    acceptance_line(
        2,
        "three-spin counterexample (zero connectivity, positive correlation)",
        ok and worst_dmu <= 1e-12 and worst_cov <= 1e-12 and dt < 1,
        f"gap err {worst_dmu:.1e}, cov err {worst_cov:.1e}, {dt:.2f}s",
    )


def test_c03_three_spin_two_copy_bound():
    t0 = time.time()
    rep = run_example2(1.0, 1.0)
    ratio = rep["ratio_pbar_to_abs_dmu"]
    ok = (
        rep["nonzero_sigmas_all_disconnected"]
        and rep["bound_holds"]
        and rep["cov_bound_holds"]
        and all(
            r["p_connect"] == 0.0
            for r in rep["sigma_rows"]
            if tuple(r["sigma"]) != (0, 0, 0)
        )
    )
    dt = time.time() - t0
    acceptance_line(
        3,
        "two-copy bound on the three-spin chain",
        ok and dt < 1,
        f"measured Pbar/|gap| = {ratio:.12f} (claimed factor 2), "
        f"bound slack {rep['bound_slack']:.3e}, {dt:.2f}s",
    )


def test_c04_randomized_bound_sweep():
    t0 = time.time()
    rep = sweep_correlation_bound(500, seed=7, tol=1e-9)
    dt = time.time() - t0
    acceptance_line(
        4,
        "correlation bound sweep, 500 random models",
        rep["violations"] == 0 and dt < 300,
        f"{rep['support_pairs_checked']} support pairs, worst event slack "
        f"{rep['worst_event_slack']:.2e}, {dt:.1f}s",
    )


def test_c05_slice_symmetry_suite():
    t0 = time.time()
    checked = 0
    all_exact = True
    m = 0
    while checked < 200:
        n_target = 3 + (m % 8)  # sizes 3..10
        spec = random_binary_spec(
            m, seed=55, exact=True, n_min=n_target, n_max=n_target
        )
        mu = gibbs_measure(spec)
        outs = list(mu.outcomes())
        sigmas = set()
        for i in range(3):
            o1 = outs[(7 * i + m) % len(outs)]
            o2 = outs[(11 * i + 3 * m + 1) % len(outs)]
            sigmas.add(tuple(a + b for a, b in zip(o1, o2)))
        for sigma in sigmas:
            mu_s = nonoverlap_distribution(spec, sigma)
            for o in mu_s.outcomes():
                refl = tuple(s - x for s, x in zip(sigma, o))
                all_exact &= mu_s.prob(o) == mu_s.prob(refl)
            mu_sym = gibbs_measure(symmetrized_spec(spec, sigma))
            for o in mu_s.outcomes():
                all_exact &= mu_sym.prob(o) == mu_s.prob(o)
            checked += 1
        m += 1
    dt = time.time() - t0
    acceptance_line(
        5,
        "slice symmetry and symmetrized-spec identity, exact arithmetic",
        all_exact and dt < 120,
        f"{checked} slice instances over {m} random models, {dt:.1f}s",
    )


def test_c06_representation_roundtrips():
    t0 = time.time()
    worst = 0.0
    # corner chain, float and exact
    spec = example1_spec(1.0, 1.0)
    mu = gibbs_measure(spec)
    rec = reconstruct(spec, monotone_base(spec))
    worst = max(worst, max(abs(rec.prob(o) - p) for o, p in mu.items()))
    spec_e = example1_exact_spec(Fraction(3), Fraction(2))
    exact_equal = all(
        reconstruct(spec_e, monotone_base(spec_e)).prob(o) == p
        for o, p in gibbs_measure(spec_e).items()
    )
    # all-zero overlap slice of the corner chain
    sl_spec = symmetrized_spec(spec, (0, 0, 0))
    mu_s = nonoverlap_distribution(spec, (0, 0, 0))
    rec = reconstruct(sl_spec, monotone_base(sl_spec))
    worst = max(worst, max(abs(rec.prob(o) - p) for o, p in mu_s.items()))
    # one-family three-level table on a paired single bond
    g1 = hypergraph(2, [(0, 1)])
    J = 0.8
    from rcgibbs.twocopy import two_copy_spec

    spec2 = two_copy_spec(ising_spec(g1, J))
    base2 = monotone_base(spec2)
    want = (
        1 - math.exp(-2 * J),
        math.exp(-2 * J) - math.exp(-4 * J),
        math.exp(-4 * J),
    )
    table_ok = all(abs(p - q) < 1e-12 for p, q in zip(base2.bonds[0].probs, want))
    rec = reconstruct(spec2, base2)
    mu2 = gibbs_measure(spec2)
    worst = max(worst, max(abs(rec.prob(o) - p) for o, p in mu2.items()))
    # blue/red two-family base on the 2 x 2 quenched box
    spec_ea = ea_spec(build_grid(2, 2), 1.0, seed=5)
    tb, spec_ea2 = mns_base(spec_ea)
    mu_ea2 = gibbs_measure(spec_ea2)
    rec = reconstruct(spec_ea2, tb)
    worst = max(worst, max(abs(rec.prob(o) - p) for o, p in mu_ea2.items()))
    dt = time.time() - t0
    acceptance_line(
        6,
        "representation round-trips (nested-level and blue/red bases)",
        worst <= 1e-10 and exact_equal and table_ok and dt < 60,
        f"worst residual {worst:.2e}, exact twin equal = {exact_equal}, {dt:.1f}s",
    )


def test_c07_binary_tree_chain_activity():
    t0 = time.time()
    ok_unique = all(
        len(cayley_fixed_points(J, 0.0)) == 1 for J in (0.1, 0.3, 0.5, 0.54)
    )
    roots = cayley_fixed_points(1.0, 0.0)
    ok_three = len(roots) == 3 and abs(roots[1]) < 1e-9
    scan = crossing_scan("formula", xtol=1e-9)
    independent = brentq(
        lambda J: math.tanh(J) * math.tanh(4 * J) - 0.5, 0.3, 1.0, xtol=1e-12
    )
    ok_cross = abs(scan["J_star"] - independent) < 1e-6
    gap = scan["gap_to_log3_half"]
    branching = crossing_scan("branching", xtol=1e-9)
    dt = time.time() - t0
    acceptance_line(
        7,
        "binary tree fixed points and activity crossing",
        ok_unique and ok_three and ok_cross and dt < 10,
        f"printed-formula crossing {scan['J_star']:.7f}, gap to log(3)/2 = {gap:+.7f}; "
        f"bare-determinant crossing gap {branching['gap_to_log3_half']:+.1e}; {dt:.1f}s",
    )


def test_c08_glass_sampler_consistency():
    t0 = time.time()
    # exact two-family joint on the 2 x 2 box vs one million Monte Carlo draws
    beta = 0.8
    qc = quenched_couplings(2, 1.0, seed=3)
    spec = glass_spec(qc, beta)
    tb, spec2 = mns_base(spec)
    exact = typed_joint(spec2, tb).map_outcomes(
        lambda a: (
            sum(1 << k for k, (ja, jb) in enumerate(a) if ja == 0),
            sum(1 << k for k, (ja, jb) in enumerate(a) if jb == 0),
        )
    )
    n = 1_000_000
    counts, n_got = mc_bond_joint(qc, beta, seed=17, n_samples=n, burn_in=400, gap=4)
    impossible_hit = sum(c for key, c in counts.items() if exact.prob(key) == 0)
    # per-bond (blue, red, neither) marginal z-scores
    B = 4
    worst_bond_z = 0.0
    for k in range(B):
        for label in range(3):  # blue, red, neither

            def classify(key, k=k):
                bm, rm = key
                if (bm >> k) & 1:
                    return 0
                if (rm >> k) & 1:
                    return 1
                return 2

            p = sum(p for key, p in exact.items() if classify(key) == label)
            c = sum(c for key, c in counts.items() if classify(key) == label)
            se = math.sqrt(p * (1 - p) / n)
            worst_bond_z = max(worst_bond_z, abs(c / n - p) / se)
    # global goodness of fit over the exact support
    chi2 = 0.0
    df = 0
    for key, p in exact.items():
        e = p * n
        if e < 5:
            continue
        chi2 += (counts.get(key, 0) - e) ** 2 / e
        df += 1
    pvalue = float(stats.chi2.sf(chi2, df - 1))
    # larger box: blue density per admissible bond against the closed form
    rep = ea_mns_percolation(
        L=32, J=1.0, beta_scale=0.5, seed=23, n_sweeps=400, n_samples=64
    )
    bd = rep["blue_density"]
    density_z = abs(bd["mean"] - bd["closed_form"]) / bd["se"]
    dt = time.time() - t0
    acceptance_line(
        8,
        "glass sampler vs exact two-family law",
        impossible_hit == 0
        and worst_bond_z <= 3.0
        and pvalue >= 0.01
        and density_z <= 3.0
        and dt < 600,
        f"per-bond max z {worst_bond_z:.2f}, chi2 p {pvalue:.3f}, "
        f"L=32 density z {density_z:.2f}, {dt:.0f}s",
    )


def test_c09_hardcore_equivalence():
    t0 = time.time()
    ok = True
    details = []
    for g, A, B in (
        (build_grid(3, 2), {0}, {5}),
        (build_grid(3, 3), {0}, {8}),
        (build_grid(4, 3), {0}, {11}),
    ):
        rep = hardcore_disagreement(g, 1.0, A, B)
        ok &= rep["indicators_equal_everywhere"]
        ok &= rep["p_disagreement_path"] == rep["p_active_connection"]
        ok &= all(rep["slice_checks"][k] for k in (
            "activity_deterministic",
            "active_set_matches_disagreement_interior",
            "two_configs_per_component",
        ))
        details.append(f"{g.n_vertices} sites / {rep['n_disagreement_regions']} regions")
    graph, region, bc1 = checkerboard_instance(2, 3, 0)
    _, _, bc2 = checkerboard_instance(2, 3, 1)
    rep = hardcore_disagreement(
        graph, 1.0, {region[0]}, {region[-1]}, boundary1=bc1, boundary2=bc2, region=region
    )
    ok &= rep["indicators_equal_everywhere"]
    dt = time.time() - t0
    acceptance_line(
        9,
        "hard-core active connectivity equals disagreement paths",
        ok and dt < 60,
        "; ".join(details) + f", {dt:.1f}s",
    )


def test_c10_determinism_across_threads(tmp_path):
    t0 = time.time()
    model = {
        "graph": {"n": 3, "bonds": [[0, 1], [1, 2]]},
        "interaction": {"template": "example1", "J12": 1.0, "J23": 1.0},
    }
    mp = tmp_path / "model.json"
    mp.write_text(json.dumps(model))
    blobs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"ibar{threads}"
        rc = cli_main(
            ["--out", str(out), "--seed", "11", "--threads", threads,
             "perc", "ibar", "--model", str(mp), "--A", "0", "--B", "2", "--mc", "800"]
        )
        assert rc == 0
        blobs.append((out / "results.json").read_bytes())
    ibar_ok = blobs[0] == blobs[1] == blobs[2]
    blobs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"ea{threads}"
        rc = cli_main(
            ["--out", str(out), "--seed", "13", "--threads", threads,
             "exp", "ea", "--L", "8", "--J", "1.0", "--beta", "0.7",
             "--seeds", "3", "--sweeps", "80", "--samples", "16"]
        )
        assert rc == 0
        blobs.append((out / "results.json").read_bytes())
    ea_ok = blobs[0] == blobs[1] == blobs[2]
    dt = time.time() - t0
    acceptance_line(
        10,
        "byte-identical Monte Carlo outputs across 1/4/8 threads",
        ibar_ok and ea_ok,
        f"connection estimate and glass report stable, {dt:.1f}s",
    )
