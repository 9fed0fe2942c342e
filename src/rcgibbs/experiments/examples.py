"""Worked three-spin examples and the randomized correlation-bound sweep."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import AllForbiddenError
from ..gibbs import BondTable, GibbsSpec, Interaction, SPIN, gibbs_measure
from ..lattice import hypergraph
from ..models import example1_spec
from ..percolation import (
    base_connection_probability,
    chain_components,
    integrated_rc,
    sigma_connection_profile,
)
from ..rcr import monotone_base
from ..rng import stream
from ..twocopy import nonoverlap_distribution, overlap_distribution, symmetrized_spec


def run_example1(J_values=(0.5, 1.0, 2.0)) -> dict:
    """Three-spin chain where active-bond connectivity misses the correlation.

    For each coupling pair: the end-spin covariance is positive while the
    single-copy representation has connection probability exactly zero, so
    no single-copy connectivity bound on correlations can hold in general.
    """
    rows = []
    for J12, J23 in itertools.product(J_values, repeat=2):
        spec = example1_spec(J12, J23)
        mu = gibbs_measure(spec)
        p13 = mu.event(lambda o: o[0] == 1 and o[2] == 1)
        p1 = mu.event(lambda o: o[0] == 1)
        p3 = mu.event(lambda o: o[2] == 1)
        dmu = p13 - p1 * p3
        Z = 2 * (2 + math.exp(J12) + math.exp(J23))
        dmu_closed = (1 - math.exp(J12)) * (1 - math.exp(J23)) / Z**2
        cov = mu.covariance(lambda o: o[0], lambda o: o[2])
        base = monotone_base(spec)
        p_conn = base_connection_probability(spec, base, {0}, {2})
        rows.append(
            {
                "J12": J12,
                "J23": J23,
                "delta_mu": dmu,
                "delta_mu_closed": dmu_closed,
                "cov_1_3": cov,
                "cov_is_4_delta": abs(cov - 4 * dmu),
                "p_connect_single_copy": p_conn,
                "counterexample": bool(abs(cov) > p_conn),
            }
        )
    return {
        "rows": rows,
        "all_counterexample": all(r["counterexample"] for r in rows),
        "max_connection_prob": max(r["p_connect_single_copy"] for r in rows),
    }


def run_example2(J12: float = 1.0, J23: float = 1.0) -> dict:
    """Two-copy treatment of the three-spin chain.

    Every overlap assignment except the all-zero one contributes no
    1-to-3 connection; the all-zero slice carries the symmetrized
    interaction and yields an integrated connection probability that the
    end-spin correlation obeys. The measured ratio of the integrated
    connection probability to the correlation gap is reported (claimed
    factor: 2).
    """
    spec = example1_spec(J12, J23)
    mu = gibbs_measure(spec)
    dmu = mu.event(lambda o: o[0] == 1 and o[2] == 1) - mu.event(
        lambda o: o[0] == 1
    ) * mu.event(lambda o: o[2] == 1)
    cov = mu.covariance(lambda o: o[0], lambda o: o[2])

    profile, pbar = sigma_connection_profile(spec, {0}, {2})
    sigma_rows = []
    zero_sigma_conn = None
    for sigma, rho, p in profile:
        sigma_rows.append({"sigma": list(sigma), "rho": rho, "p_connect": p})
        if sigma == (0, 0, 0):
            zero_sigma_conn = p
    others_zero = all(
        r["p_connect"] == 0 for r in sigma_rows if tuple(r["sigma"]) != (0, 0, 0)
    )

    rho_dist = overlap_distribution(spec)
    Z = 2 * (2 + math.exp(J12) + math.exp(J23))
    Zs = 2 * (math.exp(J12 + J23) + math.exp(J12) + math.exp(J23) + 1)
    rho_zero = rho_dist.prob((0, 0, 0))

    sym = symmetrized_spec(spec, (0, 0, 0))
    sym_base = monotone_base(sym)
    nu_star = [
        max(p for s, p in zip(bb.subsets, bb.probs) if s != bb.full_mask)
        for bb in sym_base.bonds
    ]

    # The slice measure of the all-zero overlap, against its closed form.
    mu_sigma = nonoverlap_distribution(spec, (0, 0, 0))
    mu_sigma_err = max(
        abs(
            mu_sigma.prob(o)
            - math.exp(J12 * (o[0] == o[1]) + J23 * (o[1] == o[2])) / Zs
        )
        for o in itertools.product((-1, 1), repeat=3)
    )

    bound_ok = abs(dmu) <= pbar + 1e-12
    cov_bound = 4 * pbar
    cov_ok = abs(cov) <= cov_bound + 1e-12

    return {
        "J12": J12,
        "J23": J23,
        "delta_mu": dmu,
        "cov_1_3": cov,
        "pbar_connect": pbar,
        "ratio_pbar_to_abs_dmu": pbar / abs(dmu) if dmu else float("nan"),
        "claimed_factor": 2.0,
        "sigma_rows": sigma_rows,
        "nonzero_sigmas_all_disconnected": others_zero,
        "zero_sigma_connection": zero_sigma_conn,
        "rho_zero_sigma": rho_zero,
        "rho_zero_closed": Zs / Z**2,
        "slice_measure_max_err": mu_sigma_err,
        "nu_active_probs": nu_star,
        "nu_active_closed": [1 - math.exp(-J12), 1 - math.exp(-J23)],
        "bound_holds": bool(bound_ok),
        "bound_slack": pbar - abs(dmu),
        "cov_bound_holds": bool(cov_ok),
        "cov_bound_slack": cov_bound - abs(cov),
    }


# ---------------------------------------------------------------------------
# Randomized sweep of the correlation bound


def _random_graph(n: int, kind: str, rng) -> list[tuple[int, ...]]:
    path = [(i, i + 1) for i in range(n - 1)]
    if kind == "path":
        return path
    if kind == "cycle":
        return path + [(0, n - 1)]
    if kind == "grid" and n == 6:
        return [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    if kind == "random":
        all_pairs = list(itertools.combinations(range(n), 2))
        extra = rng.integers(0, min(3, len(all_pairs) - n + 1) + 1)
        chosen = set(path)
        pool = [p for p in all_pairs if p not in chosen]
        for i in rng.permutation(len(pool))[:extra]:
            chosen.add(pool[i])
        return sorted(chosen)
    if kind == "hyper":
        tri = tuple(sorted(rng.permutation(n)[:3].tolist()))
        return path + [tri]
    if kind == "field":
        return path + [(v,) for v in range(n)]
    return path


def _random_spec(m: int, seed: int) -> GibbsSpec:
    """Deterministic random model; redraws tables when everything clashes."""
    rng = stream(seed, 40, m)
    n = 3 + int(rng.integers(0, 4))
    kind = ["path", "cycle", "grid", "random", "hyper", "field"][m % 6]
    if kind == "grid":
        n = 6
    bonds = _random_graph(n, kind, rng)
    if len(bonds) > 8:
        bonds = bonds[:8]
    g = hypergraph(n, bonds)
    for _ in range(10):
        tables = {}
        for k, b in enumerate(g.bonds):
            size = 2 ** len(b)
            exps = rng.uniform(-3.0, 3.0, size).tolist()
            if len(b) >= 2 and rng.random() < 0.12:
                exps[int(rng.integers(0, size))] = None
            tables[k] = BondTable.from_exponents(exps)
        spec = GibbsSpec(g, SPIN, Interaction(tables), tuple(range(n)))
        try:
            gibbs_measure(spec)
            return spec
        except AllForbiddenError:
            continue
    raise AllForbiddenError(f"model {m}: could not draw a feasible table")


def _subset_matrices(n_rows: int) -> np.ndarray:
    """All indicator vectors over n_rows outcomes, shape (2**n_rows, n_rows)."""
    idx = np.arange(1 << n_rows)
    return ((idx[:, None] >> np.arange(n_rows)) & 1).astype(float)


def _support_pairs(n: int):
    verts = range(n)
    for assignment in itertools.product((0, 1, 2), repeat=n):
        A = frozenset(v for v in verts if assignment[v] == 1)
        B = frozenset(v for v in verts if assignment[v] == 2)
        if A and B and min(A) < min(B):  # unordered pairs once
            yield A, B


def check_model_bounds(spec: GibbsSpec, tol: float = 1e-9) -> dict:
    """Exact worst-case event and observable checks for one model.

    For every unordered pair of disjoint supports, maximizes the event
    correlation gap over all event pairs (subset enumeration on the
    smaller side, sign-optimal completion on the other) and the covariance
    over all sup-norm-1 observables, and compares against the integrated
    connection probability with its alphabet-size factor.
    """
    n = len(spec.region)
    pos = {v: p for p, v in enumerate(spec.region)}
    # Reversing the axes puts site j's alphabet index at bit j.
    w = np.asarray(gibbs_measure(spec).weights, dtype=float).reshape((2,) * n).T.ravel()
    irc = integrated_rc(spec)
    masks = sorted(irc.patterns)
    probs = np.asarray([float(irc.patterns[m]) for m in masks])
    comp_lists = []
    maxc = 1
    for m in masks:
        comps = chain_components(irc.n_vertices, irc.bond_vertices, m)
        cm = [sum(1 << v for v in c) for c in comps] or [0]
        maxc = max(maxc, len(cm))
        comp_lists.append(cm)
    comp_arr = np.zeros((len(masks), maxc), dtype=np.int64)
    for i, cm in enumerate(comp_lists):
        comp_arr[i, : len(cm)] = cm

    cfg = np.arange(1 << n, dtype=np.int64)
    bit = {v: (cfg >> p) & 1 for v, p in pos.items()}
    subsets = {}  # rows ra -> (indicator matrix, its sign matrix)
    worst_event = -np.inf
    worst_cov = -np.inf
    n_checked = 0
    results = []
    for A, B in _support_pairs(n):
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
        # bincount adds each bin's weights in input order
        joint = np.bincount(ia * rb + ib, weights=w, minlength=ra * rb).reshape(ra, rb)
        C = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))

        if ra not in subsets:
            M = _subset_matrices(ra)
            subsets[ra] = M, 2.0 * M - 1.0
        M, sign = subsets[ra]
        V = M @ C  # (2**ra, rb)
        ev_max = float(np.maximum(V.clip(min=0).sum(axis=1), (-V).clip(min=0).sum(axis=1)).max())
        cov_max = float(np.abs(sign @ C).sum(axis=1).max())
        factor = float(spec.alphabet.size ** (len(A) + len(B)))
        worst_event = max(worst_event, ev_max - pbar)
        worst_cov = max(worst_cov, cov_max - factor * pbar)
        n_checked += 1
        results.append((ev_max, pbar, cov_max, factor))
    event_violations = sum(1 for e, p, _, _ in results if e > p + tol)
    cov_violations = sum(1 for _, p, c, f in results if c > f * p + tol)
    return {
        "n_support_pairs": n_checked,
        "worst_event_slack": worst_event,
        "worst_cov_slack": worst_cov,
        "event_violations": event_violations,
        "cov_violations": cov_violations,
    }


def sweep_correlation_bound(n_models: int = 500, seed: int = 7, tol: float = 1e-9) -> dict:
    """Randomized verification of the integrated connectivity bound.

    Model 0 is the fixed three-spin chain fixture; the rest are random
    graphs (paths, cycles, a grid, extra edges, one 3-vertex hyperbond,
    single-site fields) with entrywise energies bounded by 3, occasionally
    carrying a forbidden local configuration. All disjoint-support event
    pairs are covered exactly through the subset-enumeration maximization.
    """
    rows = []
    worst_event = -np.inf
    worst_cov = -np.inf
    total_violations = 0
    for m in range(n_models):
        spec = example1_spec(1.0, 1.0) if m == 0 else _random_spec(m, seed)
        r = check_model_bounds(spec, tol=tol)
        total_violations += r["event_violations"] + r["cov_violations"]
        worst_event = max(worst_event, r["worst_event_slack"])
        worst_cov = max(worst_cov, r["worst_cov_slack"])
        rows.append(r)
    return {
        "n_models": n_models,
        "seed": seed,
        "violations": int(total_violations),
        "worst_event_slack": float(worst_event),
        "worst_cov_slack": float(worst_cov),
        "support_pairs_checked": int(sum(r["n_support_pairs"] for r in rows)),
    }
