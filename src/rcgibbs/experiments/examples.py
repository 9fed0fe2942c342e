"""Worked three-spin examples and the randomized correlation-bound sweep."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .. import twocopy
from ..errors import AllForbiddenError, UsageError
from ..gibbs import BondTable, GibbsSpec, Interaction, SPIN, gibbs_measure
from ..lattice import hypergraph
from ..models import example1_spec
from ..percolation import (
    activity_rows,
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
    factor: 2). Couplings that are not finite, or beyond +-350 where the
    closed forms overflow a float, raise UsageError.
    """
    if not all(math.isfinite(J) and abs(J) <= 350 for J in (J12, J23)):
        raise UsageError(f"J12 and J23 must be finite with |J| <= 350, got {J12} and {J23}")
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


@functools.cache
def _subset_matrices(n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """All indicator vectors over n_rows outcomes, shape (2**n_rows, n_rows),
    and their sign vectors (2 * indicator - 1); read-only."""
    idx = np.arange(1 << n_rows)
    M = ((idx[:, None] >> np.arange(n_rows)) & 1).astype(float)
    sign = 2.0 * M - 1.0
    M.flags.writeable = sign.flags.writeable = False
    return M, sign


def _support_pairs(n: int):
    verts = range(n)
    for assignment in itertools.product((0, 1, 2), repeat=n):
        A = frozenset(v for v in verts if assignment[v] == 1)
        B = frozenset(v for v in verts if assignment[v] == 2)
        if A and B and min(A) < min(B):  # unordered pairs once
            yield A, B


@functools.cache
def _pair_groups(n: int) -> tuple:
    """_support_pairs(n) grouped by shape (|A|, |B|), smaller support first.

    Per shape: the pairs' positions in _support_pairs order and their
    sorted A and B vertices, shapes (K,), (K, |A|) and (K, |B|); read-only.
    """
    groups: dict = {}
    for k, (A, B) in enumerate(_support_pairs(n)):
        if len(A) > len(B):
            A, B = B, A
        groups.setdefault((len(A), len(B)), []).append((k, sorted(A), sorted(B)))
    out = []
    for rows in groups.values():
        arrays = tuple(np.array(col, dtype=np.int64) for col in zip(*rows))
        for arr in arrays:
            arr.flags.writeable = False
        out.append(arrays)
    return tuple(out)


# The joint cells of _pair_values' chunks and the chain reach of every
# activity mask of a bond structure (see there), which the sweep's models of
# one size and of one structure share. Each keeps at most 1 MiB of arrays,
# headers counted but keys not, and has no entry cap, so many small tables
# fit.
_cells = twocopy._Retained(1 << 20)
_reach = twocopy._Retained(1 << 20)


def _joint_cells(n: int, g: int, lo: int, hi: int) -> tuple:
    """(cell,), cell a (hi - lo, 2**n) int64 array: for pair lo + i of shape
    group g of _pair_groups(n) and each configuration, its joint cell (A's
    bits above B's bits) plus i * 2**(|A| + |B|), one bin range per pair."""
    _, As, Bs = _pair_groups(n)[g]
    A, B = As[lo:hi], Bs[lo:hi]
    a, b = A.shape[1], B.shape[1]
    bits = (np.arange(1 << n, dtype=np.int64) >> np.arange(n)[:, None]) & 1
    shifts = np.r_[np.arange(b, a + b), np.arange(b)][:, None]
    cell = (bits[np.hstack([A, B])] << shifts).sum(axis=1)
    cell += (np.arange(hi - lo) * (1 << (a + b)))[:, None]
    return (cell,)


def _chain_reach(n_vertices: int, bond_vertices, masks) -> np.ndarray:
    """(n_vertices, len(masks)) int64: entry (v, i) is the vertex mask of
    mask i's active chain through v, 0 if no active bond covers v; A and B
    connect in mask i when the chains through A meet B."""
    labels = chain_components(n_vertices, bond_vertices, activity_rows(masks, len(bond_vertices)))
    chain_mask = np.zeros(int(labels.max(initial=-1)) + 2, dtype=np.int64)  # label -1 reads the last, 0
    i, v = np.nonzero(labels >= 0)
    np.bitwise_or.at(chain_mask, labels[i, v], np.left_shift(1, v))
    return chain_mask[labels].T


def _reach_of(n_vertices: int, bond_vertices, masks) -> np.ndarray:
    """_chain_reach of the masks, read from the bond structure's table of
    every mask when it has at most _BLOCK_CELLS cells (n_vertices * 2**B,
    B bonds), and labelled directly otherwise. The table depends only on
    (n_vertices, bond_vertices), its key in _reach."""
    n_masks = 1 << len(bond_vertices)
    if n_vertices * n_masks > twocopy._BLOCK_CELLS:
        return _chain_reach(n_vertices, bond_vertices, masks)
    (table,) = _reach.get(
        (n_vertices, bond_vertices),
        lambda: (_chain_reach(n_vertices, bond_vertices, np.arange(n_masks, dtype=np.int64)),),
        lambda t: t[0].size,
    )
    return table.take(masks, axis=1)


def _pair_values(spec: GibbsSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per support pair, in _support_pairs order: the largest event gap
    ev_max, the integrated connection probability pbar and the largest
    covariance cov_max (see check_model_bounds).

    The pairs of one shape are evaluated together, in chunks of at most
    twocopy._BLOCK_CELLS cells (pairs x the largest per-pair array), and
    every value equals the one a pair evaluated alone gets: the joint law
    is one bincount (each cell adds its weights in configuration order),
    the margins sum along the same axes, and the subset products and pbar
    are stacked matmuls, one matrix product or dot product per pair (one
    matrix-vector product for the chunk's pbar would round differently).
    A chunk's joint cells depend only on n and its pairs, and come from
    _cells, keyed by (n, shape group, chunk range); a chunk holds at most
    _BLOCK_CELLS cells, so an entry is at most 512 KiB at 2^16. Whether a
    pattern joins A and B depends only on the bond structure, so the
    patterns' chain reach comes from _reach_of: from the structure's table
    in _reach (C04's models, at most 8 bonds, always have one), or labelled
    directly past the cell rule, with the same reach integers either way.
    """
    n = len(spec.region)
    if (
        spec.alphabet.size != 2
        or spec.region != tuple(range(n))
        or spec.boundary
        or spec.domains is not None
    ):
        raise ValueError(
            "check_model_bounds needs a binary alphabet, region 0..n-1, "
            "no boundary and no domain restrictions"
        )
    # Reversing the axes puts site j's alphabet index at bit j.
    w = np.asarray(gibbs_measure(spec).weights, dtype=float).reshape((2,) * n).T.ravel()
    irc = integrated_rc(spec)
    masks = np.fromiter(irc.patterns, np.int64, len(irc.patterns))
    order = np.argsort(masks)
    masks = masks[order]
    probs = np.fromiter(map(float, irc.patterns.values()), float, len(masks))[order]
    reach = _reach_of(irc.n_vertices, irc.bond_vertices, masks)

    n_pairs = sum(len(pos) for pos, _, _ in _pair_groups(n))
    ev_max, pbar, cov_max = np.empty(n_pairs), np.empty(n_pairs), np.empty(n_pairs)
    for g, (pos, As, Bs) in enumerate(_pair_groups(n)):
        ra, rb = 1 << As.shape[1], 1 << Bs.shape[1]
        M, sign = _subset_matrices(ra)
        step = max(1, twocopy._BLOCK_CELLS // max(1 << n, len(masks), M.shape[0] * rb))
        for lo in range(0, len(pos), step):
            at = pos[lo : lo + step]
            A, B = As[lo : lo + step], Bs[lo : lo + step]
            K = len(at)
            (cell,) = _cells.get((n, g, lo, lo + K), lambda: _joint_cells(n, g, lo, lo + K), lambda t: t[0].size)
            # bincount adds each bin's weights in input order
            joint = np.bincount(
                cell.ravel(), weights=np.tile(w, K), minlength=K * ra * rb
            ).reshape(K, ra, rb)
            C = joint - joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]
            V = M @ C  # (K, 2**ra, rb)
            ev_max[at] = np.maximum(
                V.clip(min=0).sum(axis=2), (-V).clip(min=0).sum(axis=2)
            ).max(axis=1)
            cov_max[at] = np.abs(sign @ C).sum(axis=2).max(axis=1)
            bmask = (1 << B).sum(axis=1)
            conn = (np.bitwise_or.reduce(reach[A], axis=1) & bmask[:, None]) != 0
            pbar[at] = (conn.astype(float)[:, None, :] @ probs[:, None])[:, 0, 0]
    return ev_max, pbar, cov_max


def check_model_bounds(spec: GibbsSpec, tol: float = 1e-9) -> dict:
    """Exact worst-case event and observable checks for one model.

    For every unordered pair of disjoint supports, maximizes the event
    correlation gap over all event pairs (subset enumeration on the
    smaller side, sign-optimal completion on the other) and the covariance
    over all sup-norm-1 observables, and compares against the integrated
    connection probability with its alphabet-size factor.

    Scope: a binary alphabet, region = (0, ..., n-1), no boundary and no
    domain restrictions; other specs raise ValueError.
    """
    ev_max, pbar, cov_max = _pair_values(spec)
    factor = np.empty(len(pbar))
    for pos, As, Bs in _pair_groups(len(spec.region)):
        factor[pos] = float(spec.alphabet.size ** (As.shape[1] + Bs.shape[1]))
    # max over lists keeps the first of tied values (+0.0 or -0.0), as a
    # running max in pair order does
    return {
        "n_support_pairs": len(pbar),
        "worst_event_slack": max((ev_max - pbar).tolist(), default=-math.inf),
        "worst_cov_slack": max((cov_max - factor * pbar).tolist(), default=-math.inf),
        "event_violations": int(np.count_nonzero(ev_max > pbar + tol)),
        "cov_violations": int(np.count_nonzero(cov_max > factor * pbar + tol)),
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
