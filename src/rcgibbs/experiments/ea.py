"""Quenched +-J glass on a square box: two-copy sampling and blue/red bonds.

Two independent heat-bath chains sample the quenched model; given the pair
of configurations, blue bonds appear on bonds satisfied by both copies
with probability 1 - exp(-4|K|) and red bonds where the copies' bond
products disagree with probability 1 - exp(-2|K|). Cluster statistics of
blue bonds are taken inside the non-overlap (disagreement) region.

The heat bath updates one checkerboard colour at a time, reading each
site's p_plus from an 81-entry table keyed by its neighbours' spins and
drawing uniforms only at that colour's sites; the colouring is proper only
for even L on the torus, so odd periodic boxes are rejected. Each disorder
builds one HeatBathWorkspace (table, key weights and buffers) for every
heat-bath call of its two chains. Blue clusters are labelled by
percolation.edge_components and open-box crossings by chains_join; on
the torus a cluster wraps when one of its cycles has nonzero displacement,
found from integer potentials on a breadth-first spanning forest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..lattice import build_grid
from ..models import ising_spec
from ..percolation import _graph, chains_join, edge_components
from ..rng import run_tasks, stream


@dataclass(frozen=True)
class QuenchedCouplings:
    """One +-J disorder realization on an L x L box.

    horizontal[y, x] couples (x, y)-(x+1, y); vertical[y, x] couples
    (x, y)-(x, y+1); wrap couplings are zeroed for open boundaries.
    """

    L: int
    J: float
    periodic: bool
    seed: int
    horizontal: np.ndarray
    vertical: np.ndarray


def _box_error(L: int, periodic: bool) -> str | None:
    if not 2 <= L <= 256:
        return f"L must be between 2 and 256, got {L}"
    if periodic and L % 2:
        # the (x + y) mod 2 checkerboard gives neighbours across the wrap
        # the same colour, so the heat bath would update them together
        return f"L must be even with periodic boundaries, got {L}"
    return None


def quenched_couplings(L: int, J: float, seed: int, periodic: bool = False) -> QuenchedCouplings:
    err = _box_error(L, periodic)
    if err:
        raise ValueError(err)
    rng = stream(seed, 11)
    h = (rng.integers(0, 2, (L, L)) * 2 - 1).astype(float) * J
    v = (rng.integers(0, 2, (L, L)) * 2 - 1).astype(float) * J
    if not periodic:
        h[:, L - 1] = 0.0
        v[L - 1, :] = 0.0
    h.setflags(write=False)
    v.setflags(write=False)
    return QuenchedCouplings(L, J, periodic, seed, h, v)


def coupling_list(qc: QuenchedCouplings, beta_scale: float = 1.0):
    """Couplings aligned with build_grid's bond ordering.

    Returns (graph, [coupling per bond]) with zero-coupling entries absent
    (open-boundary wrap bonds are not in the graph at all).
    """
    g = build_grid(qc.L, qc.L, qc.periodic)
    L = qc.L
    lookup = {}
    for y in range(L):
        for x in range(L):
            if qc.horizontal[y, x] != 0.0:
                a, b = y * L + x, y * L + (x + 1) % L
                lookup[tuple(sorted((a, b)))] = beta_scale * qc.horizontal[y, x]
            if qc.vertical[y, x] != 0.0:
                a, b = y * L + x, ((y + 1) % L) * L + x
                lookup[tuple(sorted((a, b)))] = beta_scale * qc.vertical[y, x]
    return g, [lookup[b] for b in g.bonds]


def glass_spec(qc: QuenchedCouplings, beta_scale: float = 1.0):
    g, Js = coupling_list(qc, beta_scale)
    return ising_spec(g, Js)


def _checkerboard(L: int):
    """Per colour: flat site indices and their (right, left, down, up)
    neighbours, indices mod L."""
    yy, xx = np.mgrid[0:L, 0:L]
    colours = []
    for par in (0, 1):
        sel = (xx + yy) % 2 == par
        y, x = yy[sel], xx[sel]
        site = y * L + x
        nbrs = (y * L + (x + 1) % L, y * L + (x - 1) % L, ((y + 1) % L) * L + x, ((y - 1) % L) * L + x)
        colours.append((site, nbrs))
    return colours


def _p_plus_table(a: float, beta: float) -> np.ndarray:
    """p_plus for every key 40 + t0 + 3 t1 + 9 t2 + 27 t3, t_k in {-1, 0, 1}:
    the field t0*a + t1*a + t2*a + t3*a, summed left to right, then times
    beta, times -2, exp, plus 1 and inverted, as the per-site formula
    rounds it."""
    key = np.arange(81)
    t0, t1, t2, t3 = (((key // 3**k) % 3 - 1) * a for k in range(4))
    f = t0 + t1 + t2 + t3
    f *= beta
    f *= -2.0
    np.exp(f, out=f)
    f += 1.0
    return np.divide(1.0, f, out=f)


class HeatBathWorkspace:
    """What heat_bath_sweeps builds per disorder: the coupling check, the
    p_plus table, per colour the key weights sign(c_k) 3^k repeated over
    the R replicas, and the site-major spin, key, field and uniform buffers.

    One workspace serves every call with the same couplings, beta and
    replica count, so a disorder's two chains can share one as long as
    their calls run one after another. Never share one between threads.
    """

    def __init__(self, qc: QuenchedCouplings, beta: float, R: int):
        h = qc.horizontal.ravel()
        v = qc.vertical.ravel()
        a = abs(qc.J)
        if not all(((c == 0.0) | (np.abs(c) == a)).all() for c in (h, v)):
            raise ValueError(f"couplings must be 0 or +-{a}")
        self.qc, self.beta, self.R = qc, beta, R
        self.table = _p_plus_table(a, beta)
        self.spins = np.empty((qc.L * qc.L, R), np.int8)
        self.colours = []
        for site, nbrs in _checkerboard(qc.L):
            shape = (len(site), R)
            coup = (h[site], h[nbrs[1]], v[site], v[nbrs[3]])
            w = [np.repeat(np.sign(c).astype(np.int8)[:, None] * 3**k, R, axis=1) for k, c in enumerate(coup)]
            bufs = (np.empty(shape, np.int8), np.empty(shape, np.int8), np.empty(shape), np.empty((R, len(site))))
            self.colours.append((site, nbrs, w, *bufs))


def heat_bath_sweeps(s, qc: QuenchedCouplings, beta: float, rng, n_sweeps: int, ws: HeatBathWorkspace | None = None):
    """Checkerboard single-site heat bath, in place; s has shape (R, L, L).

    Each field is a sum of four terms in {-|J|, 0, |J|} (right, left, down,
    up neighbour), so p_plus = 1 / (1 + exp(-2 beta field)) is read from an
    81-entry table at the key 40 + sum_k sign(c_k) 3^k s_k, c_k being the
    coupling to neighbour k. The table rounds each field as the per-site
    formula does (see _p_plus_table), so p_plus is that formula's value bit
    for bit. Couplings other than 0 and +-|J| raise ValueError.

    ws is a HeatBathWorkspace for (qc, beta, R); without one, the call
    builds its own. The spins are the same either way.

    Random stream: per colour, one rng.random((R, n_colour)) draw, that is
    one uniform per updated site, replica-major and in _checkerboard's site
    order; a site becomes +1 when its uniform is below p_plus.
    """
    R = s.shape[0]
    if ws is None:
        ws = HeatBathWorkspace(qc, beta, R)
    elif ws.qc is not qc or ws.beta != beta or ws.R != R:
        raise ValueError("workspace built for other couplings, beta or replica count")
    # site-major copy: a neighbour gather moves a site's R replicas at once
    spins = ws.spins
    spins[...] = s.reshape(R, -1).T
    table = ws.table
    for _ in range(n_sweeps):
        for site, nbrs, w, key, t, p, u in ws.colours:
            np.multiply(spins.take(nbrs[0], axis=0, out=key), w[0], out=key)
            for wk, nb in zip(w[1:], nbrs[1:]):
                key += np.multiply(spins.take(nb, axis=0, out=t), wk, out=t)
            key += 40
            table.take(key, out=p)
            rng.random(out=u)
            spins[site] = 2 * np.less(u.T, p, out=t.view(bool)).view(np.int8) - 1
    s[...] = spins.T.reshape(s.shape)
    return s


def bond_energy(s, qc: QuenchedCouplings) -> np.ndarray:
    """Per-replica energy series entry (negative satisfied-coupling sum)."""
    e = -(qc.horizontal[None] * s * np.roll(s, -1, axis=2)).sum(axis=(1, 2))
    e -= (qc.vertical[None] * s * np.roll(s, -1, axis=1)).sum(axis=(1, 2))
    return e


def integrated_autocorr(x: np.ndarray) -> tuple[float, bool]:
    """Sokal-windowed integrated autocorrelation time of one series."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 8:
        return 1.0, False
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var == 0:
        return 1.0, True
    tau = 1.0
    converged = False
    for m in range(1, n // 2):
        rho = float(np.dot(x[:-m], x[m:])) / ((n - m) * var)
        tau += 2.0 * rho
        if m >= 6.0 * tau:
            converged = True
            break
    return max(tau, 1.0), converged


def sample_blue_red(s1, s2, qc: QuenchedCouplings, beta: float, rng):
    """Draw blue/red bond indicators given the two spin fields.

    Returns ((blue_h, blue_v), (red_h, red_v), no_mask); arrays match the
    coupling layout, entries on zero couplings are always False.
    """
    out_blue = []
    out_red = []
    r = s1 * s2
    for coup, axis in ((qc.horizontal, 2), (qc.vertical, 1)):
        K = beta * coup[None, :, :]
        absK = np.abs(K)
        sat1 = K * s1 * np.roll(s1, -1, axis=axis) > 0
        sat2 = K * s2 * np.roll(s2, -1, axis=axis) > 0
        blue_adm = sat1 & sat2
        p_blue = 1.0 - np.exp(-4.0 * absK)
        blue = blue_adm & (rng.random(s1.shape) < p_blue)
        red_adm = (r * np.roll(r, -1, axis=axis) < 0) & (absK > 0)
        p_red = 1.0 - np.exp(-2.0 * absK)
        red = red_adm & (rng.random(s1.shape) < p_red)
        out_blue.append((blue, blue_adm))
        out_red.append((red, red_adm))
    no_mask = s1 != s2
    return out_blue, out_red, no_mask


def _wraps(a, b, d, labels, n: int) -> tuple[bool, bool]:
    """Whether some cycle of the bonds a -> b, with displacements d (2, E),
    has a nonzero x and a nonzero y displacement (labels: edge_components).

    Integer potentials come from a spanning forest: a breadth-first tree
    from a virtual root n joined to one covered site per component, each
    tree edge carrying the displacement of a bond that joins its ends,
    summed to the root by pointer jumping. A cycle winds iff one of its
    bonds disagrees with the potentials, so checking every bond suffices.
    """
    from scipy.sparse.csgraph import breadth_first_order

    root_of = np.full(n, -1)
    root_of[labels[a]] = a  # a site of each component: every one has a bond
    roots = root_of[root_of >= 0]
    rows = np.concatenate((a, np.full(len(roots), n)))
    cols = np.concatenate((b, roots))
    _, pred = breadth_first_order(_graph(rows, cols, n + 1), n, directed=False, return_predecessors=True)
    keys = np.concatenate((a * (n + 1) + b, b * (n + 1) + a))
    disp = np.concatenate((d, -d), axis=1)
    order = np.argsort(keys)
    child = np.flatnonzero((pred >= 0) & (pred != n))
    hit = order[np.searchsorted(keys[order], pred[child] * (n + 1) + child)]
    pot = np.zeros((2, n + 1), np.int64)
    pot[:, child] = disp[:, hit]
    up = np.where(pred >= 0, pred, n)
    while (up != n).any():
        pot += pot[:, up]
        up = up[up]
    off = pot[:, a] + d - pot[:, b]
    return bool(off[0].any()), bool(off[1].any())


def _cluster_stats(bh, bv, site_mask, L: int, periodic: bool):
    """Cluster sizes of bonds restricted to masked sites, with crossings.

    bh[y, x] joins (x, y)-(x+1, y); bv joins (x, y)-(x, y+1), indices mod
    L; a bond counts only when both endpoints are masked. Sites are
    labelled by edge_components on the kept bonds, and sizes count the
    sites that touch a kept bond. An open box is crossed in x when a label
    covers sites in both the first and the last column (rows for y). On
    the torus, a cluster wraps in x when one of its cycles has nonzero x
    displacement (see _wraps), which also catches windings that a
    doubled-torus test misses.
    """
    n = L * L
    keep_h = bh & site_mask & np.roll(site_mask, -1, axis=1)
    keep_v = bv & site_mask & np.roll(site_mask, -1, axis=0)
    yh, xh = np.nonzero(keep_h)
    yv, xv = np.nonzero(keep_v)
    a = np.concatenate((yh * L + xh, yv * L + xv))
    b = np.concatenate((yh * L + (xh + 1) % L, ((yv + 1) % L) * L + xv))
    labels = edge_components(n, a, b)
    counts = np.bincount(labels[labels >= 0])
    sizes = sorted(counts[counts > 0].tolist(), reverse=True)
    largest = sizes[0] if sizes else 0
    if periodic:
        d = np.zeros((2, len(a)), np.int64)
        d[0, : len(yh)] = 1
        d[1, len(yh) :] = 1
        cross_x, cross_y = _wraps(a, b, d, labels, n)
    else:
        sites = np.arange(n)
        cross_x = bool(chains_join(labels[None], sites[::L], sites[L - 1 :: L])[0])
        cross_y = bool(chains_join(labels[None], sites[:L], sites[-L:])[0])
    return largest, sizes, cross_x, cross_y


def _one_disorder(args):
    (k, L, J, beta_scale, seed, n_sweeps, n_samples, periodic) = args
    qc = quenched_couplings(L, J, stream(seed, 7, k).integers(0, 2**31), periodic)
    rng1 = stream(seed, 100, k, 0)
    rng2 = stream(seed, 100, k, 1)
    rngb = stream(seed, 100, k, 2)
    R = max(1, min(32, n_samples))
    per = -(-n_samples // R)
    s1 = (rng1.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    s2 = (rng2.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    beta = beta_scale
    ws = HeatBathWorkspace(qc, beta, R)  # one per disorder, shared by both chains

    calib = min(128, max(16, n_sweeps // 4))
    heat_bath_sweeps(s1, qc, beta, rng1, max(0, n_sweeps - calib), ws)
    heat_bath_sweeps(s2, qc, beta, rng2, max(0, n_sweeps - calib), ws)
    series = []
    for _ in range(calib):
        heat_bath_sweeps(s1, qc, beta, rng1, 1, ws)
        heat_bath_sweeps(s2, qc, beta, rng2, 1, ws)
        series.append(bond_energy(s1[:1], qc)[0])
    tau, converged = integrated_autocorr(np.asarray(series))
    gap = int(min(16, max(1, math.ceil(2 * tau))))
    equilibrated = bool(converged and n_sweeps >= 20 * tau)

    blue_count = blue_adm = red_count = red_adm = 0
    largest_no = []
    largest_ov = []
    cross_x = []
    cross_y = []
    size_counts: dict[int, int] = {}
    collected = 0
    for _ in range(per):
        heat_bath_sweeps(s1, qc, beta, rng1, gap, ws)
        heat_bath_sweeps(s2, qc, beta, rng2, gap, ws)
        blue, red, no_mask = sample_blue_red(s1, s2, qc, beta, rngb)
        (bh, bh_adm), (bv, bv_adm) = blue
        (rh, rh_adm), (rv, rv_adm) = red
        blue_count += int(bh.sum() + bv.sum())
        blue_adm += int(bh_adm.sum() + bv_adm.sum())
        red_count += int(rh.sum() + rv.sum())
        red_adm += int(rh_adm.sum() + rv_adm.sum())
        for rep in range(R):
            if collected >= n_samples:
                break
            big_no, sizes, cx, cy = _cluster_stats(
                bh[rep], bv[rep], no_mask[rep], L, periodic
            )
            big_ov, _, _, _ = _cluster_stats(
                bh[rep], bv[rep], ~no_mask[rep], L, periodic
            )
            largest_no.append(big_no / (L * L))
            largest_ov.append(big_ov / (L * L))
            cross_x.append(cx)
            cross_y.append(cy)
            for sz in sizes:
                size_counts[sz] = size_counts.get(sz, 0) + 1
            collected += 1
    return {
        "tau": tau,
        "gap": gap,
        "equilibrated": equilibrated,
        "blue_count": blue_count,
        "blue_adm": blue_adm,
        "red_count": red_count,
        "red_adm": red_adm,
        "largest_no": largest_no,
        "largest_ov": largest_ov,
        "cross_x": cross_x,
        "cross_y": cross_y,
        "size_counts": size_counts,
    }


def _mean_se(xs) -> dict:
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        return {"mean": 0.0, "se": 0.0}
    se = float(xs.std(ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0
    return {"mean": float(xs.mean()), "se": se}


def ea_mns_percolation(
    L: int,
    J: float,
    beta_scale: float = 1.0,
    seed: int = 0,
    n_sweeps: int = 1000,
    n_samples: int = 200,
    n_disorder: int = 1,
    periodic: bool = False,
    threads: int = 1,
) -> dict:
    """Sample blue/red bonds over disorder and report cluster statistics.

    Per disorder realization: quenched couplings, two independent
    checkerboard heat-bath chains with the given burn-in, a sampling gap
    estimated from the energy autocorrelation time, and per-sample bond
    draws. Reports blue/red densities on their admissible bonds with
    binomial standard errors, the largest blue cluster fraction inside the
    disagreement and agreement regions, box crossing (or wrapping)
    frequencies, and the aggregated cluster-size counts. Arguments outside
    their range raise UsageError before any sampling.
    """
    err = _box_error(L, periodic)
    if err:
        raise UsageError(err)
    if not (math.isfinite(J) and math.isfinite(beta_scale)):
        raise UsageError("J and beta must be finite")
    if n_disorder < 1:
        raise UsageError("the number of disorder realizations must be positive")
    if n_samples < 1:
        raise UsageError("n_samples must be positive")
    if n_sweeps < 0:
        raise UsageError("n_sweeps must be nonnegative")
    args = [
        (k, L, J, beta_scale, seed, n_sweeps, n_samples, periodic)
        for k in range(n_disorder)
    ]
    per_disorder = run_tasks(_one_disorder, args, threads=threads)
    if not all(d["equilibrated"] for d in per_disorder):
        warnings.warn("autocorrelation diagnostics did not converge; treat results as unequilibrated")
    blue_count = sum(d["blue_count"] for d in per_disorder)
    blue_adm = sum(d["blue_adm"] for d in per_disorder)
    red_count = sum(d["red_count"] for d in per_disorder)
    red_adm = sum(d["red_adm"] for d in per_disorder)
    p_blue = blue_count / blue_adm if blue_adm else 0.0
    p_red = red_count / red_adm if red_adm else 0.0
    size_counts: dict[int, int] = {}
    for d in per_disorder:
        for sz, c in d["size_counts"].items():
            size_counts[sz] = size_counts.get(sz, 0) + c
    return {
        "L": L,
        "J": J,
        "beta_scale": beta_scale,
        "seed": seed,
        "periodic": periodic,
        "n_disorder": n_disorder,
        "n_samples": n_samples,
        "n_sweeps": n_sweeps,
        "blue_density": {
            "mean": p_blue,
            "se": math.sqrt(max(p_blue * (1 - p_blue), 1e-300) / blue_adm) if blue_adm else 0.0,
            "closed_form": 1 - math.exp(-4 * abs(beta_scale * J)),
            "n_admissible": blue_adm,
        },
        "red_density": {
            "mean": p_red,
            "se": math.sqrt(max(p_red * (1 - p_red), 1e-300) / red_adm) if red_adm else 0.0,
            "closed_form": 1 - math.exp(-2 * abs(beta_scale * J)),
            "n_admissible": red_adm,
        },
        "largest_blue_nonoverlap_fraction": _mean_se(
            [x for d in per_disorder for x in d["largest_no"]]
        ),
        "largest_blue_overlap_fraction": _mean_se(
            [x for d in per_disorder for x in d["largest_ov"]]
        ),
        "crossing_x": _mean_se([float(x) for d in per_disorder for x in d["cross_x"]]),
        "crossing_y": _mean_se([float(x) for d in per_disorder for x in d["cross_y"]]),
        "equilibration": {
            "tau_max": max(d["tau"] for d in per_disorder),
            "gaps": sorted({d["gap"] for d in per_disorder}),
            "all_equilibrated": bool(all(d["equilibrated"] for d in per_disorder)),
        },
        "cluster_size_counts": sorted(size_counts.items()),
    }


def mc_bond_joint(
    qc: QuenchedCouplings,
    beta_scale: float,
    seed: int,
    n_samples: int,
    burn_in: int = 500,
    gap: int = 4,
) -> tuple[dict, int]:
    """Monte Carlo histogram of (blue mask, red mask) over the box's bonds.

    Bond bit order follows build_grid's sorted bond list, so the histogram
    is directly comparable with the exact two-family joint.
    """
    if n_samples < 1:
        raise UsageError("n_samples must be positive")
    if burn_in < 0 or gap < 0:
        raise UsageError("burn_in and gap must be nonnegative")
    L = qc.L
    g = build_grid(L, L, qc.periodic)
    bond_index = {b: i for i, b in enumerate(g.bonds)}
    hmap = np.full((L, L), -1, dtype=int)
    vmap = np.full((L, L), -1, dtype=int)
    for y in range(L):
        for x in range(L):
            if qc.horizontal[y, x] != 0.0:
                hmap[y, x] = bond_index[tuple(sorted((y * L + x, y * L + (x + 1) % L)))]
            if qc.vertical[y, x] != 0.0:
                vmap[y, x] = bond_index[tuple(sorted((y * L + x, ((y + 1) % L) * L + x)))]
    rng1 = stream(seed, 201)
    rng2 = stream(seed, 202)
    rngb = stream(seed, 203)
    R = min(4096, n_samples)
    per = -(-n_samples // R)
    s1 = (rng1.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    s2 = (rng2.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    ws = HeatBathWorkspace(qc, beta_scale, R)
    heat_bath_sweeps(s1, qc, beta_scale, rng1, burn_in, ws)
    heat_bath_sweeps(s2, qc, beta_scale, rng2, burn_in, ws)
    hsel = np.nonzero(hmap >= 0)
    vsel = np.nonzero(vmap >= 0)
    bits = [1 << int(k) for k in np.concatenate((hmap[hsel], vmap[vsel]))]
    nb = len(bits)
    counts: dict[tuple[int, int], int] = {}
    collected = 0
    for _ in range(per):
        heat_bath_sweeps(s1, qc, beta_scale, rng1, gap, ws)
        heat_bath_sweeps(s2, qc, beta_scale, rng2, gap, ws)
        blue, red, _ = sample_blue_red(s1, s2, qc, beta_scale, rngb)
        (bh, _), (bv, _) = blue
        (rh, _), (rv, _) = red
        take = min(R, n_samples - collected)
        rows = np.concatenate(
            (bh[:, hsel[0], hsel[1]], bv[:, vsel[0], vsel[1]], rh[:, hsel[0], hsel[1]], rv[:, vsel[0], vsel[1]]),
            axis=1,
        )[:take]
        distinct, mult = np.unique(rows, axis=0, return_counts=True)
        for row, c in zip(distinct.tolist(), mult.tolist()):
            key = (
                sum(bit for bit, on in zip(bits, row[:nb]) if on),
                sum(bit for bit, on in zip(bits, row[nb:]) if on),
            )
            counts[key] = counts.get(key, 0) + c
        collected += take
    return counts, collected
