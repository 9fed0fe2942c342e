"""Quenched +-J glass on a square box: two-copy sampling and blue/red bonds.

Two independent heat-bath chains sample the quenched model; given the pair
of configurations, blue bonds appear on bonds satisfied by both copies
with probability 1 - exp(-4|K|) and red bonds where the copies' bond
products disagree with probability 1 - exp(-2|K|). Cluster statistics of
blue bonds are taken inside the non-overlap (disagreement) region.

The box's bonds are its nonzero coupling cells (_bond_cells), one bond
per cell: glass_spec, the exact model, and mc_bond_joint's masks list them
in one order, build_grid's except on the 2 x 2 torus, where the two cells
joining a pair of sites are two parallel bonds, as the heat bath sees them.

The heat bath is sampling.HeatBath: its classes are the two checkerboard
colours and its table the 81 integer thresholds round(p_plus * 2^31) keyed
by the neighbours' spins, compared with 31-bit uniforms from raw Philox
words; sample_blue_red draws one such uniform per bond. The colouring is
proper only for even L on the torus, so odd periodic boxes are rejected.
Each disorder builds one heat_bath_kernel for every heat-bath call of its
two chains. One percolation.edge_components call per replica labels the
blue clusters on both sides of the mask, and open-box crossings are read
by chains_join; on the torus a cluster wraps when one of its cycles has
nonzero displacement, found from integer potentials on a breadth-first
spanning forest.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..lattice import hypergraph
from ..models import ising_spec
from ..percolation import _graph, chains_join, edge_components
from ..rng import run_tasks, stream
from ..sampling import HeatBath, integrated_autocorr


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


def _bond_cells(qc: QuenchedCouplings):
    """The box's bonds: one per nonzero cell of np.stack((horizontal,
    vertical)), as (flat cell indices, sites a, sites b) with a < b, stably
    sorted by (a, b). That is build_grid's bond order, except on the 2 x 2
    torus, whose two cells joining one pair of sites stay two bonds, as the
    heat bath, bond_energy and _cluster_stats count them."""
    L = qc.L
    cells = np.flatnonzero(np.stack((qc.horizontal, qc.vertical)))
    d, y, x = np.unravel_index(cells, (2, L, L))
    a = y * L + x
    b = np.where(d == 0, y * L + (x + 1) % L, (y + 1) % L * L + x)
    a, b = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(a * L * L + b, kind="stable")
    return cells[order], a[order], b[order]


def glass_spec(qc: QuenchedCouplings, beta_scale: float = 1.0):
    """The box as an Ising spec over its _bond_cells bonds, coupling
    beta_scale times the cell's."""
    cells, a, b = _bond_cells(qc)
    graph = hypergraph(qc.L * qc.L, zip(a.tolist(), b.tolist()))
    return ising_spec(graph, beta_scale * np.stack((qc.horizontal, qc.vertical)).ravel()[cells])


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


def _thresholds(p) -> np.ndarray:
    """round(p * 2^31) as uint32: a 31-bit uniform u fires when u < t, so
    p = 0 never fires, p = 1 always does, and every other p is realised
    within 2^-32."""
    return np.rint(np.multiply(p, 2.0**31)).astype(np.uint32)


def heat_bath_kernel(qc: QuenchedCouplings, beta: float, R: int) -> HeatBath:
    """The sampling.HeatBath of heat_bath_sweeps over R replicas, whose
    values 0/1 are the spins -1/+1. Couplings other than 0 and +-|J| raise
    ValueError. A disorder's two chains can share one kernel as long as
    their calls run one after another; never share one between threads.
    """
    h = qc.horizontal.ravel()
    v = qc.vertical.ravel()
    a = abs(qc.J)
    if not all(((c == 0.0) | (np.abs(c) == a)).all() for c in (h, v)):
        raise ValueError(f"couplings must be 0 or +-{a}")
    classes = []
    for site, nbrs in _checkerboard(qc.L):
        # the key 40 + sum_k sign(c_k) 3^k s_k, with s_k = 2 v_k - 1 for the values v_k
        w = np.sign([h[site], h[nbrs[1]], v[site], v[nbrs[3]]]).astype(np.int64) * 3 ** np.arange(4)[:, None]
        classes.append((site, np.array(nbrs), 2 * w, 40 - w.sum(axis=0)))
    return HeatBath(qc.L * qc.L, classes, _thresholds(_p_plus_table(a, beta))[None], R)


def heat_bath_sweeps(s, kernel: HeatBath, rng, n_sweeps: int):
    """Checkerboard single-site heat bath, in place; s has shape (R, L, L)
    and kernel is heat_bath_kernel(qc, beta, R) for the box's couplings.

    Each field is a sum of four terms in {-|J|, 0, |J|} (right, left, down,
    up neighbour), so p_plus = 1 / (1 + exp(-2 beta field)) is read from an
    81-entry table at the key 40 + sum_k sign(c_k) 3^k s_k, c_k being the
    coupling to neighbour k. The table rounds each field as the per-site
    formula does (see _p_plus_table), so p_plus is that formula's value bit
    for bit; the kernel holds it as the threshold t = round(p_plus * 2^31)
    (_thresholds). A field whose replica or site count is not the kernel's
    raises ValueError.

    Random stream: per sweep, one rng.bit_generator.random_raw draw of
    ceil(R * L^2 / 2) words, split into 31-bit uniforms (w & 0xffffffff)
    >> 1 then (w >> 32) >> 1, one per updated site: per colour in turn an
    (R, n_colour) block, replica-major and in _checkerboard's site order. A
    site becomes +1 when its uniform is below t, so with probability
    t / 2^31, within 2^-32 of p_plus, and exactly 0 or 1 at t = 0 or 2^31.
    """
    R = s.shape[0]
    if kernel.state.shape != (math.prod(s.shape[1:]) + 1, R):
        raise ValueError("kernel built for another box or replica count")
    # site-major 0/1 copy: a neighbour gather moves a site's R replicas at once
    kernel.load(s.reshape(R, -1).T > 0)
    kernel.sweeps(rng, n_sweeps)
    s[...] = (2 * kernel.values().T - 1).reshape(s.shape)
    return s


def bond_energy(s, qc: QuenchedCouplings) -> np.ndarray:
    """Per-replica energy series entry (negative satisfied-coupling sum)."""
    e = -(qc.horizontal[None] * s * np.roll(s, -1, axis=2)).sum(axis=(1, 2))
    e -= (qc.vertical[None] * s * np.roll(s, -1, axis=1)).sum(axis=(1, 2))
    return e


def sample_blue_red(s1, s2, qc: QuenchedCouplings, beta: float, rng):
    """Draw blue/red bond indicators given the two spin fields.

    Returns ((blue_h, blue_v), (red_h, red_v), no_mask); arrays match the
    coupling layout, entries on zero couplings are always False.

    Random stream: one rng.bit_generator.random_raw(s1.shape) draw, one
    word per (replica, y, x) cell; its low half, shifted right by one, is
    the 31-bit uniform of the horizontal bond and its high half that of the
    vertical bond. A bond is blue-admissible when both copies satisfy it and
    red-admissible when exactly one does, so one uniform decides whichever
    colour applies: the bond is drawn when its uniform lies below the integer
    threshold round(p * 2^31) (_thresholds) of p = 1 - exp(-4|K|) for
    blue or 1 - exp(-2|K|) for red.
    """
    # each word's '<u4' halves, low first on any host, shifted in place
    halves = rng.bit_generator.random_raw(s1.shape).astype("<u8", copy=False).view("<u4").reshape(*s1.shape, 2)
    halves >>= 1
    out_blue = []
    out_red = []
    for coup, axis, u in ((qc.horizontal, 2, halves[..., 0]), (qc.vertical, 1, halves[..., 1])):
        K = beta * coup[None, :, :]
        absK = np.abs(K)
        sat1 = K * s1 * np.roll(s1, -1, axis=axis) > 0
        sat2 = K * s2 * np.roll(s2, -1, axis=axis) > 0
        blue_adm = sat1 & sat2
        red_adm = sat1 ^ sat2  # the copies' bond products disagree, on a nonzero coupling
        blue = blue_adm & (u < _thresholds(1.0 - np.exp(-4.0 * absK)))
        red = red_adm & (u < _thresholds(1.0 - np.exp(-2.0 * absK)))
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
    pot[:, child] = disp.take(hit, axis=1)
    up = np.where(pred >= 0, pred, n)
    while (up != n).any():
        pot += pot.take(up, axis=1)
        up = up.take(up)
    off = pot.take(a, axis=1) + d - pot.take(b, axis=1)
    return bool(off[0].any()), bool(off[1].any())


def _cluster_stats(bh, bv, site_mask, L: int, periodic: bool):
    """Cluster sizes and crossings of the bonds inside the masked sites, and
    the largest cluster outside them.

    bh[y, x] joins (x, y)-(x+1, y); bv joins (x, y)-(x, y+1), indices mod
    L. A bond counts only when both its ends lie on one side of the mask;
    one edge_components call labels both sides, and sizes count the sites
    that touch a kept bond. Returns (largest, sizes, cross_x, cross_y) of
    the inside side, then the outside side's largest size. An open box is
    crossed in x when an inside label covers sites in both the first and
    the last column (rows for y). On the torus, an inside cluster wraps in
    x when one of its cycles has nonzero x displacement (see _wraps), which
    also catches windings that a doubled-torus test misses.
    """
    n = L * L
    keep_h = bh & (site_mask == np.roll(site_mask, -1, axis=1))
    keep_v = bv & (site_mask == np.roll(site_mask, -1, axis=0))
    yh, xh = np.nonzero(keep_h)
    yv, xv = np.nonzero(keep_v)
    a = np.concatenate((yh * L + xh, yv * L + xv))
    b = np.concatenate((yh * L + (xh + 1) % L, ((yv + 1) % L) * L + xv))
    labels = edge_components(n, a, b)
    inside = site_mask.ravel()
    counts = np.bincount(labels[(labels >= 0) & inside])
    sizes = sorted(counts[counts > 0].tolist(), reverse=True)
    largest = sizes[0] if sizes else 0
    largest_out = int(np.bincount(labels[(labels >= 0) & ~inside]).max(initial=0))
    if periodic:
        d = np.zeros((2, len(a)), np.int64)
        d[0, : len(yh)] = 1
        d[1, len(yh) :] = 1
        ins = inside[a]
        cross_x, cross_y = _wraps(a[ins], b[ins], d[:, ins], labels, n)
    else:
        sites = np.arange(n)
        labels_in = np.where(inside, labels, -1)[None]
        cross_x = bool(chains_join(labels_in, sites[::L], sites[L - 1 :: L])[0])
        cross_y = bool(chains_join(labels_in, sites[:L], sites[-L:])[0])
    return largest, sizes, cross_x, cross_y, largest_out


def _one_disorder(args):
    (k, L, J, beta_scale, seed, n_sweeps, n_samples, periodic) = args
    qc = quenched_couplings(L, J, stream(seed, 7, k).integers(0, 2**31), periodic)
    rng1 = stream(seed, 100, k, 0)
    rng2 = stream(seed, 100, k, 1)
    rngb = stream(seed, 100, k, 2)
    R = _replicas(n_samples)
    per = -(-n_samples // R)
    s1 = (rng1.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    s2 = (rng2.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    kernel = heat_bath_kernel(qc, beta_scale, R)  # one per disorder, shared by both chains

    calib = min(128, max(16, n_sweeps // 4))
    # only chain 1's energy series calibrates the gap; chain 2 runs its
    # burn-in and calibration sweeps in one call, with the same bits
    heat_bath_sweeps(s1, kernel, rng1, max(0, n_sweeps - calib))
    heat_bath_sweeps(s2, kernel, rng2, max(0, n_sweeps - calib) + calib)
    series = []
    for _ in range(calib):
        heat_bath_sweeps(s1, kernel, rng1, 1)
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
        heat_bath_sweeps(s1, kernel, rng1, gap)
        heat_bath_sweeps(s2, kernel, rng2, gap)
        blue, red, no_mask = sample_blue_red(s1, s2, qc, beta_scale, rngb)
        (bh, bh_adm), (bv, bv_adm) = blue
        (rh, rh_adm), (rv, rv_adm) = red
        blue_count += int(bh.sum() + bv.sum())
        blue_adm += int(bh_adm.sum() + bv_adm.sum())
        red_count += int(rh.sum() + rv.sum())
        red_adm += int(rh_adm.sum() + rv_adm.sum())
        for rep in range(R):
            if collected >= n_samples:
                break
            big_no, sizes, cx, cy, big_ov = _cluster_stats(bh[rep], bv[rep], no_mask[rep], L, periodic)
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


def _replicas(n_samples: int) -> int:
    """The replicas R of a disorder's chains: its sample j comes from
    replica j % R."""
    return max(1, min(32, n_samples))


def _mean_se(xs, chains) -> dict:
    """The mean of the samples xs and its batch-means standard error over
    the independent chains that drew them, chains[i] in 0..C-1 labelling
    xs[i], every label used. With n_c samples of sum s_c on chain c and N
    in all, se^2 = C / (C - 1) * sum_c (s_c - n_c * mean)^2 / N^2, the
    ratio estimator's; computed as below, one sample per chain gives the
    bits of std(xs, ddof=1) / sqrt(N)."""
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        return {"mean": 0.0, "se": 0.0}
    mean = float(xs.mean())
    d = np.bincount(chains, weights=xs) - np.bincount(chains) * mean
    C, N = len(d), len(xs)
    se = math.sqrt(float(np.add.reduce(d * d)) / (C - 1)) / math.sqrt(C) * (C / N) if C > 1 else 0.0
    return {"mean": mean, "se": se}


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
    binomial standard errors floored at 1 / n_admissible, the resolution
    of a density, so that a density of 0 or 1 keeps a positive one; the
    largest blue cluster fraction inside the disagreement and agreement
    regions and box crossing (or wrapping) frequencies, with standard
    errors by batch means over the independent (disorder, replica) chains
    (_mean_se), since the samples of one chain are correlated; and the
    aggregated cluster-size counts. Arguments outside their range raise
    UsageError before any sampling.
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
    # sample j of disorder k comes from chain k * R + j % R, independent of the others
    R = _replicas(n_samples)
    chains = (np.arange(n_disorder)[:, None] * R + np.arange(n_samples) % R).ravel()

    def cluster_stat(key):
        return _mean_se([float(x) for d in per_disorder for x in d[key]], chains)

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
            "se": max(math.sqrt(p_blue * (1 - p_blue) / blue_adm), 1 / blue_adm) if blue_adm else 0.0,
            "closed_form": 1 - math.exp(-4 * abs(beta_scale * J)),
            "n_admissible": blue_adm,
        },
        "red_density": {
            "mean": p_red,
            "se": max(math.sqrt(p_red * (1 - p_red) / red_adm), 1 / red_adm) if red_adm else 0.0,
            "closed_form": 1 - math.exp(-2 * abs(beta_scale * J)),
            "n_admissible": red_adm,
        },
        "largest_blue_nonoverlap_fraction": cluster_stat("largest_no"),
        "largest_blue_overlap_fraction": cluster_stat("largest_ov"),
        "crossing_x": cluster_stat("cross_x"),
        "crossing_y": cluster_stat("cross_y"),
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

    Bit j stands for bond j of _bond_cells, the bond order of glass_spec,
    so the histogram is directly comparable with the exact two-family
    joint of glass_spec(qc, beta_scale).
    """
    if n_samples < 1:
        raise UsageError("n_samples must be positive")
    if burn_in < 0 or gap < 0:
        raise UsageError("burn_in and gap must be nonnegative")
    L = qc.L
    cells, _, _ = _bond_cells(qc)
    rng1 = stream(seed, 201)
    rng2 = stream(seed, 202)
    rngb = stream(seed, 203)
    R = min(4096, n_samples)
    per = -(-n_samples // R)
    s1 = (rng1.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    s2 = (rng2.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    kernel = heat_bath_kernel(qc, beta_scale, R)
    heat_bath_sweeps(s1, kernel, rng1, burn_in)
    heat_bath_sweeps(s2, kernel, rng2, burn_in)
    rows = np.empty((per, R, 2, len(cells)), bool)  # per sample: blue bonds, then red
    for k in range(per):
        heat_bath_sweeps(s1, kernel, rng1, gap)
        heat_bath_sweeps(s2, kernel, rng2, gap)
        blue, red, _ = sample_blue_red(s1, s2, qc, beta_scale, rngb)
        for c, ((h, _), (v, _)) in enumerate((blue, red)):
            rows[k, :, c] = np.stack((h, v), axis=1).reshape(R, -1)[:, cells]
    packed = np.packbits(rows.reshape(per * R, -1)[:n_samples], axis=1, bitorder="little")
    counts = Counter(int.from_bytes(row, "little") for row in packed)
    low = (1 << len(cells)) - 1
    return {(m & low, m >> len(cells)): c for m, c in counts.items()}, n_samples
