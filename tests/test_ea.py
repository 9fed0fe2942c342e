import functools
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from rcgibbs.errors import UsageError
from rcgibbs.experiments.ea import (
    QuenchedCouplings,
    _cluster_stats,
    _mean_se,
    _one_disorder,
    _p_plus_table,
    bond_energy,
    ea_mns_percolation,
    glass_spec,
    heat_bath_kernel,
    heat_bath_sweeps,
    integrated_autocorr,
    mc_bond_joint,
    quenched_couplings,
    sample_blue_red,
)
from rcgibbs.gibbs import gibbs_measure
from rcgibbs.lattice import build_grid
from rcgibbs.rcr import mns_base, typed_joint
from rcgibbs.rng import stream


# Reference oracles: the full-lattice float heat bath, the displacement-
# tracking union-find and the per-replica mask packing that ea.py replaced.


def _neighbor_field(s, h, v):
    h3 = h[None, :, :]
    v3 = v[None, :, :]
    return (
        h3 * np.roll(s, -1, axis=2)
        + np.roll(h3 * s, 1, axis=2)
        + v3 * np.roll(s, -1, axis=1)
        + np.roll(v3 * s, 1, axis=1)
    )


def _raw_uniforms(rng, m):
    """m 31-bit uniforms from ceil(m / 2) raw Philox words, each word's low
    half first."""
    w = rng.bit_generator.random_raw(-(-m // 2))
    return (np.stack((w & 0xFFFFFFFF, w >> 32), axis=1).ravel() >> 1)[:m]


def _heat_bath_oracle(s, qc, beta, rng, n_sweeps):
    """Per colour: float fields and exp over the whole lattice, the
    threshold round(p_plus * 2^31), then one 31-bit uniform per replica and
    colour site, in row-major site order; per sweep one draw of raw words
    covers both colours."""
    R, L = s.shape[0], qc.L
    yy, xx = np.mgrid[0:L, 0:L]
    masks = [((xx + yy) % 2 == par) for par in (0, 1)]
    for _ in range(n_sweeps):
        u = _raw_uniforms(rng, R * L * L)
        lo = 0
        for mask in masks:
            n = int(mask.sum())
            f = beta * _neighbor_field(s, qc.horizontal, qc.vertical)
            p_plus = 1.0 / (1.0 + np.exp(-2.0 * f))
            t = np.rint(p_plus * 2.0**31)
            s[:, mask] = np.where(u[lo : lo + R * n].reshape(R, n) < t[:, mask], 1, -1).astype(s.dtype)
            lo += R * n
    return s


class WrapUnionFind:
    """Union-find on torus sites tracking displacements to detect wrapping."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.dx = [0] * n
        self.dy = [0] * n
        self.wrap_x = False
        self.wrap_y = False

    def find(self, v):
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        ox = oy = 0
        for u in reversed(path):
            ox += self.dx[u]
            oy += self.dy[u]
            self.parent[u] = v
            self.dx[u] = ox
            self.dy[u] = oy
        return v

    def union(self, a, b, dxab, dyab):
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            if self.dx[a] + dxab - self.dx[b] != 0:
                self.wrap_x = True
            if self.dy[a] + dyab - self.dy[b] != 0:
                self.wrap_y = True
            return
        self.parent[rb] = ra
        self.dx[rb] = self.dx[a] + dxab - self.dx[b]
        self.dy[rb] = self.dy[a] + dyab - self.dy[b]


def _cluster_stats_oracle(bh, bv, site_mask, L, periodic):
    keep_h = bh & site_mask & np.roll(site_mask, -1, axis=1)
    keep_v = bv & site_mask & np.roll(site_mask, -1, axis=0)
    uf = WrapUnionFind(L * L)
    covered = set()
    for y, x in np.argwhere(keep_h):
        a, b = y * L + x, y * L + (x + 1) % L
        uf.union(a, b, 1, 0)
        covered |= {a, b}
    for y, x in np.argwhere(keep_v):
        a, b = y * L + x, ((y + 1) % L) * L + x
        uf.union(a, b, 0, 1)
        covered |= {a, b}
    roots = {v: uf.find(v) for v in covered}
    sizes = {}
    for r in roots.values():
        sizes[r] = sizes.get(r, 0) + 1
    largest = max(sizes.values(), default=0)
    if periodic:
        cross_x, cross_y = uf.wrap_x, uf.wrap_y
    else:
        side = lambda keep: {roots[v] for v in covered if keep(v)}
        cross_x = bool(side(lambda v: v % L == 0) & side(lambda v: v % L == L - 1))
        cross_y = bool(side(lambda v: v // L == 0) & side(lambda v: v // L == L - 1))
    return largest, sorted(sizes.values(), reverse=True), cross_x, cross_y


def _mc_bond_joint_oracle(qc, beta, seed, n_samples, burn_in, gap):
    L = qc.L
    bond_index = {b: i for i, b in enumerate(build_grid(L, L, qc.periodic).bonds)}
    rng1, rng2, rngb = stream(seed, 201), stream(seed, 202), stream(seed, 203)
    R = min(4096, n_samples)
    s1 = (rng1.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    s2 = (rng2.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
    kernel = heat_bath_kernel(qc, beta, R)
    heat_bath_sweeps(s1, kernel, rng1, burn_in)
    heat_bath_sweeps(s2, kernel, rng2, burn_in)
    hbit = lambda y, x: 1 << bond_index[tuple(sorted((y * L + x, y * L + (x + 1) % L)))]
    vbit = lambda y, x: 1 << bond_index[tuple(sorted((y * L + x, ((y + 1) % L) * L + x)))]
    counts = {}
    collected = 0
    for _ in range(-(-n_samples // R)):
        heat_bath_sweeps(s1, kernel, rng1, gap)
        heat_bath_sweeps(s2, kernel, rng2, gap)
        blue, red, _ = sample_blue_red(s1, s2, qc, beta, rngb)
        (bh, _), (bv, _) = blue
        (rh, _), (rv, _) = red
        for rep in range(min(R, n_samples - collected)):
            key = tuple(
                sum(hbit(y, x) for y, x in np.argwhere(h[rep] & (qc.horizontal != 0)))
                + sum(vbit(y, x) for y, x in np.argwhere(v[rep] & (qc.vertical != 0)))
                for h, v in ((bh, bv), (rh, rv))
            )
            counts[key] = counts.get(key, 0) + 1
            collected += 1
    return counts, collected


def test_quenched_couplings_deterministic_and_open():
    a = quenched_couplings(8, 1.0, seed=4)
    b = quenched_couplings(8, 1.0, seed=4)
    assert np.array_equal(a.horizontal, b.horizontal)
    assert np.array_equal(a.vertical, b.vertical)
    assert np.all(a.horizontal[:, -1] == 0)
    assert np.all(a.vertical[-1, :] == 0)
    c = quenched_couplings(8, 1.0, seed=5)
    assert not np.array_equal(a.horizontal, c.horizontal)
    p = quenched_couplings(4, 1.0, seed=4, periodic=True)
    assert np.all(np.abs(p.horizontal) == 1.0)


def test_wrap_union_find_detects_ring():
    L = 5
    bh = np.zeros((L, L), bool)
    bh[2, :] = True
    bv = np.zeros((L, L), bool)
    mask = np.ones((L, L), bool)
    big, sizes, cx, cy, big_out = _cluster_stats(bh, bv, mask, L, periodic=True)
    assert big == L and cx and not cy and big_out == 0


def _staircase(L, wx, wy):
    """Bonds of the closed walk (R^wx U^wy) repeated on an L x L torus."""
    bh = np.zeros((L, L), bool)
    bv = np.zeros((L, L), bool)
    x = y = 0
    for _ in range(L):
        for _ in range(wx):
            bh[y, x] = True
            x = (x + 1) % L
        for _ in range(wy):
            bv[y, x] = True
            y = (y + 1) % L
    assert (x, y) == (0, 0)
    return bh, bv


def test_staircase_winds_in_both_directions():
    # the (2,1) staircase, R,R,U five times on the 5x5 torus, winds twice in
    # x: a doubled-x torus joins no copy to the other and would miss it
    L = 5
    bh, bv = _staircase(L, 2, 1)
    mask = np.ones((L, L), bool)
    want = _cluster_stats_oracle(bh, bv, mask, L, True)
    assert want == (15, [15], True, True)
    assert _cluster_stats(bh, bv, mask, L, periodic=True) == (*want, 0)


def test_cluster_stats_matches_union_find_oracle():
    rng = stream(31, 0)
    cases = 0
    for L in range(2, 13):
        for periodic in (False, True):
            for _ in range(20):
                density = rng.uniform(0.2, 0.9)
                bh = rng.random((L, L)) < density
                bv = rng.random((L, L)) < density
                mask = rng.random((L, L)) < rng.uniform(0.3, 1.0)
                got = _cluster_stats(bh, bv, mask, L, periodic)
                assert got[:4] == _cluster_stats_oracle(bh, bv, mask, L, periodic), (L, periodic)
                # the overlap side, labelled by the same call
                assert got[4] == _cluster_stats_oracle(bh, bv, ~mask, L, periodic)[0], (L, periodic)
                assert all(type(x) is int for x in (*got[1], got[4])) and type(got[2]) is bool
                cases += 1
    # L = 2 on the torus: both parallel bonds of each pair kept or one of
    # them, under the full mask and under a mask that splits the sites
    full = np.ones((2, 2), bool)
    for bits in range(256):
        bh = np.array([(bits >> k) & 1 for k in range(4)], bool).reshape(2, 2)
        bv = np.array([(bits >> k) & 1 for k in range(4, 8)], bool).reshape(2, 2)
        split = np.array([(bits * 5 >> k) & 1 for k in range(4)], bool).reshape(2, 2)
        for mask in (full, split):
            want = _cluster_stats_oracle(bh, bv, mask, 2, True)
            assert _cluster_stats(bh, bv, mask, 2, True) == (*want, _cluster_stats_oracle(bh, bv, ~mask, 2, True)[0])
        cases += 1
    assert cases == 440 + 256


def test_cluster_stats_empty_and_single_bond():
    L = 4
    none = np.zeros((L, L), bool)
    full = np.ones((L, L), bool)
    for periodic in (False, True):
        assert _cluster_stats(none, none, full, L, periodic) == (0, [], False, False, 0)
        assert _cluster_stats(full, full, none, L, periodic) == (0, [], False, False, L * L)
    bh = none.copy()
    bh[0, L - 1] = True  # wrap bond: one bond, no cycle
    assert _cluster_stats(bh, none, full, L, True) == (2, [2], False, False, 0)
    assert _cluster_stats(bh, none, ~full, L, True) == (0, [], False, False, 2)


def test_heat_bath_bit_equal_to_colour_site_oracle():
    cases = 0
    for L in (2, 3, 4, 5, 8):
        for periodic in (False, True) if L % 2 == 0 else (False,):
            for J in (0.7, 1.0, 1.3, -1.0):
                qc = quenched_couplings(L, J, seed=L, periodic=periodic)
                for beta in (0.44, 0.9):
                    for R in (1, 3):
                        s0 = (stream(L, R).integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
                        got = heat_bath_sweeps(s0.copy(), heat_bath_kernel(qc, beta, R), stream(5, L, R), 7)
                        want = _heat_bath_oracle(s0.copy(), qc, beta, stream(5, L, R), 7)
                        assert np.array_equal(got, want), (L, periodic, J, beta, R)
                        cases += 1
    assert cases == 128
    # a non-contiguous field is updated in place too
    qc = quenched_couplings(4, 1.0, seed=2, periodic=True)
    base = (stream(6, 0).integers(0, 2, (2, 4, 8)) * 2 - 1).astype(np.int8)
    got = base.copy()
    heat_bath_sweeps(got[:, :, ::2], heat_bath_kernel(qc, 0.8, 2), stream(6, 1), 3)
    want = base.copy()
    want[:, :, ::2] = _heat_bath_oracle(base[:, :, ::2].copy(), qc, 0.8, stream(6, 1), 3)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("R", [8, 32])
@pytest.mark.parametrize("periodic", [False, True])
def test_heat_bath_bit_equal_to_oracle_at_the_run_replica_counts(R, periodic):
    # R = 8 is the benchmark's replica count, R = 32 the cap exp ea reaches
    qc = quenched_couplings(16, 1.0, seed=R, periodic=periodic)
    s0 = (stream(R, 1).integers(0, 2, (R, 16, 16)) * 2 - 1).astype(np.int8)
    got = heat_bath_sweeps(s0.copy(), heat_bath_kernel(qc, 0.9, R), stream(5, R), 4)
    assert np.array_equal(got, _heat_bath_oracle(s0.copy(), qc, 0.9, stream(5, R), 4))


def test_heat_bath_sweeps_split_into_calls_give_the_same_bits():
    # n = a + b sweeps in one call equal a then b on one kernel, with the
    # other chain's calls in between: the glass's chain 2 runs its burn-in
    # and calibration sweeps in one call
    qc = quenched_couplings(8, 1.0, seed=4, periodic=True)
    start = [(stream(9, c).integers(0, 2, (3, 8, 8)) * 2 - 1).astype(np.int8) for c in (0, 1)]
    kernel = heat_bath_kernel(qc, 0.7, 3)
    for a, b in ((0, 5), (3, 4), (6, 1), (2, 0)):
        whole = heat_bath_sweeps(start[1].copy(), kernel, stream(3, a, b), a + b)
        parts, other, rng = start[1].copy(), start[0].copy(), stream(3, a, b)
        heat_bath_sweeps(parts, kernel, rng, a)
        heat_bath_sweeps(other, kernel, stream(4), 2)
        heat_bath_sweeps(parts, kernel, rng, b)
        assert np.array_equal(whole, parts), (a, b)


def test_p_plus_table_is_the_per_site_formula_bit_for_bit():
    # spins alone rarely show a one-ulp error in p_plus, so compare the table
    # with the oracle's formula on every (coupling sign, neighbour spin) of
    # the four neighbours, the field summed right, left, down, up
    pats = np.array(list(itertools.product([(c, sp) for c in (1, -1, 0) for sp in (1, -1)], repeat=4)))
    signs, spins = pats[..., 0], pats[..., 1]
    key = 40 + (signs * spins * 3 ** np.arange(4)).sum(axis=1)
    for J in (0.7, 1.0, 1.3, -1.0):
        c = signs * abs(J)
        for beta in (0.44, 0.9):
            f = c[:, 0] * spins[:, 0] + c[:, 1] * spins[:, 1] + c[:, 2] * spins[:, 2] + c[:, 3] * spins[:, 3]
            want = 1.0 / (1.0 + np.exp(-2.0 * (beta * f)))
            assert np.array_equal(_p_plus_table(abs(J), beta)[key], want), (J, beta)


@pytest.mark.parametrize("J,beta", [(1.0, 1.0)])
def test_thresholds_lie_far_from_rounding_boundaries(J, beta):
    # the benchmark's glass and the pinned exp ea runs sample at J = beta = 1.
    # A threshold rounds p * 2^31, and p comes from np.exp, whose SIMD path
    # can differ by one ulp between CPUs; that moves p * 2^31 by under 1e-6,
    # so a threshold that far from a half-integer is the same on every CPU
    K = abs(beta * J)
    p = np.concatenate([_p_plus_table(abs(J), beta), [1.0 - np.exp(-4.0 * K), 1.0 - np.exp(-2.0 * K)]])
    x = p * 2.0**31
    assert np.abs(x - np.floor(x) - 0.5).min() >= 1e-6


def test_cluster_se_is_batch_means_over_the_chains():
    # one sample per chain: the bits of the per-sample SE
    rng = stream(8, 1)
    for n in (2, 3, 8, 64):
        xs = rng.random(n)
        want = float(xs.std(ddof=1) / math.sqrt(n))
        assert _mean_se(xs, np.arange(n)) == {"mean": float(xs.mean()), "se": want}
    # two chains, each constant: the SE of two means, not of six samples
    got = _mean_se([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], [0, 1, 0, 1, 0, 1])
    assert got["mean"] == 0.5 and got["se"] == pytest.approx(0.5, rel=1e-15)
    # unequal counts: C / (C - 1) * sum_c (s_c - n_c * mean)^2 / N^2
    xs, ch = [0.2, 0.4, 0.9, 0.5, 0.1], [0, 1, 2, 0, 1]
    mean = sum(xs) / 5
    d = [0.2 + 0.5 - 2 * mean, 0.4 + 0.1 - 2 * mean, 0.9 - mean]
    assert _mean_se(xs, ch)["se"] == pytest.approx(math.sqrt(3 / 2 * sum(x * x for x in d)) / 5, rel=1e-12)
    assert _mean_se([0.3], [0]) == {"mean": 0.3, "se": 0.0}


@pytest.mark.filterwarnings("ignore:autocorrelation diagnostics")
def test_cluster_se_with_one_sample_per_chain_is_the_per_sample_se():
    # 8 samples of 8 replicas per disorder, the benchmark's glass shape: each
    # chain gives one sample, and the SEs keep the per-sample formula's bits
    kw = dict(L=8, J=1.0, beta_scale=0.9, seed=4, n_sweeps=40, n_samples=8, n_disorder=2, periodic=True)
    rep = ea_mns_percolation(**kw)
    per = [_one_disorder((k, 8, 1.0, 0.9, 4, 40, 8, True)) for k in range(2)]
    for out, key in (("largest_blue_nonoverlap_fraction", "largest_no"), ("largest_blue_overlap_fraction", "largest_ov"),
                     ("crossing_x", "cross_x"), ("crossing_y", "cross_y")):
        xs = np.array([float(x) for d in per for x in d[key]])
        assert rep[out] == {"mean": float(xs.mean()), "se": float(xs.std(ddof=1) / math.sqrt(16))}, out


def test_heat_bath_workspace_gives_the_bits_of_fresh_calls():
    # two chains alternate on one kernel, as a disorder's s1 and s2 do;
    # each must end where the same calls on a fresh kernel per call end
    cases = 0
    for L, periodic in ((5, False), (8, False), (6, True), (8, True)):
        qc = quenched_couplings(L, 1.0, seed=L, periodic=periodic)
        for beta in (0.44, 0.9):
            for R in (1, 3):
                start = [(stream(L, R, c).integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8) for c in (0, 1)]
                shared = [x.copy() for x in start]
                fresh = [x.copy() for x in start]
                rngs_shared = [stream(7, L, R, c) for c in (0, 1)]
                rngs_fresh = [stream(7, L, R, c) for c in (0, 1)]
                kernel = heat_bath_kernel(qc, beta, R)
                for n in (0, 1, 7, 1, 0, 7):
                    for c in (0, 1):
                        heat_bath_sweeps(shared[c], kernel, rngs_shared[c], n)
                        heat_bath_sweeps(fresh[c], heat_bath_kernel(qc, beta, R), rngs_fresh[c], n)
                        assert np.array_equal(shared[c], fresh[c]), (L, periodic, beta, R, n, c)
                        cases += 1
    assert cases == 4 * 2 * 2 * 6 * 2


def test_heat_bath_workspace_must_match_the_call():
    # a chain of another replica count: R = 1 would broadcast into the
    # kernel's two chains if it were not refused
    kernel = heat_bath_kernel(quenched_couplings(4, 1.0, seed=1), 0.8, 2)
    for R in (1, 3):
        s = np.ones((R, 4, 4), np.int8)
        with pytest.raises(ValueError, match="replica count"):
            heat_bath_sweeps(s, kernel, stream(0), 1)
        assert (s == 1).all()


def test_heat_bath_rejects_couplings_off_the_table():
    qc = quenched_couplings(4, 1.0, seed=1)
    s = np.ones((2, 4, 4), np.int8)
    for h, v in ((qc.horizontal * 0.5, qc.vertical), (qc.horizontal, np.where(qc.vertical != 0, 1.5, 0.0))):
        bad = QuenchedCouplings(4, 1.0, False, 1, h, v)
        with pytest.raises(ValueError, match="couplings"):
            heat_bath_kernel(bad, 0.8, 2)
    # zero couplings and either sign of |J| are on the table
    mixed = QuenchedCouplings(4, -1.0, False, 1, qc.horizontal, -qc.vertical)
    heat_bath_sweeps(s, heat_bath_kernel(mixed, 0.8, 2), stream(0), 1)


def test_odd_periodic_box_is_rejected():
    # the (x + y) mod 2 checkerboard does not colour an odd torus properly
    for L in (3, 5, 9):
        with pytest.raises(ValueError, match="even"):
            quenched_couplings(L, 1.0, seed=0, periodic=True)
        quenched_couplings(L, 1.0, seed=0)
    for L in (1, 257):
        with pytest.raises(ValueError, match="between"):
            quenched_couplings(L, 1.0, seed=0)


def test_mc_bond_joint_rejects_bad_arguments():
    qc = quenched_couplings(2, 1.0, seed=3)
    for kwargs in (dict(n_samples=0), dict(n_samples=4, burn_in=-1), dict(n_samples=4, gap=-2)):
        with pytest.raises(UsageError):
            mc_bond_joint(qc, 0.8, 0, **kwargs)


def test_mc_bond_joint_matches_per_replica_oracle():
    for L, periodic, n in ((2, False, 5000), (4, True, 700)):
        qc = quenched_couplings(L, 1.0, seed=4, periodic=periodic)
        args = (qc, 0.6, 8, n, 30, 2)
        assert mc_bond_joint(*args) == _mc_bond_joint_oracle(*args)
    # fewer samples owed than replicas in the last batch
    qc = quenched_couplings(2, 1.0, seed=5)
    args = (qc, 0.6, 9, 4096 + 37, 10, 1)
    assert mc_bond_joint(*args) == _mc_bond_joint_oracle(*args)


def test_open_crossing_flags():
    L = 4
    bh = np.zeros((L, L), bool)
    bh[1, :-1] = True  # full open row: touches both extreme columns
    bv = np.zeros((L, L), bool)
    mask = np.ones((L, L), bool)
    big, sizes, cx, cy, _ = _cluster_stats(bh, bv, mask, L, periodic=False)
    assert big == L and cx and not cy
    # restrict the site mask: clusters stop at the masked-out site
    mask2 = mask.copy()
    mask2[1, 2] = False
    big2, _, cx2, _, out2 = _cluster_stats(bh, bv, mask2, L, periodic=False)
    assert not cx2 and big2 == 2 and out2 == 0


def test_blue_red_admissibility_by_hand():
    qc = quenched_couplings(2, 1.0, seed=1)
    s1 = np.array([[[1, 1], [1, 1]]], dtype=np.int8)
    s2 = np.array([[[1, -1], [1, 1]]], dtype=np.int8)
    rng = stream(0, 1)
    blue, red, no_mask = sample_blue_red(s1, s2, qc, 1.0, rng)
    (bh, bh_adm), (bv, bv_adm) = blue
    (rh, rh_adm), (rv, rv_adm) = red
    # horizontal bond (0,0)-(1,0): copy products differ (+1 vs -1), so the
    # bond can never be blue and is always red-admissible
    assert not bh_adm[0, 0, 0]
    assert rh_adm[0, 0, 0]
    # vertical bond (0,0)-(0,1): both copies have product +1
    Kv = qc.vertical[0, 0]
    assert bv_adm[0, 0, 0] == (Kv > 0)
    assert not rv_adm[0, 0, 0]
    assert no_mask[0, 0, 1] and not no_mask[0, 0, 0]


def test_blue_red_disjoint_and_probabilities():
    qc = quenched_couplings(6, 1.0, seed=3)
    rng1 = stream(1, 0)
    s1 = (rng1.integers(0, 2, (8, 6, 6)) * 2 - 1).astype(np.int8)
    s2 = (rng1.integers(0, 2, (8, 6, 6)) * 2 - 1).astype(np.int8)
    blue, red, _ = sample_blue_red(s1, s2, qc, 1.0, stream(1, 1))
    (bh, bh_adm), (bv, bv_adm) = blue
    (rh, rh_adm), (rv, rv_adm) = red
    assert not np.any(bh_adm & rh_adm)
    assert not np.any(bv_adm & rv_adm)
    assert np.all(bh <= bh_adm) and np.all(rv <= rv_adm)


def test_blue_red_draw_one_raw_word_per_cell():
    # word (r, y, x): its low half, shifted right by one, decides the
    # horizontal bond (x, y)-(x+1, y), its high half the vertical bond
    # (x, y)-(x, y+1), against round((1 - e^{-4|K|}) 2^31) where both copies
    # satisfy the bond (blue) and round((1 - e^{-2|K|}) 2^31) where one does (red)
    L, R, beta = 4, 3, 0.7
    qc = quenched_couplings(L, 1.0, seed=5, periodic=True)
    s1, s2 = ((stream(3, c).integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8) for c in (0, 1))
    blue, red, _ = sample_blue_red(s1, s2, qc, beta, stream(3, 2))
    w = stream(3, 2).bit_generator.random_raw((R, L, L))
    cases = 0
    for r, y, x in itertools.product(range(R), range(L), range(L)):
        for d, coup, (y2, x2), u in (
            (0, qc.horizontal, (y, (x + 1) % L), int(w[r, y, x] & 0xFFFFFFFF) >> 1),
            (1, qc.vertical, ((y + 1) % L, x), int(w[r, y, x] >> 32) >> 1),
        ):
            K = beta * coup[y, x]
            sat1, sat2 = (K * s[r, y, x] * s[r, y2, x2] > 0 for s in (s1, s2))
            t_blue, t_red = (round(float(1.0 - np.exp(-a * abs(K))) * 2**31) for a in (4.0, 2.0))
            assert blue[d][0][r, y, x] == (sat1 and sat2 and u < t_blue), (r, y, x, d)
            assert red[d][0][r, y, x] == (sat1 != sat2 and u < t_red), (r, y, x, d)
            cases += blue[d][0][r, y, x] + red[d][0][r, y, x]
    assert cases > R * L * L // 2


def test_sampled_marginals_match_closed_forms_chi2():
    # per-admissible-slot coin frequencies against 1 - e^{-4J}, 1 - e^{-2J}
    qc = quenched_couplings(8, 1.0, seed=11)
    beta = 0.7
    rng = stream(2, 0)
    R = 200
    s1 = (rng.integers(0, 2, (R, 8, 8)) * 2 - 1).astype(np.int8)
    s2 = (rng.integers(0, 2, (R, 8, 8)) * 2 - 1).astype(np.int8)
    blue, red, _ = sample_blue_red(s1, s2, qc, beta, stream(2, 1))
    (bh, bh_adm), (bv, bv_adm) = blue
    (rh, rh_adm), (rv, rv_adm) = red
    for count, adm, p in (
        (int(bh.sum() + bv.sum()), int(bh_adm.sum() + bv_adm.sum()), 1 - math.exp(-4 * beta)),
        (int(rh.sum() + rv.sum()), int(rh_adm.sum() + rv_adm.sum()), 1 - math.exp(-2 * beta)),
    ):
        table = np.array([count, adm - count])
        expect = np.array([adm * p, adm * (1 - p)])
        chi2 = float(((table - expect) ** 2 / expect).sum())
        assert stats.chi2.sf(chi2, df=1) > 0.01


def test_heat_bath_matches_exact_on_small_box():
    # magnetization pattern of a 2x2 quenched box against exact enumeration
    qc = quenched_couplings(2, 1.0, seed=9)
    beta = 0.8
    spec = glass_spec(qc, beta)
    mu = gibbs_measure(spec)
    exact_corr = mu.expectation(lambda o: o[0] * o[3])
    rng = stream(3, 0)
    R = 512
    s = (rng.integers(0, 2, (R, 2, 2)) * 2 - 1).astype(np.int8)
    kernel = heat_bath_kernel(qc, beta, R)
    heat_bath_sweeps(s, kernel, rng, 60)
    samples = []
    for _ in range(60):
        heat_bath_sweeps(s, kernel, rng, 2)
        samples.append((s[:, 0, 0] * s[:, 1, 1]).astype(float).mean())
    est = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    assert abs(est - exact_corr) < 5 * max(se, 1e-3)


def test_heat_bath_matches_exact_energy_on_odd_open_and_periodic_boxes():
    # the boxes where the colouring matters: an odd open box, and a torus
    # whose wrap bonds join the two colours
    beta = 0.8
    for L, periodic in ((3, False), (4, True)):
        qc = quenched_couplings(L, 1.0, seed=7, periodic=periodic)
        outcomes, probs = zip(*gibbs_measure(glass_spec(qc, beta)).items())
        exact = float(np.dot(probs, bond_energy(np.array(outcomes).reshape(-1, L, L), qc)))
        R = 2048
        rng = stream(12, L)
        s = (rng.integers(0, 2, (R, L, L)) * 2 - 1).astype(np.int8)
        kernel = heat_bath_kernel(qc, beta, R)
        heat_bath_sweeps(s, kernel, rng, 50)
        per_replica = np.zeros(R)
        for _ in range(20):
            heat_bath_sweeps(s, kernel, rng, 2)
            per_replica += bond_energy(s, qc) / 20
        z = (per_replica.mean() - exact) / (per_replica.std(ddof=1) / math.sqrt(R))
        assert abs(z) < 4, (L, periodic, z)


def test_integrated_autocorr_iid_is_one():
    rng = stream(4, 0)
    tau, conv = integrated_autocorr(rng.random(4000))
    assert conv and tau < 1.3


def test_integrated_autocorr_correlated_series():
    rng = stream(5, 0)
    x = np.zeros(8000)
    phi = 0.8
    eps = rng.standard_normal(8000)
    for i in range(1, 8000):
        x[i] = phi * x[i - 1] + eps[i]
    tau, conv = integrated_autocorr(x)
    want = (1 + phi) / (1 - phi)  # = 9 for an AR(1) chain
    assert conv and abs(tau - want) < 3.0


def test_ea_report_deterministic_and_threaded():
    kwargs = dict(L=8, J=1.0, beta_scale=0.8, seed=21, n_sweeps=120, n_samples=24, n_disorder=2)
    a = ea_mns_percolation(**kwargs, threads=1)
    b = ea_mns_percolation(**kwargs, threads=4)
    assert a == b
    c = ea_mns_percolation(**kwargs, threads=1)
    assert a == c


def test_ea_blue_density_within_three_sigma():
    rep = ea_mns_percolation(L=12, J=1.0, beta_scale=0.6, seed=3, n_sweeps=200, n_samples=80)
    bd = rep["blue_density"]
    assert abs(bd["mean"] - bd["closed_form"]) <= 3 * bd["se"]
    rd = rep["red_density"]
    assert abs(rd["mean"] - rd["closed_form"]) <= 3 * rd["se"]


def test_ea_closed_forms_use_the_coupling_magnitude():
    # the sampler draws blue and red bonds with |beta J|, so a sign flip of
    # J or of beta leaves the closed forms alone
    forms = set()
    for J, beta in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        rep = ea_mns_percolation(L=4, J=J, beta_scale=beta, seed=0, n_sweeps=20, n_samples=4)
        blue, red = rep["blue_density"]["closed_form"], rep["red_density"]["closed_form"]
        assert 0.0 <= red < blue < 1.0, (J, beta)
        forms.add((blue, red))
    assert forms == {(1 - math.exp(-4.0), 1 - math.exp(-2.0))}


def test_ea_unequilibrated_run_warns():
    import warnings as _warnings

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        rep = ea_mns_percolation(L=8, J=1.0, beta_scale=1.5, seed=1, n_sweeps=8, n_samples=4)
    assert not rep["equilibration"]["all_equilibrated"]
    assert any("autocorrelation" in str(w.message) for w in caught)


def test_ea_degenerate_densities_keep_a_positive_se():
    # at beta J = 10 every admissible bond is blue and red in every sample:
    # the binomial SE is 0, and the floor 1 / n_admissible takes its place
    rep = ea_mns_percolation(4, 1.0, 10.0, seed=0, n_sweeps=50, n_samples=8)
    for key, n_adm in (("blue_density", 140), ("red_density", 47)):
        d = rep[key]
        assert (d["mean"], d["n_admissible"], d["se"]) == (1.0, n_adm, 1 / n_adm)


def test_ea_weak_coupling_blue_density_vanishes():
    rep = ea_mns_percolation(L=8, J=1.0, beta_scale=0.01, seed=5, n_sweeps=60, n_samples=30)
    assert rep["blue_density"]["closed_form"] < 0.04
    assert rep["blue_density"]["mean"] < 0.08
    assert rep["largest_blue_nonoverlap_fraction"]["mean"] < 0.05


def test_ea_low_temperature_grows_blue_clusters():
    # qualitative: cooling grows the largest blue clusters in both the
    # agreement and disagreement regions
    cold = ea_mns_percolation(L=16, J=1.0, beta_scale=1.4, seed=8, n_sweeps=300, n_samples=40)
    hot = ea_mns_percolation(L=16, J=1.0, beta_scale=0.15, seed=8, n_sweeps=300, n_samples=40)
    assert (
        cold["largest_blue_overlap_fraction"]["mean"]
        > hot["largest_blue_overlap_fraction"]["mean"]
    )
    assert (
        cold["largest_blue_nonoverlap_fraction"]["mean"]
        > hot["largest_blue_nonoverlap_fraction"]["mean"]
    )


def _exact_bond_joint(qc, beta):
    """The exact law of (blue mask, red mask) over glass_spec's bonds."""
    tb, spec2 = mns_base(glass_spec(qc, beta))
    return typed_joint(spec2, tb).map_outcomes(
        lambda a: (
            sum(1 << k for k, (ja, jb) in enumerate(a) if ja == 0),
            sum(1 << k for k, (ja, jb) in enumerate(a) if jb == 0),
        )
    )


def test_mc_bond_joint_matches_exact_small_sample():
    qc = quenched_couplings(2, 1.0, seed=3)
    beta = 0.8
    exact = _exact_bond_joint(qc, beta)
    counts, n = mc_bond_joint(qc, beta, seed=6, n_samples=40000, burn_in=200, gap=3)
    assert n == 40000
    for key, c in counts.items():
        assert exact.prob(key) > 0  # impossible outcomes never sampled
    zs = []
    for key, p in exact.items():
        se = math.sqrt(p * (1 - p) / n)
        zs.append(abs(counts.get(key, 0) / n - p) / se)
    assert np.mean(zs) < 2.0
    assert max(zs) < 4.5


# The 2 x 2 torus: two coupling cells join each pair of sites, and each is
# a bond of its own in the heat bath, in glass_spec and in mc_bond_joint.


def test_glass_spec_on_the_2x2_torus_has_the_heat_bath_energy():
    qc = quenched_couplings(2, 1.0, seed=0, periodic=True)
    beta = 0.8
    spec = glass_spec(qc, beta)
    assert len(spec.graph.bonds) == 8
    outcomes, probs = zip(*gibbs_measure(spec).items())
    exact = float(np.dot(probs, bond_energy(np.array(outcomes).reshape(-1, 2, 2), qc)))
    e = bond_energy(np.array(list(itertools.product((-1, 1), repeat=4))).reshape(-1, 2, 2), qc)
    w = np.exp(-beta * e)
    assert abs(exact - float(w @ e / w.sum())) < 1e-12


def test_glass_spec_without_couplings_has_no_bonds():
    assert glass_spec(quenched_couplings(4, 0.0, 1)).graph.bonds == ()


@functools.lru_cache(maxsize=None)
def _torus_bond_joint():
    qc = quenched_couplings(2, 1.0, seed=0, periodic=True)
    counts, n = mc_bond_joint(qc, 0.8, seed=6, n_samples=200_000, burn_in=200, gap=3)
    return _exact_bond_joint(qc, 0.8), counts, n


def test_mc_bond_joint_on_the_2x2_torus_samples_only_possible_masks():
    exact, counts, _ = _torus_bond_joint()
    assert [key for key in counts if exact.prob(key) == 0] == []


def test_mc_bond_joint_on_the_2x2_torus_passes_the_c08_gates():
    # C08's gates: per-bond (blue, red, neither) z, and chi-square over the
    # outcomes of expected count at least 5
    exact, counts, n = _torus_bond_joint()
    worst_z = 0.0
    for k in range(8):
        kind = lambda key: 0 if (key[0] >> k) & 1 else 1 if (key[1] >> k) & 1 else 2
        for label in range(3):
            p = sum(p for key, p in exact.items() if kind(key) == label)
            c = sum(c for key, c in counts.items() if kind(key) == label)
            worst_z = max(worst_z, abs(c / n - p) / math.sqrt(p * (1 - p) / n))
    expected = {key: p * n for key, p in exact.items() if p * n >= 5}
    chi2 = sum((counts.get(key, 0) - e) ** 2 / e for key, e in expected.items())
    assert worst_z <= 3.0
    assert stats.chi2.sf(chi2, len(expected) - 1) >= 0.01
