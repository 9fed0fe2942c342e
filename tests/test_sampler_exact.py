"""Exact checks of the heat-bath kernel: one sweep's transition matrix,
built from the kernel's own classes and table, leaves the Gibbs measure
invariant; and the raw-word stream of the integer-threshold kernel.

A sweep updates its colour classes in order, and a class updates all its
sites at once from the state before it: site i takes value v with
probability T_v - T_{v+1} at its key (T_0 = 1, T_S = 0), the tails read
from the kernel's table. Float tails are the probabilities themselves; a
uint32 threshold t fires below a 31-bit uniform with probability t / 2^31.
"""

import itertools
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings

from model_strategies import small_models
from rcgibbs.errors import RcgibbsError, UsageError
from rcgibbs.experiments.ea import _p_plus_table, glass_spec, heat_bath_kernel, heat_bath_sweeps, quenched_couplings
from rcgibbs.gibbs import effective_bonds, gibbs_measure
from rcgibbs.models import spec_from_dict
from rcgibbs.rng import stream
from rcgibbs.sampling import _generic_heat_bath


def _tails(hb) -> np.ndarray:
    """(S + 1, n_keys) tails T_0 = 1, T_1..T_{S-1} from the table, T_S = 0."""
    table = hb.table / 2.0**31 if hb.table.dtype == np.uint32 else hb.table
    n_keys = table.shape[1]
    return np.vstack((np.ones(n_keys), table, np.zeros(n_keys)))


def _class_keys(hb, X):
    """Per class of hb: its sites and their keys (n, M) at the M
    configurations X (M, n_sites) of value indices in site order."""
    Xp = np.hstack((X, np.zeros((len(X), 1), X.dtype)))  # the dummy site reads 0
    return [(site, base[:, None] + np.einsum("dn,dnm->nm", w, Xp.T[nbrs])) for site, nbrs, w, base in hb.classes]


def _sweep(hb, pi, X):
    """pi @ P for one sweep's transition matrix P over the configurations
    X, all S^n_sites of them."""
    T = _tails(hb)
    values = np.arange(hb.S)
    for site, keys in _class_keys(hb, X):
        rest = np.setdiff1d(np.arange(X.shape[1]), site)
        P = (X[:, None, rest] == X[None, :, rest]).all(axis=2).astype(float)
        for i, p in enumerate(site):
            law = T[values, :][:, keys[i]] - T[values + 1, :][:, keys[i]]  # (S, M): P(value | x)
            P *= law[X[:, p]].T  # P[x, y] *= P(site p takes y_p | x)
        pi = pi @ P
    return pi


def _invariance_error(hb, spec) -> float:
    """max |pi P - pi| over the configurations, pi = gibbs_measure(spec)."""
    n = len(spec.region)
    X = np.array(list(itertools.product(range(hb.S), repeat=n)), np.int64).reshape(hb.S**n, n)
    index = {v: i for i, v in enumerate(spec.alphabet.values)}
    pi = np.zeros(len(X))
    stride = hb.S ** np.arange(n)[::-1]
    for outcome, p in gibbs_measure(spec).items():
        pi[int(stride @ [index[v] for v in outcome])] = float(p)
    return float(np.abs(_sweep(hb, pi, X) - pi).max())


@given(small_models())
@settings(derandomize=True, max_examples=120, deadline=None, database=None)
def test_generic_sweep_leaves_the_gibbs_measure_invariant(case):
    model = case[0]
    try:
        spec = spec_from_dict(model)
        pi_ok = gibbs_measure(spec)
    except (UsageError, RcgibbsError, ZeroDivisionError):  # a table of zeros, or nothing allowed
        assume(False)
    assume(len(pi_ok) > 0 and spec.alphabet.size ** len(spec.region) <= 800)
    hb, _ = _generic_heat_bath(spec, effective_bonds(spec), 1)
    assert _invariance_error(hb, spec) < 1e-12


# The realised probabilities t / 2^31 lie within 2^-32 of p_plus. A site
# update's rows then move by at most 2 * 2^-32 in l1 from the exact
# conditional law, which pi P_exact = pi keeps; the sweep is a product of
# n_sites site updates, each an l1 contraction, so |pi P - pi| <= n * 2^-31,
# plus float rounding of the matrix products.
@pytest.mark.parametrize("L,periodic", [(2, False), (2, True), (3, False)])
@pytest.mark.parametrize("J,beta", [(1.0, 0.44), (1.0, 0.9), (-0.7, 1.3), (1.0, 10.0)])
def test_glass_sweep_keeps_the_gibbs_measure_within_its_threshold_bound(L, periodic, J, beta):
    qc = quenched_couplings(L, J, seed=L + 2, periodic=periodic)
    hb = heat_bath_kernel(qc, beta, 1)
    p_plus = _p_plus_table(abs(J), beta)
    assert np.abs(hb.table[0] / 2.0**31 - p_plus).max() <= 2.0**-32
    err = _invariance_error(hb, glass_spec(qc, beta))
    assert err <= L * L * 2.0**-31 + 1e-12, (L, periodic, J, beta, err)


def _words(w):
    """A stand-in generator whose raw words are all w."""
    return types.SimpleNamespace(bit_generator=types.SimpleNamespace(random_raw=lambda n: np.full(n, w, np.uint64)))


def test_kernel_uniforms_are_the_halves_of_raw_words_low_first():
    # 3 x 3 open box, 3 replicas: 27 uniforms from 14 words, the last high half unused
    for L, R in ((3, 3), (4, 2)):
        hb = heat_bath_kernel(quenched_couplings(L, 1.0, seed=1), 0.8, R)
        heat_bath_sweeps(np.ones((R, L, L), np.int8), hb, stream(4, L), 1)
        w = stream(4, L).bit_generator.random_raw(-(-R * L * L // 2))
        halves = np.stack(((w & 0xFFFFFFFF) >> 1, (w >> 32) >> 1), axis=1).ravel()
        assert np.array_equal(hb.uniforms, halves[: R * L * L]), (L, R)


def test_thresholds_zero_and_one_are_exact_at_beta_ten():
    # at beta J = 10 the table holds t = 0 (p_plus below 2^-32) and t = 2^31
    # (p_plus 1.0); the largest uniform 2^31 - 1 fires only t = 2^31, and
    # the smallest, 0, fires every t but 0
    qc = quenched_couplings(4, 1.0, seed=3)
    R = 8
    hb = heat_bath_kernel(qc, 10.0, R)
    s0 = (stream(8).integers(0, 2, (R, 4, 4)) * 2 - 1).astype(np.int8)
    (site, keys), _ = _class_keys(hb, (s0.reshape(R, -1) > 0).astype(np.int64))
    t = hb.table[0][keys]  # (n, R): the first colour's thresholds at the start
    assert (t == 0).any() and (t == 2**31).any()
    for word, fires in ((2**64 - 1, t == 2**31), (0, t > 0)):
        s = heat_bath_sweeps(s0.copy(), hb, _words(word), 1)
        assert np.array_equal(s.reshape(R, -1)[:, site] > 0, fires.T), word
