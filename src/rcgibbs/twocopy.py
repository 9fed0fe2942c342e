"""Two independent copies: overlap sums, slice measures, symmetrized specs.

Conditioning two independent copies of a Gibbs field on the per-vertex sum
of their spins splits the product space into slices. Each slice carries a
symmetric Gibbs measure whose interaction adds the original energy of a
configuration and of its reflection through the sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TooLargeError, ZeroSliceError
from .gibbs import (
    Alphabet,
    BondTable,
    FiniteDistribution,
    GibbsSpec,
    Interaction,
    config_weights,
    local_index,
)

DEFAULT_PAIR_CAP = 1 << 24


def overlap_values(alphabet: Alphabet) -> tuple[int, ...]:
    """All achievable per-site sums of two alphabet values."""
    return tuple(sorted({a + b for a in alphabet.values for b in alphabet.values}))


def admissible_values(alphabet: Alphabet, s: int) -> tuple[int, ...]:
    """Values a with s - a also in the alphabet."""
    vals = set(alphabet.values)
    return tuple(a for a in alphabet.values if s - a in vals)


@dataclass(frozen=True)
class OverlapSlice:
    """An overlap assignment with its per-vertex admissible sets.

    sigma is aligned with the region (sorted vertex order). The overlap
    region collects the vertices whose admissible set is a single value,
    i.e. where the sum pins both copies.
    """

    region: tuple[int, ...]
    sigma: tuple[int, ...]
    admissible: tuple[tuple[int, ...], ...]
    overlap_region: frozenset[int]


def make_slice(spec: GibbsSpec, sigma) -> OverlapSlice:
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != len(spec.region):
        raise ValueError("sigma length must match region size")
    adm = []
    for v, s in zip(spec.region, sigma):
        dom = spec.domain_values(v)
        domset = set(dom)
        a = tuple(x for x in dom if s - x in domset)
        if not a:
            raise ZeroSliceError(f"overlap value {s} at vertex {v} is not achievable")
        adm.append(a)
    overlap = frozenset(
        v for v, a in zip(spec.region, adm) if len(a) == 1
    )
    return OverlapSlice(spec.region, sigma, tuple(adm), overlap)


def overlap_distribution(
    spec: GibbsSpec, max_pairs: int = DEFAULT_PAIR_CAP
) -> FiniteDistribution:
    """Distribution of the per-vertex spin sum of two independent copies.

    Outcomes are tuples of sums aligned with the sorted region.
    """
    n_states = spec.n_states()
    if n_states * n_states > max_pairs:
        raise TooLargeError(f"{n_states}^2 pairs exceeds cap {max_pairs}")
    if spec.full_binary() and not spec.exact and n_states > 1 << 8:
        return _overlap_distribution_binary(spec)
    dom = [spec.domain_indices(v) for v in spec.region]
    vals = spec.alphabet.values
    configs = list(itertools.product(*dom))
    weights = config_weights(spec).tolist()
    rho: dict = {}
    for c1, w1 in zip(configs, weights):
        if w1 == 0:
            continue
        for c2, w2 in zip(configs, weights):
            if w2 == 0:
                continue
            sig = tuple(vals[a] + vals[b] for a, b in zip(c1, c2))
            rho[sig] = rho.get(sig, 0) + w1 * w2
    if not rho:
        raise ZeroSliceError("zero measure: every configuration forbidden")
    return FiniteDistribution(rho, sites=spec.region, normalize=True)


def _overlap_distribution_binary(spec: GibbsSpec) -> FiniteDistribution:
    n = len(spec.region)
    N = 1 << n
    # Reversing the axes puts site p's alphabet index at bit p.
    w = config_weights(spec, domains=[(0, 1)] * n).reshape((2,) * n).T.ravel()
    total = w.sum()
    if total <= 0:
        raise ZeroSliceError("zero measure: every configuration forbidden")
    w = w / total
    # A pair's base-3 sum index is the sum of its configs' base-3 bit codes.
    bits = (np.arange(N, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    code = bits @ 3 ** np.arange(n, dtype=np.int64)
    rho = np.zeros(3**n)
    chunk = max(1, (1 << 22) // N)
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        sidx = (code[lo:hi, None] + code[None, :]).ravel()
        wpair = (w[lo:hi, None] * w[None, :]).ravel()
        rho += np.bincount(sidx, weights=wpair, minlength=3**n)
    v0, v1 = spec.alphabet.values
    sums = (2 * v0, v0 + v1, 2 * v1)
    table = {}
    for si in np.nonzero(rho)[0]:
        digs = []
        x = int(si)
        for _ in range(n):
            digs.append(sums[x % 3])
            x //= 3
        table[tuple(digs)] = float(rho[si])
    return FiniteDistribution(table, sites=spec.region, normalize=True)


def nonoverlap_distribution(spec: GibbsSpec, sigma) -> FiniteDistribution:
    """Law of one copy given the sum configuration of the two copies.

    Supported on the slice space (admissible values per vertex, the pinned
    value on the overlap region); symmetric under reflection through sigma.
    """
    sl = make_slice(spec, sigma)
    idx = spec.alphabet.index
    w1 = config_weights(spec, domains=[[idx(a) for a in adm] for adm in sl.admissible])
    # sigma - omega runs over the same slice: permute each vertex's values
    w2 = w1.reshape([len(adm) for adm in sl.admissible])
    for k, (s, adm) in enumerate(zip(sl.sigma, sl.admissible)):
        w2 = w2.take([adm.index(s - a) for a in adm], axis=k)
    table = {
        vals: w
        for vals, w in zip(itertools.product(*sl.admissible), (w1 * w2.ravel()).tolist())
        if w != 0
    }
    if not table:
        raise ZeroSliceError("overlap configuration has probability zero")
    return FiniteDistribution(table, sites=spec.region, normalize=True)


def symmetrized_spec(spec: GibbsSpec, sigma) -> GibbsSpec:
    """Gibbs spec whose measure is the non-overlap slice distribution.

    The interaction table of each bond is replaced by the product of the
    factors of a local configuration and of its reflection through sigma;
    the configuration space is restricted to the admissible values.
    Straddling bonds reflect only their interior part, the exterior spins
    being shared by the two copies.
    """
    sl = make_slice(spec, sigma)
    sig_by_vertex = dict(zip(spec.region, sl.sigma))
    rset = set(spec.region)
    S = spec.alphabet.size
    vals = spec.alphabet.values
    idx = spec.alphabet.index
    zero = Fraction(0) if spec.exact else 0.0
    new_tables = {}
    for k, b in enumerate(spec.graph.bonds):
        if not any(u in rset for u in b):
            continue
        old = spec.interaction.tables[k].factors
        m = len(b)
        new = []
        for x in itertools.product(range(S), repeat=m):
            refl = []
            ok = True
            for v, vi in zip(b, x):
                if v in rset:
                    rv = sig_by_vertex[v] - vals[vi]
                    if rv not in vals:
                        ok = False
                        break
                    refl.append(idx(rv))
                else:
                    refl.append(vi)
            if not ok:
                new.append(zero)
                continue
            new.append(old[local_index(S, x)] * old[local_index(S, refl)])
        if all(f == 0 for f in new):
            raise ZeroSliceError(f"bond {k} forbids the whole slice")
        new_tables[k] = BondTable(tuple(new))
    domains = {v: a for v, a in zip(spec.region, sl.admissible)}
    return GibbsSpec(
        graph=spec.graph,
        alphabet=spec.alphabet,
        interaction=Interaction(new_tables),
        region=spec.region,
        boundary=dict(spec.boundary),
        domains=domains,
    )


def two_copy_spec(spec: GibbsSpec) -> GibbsSpec:
    """Product spec of two independent copies on a paired alphabet.

    Pair values are encoded as S*i1 + i2 where i1, i2 index the original
    alphabet; decode with pair_values(). Boundary spins are shared by the
    two copies.
    """
    S = spec.alphabet.size
    pair_alphabet = Alphabet(tuple(range(S * S)))
    new_tables = {}
    rset = set(spec.region)
    for k, b in enumerate(spec.graph.bonds):
        if not any(u in rset for u in b):
            continue
        old = spec.interaction.tables[k].factors
        m = len(b)
        new = []
        for px in itertools.product(range(S * S), repeat=m):
            x1 = tuple(p // S for p in px)
            x2 = tuple(p % S for p in px)
            new.append(old[local_index(S, x1)] * old[local_index(S, x2)])
        new_tables[k] = BondTable(tuple(new))
    boundary = {
        v: spec.alphabet.index(val) * S + spec.alphabet.index(val)
        for v, val in spec.boundary.items()
    }
    domains = None
    if spec.domains is not None:
        domains = {}
        for v in spec.region:
            dv = spec.domain_indices(v)
            domains[v] = tuple(i1 * S + i2 for i1 in dv for i2 in dv)
    return GibbsSpec(
        graph=spec.graph,
        alphabet=pair_alphabet,
        interaction=Interaction(new_tables),
        region=spec.region,
        boundary=boundary,
        domains=domains,
    )


def pair_values(alphabet: Alphabet, pair_value: int) -> tuple[int, int]:
    """Decode a paired-alphabet value into the two copies' spin values."""
    S = alphabet.size
    return alphabet.values[pair_value // S], alphabet.values[pair_value % S]


def decompose_event(spec: GibbsSpec, predicate, max_pairs: int = DEFAULT_PAIR_CAP):
    """Probability of an event recomputed through the overlap decomposition.

    Returns sum over overlap assignments of slice probability of the event
    times the overlap weight; must agree with direct evaluation.
    """
    rho = overlap_distribution(spec, max_pairs=max_pairs)
    acc = 0
    for sig, r in rho.items():
        if r == 0:
            continue
        mu_s = nonoverlap_distribution(spec, sig)
        acc += r * mu_s.event(predicate)
    return acc
