"""Random-cluster representations: Bernoulli bases, level solvers, blue/red bases.

A base assigns to every bond a probability over subsets of its local
configuration space. The represented measure weights a spin configuration
by the product over bonds of the total probability of subsets containing
the local configuration. Subsets are bitmasks over gibbs.local_index, the
full-alphabet local index of the interaction tables; only configurations
the spec's domains allow (a bond's full_mask) are ever set. A bond value
is "active" when its subset is a strict subset of full_mask. The blue/red
base of two copies is an ordinary base that lists each paired bond twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfeasibleError, NonSymmetrizableError, ZeroSliceError, check_cap
from .gibbs import (
    FiniteDistribution,
    GibbsSpec,
    config_weights,
    effective_bonds,
    local_index,
)


# ---------------------------------------------------------------------------
# Level systems and Bernoulli solvers


@dataclass(frozen=True)
class LevelSystem:
    """Energy levels of one bond with candidate subsets.

    factors are the distinct Boltzmann factors in strictly decreasing
    order; level_masks[i] collects the local configurations at factor i;
    subsets are candidate bitmasks, each a union of whole levels.
    """

    factors: tuple
    level_masks: tuple[int, ...]
    subsets: tuple[int, ...]

    def __post_init__(self):
        k = len(self.factors)
        if k != len(self.level_masks) or k == 0:
            raise ValueError("factors and level masks must align")
        for a, b in zip(self.factors, self.factors[1:]):
            if not a > b:
                raise ValueError("levels must be strictly decreasing")
        if self.factors[-1] < 0:
            raise ValueError("negative level factor")
        for i, mi in enumerate(self.level_masks):
            if mi == 0:
                raise ValueError("empty level")
            for mj in self.level_masks[i + 1:]:
                if mi & mj:
                    raise ValueError("overlapping levels")
        union = 0
        for m in self.level_masks:
            union |= m
        for s in self.subsets:
            if s == 0:
                raise ValueError("empty candidate subset")
            if s & ~union:
                raise ValueError("subset leaves the configuration space")
            for m in self.level_masks:
                if s & m not in (0, m):
                    raise ValueError("candidate subset splits an energy level")

    def membership_matrix(self) -> np.ndarray:
        rows = []
        for m in self.level_masks:
            rows.append([1.0 if (s & m) == m else 0.0 for s in self.subsets])
        return np.asarray(rows)


@dataclass(frozen=True)
class BernoulliSolution:
    probs: tuple
    scale: float
    degenerate: bool
    residual: float


def monotone_probabilities(factors):
    """Closed-form base probabilities for nested level subsets.

    With strictly decreasing factors w1 > ... > wk >= 0 the i-th nested
    subset (levels 1..i) gets (w_i - w_{i+1}) / w_1, taking w_{k+1} = 0.
    Exact when the factors are rational.
    """
    factors = tuple(factors)
    for a, b in zip(factors, factors[1:]):
        if not a > b:
            raise ValueError("levels must be strictly decreasing")
    if factors[-1] < 0 or factors[0] <= 0:
        raise ValueError("factors must be nonnegative with positive top level")
    k = len(factors)
    probs = []
    for i in range(k):
        nxt = factors[i + 1] if i + 1 < k else 0
        probs.append((factors[i] - nxt) / factors[0])
    return tuple(probs)


def monotone_system(factors, level_masks) -> LevelSystem:
    """The level system whose i-th subset is the union of levels 0..i."""
    subsets = []
    acc = 0
    for m in level_masks:
        acc |= m
        subsets.append(acc)
    return LevelSystem(tuple(factors), tuple(level_masks), tuple(subsets))


def _solve_linear_base(A: np.ndarray, w: np.ndarray, tol: float):
    """Solve A p = c w, sum(p) = 1, p >= 0 with c a free scalar.

    Returns (p, c, degenerate) or raises InfeasibleError. Minimum-norm
    solution is preferred; an LP feasibility fallback handles the case
    where the minimum-norm point violates nonnegativity.
    """
    k, m = A.shape
    B = np.hstack([A, -w.reshape(-1, 1)])
    u, s, vt = np.linalg.svd(B)
    smax = s[0] if len(s) else 0.0
    cut = max(B.shape) * np.finfo(float).eps * max(smax, 1.0)
    rank = int(np.sum(s > cut))
    null = vt[rank:].T  # (m+1, d)
    d = null.shape[1]
    if d == 0:
        raise InfeasibleError("no exact solution to the level system")
    e = np.zeros(m + 1)
    e[:m] = 1.0
    r = e @ null
    if np.linalg.norm(r) < 1e-14:
        raise InfeasibleError("solutions cannot be normalized")
    alpha = r / float(r @ r)
    x = null @ alpha
    p, c = x[:m], float(x[m])
    degenerate = d > 1
    if p.min() < -tol:
        sol = _lp_feasible(B, m)
        if sol is None:
            raise InfeasibleError("no nonnegative normalized solution")
        p, c = sol[:m], float(sol[m])
        degenerate = True
    p = np.clip(p, 0.0, None)
    residual = float(np.max(np.abs(A @ p - c * w))) if k else 0.0
    scale = max(1.0, float(np.max(np.abs(w)))) if k else 1.0
    if residual > tol * scale:
        raise InfeasibleError(f"residual {residual} exceeds tolerance")
    return p, c, degenerate


def _lp_feasible(B: np.ndarray, m: int):
    from scipy.optimize import linprog

    k = B.shape[0]
    A_eq = np.vstack([B, np.concatenate([np.ones(m), [0.0]])])
    b_eq = np.concatenate([np.zeros(k), [1.0]])
    bounds = [(0, None)] * m + [(None, None)]
    res = linprog(np.zeros(m + 1), A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    return res.x if res.success else None


def solve_bernoulli(system: LevelSystem, tol: float = 1e-10) -> BernoulliSolution:
    """Base probabilities for one bond from its level system.

    The monotone family short-circuits to the exact closed form. General
    candidate families are solved numerically as a one-parameter linear
    feasibility problem; rank-deficient systems return the minimum-norm
    solution flagged as degenerate.
    """
    if system.subsets == monotone_system(system.factors, system.level_masks).subsets:
        probs = monotone_probabilities(system.factors)
        scale = 1 / system.factors[0]
        return BernoulliSolution(probs, float(scale), False, 0.0)
    A = system.membership_matrix()
    w = np.asarray([float(f) for f in system.factors])
    p, c, degenerate = _solve_linear_base(A, w, tol)
    residual = float(np.max(np.abs(A @ p - c * w)))
    return BernoulliSolution(tuple(float(x) for x in p), c, degenerate, residual)


# ---------------------------------------------------------------------------
# Bases over a spec's bonds


@dataclass(frozen=True, eq=False)
class BondBase:
    """Subset probabilities for one bond over its local configurations.

    Subsets are bitmasks over the full-alphabet local index of inside
    (gibbs.local_index, the index of EffectiveBond.table); full_mask holds
    the configurations the spec's domains allow.
    """

    vertices: tuple[int, ...]
    inside: tuple[int, ...]
    full_mask: int
    subsets: tuple[int, ...]
    probs: tuple
    levels: tuple | None = None
    level_masks: tuple[int, ...] | None = None

    def support_weight(self, local: int):
        """Total probability of subsets containing the local configuration."""
        acc = 0
        for s, p in zip(self.subsets, self.probs):
            if (s >> local) & 1:
                acc += p
        return acc


@dataclass(frozen=True, eq=False)
class RcrBase:
    bonds: tuple[BondBase, ...]
    n_vertices: int
    exact: bool


def allowed_locals(spec: GibbsSpec, inside) -> list[int]:
    """gibbs.local_index of each configuration on inside that the spec's
    domains allow, in itertools.product(*domains) order."""
    S = spec.alphabet.size
    return [
        local_index(S, combo)
        for combo in itertools.product(*(spec.domain_indices(v) for v in inside))
    ]


def bond_level_system(table, locals_, exact: bool) -> tuple[tuple, tuple[int, ...]]:
    """Distinct factors of table at locals_ in decreasing order, with the
    bitmask of the local indices at each. With exact (an exact spec) the
    factors are made Fractions, so int factors give exact probabilities."""
    distinct = sorted({table[li] for li in locals_}, reverse=True)
    masks = []
    for f in distinct:
        m = 0
        for li in locals_:
            if table[li] == f:
                m |= 1 << li
        masks.append(m)
    if exact:
        distinct = [Fraction(f) for f in distinct]
    return tuple(distinct), tuple(masks)


def monotone_base(spec: GibbsSpec) -> RcrBase:
    """Bernoulli base with nested level subsets for every effective bond.

    This is the default representation: the i-th candidate subset keeps
    the configurations in the top i energy levels, with the closed-form
    probabilities of monotone_probabilities. Exact for rational factors.
    For domain-restricted specs the levels cover only the allowed
    configurations, so a bond inside the pinned region has a single level
    and is never active.
    """
    bonds = []
    for eb in effective_bonds(spec):
        levels, level_masks = bond_level_system(eb.table, allowed_locals(spec, eb.inside), spec.exact)
        if levels[0] <= 0:
            raise ZeroSliceError(f"bond {eb.index} forbids every restricted configuration")
        probs = monotone_probabilities(levels)
        subsets = monotone_system(levels, level_masks).subsets
        bonds.append(
            BondBase(
                vertices=eb.vertices,
                inside=eb.inside,
                full_mask=subsets[-1],
                subsets=subsets,
                probs=probs,
                levels=levels,
                level_masks=level_masks,
            )
        )
    return RcrBase(tuple(bonds), spec.graph.n_vertices, spec.exact)


def _configs_with_locals(spec: GibbsSpec, base: RcrBase):
    """Each configuration of alphabet indices with its bonds' local indices."""
    S = spec.alphabet.size
    pos = {v: p for p, v in enumerate(spec.region)}
    insides = [[pos[v] for v in bb.inside] for bb in base.bonds]
    for cfg in itertools.product(*(spec.domain_indices(v) for v in spec.region)):
        yield cfg, [local_index(S, (cfg[p] for p in ps)) for ps in insides]


def reconstruct(spec: GibbsSpec, base: RcrBase) -> FiniteDistribution:
    """Spin distribution represented by the base.

    The weight of a configuration is the product over bonds of the total
    base probability of subsets containing it; this must reproduce the
    underlying Gibbs measure for a valid representation.
    """
    check_cap("reconstructed states", spec.n_states())
    S = spec.alphabet.size
    tables = [
        (bb.inside, [bb.support_weight(li) for li in range(S ** len(bb.inside))])
        for bb in base.bonds
    ]
    w = config_weights(spec, tables, exact=spec.exact and base.exact)
    return FiniteDistribution.over_product(
        [spec.domain_values(v) for v in spec.region], w, sites=spec.region, normalize=True
    )


def _compat_bitsets(spec: GibbsSpec, base: RcrBase):
    """Per bond, per subset: bitset over configurations compatible with it."""
    nst = spec.n_states()
    check_cap("assignment states", nst)
    bitsets = [[0] * len(bb.subsets) for bb in base.bonds]
    for ci, (_, locs) in enumerate(_configs_with_locals(spec, base)):
        for bb, per_subset, li in zip(base.bonds, bitsets, locs):
            for j, s in enumerate(bb.subsets):
                if (s >> li) & 1:
                    per_subset[j] |= 1 << ci
    return bitsets, nst


def assignment_measure(spec: GibbsSpec, base: RcrBase):
    """Unnormalized weights nu(eta) * n_eta over full bond assignments.

    n_eta counts spin configurations compatible with every bond subset.
    Yields (assignment tuple, nu, n) for assignments with nu > 0.
    """
    n_assign = 1
    for bb in base.bonds:
        n_assign *= len(bb.subsets)
    check_cap("assignments", n_assign)
    bitsets, nst = _compat_bitsets(spec, base)
    full = (1 << nst) - 1
    B = len(base.bonds)
    out = []

    def rec(i, assign, nu, bits):
        if nu == 0:
            return
        if i == B:
            out.append((tuple(assign), nu, bits.bit_count()))
            return
        bb = base.bonds[i]
        for j, p in enumerate(bb.probs):
            assign.append(j)
            rec(i + 1, assign, nu * p, bits & bitsets[i][j])
            assign.pop()

    rec(0, [], Fraction(1) if base.exact else 1.0, full)
    return out


def joint_spin_bond(spec: GibbsSpec, base: RcrBase) -> FiniteDistribution:
    """Joint law of spin configuration and bond assignment.

    Outcomes are (value tuple, assignment tuple) pairs supported on
    compatible combinations; the spin marginal recovers the represented
    measure.
    """
    vals = spec.alphabet.values
    nst = spec.n_states()
    check_cap("joint states", nst)
    n_assign = 1
    for bb in base.bonds:
        n_assign *= len(bb.subsets)
    check_cap("spin-bond pairs", nst * n_assign)
    table: dict = {}
    for cfg, locals_per_bond in _configs_with_locals(spec, base):
        outcome_cfg = tuple(vals[i] for i in cfg)
        for assign in itertools.product(
            *[range(len(bb.subsets)) for bb in base.bonds]
        ):
            nu = Fraction(1) if base.exact else 1.0
            ok = True
            for bb, j, li in zip(base.bonds, assign, locals_per_bond):
                if not (bb.subsets[j] >> li) & 1:
                    ok = False
                    break
                nu *= bb.probs[j]
            if ok and nu != 0:
                table[(outcome_cfg, assign)] = nu
    if not table:
        raise ValueError("no compatible spin-bond pair")
    return FiniteDistribution(table, normalize=True)


def bond_marginal(spec: GibbsSpec, base: RcrBase) -> FiniteDistribution:
    """Marginal of the joint spin-bond distribution on bond assignments.

    P(eta) is proportional to nu(eta) times the number of compatible spin
    configurations. Outcomes are tuples of subset indices, one per bond in
    base order.
    """
    table = {}
    for assign, nu, n in assignment_measure(spec, base):
        if n:
            table[assign] = table.get(assign, 0) + nu * n
    if not table:
        raise ValueError("no compatible spin configuration for any assignment")
    return FiniteDistribution(table, normalize=True)


def symmetrize_base(spec: GibbsSpec, base: RcrBase, sigma) -> RcrBase:
    """Average each bond's subset law with its reflection through sigma.

    The reflected subset maps each local configuration to the one whose
    values are sigma minus the original values. Rejects bases whose
    reflected subsets leave the restricted space or split energy levels.
    """
    sig_by_vertex = dict(zip(spec.region, sigma))
    S = spec.alphabet.size
    vals = spec.alphabet.values
    idx = spec.alphabet.index
    new_bonds = []
    for bb in base.bonds:
        domains = [spec.domain_indices(v) for v in bb.inside]
        perm = {}
        for combo in itertools.product(*domains):
            refl = []
            for v, vi, dom in zip(bb.inside, combo, domains):
                rv = sig_by_vertex[v] - vals[vi]
                if rv not in vals or idx(rv) not in dom:
                    raise NonSymmetrizableError(
                        f"reflection leaves the restricted space at vertex {v}"
                    )
                refl.append(idx(rv))
            perm[local_index(S, combo)] = local_index(S, refl)

        def refl_mask(mask):
            out = 0
            for i, target in perm.items():
                if (mask >> i) & 1:
                    out |= 1 << target
            return out

        half = Fraction(1, 2) if base.exact else 0.5
        acc: dict[int, object] = {}
        for s, p in zip(bb.subsets, bb.probs):
            r = refl_mask(s)
            acc[s] = acc.get(s, 0) + p * half
            acc[r] = acc.get(r, 0) + p * half
        if bb.level_masks is not None:
            for s in acc:
                for m in bb.level_masks:
                    if s & m not in (0, m):
                        raise NonSymmetrizableError(
                            "reflected subset splits an energy level"
                        )
        subsets = tuple(sorted(acc))
        probs = tuple(acc[s] for s in subsets)
        new_bonds.append(
            BondBase(
                vertices=bb.vertices,
                inside=bb.inside,
                full_mask=bb.full_mask,
                subsets=subsets,
                probs=probs,
                levels=bb.levels,
                level_masks=bb.level_masks,
            )
        )
    return RcrBase(tuple(new_bonds), base.n_vertices, base.exact)


# ---------------------------------------------------------------------------
# The blue/red (two-family) base


def mns_base(spec: GibbsSpec):
    """Blue/red two-family base for two independent copies of a pair model.

    Takes the single-copy spec (pair bonds with two symmetric energy
    levels each, as in a +-J model) and returns (base, product spec). The
    base lists each paired bond twice, its blue bond then its red bond,
    so the two families are ordinary bonds of one RcrBase. Blue keeps the
    top level of the paired bond (both copies agree with the coupling)
    with probability 1 - w3/w1; red keeps the middle level (copies
    disagree with each other) with probability 1 - w3/w2, where
    w1 > w2 > w3 are the paired Boltzmann factors.
    """
    from .twocopy import two_copy_spec

    spec2 = two_copy_spec(spec)
    bonds = []
    for eb in effective_bonds(spec2):
        levels, masks = bond_level_system(eb.table, allowed_locals(spec2, eb.inside), spec2.exact)
        if len(levels) != 3:
            raise ValueError(
                f"bond {eb.index}: paired bond needs exactly 3 energy levels, "
                f"got {len(levels)} (is the coupling zero?)"
            )
        w1, w2, w3 = levels
        full = masks[0] | masks[1] | masks[2]
        for keep, p in ((masks[0], 1 - w3 / w1), (masks[1], 1 - w3 / w2)):
            bonds.append(
                BondBase(
                    vertices=eb.vertices,
                    inside=eb.inside,
                    full_mask=full,
                    subsets=(keep, full),
                    probs=(p, 1 - p),
                    levels=levels,
                    level_masks=masks,
                )
            )
    return RcrBase(tuple(bonds), spec2.graph.n_vertices, spec2.exact), spec2


def typed_joint(spec2: GibbsSpec, base: RcrBase) -> FiniteDistribution:
    """Joint law of the two bond-variable families of mns_base, spins
    summed out.

    Outcomes are tuples of (blue subset index, red subset index) per
    paired bond: bond_marginal's outcomes, regrouped in pairs.
    """
    marginal = bond_marginal(spec2, base)
    return marginal.map_outcomes(lambda a: tuple(zip(a[::2], a[1::2])))
