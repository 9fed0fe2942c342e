import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_binary_spec
from rcgibbs import rcr
from rcgibbs.errors import InfeasibleError, NonSymmetrizableError
from rcgibbs.gibbs import BondTable, GibbsSpec, Interaction, SPIN, gibbs_measure, local_index
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import example1_exact_spec, example1_spec, ising_spec, ea_spec
from rcgibbs.rcr import (
    BondBase,
    LevelSystem,
    RcrBase,
    assignment_measure,
    bond_marginal,
    mns_base,
    monotone_base,
    monotone_probabilities,
    reconstruct,
    solve_bernoulli,
    symmetrize_base,
    typed_joint,
)
from rcgibbs.twocopy import nonoverlap_distribution, symmetrized_spec


# ---------------------------------------------------------------------------
# Level solvers


def test_monotone_probabilities_exact_halves():
    # factors (2, 1) stand for levels (log 2, 0)
    assert monotone_probabilities((Fraction(2), Fraction(1))) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_monotone_single_level_never_active():
    assert monotone_probabilities((3.7,)) == (1.0,)


def test_monotone_three_level_glass_table():
    J = 0.8
    w = (math.exp(2 * J), 1.0, math.exp(-2 * J))
    p = monotone_probabilities(w)
    assert abs(p[0] - (1 - math.exp(-2 * J))) < 1e-14
    assert abs(p[1] - (math.exp(-2 * J) - math.exp(-4 * J))) < 1e-14
    assert abs(p[2] - math.exp(-4 * J)) < 1e-14


def test_monotone_rejects_non_decreasing():
    with pytest.raises(ValueError):
        monotone_probabilities((1.0, 2.0))


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
@settings(max_examples=200, deadline=None)
def test_monotone_solves_level_system(levels):
    # closed form satisfies the level equations with scale 1/top
    w = tuple(sorted(levels, reverse=True))
    probs = monotone_probabilities(w)
    assert abs(sum(probs) - 1) < 1e-12
    assert all(p >= 0 for p in probs)
    # nested subsets: row i of the membership matrix sums probs i..k
    for i, wi in enumerate(w):
        lhs = sum(probs[i:])
        assert abs(lhs - wi / w[0]) < 1e-9


def test_solve_bernoulli_corner_bond():
    # levels (J, 0) with the nested family: active probability 1 - e^{-J}
    J = 1.0
    from rcgibbs.rcr import monotone_system

    system = monotone_system((math.exp(J), 1.0), (0b0001, 0b1110))
    assert system.subsets == (0b0001, 0b1111)
    sol = solve_bernoulli(system)
    assert abs(sol.probs[0] - (1 - math.exp(-J))) < 1e-14
    assert sol.residual == 0.0  # closed-form path, no numeric solve
    assert not sol.degenerate


def test_solve_bernoulli_nonmonotone_by_substitution():
    # candidate family: {level1}, {level2}, {level1+level2}; solvable by LP
    w = np.array([2.0, 1.0])
    system = LevelSystem((2.0, 1.0), (0b01, 0b10), (0b01, 0b10, 0b11))
    sol = solve_bernoulli(system)
    A = system.membership_matrix()
    res = np.max(np.abs(A @ np.array(sol.probs) - sol.scale * w))
    assert res < 1e-10
    assert min(sol.probs) >= 0
    assert abs(sum(sol.probs) - 1) < 1e-12


def test_solve_bernoulli_infeasible():
    # single candidate containing only the top level cannot produce a
    # positive bottom level
    system = LevelSystem((2.0, 1.0), (0b01, 0b10), (0b01,))
    with pytest.raises(InfeasibleError):
        solve_bernoulli(system)


def test_solve_bernoulli_falls_back_to_the_lp(monkeypatch):
    # the minimum-norm point of this family has a negative entry, so the
    # solver takes the LP feasibility route
    lp = []
    real = rcr._lp_feasible
    monkeypatch.setattr(rcr, "_lp_feasible", lambda *args: lp.append(args) or real(*args))
    w = np.array([3.615, 2.6, 0.856, 0.806])
    system = LevelSystem(tuple(w), (1, 2, 4, 8), (1, 3, 5, 7, 15))
    tol = 1e-10
    sol = solve_bernoulli(system, tol=tol)
    assert len(lp) == 1
    assert sol.degenerate
    p = np.array(sol.probs)
    assert p.min() >= 0
    assert abs(p.sum() - 1) < 1e-12
    assert np.max(np.abs(system.membership_matrix() @ p - sol.scale * w)) <= tol


def test_solve_bernoulli_degenerate_flagged():
    # duplicated candidate subsets: solution not unique
    system = LevelSystem((2.0, 1.0), (0b01, 0b10), (0b01, 0b01, 0b11))
    sol = solve_bernoulli(system)
    assert sol.degenerate
    A = system.membership_matrix()
    res = np.max(np.abs(A @ np.array(sol.probs) - sol.scale * np.array([2.0, 1.0])))
    assert res < 1e-10


def test_level_system_rejects_split_levels():
    with pytest.raises(ValueError):
        LevelSystem((2.0, 1.0), (0b011, 0b100), (0b001,))


# ---------------------------------------------------------------------------
# Bases and reconstruction


def brute_reconstruct(spec, base):
    """Independent oracle: explicit sum over bond assignments."""
    vals = spec.alphabet.values
    table = {}
    for cfg in itertools.product(*[spec.domain_indices(v) for v in spec.region]):
        total = 0.0
        for assign in itertools.product(*[range(len(bb.subsets)) for bb in base.bonds]):
            nu = 1.0
            ok = True
            for bb, j in zip(base.bonds, assign):
                nu *= float(bb.probs[j])
                li = local_index(spec.alphabet.size, (cfg[spec.region.index(v)] for v in bb.inside))
                if not (bb.subsets[j] >> li) & 1:
                    ok = False
                    break
            if ok:
                total += nu
        table[tuple(vals[i] for i in cfg)] = total
    Z = sum(table.values())
    return {o: w / Z for o, w in table.items()}


def test_corner_chain_base_matches_printed_probabilities():
    spec = example1_spec(1.0, 1.0)
    base = monotone_base(spec)
    for bb in base.bonds:
        active = [p for s, p in zip(bb.subsets, bb.probs) if s != bb.full_mask]
        assert len(active) == 1
        assert abs(active[0] - (1 - math.exp(-1.0))) < 1e-14
    rec = reconstruct(spec, base)
    mu = gibbs_measure(spec)
    assert max(abs(rec.prob(o) - p) for o, p in mu.items()) < 1e-14


def test_roundtrip_randomized_float():
    for m in range(12):
        spec = random_binary_spec(m, seed=81, n_min=3, n_max=8,
                                  allow_forbidden=(m % 3 == 0),
                                  with_boundary=(m % 4 == 0))
        base = monotone_base(spec)
        rec = reconstruct(spec, base)
        mu = gibbs_measure(spec)
        assert max(abs(rec.prob(o) - p) for o, p in mu.items()) < 1e-10


def test_roundtrip_exact_rational():
    for m in range(6):
        spec = random_binary_spec(m, seed=91, exact=True, n_min=3, n_max=5)
        base = monotone_base(spec)
        rec = reconstruct(spec, base)
        mu = gibbs_measure(spec)
        for o, p in mu.items():
            assert rec.prob(o) == p


def test_reconstruct_matches_assignment_sum_oracle():
    for m in range(4):
        spec = random_binary_spec(m, seed=101, n_min=3, n_max=4)
        base = monotone_base(spec)
        rec = reconstruct(spec, base)
        ref = brute_reconstruct(spec, base)
        for o, p in ref.items():
            assert abs(rec.prob(o) - p) < 1e-12


def test_all_full_subsets_reconstruct_uniform():
    g = hypergraph(3, [(0, 1), (1, 2)])
    spec = ising_spec(g, 0.0)
    base = monotone_base(spec)
    for bb in base.bonds:
        assert bb.subsets == (bb.full_mask,)
    rec = reconstruct(spec, base)
    for o in itertools.product((-1, 1), repeat=3):
        assert abs(rec.prob(o) - 0.125) < 1e-14


# ---------------------------------------------------------------------------
# Bond marginal


def test_bond_marginal_corner_chain_no_joint_activity():
    spec = example1_spec(1.0, 1.0)
    base = monotone_base(spec)
    pm = bond_marginal(spec, base)
    # both bonds active means both restricted subsets chosen: incompatible
    assert pm.prob((0, 0)) == 0
    assert abs(pm.total() - 1) < 1e-12


def test_bond_marginal_single_ising_bond():
    g = hypergraph(2, [(0, 1)])
    J = 0.9
    spec = ising_spec(g, J)
    base = monotone_base(spec)
    pm = bond_marginal(spec, base)
    p = 1 - math.exp(-2 * J)
    want_active = p * 2 / (p * 2 + (1 - p) * 4)
    assert abs(pm.prob((0,)) - want_active) < 1e-13


def test_bond_marginal_no_bonds_point_mass():
    g = hypergraph(2, [])
    spec = GibbsSpec(g, SPIN, Interaction({}), (0, 1))
    base = monotone_base(spec)
    pm = bond_marginal(spec, base)
    assert pm.prob(()) == 1.0


def test_assignment_measure_counts():
    g = hypergraph(2, [(0, 1)])
    spec = ising_spec(g, 0.7)
    base = monotone_base(spec)
    rows = {a: (nu, n) for a, nu, n in assignment_measure(spec, base)}
    assert rows[(0,)][1] == 2  # restricted subset: equal spins
    assert rows[(1,)][1] == 4


def test_joint_spin_bond_marginal_is_measure():
    from rcgibbs.rcr import joint_spin_bond

    spec = example1_spec(1.0, 0.7)
    base = monotone_base(spec)
    joint = joint_spin_bond(spec, base)
    mu = gibbs_measure(spec)
    spin_marg = joint.map_outcomes(lambda o: o[0])
    for o, p in mu.items():
        assert abs(spin_marg.prob(o) - p) < 1e-12
    # supported on compatible pairs only
    for (cfg, assign), p in joint.items():
        for bb, j in zip(base.bonds, assign):
            li = local_index(
                spec.alphabet.size,
                (spec.alphabet.index(cfg[spec.region.index(v)]) for v in bb.inside),
            )
            assert (bb.subsets[j] >> li) & 1


# ---------------------------------------------------------------------------
# Symmetrization


def test_symmetrize_slice_base_is_fixed_point():
    spec = example1_spec(1.0, 0.7)
    sym_spec = symmetrized_spec(spec, (0, 0, 0))
    base = monotone_base(sym_spec)
    sym = symmetrize_base(sym_spec, base, (0, 0, 0))
    for bb, bb2 in zip(base.bonds, sym.bonds):
        assert bb.subsets == bb2.subsets
        for p, q in zip(bb.probs, bb2.probs):
            assert abs(p - q) < 1e-14


def test_symmetrize_splits_asymmetric_subset():
    # one free spin under a field: reflection through sum zero swaps the two
    # singleton subsets, so averaging splits their masses
    g = hypergraph(1, [(0,)])
    spec = GibbsSpec(g, SPIN, Interaction({0: BondTable.from_exponents([0.0, 0.0])}), (0,))
    bb = BondBase(
        vertices=(0,),
        inside=(0,),
        full_mask=0b11,
        subsets=(0b01, 0b11),
        probs=(0.4, 0.6),
    )
    base = RcrBase((bb,), 1, False)
    out = symmetrize_base(spec, base, (0,))
    got = dict(zip(out.bonds[0].subsets, out.bonds[0].probs))
    assert abs(got[0b01] - 0.2) < 1e-14
    assert abs(got[0b10] - 0.2) < 1e-14
    assert abs(got[0b11] - 0.6) < 1e-14


def test_symmetrize_base_keeps_reconstruction():
    specs = [random_binary_spec(m, seed=111, n_min=3, n_max=5) for m in range(4)]
    cases = [(spec, (0,) * len(spec.region)) for spec in specs]
    # slices that pin a vertex (|sigma_v| = 2 leaves one admissible value)
    pinned = example1_exact_spec(Fraction(3), Fraction(2))
    cases += [(pinned, (2, 0, 0)), (pinned, (0, -2, 0))]
    for spec, sigma in cases:
        try:
            sym_spec = symmetrized_spec(spec, sigma)
        except Exception:
            continue
        base = monotone_base(sym_spec)
        sym = symmetrize_base(sym_spec, base, sigma)
        a = reconstruct(sym_spec, base)
        b = reconstruct(sym_spec, sym)
        for o in a.outcomes():
            assert abs(a.prob(o) - b.prob(o)) < 1e-12


def test_slice_base_reconstructs_slice_measure_exactly():
    spec = example1_exact_spec(Fraction(3), Fraction(2))
    for sigma in ((0, 0, 0), (2, 0, 0), (0, -2, 0)):
        sym_spec = symmetrized_spec(spec, sigma)
        rec = reconstruct(sym_spec, monotone_base(sym_spec))
        want = nonoverlap_distribution(spec, sigma)
        assert rec.exact and want.exact
        for o in set(rec.outcomes()) | set(want.outcomes()):
            assert rec.prob(o) == want.prob(o)


def test_symmetrize_rejects_escaping_reflection():
    spec = example1_spec(1.0, 1.0)
    base = monotone_base(spec)
    with pytest.raises(NonSymmetrizableError):
        symmetrize_base(spec, base, (2, 2, 3))  # 3 - 1 = 2 is not a spin value


# ---------------------------------------------------------------------------
# Typed bases


def test_mns_single_bond_closed_form():
    g = hypergraph(2, [(0, 1)])
    J = 0.8
    spec = ising_spec(g, J)
    tb, spec2 = mns_base(spec)
    blue, red = tb.bonds[0], tb.bonds[1]
    assert abs(blue.probs[0] - (1 - math.exp(-4 * J))) < 1e-13
    assert abs(red.probs[0] - (1 - math.exp(-2 * J))) < 1e-13
    # blue and red sets are disjoint and non-full
    assert blue.subsets[0] & red.subsets[0] == 0
    assert blue.subsets[0] != blue.full_mask


def test_mns_single_bond_reconstructs_product():
    g = hypergraph(2, [(0, 1)])
    for J in (0.5, -0.9):
        spec = ising_spec(g, J)
        tb, spec2 = mns_base(spec)
        mu2 = gibbs_measure(spec2)
        rec = reconstruct(spec2, tb)
        assert max(abs(rec.prob(o) - p) for o, p in mu2.items()) < 1e-12


def test_mns_small_coupling_probabilities_vanish():
    g = hypergraph(2, [(0, 1)])
    spec = ising_spec(g, 1e-8)
    tb, _ = mns_base(spec)
    assert tb.bonds[0].probs[0] < 1e-7
    assert tb.bonds[1].probs[0] < 1e-7


def test_mns_zero_coupling_rejected():
    g = hypergraph(2, [(0, 1)])
    spec = ising_spec(g, 0.0)
    with pytest.raises(ValueError):
        mns_base(spec)


def test_mns_square_reconstructs_product_of_measures():
    g = build_grid(2, 2)
    spec = ea_spec(g, 1.0, seed=5)
    tb, spec2 = mns_base(spec)
    mu2 = gibbs_measure(spec2)
    rec = reconstruct(spec2, tb)
    assert max(abs(rec.prob(o) - p) for o, p in mu2.items()) < 1e-10


def test_mns_with_boundary_reconstructs():
    g = hypergraph(3, [(0, 1), (1, 2)])
    spec = ea_spec(g, 0.7, seed=2, region=(0, 1), boundary={2: -1})
    tb, spec2 = mns_base(spec)
    mu2 = gibbs_measure(spec2)
    rec = reconstruct(spec2, tb)
    assert max(abs(rec.prob(o) - p) for o, p in mu2.items()) < 1e-12


def test_typed_equals_one_typed_reconstruction():
    g = hypergraph(3, [(0, 1), (1, 2)])
    spec = ea_spec(g, 0.9, seed=3)
    tb, spec2 = mns_base(spec)
    one_typed = monotone_base(spec2)
    a = reconstruct(spec2, tb)
    b = reconstruct(spec2, one_typed)
    for o in a.outcomes():
        assert abs(a.prob(o) - b.prob(o)) < 1e-11


def test_typed_joint_single_bond_oracle():
    g = hypergraph(2, [(0, 1)])
    J = 0.6
    spec = ising_spec(g, J)
    tb, spec2 = mns_base(spec)
    tj = typed_joint(spec2, tb)
    # oracle: direct sum over the 16 spin pairs
    mu2 = gibbs_measure(spec2)
    blue, red = tb.bonds[0], tb.bonds[1]
    want = {}
    for o, p in mu2.items():
        li = local_index(
            spec2.alphabet.size,
            (spec2.alphabet.index(o[spec2.region.index(v)]) for v in blue.inside),
        )
        blue_ok = bool((blue.subsets[0] >> li) & 1)
        red_ok = bool((red.subsets[0] >> li) & 1)
        for ja in (0, 1):
            if ja == 0 and not blue_ok:
                continue
            for jb in (0, 1):
                if jb == 0 and not red_ok:
                    continue
                pr = (blue.probs[ja] / (blue.probs[0] * blue_ok + blue.probs[1])) * (
                    red.probs[jb] / (red.probs[0] * red_ok + red.probs[1])
                )
                key = ((ja, jb),)
                want[key] = want.get(key, 0) + p * pr
    for key, p in want.items():
        assert abs(tj.prob(key) - p) < 1e-12
