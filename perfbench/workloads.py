"""The benchmark's workloads: inputs from a seed, one operation, its check.

Every workload builds one mix of inputs from the run's seed during set-up.
The mix fixes what drives the cost (model sizes and kinds, sample counts),
so the figures move with the program, not with the seed's draw. The timed
loop runs the whole mix again and again (a round), so every input is timed
several times. Each operation is called through the program's module
attributes at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rcgibbs import percolation, sampling
from rcgibbs.experiments import ea, examples
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import example1_spec, ising_exact_spec, ising_spec

IBAR_FLOAT_TOL = 1e-9
MC_SAMPLES = 500
MC_TOL = 0.15
GLASS = dict(L=64, J=1.0, beta_scale=1.0, n_sweeps=100, n_samples=8, n_disorder=1)
GLASS_TOL = 0.01


@dataclass(frozen=True)
class Op:
    """One operation's input; key identifies it in the output digest."""

    kind: str
    key: tuple
    spec: object = None
    A: frozenset = frozenset()
    B: frozenset = frozenset()
    seed: int = 0
    periodic: bool = False


class Workload:
    """Defaults shared by the workloads; each subclass sets name,
    tail_pct (the latency percentile reported as op_ms_tail) and
    trace_rounds (the fixed work of a traced run), and build(seed)
    returns the mix: the list of inputs of one round."""

    def ops(self, op) -> int:
        """Operations one call performs."""
        return 1

    def refs(self, ops):
        """Reference answers computed after the timed section."""
        return None

    KNOWN_DEFECT = None

    def known(self, op, reason: str) -> bool:
        """True when a failed check is KNOWN_DEFECT, a defect of the program."""
        return False

    def z(self, op, out, refs):
        """Error over reported standard error, for estimates that have one."""
        return None


def _rng(seed: int, workload: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), workload])


def _grid_float(rng) -> object:
    """3x2 Ising grid with couplings in [0.2, 1.2] and a field in [0.1, 0.5]."""
    g = build_grid(3, 2)
    return ising_spec(g, rng.uniform(0.2, 1.2, len(g.bonds)).tolist(), h=float(rng.uniform(0.1, 0.5)))


def _pair(rng, n: int) -> tuple[frozenset, frozenset]:
    a, b = rng.choice(n, size=2, replace=False)
    return frozenset({int(a)}), frozenset({int(b)})


def _num(x) -> str:
    """Digest form: Fractions exactly, floats to 12 significant digits."""
    return str(x) if isinstance(x, Fraction) else f"{float(x):.12g}"


class Sweep(Workload):
    """C04's randomized verification, one model per operation.

    The mix holds 24 models of the C04 family at the run's seed: for each
    of the six graph kinds one model with each size 3..6 (the grid kind is
    always 6 sites), which is the family's own expected mix. A model's
    cost is set by its size, its bond count and how many table entries
    forbid a configuration (a 6-site cycle takes about 245, 172 and 120 ms
    with 0, 1 and 2 such entries), so the mix fixes all three: a slot of
    size n takes the seed's first model with n % 2 forbidden entries (the
    grid's four slots two of each), and the random kind's slots take one
    extra bond beyond the path. Then runs with different seeds do the same
    amount of work.
    """

    name = "sweep"
    tail_pct = 90
    trace_rounds = 2
    GRID, RANDOM = 2, 3  # indices in _random_spec's kind list

    def build(self, seed: int):
        need = {}
        for kind in range(6):
            for n in (3, 4, 5, 6):
                key = (kind, 6, n % 2) if kind == self.GRID else (kind, n, n % 2)
                need[key] = need.get(key, 0) + 1
        found: dict[tuple, list] = {k: [] for k in need}
        m = 0
        while any(len(found[k]) < need[k] for k in need):
            m += 1
            if m > 20000:
                raise RuntimeError("could not fill the sweep mix")
            spec = examples._random_spec(m, seed)
            n = len(spec.region)
            if m % 6 == self.RANDOM and len(spec.graph.bonds) != n:
                continue
            zeros = sum(f == 0 for t in spec.interaction.tables.values() for f in t.factors)
            key = (m % 6, n, zeros)
            if key in found and len(found[key]) < need[key]:
                found[key].append(Op("sweep", (m,), spec))
        return sorted((op for lst in found.values() for op in lst), key=lambda o: o.key)

    def warmup(self):
        examples.check_model_bounds(example1_spec(1.0, 1.0))

    def run(self, op):
        return examples.check_model_bounds(op.spec)

    def check(self, op, out, refs):
        bad = out["event_violations"] + out["cov_violations"]
        return f"{bad} bound violations" if bad else None

    def record(self, op, out):
        return [
            op.key[0],
            out["n_support_pairs"],
            _num(out["worst_event_slack"]),
            _num(out["worst_cov_slack"]),
        ]


def sweep_aggregate(outs) -> dict:
    """The summary sweep_correlation_bound reports, from per-model results."""
    return {
        "violations": int(sum(r["event_violations"] + r["cov_violations"] for r in outs)),
        "worst_event_slack": float(max(r["worst_event_slack"] for r in outs)),
        "worst_cov_slack": float(max(r["worst_cov_slack"] for r in outs)),
        "support_pairs_checked": int(sum(r["n_support_pairs"] for r in outs)),
    }


class Ibar(Workload):
    """One connection query answered by both exact routes.

    The mix is three queries: a 3x2 float grid with a field, a 3x2 grid
    with a Fraction factor (the routes must agree literally), and a 7-site
    float chain, which sends integrated_rc down its vectorized route.
    """

    name = "ibar"
    tail_pct = 75
    trace_rounds = 2
    KNOWN_DEFECT = (
        "known defect: the vectorized integrated_rc route (binary float "
        "regions of 7 or more sites) numbers the bonds in reverse bit order"
    )

    def build(self, seed: int):
        rng = _rng(seed, 2)
        chain = hypergraph(7, [(i, i + 1) for i in range(6)])
        spec = _grid_float(rng)
        A, B = _pair(rng, 6)
        grid_float = Op("grid_float", ("grid_float",), spec, A, B)
        q = int(rng.integers(2, 5))
        factor = Fraction(int(rng.integers(q + 1, 2 * q + 1)), q)
        A, B = _pair(rng, 6)
        grid_exact = Op("grid_exact", ("grid_exact",), ising_exact_spec(build_grid(3, 2), factor), A, B)
        spec = ising_spec(chain, rng.uniform(0.2, 1.2, 6).tolist())
        chain7 = Op("chain7", ("chain7",), spec, frozenset({0}), frozenset({1}))
        return [grid_float, grid_exact, chain7]

    def warmup(self):
        spec = ising_spec(hypergraph(3, [(0, 1), (1, 2)]), 0.5)
        self.run(Op("warmup", (), spec, frozenset({0}), frozenset({2})))

    def run(self, op):
        out = {}
        try:
            out["profile"] = percolation.sigma_connection_profile(op.spec, op.A, op.B)[1]
        except Exception as e:  # a route that raises is an output to check
            out["profile"] = f"raised {type(e).__name__}: {e}"
        try:
            out["integrated"] = percolation.integrated_rc(op.spec).connection_probability(op.A, op.B)
        except Exception as e:
            out["integrated"] = f"raised {type(e).__name__}: {e}"
        return out

    def check(self, op, out, refs):
        p, q = out["profile"], out["integrated"]
        for route, v in (("sigma_connection_profile", p), ("integrated_rc", q)):
            if isinstance(v, str):
                return f"{route} {v}"
        if op.spec.exact:
            if not (isinstance(p, Fraction) and p == q):
                return f"exact routes differ: {p} vs {q}"
        elif abs(p - q) > IBAR_FLOAT_TOL:
            return f"routes differ: {float(p):.6g} vs {float(q):.6g}"
        return None

    def known(self, op, reason):
        return op.kind == "chain7" and reason.startswith("routes differ")

    def record(self, op, out):
        vals = [v if isinstance(v, str) else _num(v) for v in (out["profile"], out["integrated"])]
        return [list(op.key), sorted(op.A), sorted(op.B), *vals]


class MonteCarlo(Workload):
    """One mc_connection_probability call at a fixed sample count.

    The mix is eight calls, two on each of four 3x2 float grids, each with
    its own sampler seed. The exact answers are computed after the timed
    section.
    """

    name = "mc"
    tail_pct = 75
    trace_rounds = 2

    def build(self, seed: int):
        rng = _rng(seed, 3)
        models = [(_grid_float(rng), *_pair(rng, 6)) for _ in range(4)]
        seeds = rng.integers(0, 2**31, size=(2, len(models)))
        return [
            Op("mc", (j,), spec, A, B, seed=int(seeds[i, j]))
            for i in range(2)
            for j, (spec, A, B) in enumerate(models)
        ]

    def warmup(self):
        spec = ising_spec(hypergraph(3, [(0, 1), (1, 2)]), 0.5)
        sampling.mc_connection_probability(spec, {0}, {2}, 16, seed=0, burn_in=2, threads=1)

    def run(self, op):
        return sampling.mc_connection_probability(op.spec, op.A, op.B, MC_SAMPLES, seed=op.seed, threads=1)

    def refs(self, ops):
        out = {}
        for op in ops:
            if op.key not in out:
                irc = percolation.integrated_rc(op.spec)
                out[op.key] = float(irc.connection_probability(op.A, op.B))
        return out

    def check(self, op, out, refs):
        err = abs(out["estimate"] - refs[op.key])
        return f"estimate off by {err:.4f}" if err > MC_TOL else None

    def z(self, op, out, refs) -> float:
        return abs(out["estimate"] - refs[op.key]) / out["stderr"]

    def record(self, op, out):
        return [op.key[0], op.seed, repr(out["estimate"]), repr(out["stderr"]), out["n_samples"]]


class Glass(Workload):
    """The quenched +-J glass driver at L=64, open then periodic.

    One operation is one two-copy sample; a call draws n_samples of them
    after its own equilibration, which counts in the time. The mix is one
    open and one periodic call, each on its own disorder realization.
    """

    name = "glass"
    tail_pct = 75
    trace_rounds = 1

    def build(self, seed: int):
        rng = _rng(seed, 4)
        seeds = rng.integers(0, 2**31, size=2)
        return [Op("glass", (p,), seed=int(seeds[p]), periodic=bool(p)) for p in (0, 1)]

    def warmup(self):
        for periodic in (False, True):
            self._call(8, 0, periodic, n_sweeps=4, n_samples=2)

    def _call(self, L, seed, periodic, n_sweeps, n_samples):
        with warnings.catch_warnings():
            # equilibration is reported through tau and the digest
            warnings.simplefilter("ignore")
            return ea.ea_mns_percolation(
                L, GLASS["J"], GLASS["beta_scale"], seed=seed, n_sweeps=n_sweeps,
                n_samples=n_samples, n_disorder=GLASS["n_disorder"], periodic=periodic, threads=1,
            )

    def ops(self, op) -> int:
        return GLASS["n_samples"]

    def run(self, op):
        return self._call(GLASS["L"], op.seed, op.periodic, GLASS["n_sweeps"], GLASS["n_samples"])

    def check(self, op, out, refs):
        bj = GLASS["beta_scale"] * GLASS["J"]
        for key, closed in (("blue_density", 1 - math.exp(-4 * bj)), ("red_density", 1 - math.exp(-2 * bj))):
            err = abs(out[key]["mean"] - closed)
            if err > GLASS_TOL:
                return f"{key} off its closed form by {err:.4f}"
        return None

    def record(self, op, out):
        eq = out["equilibration"]
        return [
            list(op.key), repr(out["blue_density"]["mean"]), repr(out["red_density"]["mean"]),
            repr(out["largest_blue_nonoverlap_fraction"]["mean"]), repr(out["crossing_x"]["mean"]),
            repr(eq["tau_max"]), eq["gaps"], eq["all_equilibrated"],
        ]


WORKLOADS = {w.name: w for w in (Sweep(), Ibar(), MonteCarlo(), Glass())}
