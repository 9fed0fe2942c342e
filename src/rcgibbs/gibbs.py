"""Finite alphabets, interactions, finite-volume Gibbs measures, enumeration.

Conventions used throughout the package:

* Interaction tables store Boltzmann factors (the exponential of the bond
  energy, plus-sign convention), not exponents. A factor of 0 is the
  explicit marker for a forbidden local configuration, so hard constraints
  never require extended-real arithmetic.
* Factors may be floats or exact rationals (fractions.Fraction). When every
  factor in a spec is rational, all downstream enumeration is carried out
  in exact arithmetic.
* A local configuration of a bond with sorted vertices (v0 < ... < vm-1) is
  indexed big-endian: index = sum_k alphabet_index(value at vk) * S**(m-1-k)
  with S the alphabet size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import AllForbiddenError, TooLargeError
from .lattice import Hypergraph
from .rng import run_tasks

DEFAULT_STATE_CAP = 1 << 24
_MATERIALIZE_CAP = 1 << 16
FLOAT_TOL = 1e-12


def is_exact_number(x) -> bool:
    return isinstance(x, Rational)


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of integer spin values, e.g. (-1, 1) or (0, 1)."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if len(set(vals)) != len(vals) or len(vals) < 2:
            raise ValueError("alphabet needs >= 2 distinct integer values")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return len(self.values)

    def index(self, value: int) -> int:
        return self.values.index(value)


SPIN = Alphabet((-1, 1))
OCCUPANCY = Alphabet((0, 1))


@dataclass(frozen=True)
class SpinConfig:
    """A spin assignment on a sorted vertex tuple.

    Distribution outcomes are plain value tuples for speed; this wrapper
    names the pairing with its sites for API boundaries.
    """

    sites: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.values):
            raise ValueError("sites and values must align")

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.sites, self.values))

    def restrict(self, region) -> "SpinConfig":
        keep = [(v, x) for v, x in zip(self.sites, self.values) if v in set(region)]
        return SpinConfig(tuple(v for v, _ in keep), tuple(x for _, x in keep))


@dataclass(frozen=True)
class BondTable:
    """Boltzmann factors for one hyperbond, indexed by local configuration."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty bond table")
        for f in self.factors:
            if f < 0:
                raise ValueError("negative Boltzmann factor")
        if all(f == 0 for f in self.factors):
            raise ValueError("bond table forbids every local configuration")

    @classmethod
    def from_exponents(cls, exponents) -> "BondTable":
        """Build from bond energies; None marks a forbidden configuration."""
        return cls(tuple(0.0 if e is None else math.exp(e) for e in exponents))

    @classmethod
    def from_factors(cls, factors) -> "BondTable":
        return cls(tuple(factors))

    @property
    def exact(self) -> bool:
        return all(is_exact_number(f) for f in self.factors)


@dataclass(frozen=True)
class Interaction:
    """Per-bond tables keyed by bond index in the hypergraph bond list."""

    tables: dict[int, BondTable] = field(default_factory=dict)

    def table(self, bond_index: int) -> BondTable:
        return self.tables[bond_index]


def local_index(alphabet_size: int, value_indices) -> int:
    idx = 0
    for vi in value_indices:
        idx = idx * alphabet_size + vi
    return idx


def table_size(alphabet_size: int, bond_len: int) -> int:
    return alphabet_size**bond_len


@dataclass(frozen=True)
class GibbsSpec:
    """A finite-volume Gibbs measure specification.

    boundary maps exterior vertices to fixed spin values. domains
    optionally restricts the allowed values per region vertex (used for
    overlap-slice measures); None means the full alphabet everywhere.
    """

    graph: Hypergraph
    alphabet: Alphabet
    interaction: Interaction
    region: tuple[int, ...]
    boundary: dict[int, int] = field(default_factory=dict)
    domains: dict[int, tuple[int, ...]] | None = None

    def __post_init__(self):
        reg = tuple(sorted(set(self.region)))
        object.__setattr__(self, "region", reg)
        rset = set(reg)
        if reg and (reg[0] < 0 or reg[-1] >= self.graph.n_vertices):
            raise ValueError("region outside graph vertex range")
        for v, val in self.boundary.items():
            if v in rset:
                raise ValueError(f"boundary vertex {v} lies inside the region")
            self.alphabet.index(val)
        if self.domains is not None:
            for v, vals in self.domains.items():
                if v not in rset:
                    raise ValueError(f"domain restriction on non-region vertex {v}")
                if not vals:
                    raise ValueError(f"empty domain at vertex {v}")
                for val in vals:
                    self.alphabet.index(val)
        for k, b in enumerate(self.graph.bonds):
            inter = sum(1 for u in b if u in rset)
            if inter == 0:
                continue
            if k not in self.interaction.tables:
                raise ValueError(f"no interaction table for bond {k} = {b}")
            t = self.interaction.tables[k]
            if len(t.factors) != table_size(self.alphabet.size, len(b)):
                raise ValueError(f"bond table {k} has wrong size")

    def domain_values(self, v: int) -> tuple[int, ...]:
        if self.domains is not None and v in self.domains:
            return tuple(self.domains[v])
        return self.alphabet.values

    def domain_indices(self, v: int) -> tuple[int, ...]:
        return tuple(self.alphabet.index(val) for val in self.domain_values(v))

    @property
    def exact(self) -> bool:
        rset = set(self.region)
        return all(
            t.exact
            for k, t in self.interaction.tables.items()
            if any(u in rset for u in self.graph.bonds[k])
        )

    def n_states(self) -> int:
        n = 1
        for v in self.region:
            n *= len(self.domain_values(v))
        return n

    def full_binary(self) -> bool:
        return self.alphabet.size == 2 and (
            self.domains is None
            or all(len(self.domain_values(v)) == 2 for v in self.region)
        )


@dataclass(frozen=True)
class EffectiveBond:
    """A bond's contribution restricted to the region, boundary folded in.

    `inside` is the sorted tuple of region vertices of the bond; `vertices`
    keeps the full vertex set for connectivity purposes. `table` has one
    factor per full-alphabet local configuration of `inside`.
    """

    index: int
    inside: tuple[int, ...]
    vertices: tuple[int, ...]
    table: tuple


def effective_bonds(spec: GibbsSpec) -> list[EffectiveBond]:
    """Region-restricted bond tables; straddling bonds whose exterior part
    is not fully covered by the boundary condition are dropped (free)."""
    rset = set(spec.region)
    S = spec.alphabet.size
    out = []
    for k, b in enumerate(spec.graph.bonds):
        inside = tuple(v for v in b if v in rset)
        if not inside:
            continue
        outside = tuple(v for v in b if v not in rset)
        full = spec.interaction.tables[k].factors
        if not outside:
            out.append(EffectiveBond(k, inside, b, full))
            continue
        if any(v not in spec.boundary for v in outside):
            continue
        out_idx = {v: spec.alphabet.index(spec.boundary[v]) for v in outside}
        m = len(inside)
        eff = []
        for x in itertools.product(range(S), repeat=m):
            vals = dict(zip(inside, x))
            vals.update(out_idx)
            eff.append(full[local_index(S, (vals[v] for v in b))])
        out.append(EffectiveBond(k, inside, b, tuple(eff)))
    return out


class FiniteDistribution:
    """Explicit probability table over a finite outcome space.

    Outcomes are hashable (typically tuples of spin values aligned with
    `sites`). Weights are floats or exact rationals; construction checks
    nonnegativity and normalization (exact, or to 1e-12 for floats).
    """

    __slots__ = ("_table", "sites", "exact")

    def __init__(self, table: dict, sites=None, normalize: bool = False):
        if not table:
            raise ValueError("empty distribution")
        exact = all(is_exact_number(w) for w in table.values())
        total = sum(table.values())
        if any(w < 0 for w in table.values()):
            raise ValueError("negative weight")
        if normalize:
            if total == 0:
                raise ValueError("cannot normalize zero measure")
            if exact:
                table = {o: Fraction(w, 1) / total for o, w in table.items()}
            else:
                table = {o: w / total for o, w in table.items()}
        else:
            if exact and total != 1:
                raise ValueError(f"weights sum to {total} != 1")
            if not exact and abs(total - 1) > FLOAT_TOL:
                raise ValueError(f"weights sum to {total} != 1 beyond tolerance")
        self._table = table
        self.sites = tuple(sites) if sites is not None else None
        self.exact = exact

    def outcomes(self):
        return self._table.keys()

    def items(self):
        return self._table.items()

    def __len__(self):
        return len(self._table)

    def prob(self, outcome):
        return self._table.get(outcome, 0)

    def event(self, predicate):
        return sum(w for o, w in self._table.items() if predicate(o))

    def expectation(self, f):
        return sum(w * f(o) for o, w in self._table.items())

    def covariance(self, f, g):
        ef = self.expectation(f)
        eg = self.expectation(g)
        efg = self.expectation(lambda o: f(o) * g(o))
        return efg - ef * eg

    def condition(self, predicate) -> "FiniteDistribution":
        sub = {o: w for o, w in self._table.items() if predicate(o) and w > 0}
        if not sub:
            raise ZeroDivisionError("conditioning on a null event")
        return FiniteDistribution(sub, sites=self.sites, normalize=True)

    def map_outcomes(self, fn) -> "FiniteDistribution":
        out: dict = {}
        for o, w in self._table.items():
            key = fn(o)
            out[key] = out.get(key, 0) + w
        return FiniteDistribution(out)

    def total(self):
        return sum(self._table.values())


class PackedSpinDistribution:
    """Array-backed distribution over packed binary spin configurations.

    Used for large full-binary enumerations where a dict table would not
    fit; bit p of a packed index holds the alphabet index of sites[p].
    """

    __slots__ = ("weights", "sites", "values")

    def __init__(self, weights: np.ndarray, sites, values):
        self.weights = weights
        self.sites = tuple(sites)
        self.values = tuple(values)

    def __len__(self):
        return len(self.weights)

    def decode(self, packed: int) -> tuple:
        return tuple(self.values[(packed >> p) & 1] for p in range(len(self.sites)))

    def prob(self, outcome) -> float:
        packed = 0
        for p, val in enumerate(outcome):
            packed |= self.values.index(val) << p
        return float(self.weights[packed])

    def expectation_packed(self, packed_fn, chunk: int = 1 << 20) -> float:
        """packed_fn maps an int64 array of packed configs to values."""
        n = len(self.weights)
        acc = 0.0
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            idx = np.arange(lo, hi, dtype=np.int64)
            acc += float(np.dot(self.weights[lo:hi], packed_fn(idx)))
        return acc

    def total(self) -> float:
        return float(self.weights.sum())


def _enumerate_weights_python(spec: GibbsSpec, bonds: list[EffectiveBond]):
    S = spec.alphabet.size
    region = spec.region
    pos = {v: p for p, v in enumerate(region)}
    dom = [spec.domain_indices(v) for v in region]
    lookups = []
    for eb in bonds:
        positions = tuple(pos[v] for v in eb.inside)
        lookups.append((positions, eb.table))
    one = Fraction(1) if spec.exact else 1.0
    outcomes = []
    weights = []
    for cfg in itertools.product(*dom):
        w = one
        for positions, tab in lookups:
            li = 0
            for p in positions:
                li = li * S + cfg[p]
            w = w * tab[li]
            if w == 0:
                break
        outcomes.append(cfg)
        weights.append(w)
    return outcomes, weights


def _packed_weights_binary(spec: GibbsSpec, bonds: list[EffectiveBond], threads: int = 1):
    region = spec.region
    pos = {v: p for p, v in enumerate(region)}
    n = len(region)
    N = 1 << n
    specs = []
    for eb in bonds:
        positions = [pos[v] for v in eb.inside]
        tab = np.asarray([float(f) for f in eb.table])
        specs.append((positions, tab))

    def compute(bounds):
        lo, hi = bounds
        idx = np.arange(lo, hi, dtype=np.int64)
        w = np.ones(hi - lo)
        for positions, tab in specs:
            li = np.zeros(hi - lo, dtype=np.int64)
            for p in positions:
                li = (li << 1) | ((idx >> p) & 1)
            w *= tab[li]
        return w

    chunk = 1 << 20
    if N <= chunk:
        return compute((0, N))
    ranges = [(lo, min(lo + chunk, N)) for lo in range(0, N, chunk)]
    parts = run_tasks(compute, ranges, threads=threads)
    return np.concatenate(parts)


def gibbs_measure(
    spec: GibbsSpec,
    max_states: int = DEFAULT_STATE_CAP,
    threads: int = 1,
):
    """Normalized Gibbs distribution over the region's configuration space.

    Weight of a configuration is the product of effective bond factors
    (interior bonds plus straddling bonds with the boundary folded in).
    Returns a FiniteDistribution keyed by tuples of spin values for spaces
    up to 2**20 states, and a PackedSpinDistribution above that.
    """
    nst = spec.n_states()
    if nst > max_states:
        raise TooLargeError(f"{nst} states exceeds cap {max_states}")
    bonds = effective_bonds(spec)
    if not spec.region:
        return FiniteDistribution({(): Fraction(1) if spec.exact else 1.0})
    if spec.full_binary() and not spec.exact and nst > 4096:
        w = _packed_weights_binary(spec, bonds, threads=threads)
        Z = float(w.sum())
        if Z <= 0:
            raise AllForbiddenError("all configurations forbidden")
        if not math.isfinite(Z):
            raise OverflowError("partition function overflow; rescale couplings")
        w /= Z
        if nst > _MATERIALIZE_CAP:
            return PackedSpinDistribution(w, spec.region, spec.alphabet.values)
        vals = spec.alphabet.values
        n = len(spec.region)
        table = {
            tuple(vals[(c >> p) & 1] for p in range(n)): float(w[c])
            for c in range(nst)
        }
        return FiniteDistribution(table, sites=spec.region)
    outcomes, weights = _enumerate_weights_python(spec, bonds)
    Z = sum(weights)
    if Z == 0:
        raise AllForbiddenError("all configurations forbidden")
    if not spec.exact and not math.isfinite(float(Z)):
        raise OverflowError("partition function overflow; rescale couplings")
    vals = spec.alphabet.values
    table = {
        tuple(vals[i] for i in cfg): w / Z
        for cfg, w in zip(outcomes, weights)
    }
    return FiniteDistribution(table, sites=spec.region)

