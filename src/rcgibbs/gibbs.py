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

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import AllForbiddenError, RcgibbsError, check_cap
from .lattice import Hypergraph

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


@dataclass(frozen=True)
class BondTable:
    """Boltzmann factors for one hyperbond, indexed by local configuration."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty bond table")
        for f in self.factors:
            if f < 0 or not (is_exact_number(f) or math.isfinite(f)):
                raise ValueError(f"Boltzmann factor {f} is negative or not finite")
        if all(f == 0 for f in self.factors):
            raise ValueError("bond table forbids every local configuration")

    @classmethod
    def from_exponents(cls, exponents) -> "BondTable":
        """Build from bond energies; None marks a forbidden configuration."""
        try:
            return cls(tuple(0.0 if e is None else math.exp(e) for e in exponents))
        except OverflowError:
            raise ValueError("a Boltzmann factor overflows a float; rescale couplings") from None

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
            if not 0 <= v < self.graph.n_vertices:
                raise ValueError(f"boundary vertex {v} outside graph vertex range")
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

    def domain_mask(self) -> np.ndarray:
        """(len(region), S) bool: which value indices each region vertex
        allows. Built once per spec; the array is read-only."""
        return self._domain_mask

    @functools.cached_property
    def _domain_mask(self) -> np.ndarray:
        mask = np.zeros((len(self.region), self.alphabet.size), bool)
        for p, v in enumerate(self.region):
            mask[p, list(self.domain_indices(v))] = True
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def _effective_bonds(self) -> tuple["EffectiveBond", ...]:
        rset = set(self.region)
        S = self.alphabet.size
        out = []
        for k, b in enumerate(self.graph.bonds):
            inside = tuple(v for v in b if v in rset)
            if not inside:
                continue
            outside = tuple(v for v in b if v not in rset)
            full = self.interaction.tables[k].factors
            if not outside:
                out.append(EffectiveBond(k, inside, b, full))
                continue
            if any(v not in self.boundary for v in outside):
                continue
            out_idx = {v: self.alphabet.index(self.boundary[v]) for v in outside}
            eff = []
            for x in itertools.product(range(S), repeat=len(inside)):
                vals = dict(zip(inside, x))
                vals.update(out_idx)
                eff.append(full[local_index(S, (vals[v] for v in b))])
            out.append(EffectiveBond(k, inside, b, tuple(eff)))
        return tuple(out)

    @functools.cached_property
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
    is not fully covered by the boundary condition are dropped (free).
    Derived once per spec; each call returns a fresh list."""
    return list(spec._effective_bonds)


def config_weights(spec: GibbsSpec, tables=None, domains=None, exact=None) -> np.ndarray:
    """Weight of every region configuration: a product of per-bond tables.

    tables is a sequence of (inside, table) pairs; inside is a sorted tuple
    of region vertices and table holds one entry per full-alphabet local
    configuration of inside, as in EffectiveBond. None takes every
    effective bond of the spec. domains gives each region vertex's alphabet
    indices (default: spec.domain_indices). Returns a flat array in
    itertools.product(*domains) order whose entries are the int 1 times the
    tables' entries in table order: float64, or an object array of the
    tables' exact numbers when exact (default: spec.exact), so int tables
    give ints. Each table is broadcast over the product space, so memory
    beyond the result stays at one table. Past the "states" cap it raises
    TooLargeError before allocating; a float weight that overflows raises
    RcgibbsError.
    """
    if tables is None:
        tables = [(eb.inside, eb.table) for eb in effective_bonds(spec)]
    if domains is None:
        domains = [spec.domain_indices(v) for v in spec.region]
    if exact is None:
        exact = spec.exact
    shape = tuple(len(d) for d in domains)
    check_cap("states", math.prod(shape))
    pos = {v: p for p, v in enumerate(spec.region)}
    S = spec.alphabet.size
    if exact:
        w = np.full(shape, 1, dtype=object)
    else:
        w = np.ones(shape)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for inside, table in tables:
            axes = [pos[v] for v in inside]
            t = np.asarray(table, dtype=w.dtype).reshape((S,) * len(axes))
            for k, p in enumerate(axes):
                t = t.take(domains[p], axis=k)
            w *= t.reshape([shape[p] if p in axes else 1 for p in range(len(shape))])
    if not exact and not np.isfinite(w).all():
        raise RcgibbsError("configuration weight overflow; rescale couplings")
    return w.reshape(-1)


def product_positions(ids: np.ndarray, sizes):
    """Yield each coordinate's positions at the flat indices ids of a product
    of the given sizes, in itertools.product order."""
    radix = math.prod(sizes)
    for n in sizes:
        radix //= n
        yield ids // radix % n


def product_outcomes(ids: np.ndarray, domains) -> list:
    """The tuples of itertools.product(*domains) at the flat indices ids."""
    sizes = [len(d) for d in domains]
    cols = [np.asarray(d)[k].tolist() for d, k in zip(domains, product_positions(ids, sizes))]
    return list(zip(*cols)) if cols else [()] * len(ids)


def _scalars(w: np.ndarray):
    """Python scalars of a flat array, converted 2**16 at a time."""
    for lo in range(0, len(w), 1 << 16):
        yield from w[lo:lo + (1 << 16)].tolist()


def _total(weights, exact: bool):
    """A normalizing total: exact weights summed exactly, floats by
    math.fsum, correctly rounded. Builtin sum adds floats one after another
    on Python 3.11 (compensated on 3.12), 1.7e-13 relative off on the 3^12
    σ of a 12-site chain's overlap law. Finite floats whose sum overflows
    give inf, as that sum would."""
    if exact:
        return sum(weights)
    try:
        return math.fsum(weights)
    except OverflowError:
        return math.inf


class FiniteDistribution:
    """Probability table over a finite outcome space, with two backings.

    Outcomes are hashable (typically tuples of spin values aligned with
    `sites`). Weights are floats or exact rationals. The constructor takes
    a dict table and checks nonnegativity and normalization (exact, or to
    1e-12 for floats). over_product holds a flat weight array over
    itertools.product(*domains), in that order, and builds outcome tuples
    only while iterating; every configuration of the product space is an
    outcome, zero-weight ones included. Both backings answer every method
    the same way, summing in outcome order.
    """

    __slots__ = ("_table", "_domains", "_weights", "_index", "sites", "exact")

    def __init__(self, table: dict, sites=None, normalize: bool = False):
        if not table:
            raise ValueError("empty distribution")
        exact = all(is_exact_number(w) for w in table.values())
        total = _total(table.values(), exact)
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
        self._domains = self._weights = self._index = None
        self.sites = tuple(sites) if sites is not None else None
        self.exact = exact

    @classmethod
    def over_product(cls, domains, weights: np.ndarray, sites=None, normalize: bool = False):
        """Distribution over the product of the per-coordinate domains.

        weights is flat, in itertools.product(*domains) order: float64, or
        object holding exact rationals. It is used as given, or divided by
        its total (_total) when normalize is set; exact weights divide as
        Fractions, so int weights give Fractions too.
        """
        if normalize:
            if (weights < 0).any():
                raise ValueError("negative weight")
            total = _total(_scalars(weights), weights.dtype == object)
            if total == 0:
                raise ValueError("cannot normalize zero measure")
            weights = weights / (Fraction(total) if weights.dtype == object else total)
        self = cls.__new__(cls)
        self._table = None
        self._domains = tuple(tuple(d) for d in domains)
        self._weights = weights
        self._index = tuple({x: i for i, x in enumerate(d)} for d in self._domains)
        self.sites = tuple(sites) if sites is not None else None
        self.exact = weights.dtype == object
        return self

    @property
    def weights(self) -> np.ndarray | None:
        """The flat weight array of a product-backed distribution, else None."""
        return self._weights

    @property
    def domains(self) -> tuple | None:
        """The per-coordinate domains of a product-backed distribution, else None."""
        return self._domains

    def outcomes(self):
        if self._weights is None:
            return self._table.keys()
        return itertools.product(*self._domains)

    def items(self):
        if self._weights is None:
            return self._table.items()
        return zip(itertools.product(*self._domains), _scalars(self._weights))

    def __len__(self):
        if self._weights is None:
            return len(self._table)
        return len(self._weights)

    def prob(self, outcome):
        if self._weights is None:
            return self._table.get(outcome, 0)
        if len(outcome) != len(self._index):
            return 0
        i = 0
        for index, x in zip(self._index, outcome):
            j = index.get(x)
            if j is None:
                return 0
            i = i * len(index) + j
        return self._weights.item(i)

    def event(self, predicate):
        return sum(w for o, w in self.items() if predicate(o))

    def expectation(self, f):
        return sum(w * f(o) for o, w in self.items())

    def covariance(self, f, g):
        ef = self.expectation(f)
        eg = self.expectation(g)
        efg = self.expectation(lambda o: f(o) * g(o))
        return efg - ef * eg

    def site_means(self) -> list:
        """Expectation of each outcome coordinate, as expectation sums it.

        The product backing multiplies the weight array by each
        coordinate's values instead of calling a function per outcome.
        """
        if self._weights is None:
            n = len(next(iter(self._table)))
            return [self.expectation(lambda o, i=i: o[i]) for i in range(n)]
        shape = tuple(len(d) for d in self._domains)
        w = self._weights.reshape(shape)
        means = []
        for i, d in enumerate(self._domains):
            vals = np.asarray(d, dtype=w.dtype).reshape([-1 if j == i else 1 for j in range(len(shape))])
            means.append(sum(_scalars((w * vals).reshape(-1))))
        return means

    def condition(self, predicate) -> "FiniteDistribution":
        sub = {o: w for o, w in self.items() if predicate(o) and w > 0}
        if not sub:
            raise ZeroDivisionError("conditioning on a null event")
        return FiniteDistribution(sub, sites=self.sites, normalize=True)

    def map_outcomes(self, fn) -> "FiniteDistribution":
        out: dict = {}
        for o, w in self.items():
            key = fn(o)
            out[key] = out.get(key, 0) + w
        return FiniteDistribution(out)

    def total(self):
        if self._weights is None:
            return sum(self._table.values())
        return sum(_scalars(self._weights))


def gibbs_measure(spec: GibbsSpec) -> FiniteDistribution:
    """Normalized Gibbs distribution over the region's configuration space.

    Weight of a configuration is the product of effective bond factors
    (interior bonds plus straddling bonds with the boundary folded in), from
    config_weights; the partition function is their _total (exact, or
    math.fsum for floats).
    Returns a product-backed FiniteDistribution over the region's domain
    values at every size.
    """
    w = config_weights(spec)
    Z = _total(_scalars(w), w.dtype == object)
    if Z == 0:
        raise AllForbiddenError("all configurations forbidden")
    if not spec.exact and not math.isfinite(Z):
        raise RcgibbsError("partition function overflow; rescale couplings")
    w /= Fraction(Z) if w.dtype == object else Z  # int weights divide as Fractions too
    return FiniteDistribution.over_product(
        [spec.domain_values(v) for v in spec.region], w, sites=spec.region
    )
