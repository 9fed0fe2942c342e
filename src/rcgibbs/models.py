"""Model templates and the structured model-file format.

A model file is JSON with keys:

    graph        {"n": int, "bonds": [[v, ...], ...]} or {"grid": "WxH",
                 "periodic": bool} or {"tree": "DEPTHxBRANCH"}
    alphabet     list of integer spin values (template default otherwise)
    interaction  {"template": "ising"|"hardcore"|"ea_pm_j"|"example1", ...}
                 or {"tables": [{"bond": k, "exponents": [...]} , ...]}
                 (null exponent = forbidden configuration)
    region       "all" or list of vertices
    boundary     {"vertex": value, ...}
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError
from .gibbs import Alphabet, BondTable, GibbsSpec, Interaction, OCCUPANCY, SPIN
from .lattice import Hypergraph, build_cayley_tree, build_grid, graph_from_dict, hypergraph
from .rng import stream


def pair_energy_table(alphabet: Alphabet, energy_fn) -> BondTable:
    """Table for a pair bond from energy_fn(value_i, value_j)."""
    vals = alphabet.values
    return BondTable.from_exponents(
        [energy_fn(a, b) for a in vals for b in vals]
    )


def site_energy_table(alphabet: Alphabet, energy_fn) -> BondTable:
    return BondTable.from_exponents([energy_fn(a) for a in alphabet.values])


def ising_tables(graph: Hypergraph, J, h: float = 0.0) -> tuple[Hypergraph, Interaction]:
    """Pair couplings J (scalar or per-bond list) plus optional field.

    A nonzero field appends one size-1 bond per vertex to the graph.
    """
    pair_bonds = list(graph.bonds)
    for b in pair_bonds:
        if len(b) != 2:
            raise ValueError("ising template needs pair bonds")
    Js = [float(J)] * len(pair_bonds) if not hasattr(J, "__len__") else [float(x) for x in J]
    if len(Js) != len(pair_bonds):
        raise ValueError("one coupling per bond required")
    bonds = pair_bonds[:]
    tables = {}
    for k, coupling in enumerate(Js):
        tables[k] = pair_energy_table(SPIN, lambda a, b, c=coupling: c * a * b)
    if h != 0.0:
        for v in range(graph.n_vertices):
            tables[len(bonds)] = site_energy_table(SPIN, lambda a: h * a)
            bonds.append((v,))
    g = hypergraph(graph.n_vertices, bonds)
    return g, Interaction(tables)


def ising_spec(graph, J, h=0.0, region=None, boundary=None) -> GibbsSpec:
    g, inter = ising_tables(graph, J, h)
    region = tuple(range(g.n_vertices)) if region is None else tuple(region)
    return GibbsSpec(g, SPIN, inter, region, dict(boundary or {}))


def ising_exact_tables(graph: Hypergraph, factor: Fraction) -> Interaction:
    """Exact pair tables with Boltzmann factor `factor` for aligned spins.

    factor plays the role of e^J; its inverse is used for anti-aligned
    spins, so couplings are exact when factor is rational.
    """
    tables = {}
    inv = Fraction(1) / Fraction(factor)
    for k, b in enumerate(graph.bonds):
        if len(b) != 2:
            raise ValueError("pair bonds required")
        facs = []
        for a in SPIN.values:
            for c in SPIN.values:
                facs.append(Fraction(factor) if a * c > 0 else inv)
        tables[k] = BondTable.from_factors(facs)
    return Interaction(tables)


def ising_exact_spec(graph, factor, region=None, boundary=None) -> GibbsSpec:
    inter = ising_exact_tables(graph, factor)
    region = tuple(range(graph.n_vertices)) if region is None else tuple(region)
    return GibbsSpec(graph, SPIN, inter, region, dict(boundary or {}))


def hardcore_spec(graph, activity, region=None, boundary=None) -> GibbsSpec:
    """Hard-core gas: occupied sites cannot be adjacent; site weight a^n."""
    a = activity
    pair_bonds = list(graph.bonds)
    bonds = pair_bonds[:]
    tables = {}
    for k, b in enumerate(pair_bonds):
        if len(b) != 2:
            raise ValueError("hardcore template needs pair bonds")
        tables[k] = BondTable.from_factors(
            tuple(
                (Fraction(0) if isinstance(a, Fraction) else 0.0)
                if x == y == 1
                else (Fraction(1) if isinstance(a, Fraction) else 1.0)
                for x in OCCUPANCY.values
                for y in OCCUPANCY.values
            )
        )
    one = Fraction(1) if isinstance(a, Fraction) else 1.0
    for v in range(graph.n_vertices):
        tables[len(bonds)] = BondTable.from_factors((one, a))
        bonds.append((v,))
    g = hypergraph(graph.n_vertices, bonds)
    region = tuple(range(g.n_vertices)) if region is None else tuple(region)
    return GibbsSpec(g, OCCUPANCY, Interaction(tables), region, dict(boundary or {}))


def ea_couplings(graph: Hypergraph, J: float, seed: int) -> tuple[float, ...]:
    """Quenched +-J couplings, one per bond, deterministic from the seed."""
    rng = stream(seed, 17)
    signs = rng.integers(0, 2, size=len(graph.bonds)) * 2 - 1
    return tuple(float(J) * int(s) for s in signs)


def ea_spec(graph, J, seed, region=None, boundary=None) -> GibbsSpec:
    return ising_spec(graph, ea_couplings(graph, J, seed), 0.0, region, boundary)


def example1_tables(J12: float, J23: float) -> tuple[Hypergraph, Interaction]:
    """Three aligned binary spins with competing single-corner couplings.

    The left bond rewards both spins down, the right bond rewards both
    spins up, so the natural representation has no compatible pair of
    active bonds while the end spins stay correlated.
    """
    g = hypergraph(3, [(0, 1), (1, 2)])
    t12 = pair_energy_table(SPIN, lambda a, b: J12 if (a == -1 and b == -1) else 0.0)
    t23 = pair_energy_table(SPIN, lambda a, b: J23 if (a == 1 and b == 1) else 0.0)
    return g, Interaction({0: t12, 1: t23})


def example1_spec(J12: float = 1.0, J23: float = 1.0, region=None, boundary=None) -> GibbsSpec:
    """The three-spin chain of example1_tables; the region defaults to the
    vertices the boundary does not fix."""
    g, inter = example1_tables(J12, J23)
    boundary = dict(boundary or {})
    if region is None:
        region = tuple(v for v in range(g.n_vertices) if v not in boundary)
    return GibbsSpec(g, SPIN, inter, tuple(region), boundary)


def example1_exact_spec(f12: Fraction, f23: Fraction) -> GibbsSpec:
    """Exact variant: f12, f23 are the Boltzmann factors of the corners."""
    g = hypergraph(3, [(0, 1), (1, 2)])
    one = Fraction(1)
    t12 = BondTable.from_factors(
        tuple(Fraction(f12) if (a == -1 and b == -1) else one for a in SPIN.values for b in SPIN.values)
    )
    t23 = BondTable.from_factors(
        tuple(Fraction(f23) if (a == 1 and b == 1) else one for a in SPIN.values for b in SPIN.values)
    )
    return GibbsSpec(g, SPIN, Interaction({0: t12, 1: t23}), (0, 1, 2))


# ---------------------------------------------------------------------------
# Model files


def _parse_graph(d) -> Hypergraph:
    if "grid" in d:
        w, h = (int(x) for x in str(d["grid"]).lower().split("x"))
        return build_grid(w, h, bool(d.get("periodic", False)))
    if "tree" in d:
        depth, branch = (int(x) for x in str(d["tree"]).lower().split("x"))
        return build_cayley_tree(depth, branch)
    return graph_from_dict(d)


def spec_from_dict(d: dict) -> GibbsSpec:
    try:
        graph = _parse_graph(d["graph"])
        inter_d = d.get("interaction", {})
        boundary = {int(k): int(v) for k, v in (d.get("boundary") or {}).items()}
        region_d = d.get("region", "all")
        if region_d == "all":
            # boundary vertices are exterior by definition
            region = tuple(v for v in range(graph.n_vertices) if v not in boundary)
        else:
            region = tuple(int(v) for v in region_d)
        if "template" in inter_d:
            name = inter_d["template"]
            if name == "ising":
                spec = ising_spec(
                    graph,
                    inter_d.get("J", 1.0),
                    inter_d.get("h", 0.0),
                    region=region,
                    boundary=boundary,
                )
            elif name == "hardcore":
                spec = hardcore_spec(
                    graph,
                    float(inter_d.get("activity", 1.0)),
                    region=region,
                    boundary=boundary,
                )
            elif name == "ea_pm_j":
                spec = ea_spec(
                    graph,
                    float(inter_d.get("J", 1.0)),
                    int(inter_d.get("seed", 0)),
                    region=region,
                    boundary=boundary,
                )
            elif name == "example1":
                # the template brings its own three-vertex graph, so "all"
                # means its vertices
                spec = example1_spec(
                    float(inter_d.get("J12", 1.0)),
                    float(inter_d.get("J23", 1.0)),
                    region=None if region_d == "all" else region,
                    boundary=boundary,
                )
            else:
                raise UsageError(f"unknown interaction template {name!r}")
        else:
            alphabet = Alphabet(tuple(d.get("alphabet", (-1, 1))))
            tables = {}
            for row in inter_d.get("tables", []):
                k = int(row["bond"])
                if "exponents" in row:
                    tables[k] = BondTable.from_exponents(row["exponents"])
                else:
                    tables[k] = BondTable.from_factors(row["factors"])
            spec = GibbsSpec(graph, alphabet, Interaction(tables), region, boundary)
        return spec
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad model description: {exc}") from exc
