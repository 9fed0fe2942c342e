import json

import pytest
from hypothesis import given, settings, strategies as st

from rcgibbs.lattice import (
    ball,
    boundary_vertices,
    build_cayley_tree,
    build_grid,
    graph_from_dict,
    hypergraph,
)


def _boundary_bruteforce(h, region) -> frozenset[int]:
    """The boundary by a direct scan of every bond: the vertices of each bond
    that has a vertex inside region and one outside."""
    lam = frozenset(region)
    out = set()
    for b in h.bonds:
        if any(u in lam for u in b) and any(u not in lam for u in b):
            out.update(b)
    return frozenset(out)


def test_boundary_path_middle_vertex():
    h = hypergraph(3, [(0, 1), (1, 2)])
    assert boundary_vertices(h, {1}) == frozenset({0, 1, 2})


def test_boundary_full_region_empty():
    h = hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert boundary_vertices(h, {0, 1, 2, 3}) == frozenset()


def test_boundary_five_path():
    h = hypergraph(5, [(i, i + 1) for i in range(4)])
    # only the (1, 2) bond straddles {0, 1}
    assert boundary_vertices(h, {0, 1}) == frozenset({1, 2})


def test_boundary_empty_region():
    h = hypergraph(3, [(0, 1), (1, 2)])
    assert boundary_vertices(h, set()) == frozenset()


@st.composite
def random_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    n_bonds = draw(st.integers(min_value=0, max_value=3 * n))
    bonds = []
    for _ in range(n_bonds):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        verts = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        bonds.append(tuple(verts))
    return hypergraph(n, bonds)


@given(random_hypergraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_boundary_matches_bruteforce(h, data):
    lam = data.draw(
        st.sets(st.integers(min_value=0, max_value=h.n_vertices - 1), max_size=h.n_vertices)
    )
    assert boundary_vertices(h, lam) == _boundary_bruteforce(h, lam)


@given(random_hypergraphs())
@settings(max_examples=100, deadline=None)
def test_adjacency_roundtrip(h):
    for v in range(h.n_vertices):
        for k in h.adjacency[v]:
            assert v in h.bonds[k]
    for k, b in enumerate(h.bonds):
        for v in b:
            assert k in h.adjacency[v]


def test_grid_open_counts():
    g = build_grid(2, 2)
    assert g.n_vertices == 4 and len(g.bonds) == 4
    g = build_grid(3, 1)
    assert g.n_vertices == 3 and len(g.bonds) == 2


def test_grid_periodic_dedup():
    g = build_grid(2, 2, periodic=True)
    assert g.n_vertices == 4 and len(g.bonds) == 4
    g = build_grid(3, 3, periodic=True)
    assert len(g.bonds) == 18
    g = build_grid(1, 1, periodic=True)
    assert len(g.bonds) == 0
    g = build_grid(4, 1, periodic=True)
    assert (0, 3) in g.bonds and len(g.bonds) == 4


def test_grid_rejects_zero_dimension():
    with pytest.raises(ValueError):
        build_grid(0, 3)


def test_cayley_tree_counts():
    g = build_cayley_tree(0, 2)
    assert g.n_vertices == 1 and len(g.bonds) == 0
    g = build_cayley_tree(2, 2)
    assert g.n_vertices == 7 and len(g.bonds) == 6
    g = build_cayley_tree(3, 2)
    assert g.n_vertices == 15 and len(g.bonds) == 14


def test_ball_distances_on_path():
    h = hypergraph(6, [(i, i + 1) for i in range(5)])
    assert ball(h, {0}, 0) == frozenset({0})
    assert ball(h, {0}, 2) == frozenset({0, 1, 2})
    assert ball(h, {2}, 1) == frozenset({1, 2, 3})


def test_graph_dict_roundtrip():
    h = hypergraph(4, [(0, 1), (1, 2, 3)])
    d = json.loads(json.dumps({"n": h.n_vertices, "bonds": [list(b) for b in h.bonds]}))
    h2 = graph_from_dict(d)
    assert h2.bonds == h.bonds and h2.n_vertices == 4


def test_invalid_bonds_rejected():
    with pytest.raises(ValueError):
        hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        hypergraph(3, [(0, 5)])
    with pytest.raises(ValueError):
        hypergraph(2, [()])
