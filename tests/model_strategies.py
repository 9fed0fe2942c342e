"""Hypothesis strategies for small model files, shared by the CLI contract
test and the exact-kernel harness."""

from fractions import Fraction

from hypothesis import strategies as st

FACTORS = st.sampled_from([0, 0, 1, 2, 3, 0.5])
# the exact twin: ints and Fractions only, so every drawn model is exact
EXACT_FACTORS = st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3), Fraction(7, 4)])


@st.composite
def small_models(draw, factor=FACTORS):
    """(model, sigma, A, B): a model file dict with 2 or 3 spin values,
    hyperbonds of 1-3 vertices with some zero factors, site factors that
    forbid values (the model file's domains) and boundary spins; at most 6
    sites with 2 values and 4 with 3, to keep exact runs short. sigma is a
    slice (one sum of two values per region vertex), and the A and B
    vertices may lie one step outside the graph. factor draws each bond
    factor."""
    values = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3, unique=True))
    S = len(values)
    n = draw(st.integers(1, 6 if S == 2 else 4))
    vertex = st.integers(0, n - 1)
    bonds = draw(st.lists(st.lists(vertex, min_size=1, max_size=3, unique=True), min_size=1, max_size=6))
    tables = [draw(st.lists(factor, min_size=S ** len(b), max_size=S ** len(b))) for b in bonds]
    for v, allowed in draw(st.dictionaries(vertex, st.lists(st.booleans(), min_size=S, max_size=S),
                                           max_size=2)).items():
        bonds.append([v])
        tables.append([int(a) for a in allowed])
    boundary = draw(st.dictionaries(vertex, st.sampled_from(values), max_size=2))
    region = [v for v in range(n) if v not in boundary]
    sums = sorted({a + b for a in values for b in values})
    sigma = draw(st.lists(st.sampled_from(sums), min_size=len(region), max_size=len(region)))
    endpoint = st.integers(-1, n)
    A = draw(st.lists(endpoint, min_size=1, max_size=2, unique=True))
    B = draw(st.lists(endpoint, min_size=1, max_size=2, unique=True))
    model = {
        "graph": {"n": n, "bonds": bonds},
        "alphabet": values,
        "interaction": {"tables": [{"bond": k, "factors": f} for k, f in enumerate(tables)]},
        "boundary": {str(v): a for v, a in boundary.items()},
    }
    return model, sigma, A, B


def small_exact_models():
    """small_models with int and Fraction factors only."""
    return small_models(EXACT_FACTORS)
