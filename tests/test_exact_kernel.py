"""The exact two-copy kernel against the Fraction oracle, literally.

The package runs exact specs on integers over one denominator and forms
each Fraction once, where a value leaves the kernel; fraction_kernel holds
the route that did every step in Fractions. Every output must be the same
Fraction, of the same type, in the same dict and row order, and on each
spec's float twin the same floats bit for bit.
"""

import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings

import fraction_kernel as oracle
from conftest import random_binary_spec
from model_strategies import small_exact_models
from test_percolation import _three_valued_spec
from rcgibbs import percolation, twocopy
from rcgibbs.errors import UsageError, ZeroSliceError
from rcgibbs.gibbs import Alphabet, BondTable, GibbsSpec, Interaction, SPIN, effective_bonds
from rcgibbs.lattice import build_grid, hypergraph
from rcgibbs.models import example1_exact_spec, hardcore_spec, ising_exact_spec, spec_from_dict
from rcgibbs.percolation import integrated_rc, pair_coin_table, sigma_connection_profile, slice_connection_prob
from rcgibbs.rng import stream
from rcgibbs.twocopy import decompose_event, nonoverlap_distribution, overlap_distribution


def _typed(x):
    """x with every number tagged by its type; floats by their bits."""
    if isinstance(x, (tuple, list)):
        return [_typed(v) for v in x]
    if isinstance(x, float):
        return ("float", x.hex())
    return (type(x).__name__, x)


def _float_twin(spec):
    tables = {k: BondTable(tuple(float(f) for f in t.factors)) for k, t in spec.interaction.tables.items()}
    return GibbsSpec(spec.graph, spec.alphabet, Interaction(tables), spec.region,
                     dict(spec.boundary), spec.domains)


def _hyperbond_exact_spec():
    """Three-vertex hyperbonds with Fraction factors, some zero, and a
    boundary spin."""
    g = hypergraph(6, [(0, 1, 2), (1, 3), (2, 3, 4), (0, 4), (5,)])
    rng = stream(78, 0)
    tables = {}
    for k, b in enumerate(g.bonds):
        facs = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(2 ** len(b))]
        if len(b) == 3:
            facs[int(rng.integers(0, len(facs)))] = Fraction(0)
        tables[k] = BondTable.from_factors(facs)
    return GibbsSpec(g, SPIN, Interaction(tables), (0, 1, 2, 3, 5), {4: 1})


def _wide_coin_spec():
    """A four-vertex bond and a pair bond on the alphabet (-1, 0, 1), with
    Fraction factors: the four-vertex bond has more distinct coins than a
    byte numbers, exact and as a float twin."""
    g = hypergraph(4, [(0, 1, 2, 3), (1, 2)])
    rng = stream(41, 0)
    tables = {k: BondTable.from_factors([Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                                         for _ in range(3 ** len(b))])
              for k, b in enumerate(g.bonds)}
    return GibbsSpec(g, Alphabet((-1, 0, 1)), Interaction(tables), (0, 1, 2, 3))


SMALL = [
    *[(f"random{m}", lambda m=m: random_binary_spec(
        m, seed=9, n_min=3, n_max=5, exact=True, allow_forbidden=True, with_boundary=True))
      for m in range(8)],
    ("example1_exact", lambda: example1_exact_spec(Fraction(3), Fraction(5, 2))),
    ("ising_exact_3x2", lambda: ising_exact_spec(build_grid(3, 2), Fraction(3, 2))),
    ("hardcore_exact", lambda: hardcore_spec(build_grid(3, 2), Fraction(3, 2))),
    ("hyperbond_exact", _hyperbond_exact_spec),
    ("three_valued_exact", lambda: _three_valued_spec(True)),
    ("wide_coins_exact", _wide_coin_spec),
]
CASES = [(name, make, twin) for name, make in SMALL for twin in (False, True)]


def _check_laws(spec, A, B):
    irc = integrated_rc(spec)
    want_patterns, want_rows, want_pbar = oracle.laws(spec, A, B)
    assert irc.exact == spec.exact
    assert _typed(list(irc.patterns.items())) == _typed(list(want_patterns.items()))
    rows, pbar = sigma_connection_profile(spec, A, B)
    assert _typed(rows) == _typed(want_rows)
    assert _typed(pbar) == _typed(want_pbar)
    return [s for s, *_ in rows]


@pytest.mark.parametrize("name,make,twin", CASES, ids=[f"{c[0]}{'_float' if c[2] else ''}" for c in CASES])
def test_exact_kernel_matches_fraction_oracle(monkeypatch, name, make, twin):
    spec = make()
    assert spec.exact
    if twin:
        spec = _float_twin(spec)
        assert not spec.exact
    # a small block budget splits every case into several blocks
    cells = spec.n_states() ** 2 * max(len(effective_bonds(spec)), 1)
    monkeypatch.setattr(twocopy, "_BLOCK_CELLS", cells // 8)
    A, B = {spec.region[0]}, {spec.region[-1]}
    positive = _check_laws(spec, A, B)

    rho = overlap_distribution(spec)
    assert _typed(list(rho.items())) == _typed(list(oracle.overlap_distribution(spec).items()))

    for sigma in positive[:: max(1, len(positive) // 12)]:
        got = slice_connection_prob(spec, sigma, A, B)
        assert _typed(got) == _typed(oracle.slice_connection_prob(spec, sigma, A, B))
        got = nonoverlap_distribution(spec, sigma)
        assert _typed(list(got.items())) == _typed(list(oracle.nonoverlap_distribution(spec, sigma).items()))

    n = len(spec.region)
    for ev in (lambda o: o[0] == max(o), lambda o: o[n - 1] != o[0], lambda o: sum(o) > 0):
        assert _typed(decompose_event(spec, ev)) == _typed(oracle.decompose_event(spec, ev))


def test_wide_coin_spec_has_more_coins_than_a_byte_numbers():
    spec = _wide_coin_spec()
    for s in (spec, _float_twin(spec)):
        assert len(set(pair_coin_table(s)[0].ravel().tolist())) > 255


def test_exact_kernel_matches_fraction_oracle_on_3x3_grid():
    # the size the integer kernel opens up: the oracle's one pass over the
    # pattern law takes over ten seconds here, the kernel's under one.
    # decompose_event reads the same walk as the overlap law and is left to
    # the smaller cases.
    spec = ising_exact_spec(build_grid(3, 3), Fraction(3, 2))
    positive = _check_laws(spec, {0}, {8})
    assert len(positive) == 3**9
    rho = overlap_distribution(spec)
    assert _typed(list(rho.items())) == _typed(list(oracle.overlap_distribution(spec).items()))
    for sigma in positive[::6561]:
        assert _typed(slice_connection_prob(spec, sigma, {0}, {8})) == _typed(
            oracle.slice_connection_prob(spec, sigma, {0}, {8}))
        assert _typed(list(nonoverlap_distribution(spec, sigma).items())) == _typed(
            list(oracle.nonoverlap_distribution(spec, sigma).items()))


def test_exact_3x3_grid_profile_agrees_with_its_float_twin():
    spec = ising_exact_spec(build_grid(3, 3), Fraction(3, 2))
    rows, pbar = sigma_connection_profile(spec, {0}, {8})
    frows, fpbar = sigma_connection_profile(_float_twin(spec), {0}, {8})
    assert isinstance(pbar, Fraction) and type(fpbar) is float
    assert abs(float(pbar) - fpbar) < 1e-12
    assert [s for s, *_ in rows] == [s for s, *_ in frows]
    for (_, rho, p), (_, frho, fp) in zip(rows, frows):
        assert isinstance(rho, Fraction) and isinstance(p, Fraction)
        assert abs(float(rho) - frho) < 1e-12 and abs(float(p) - fp) < 1e-12
    assert sum(rho for _, rho, _ in rows) == 1


# ---------------------------------------------------------------------------
# the residue lanes: any small exact model, small primes, the lane boundary


@given(small_exact_models())
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
def test_residue_kernel_matches_fraction_oracle_on_small_models(case):
    model, sigma, A, B = case
    try:
        spec = spec_from_dict(model)
    except UsageError:  # a table of zeros; the CLI refuses it
        assume(False)
    assert spec.exact
    A, B = ({v for v in R if 0 <= v < spec.graph.n_vertices} for R in (A, B))
    try:
        oracle.laws(spec, A, B)
    except ZeroDivisionError:  # every configuration forbidden
        with pytest.raises(ZeroSliceError):
            integrated_rc(spec)
        return
    _check_laws(spec, A, B)
    try:  # the drawn slice, through a one-slice walk
        want = oracle.slice_connection_prob(spec, sigma, A, B)
    except ZeroSliceError:  # a sum no two domain values make
        want = None
    if want is None:
        with pytest.raises(ZeroSliceError):
            slice_connection_prob(spec, sigma, A, B)
    else:
        assert _typed(slice_connection_prob(spec, sigma, A, B)) == _typed(want)


def _lanes(spec):
    return len(percolation._pattern_blocks(spec)[0].primes)


@pytest.mark.parametrize("name", ["ising_exact_3x2", "wide_coins_exact"])
def test_small_primes_give_the_oracle_fractions(monkeypatch, name):
    # lanes modulo primes below 2**12, found below 4093 as the bound needs
    spec = dict(SMALL)[name]()
    monkeypatch.setattr(twocopy, "_PRIMES", [4093])
    assert _lanes(spec) >= 6
    assert twocopy._PRIMES[:3] == [4093, 4091, 4079]
    _check_laws(spec, {spec.region[0]}, {spec.region[-1]})


def _coprime_parts(n: int) -> list:
    """n's prime-power factors, largest first: pairwise coprime moduli whose
    product is n."""
    parts, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            parts.append(q)
        p += 1
    return sorted(parts, reverse=True)


def test_bound_at_a_lane_boundary(monkeypatch):
    # a full walk's grand total is its bound G = total**2 * the coin scales,
    # so lanes whose moduli multiply to G exactly would read it as 0: the
    # lanes must multiply past G, and moduli multiplying to G + 1 suffice
    spec = example1_exact_spec(Fraction(3), Fraction(5, 2))
    bound = percolation._pattern_blocks(spec)[0].bound
    for n, extra in ((bound, 1), (bound + 1, 0)):
        parts = _coprime_parts(n)
        assert max(parts) < 1 << 31
        monkeypatch.setattr(twocopy, "_PRIMES", parts + [2**31 - 1])
        assert _lanes(spec) == len(parts) + extra
        _check_laws(spec, {0}, {2})


class _NoObjectArrays:
    """numpy with every function checked: none may return an object array."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        f = getattr(np, name)
        if not callable(f) or isinstance(f, (type, np.ufunc)):
            return f

        def checked(*args, **kwargs):
            out = f(*args, **kwargs)
            for a in out if isinstance(out, tuple) else (out,):
                assert not (isinstance(a, np.ndarray) and a.dtype == object), name
            self.calls += 1
            return out

        return checked


def test_exact_kernel_builds_no_object_array(monkeypatch):
    # pair_coin_table's Fractions are its output, made before the patch; the
    # walk's config_weights are Python ints, which the lanes take as given
    spec = ising_exact_spec(build_grid(3, 2), Fraction(3, 2))
    coins = pair_coin_table(spec)
    monkeypatch.setattr(percolation, "pair_coin_table", lambda s: coins)
    checked = _NoObjectArrays()
    monkeypatch.setattr(percolation, "np", checked)
    monkeypatch.setattr(twocopy, "np", checked)
    lanes, blocks = percolation._pattern_blocks(spec)
    blocks = list(blocks)
    assert checked.calls > 50 and len(lanes.primes) > 1
    for block in blocks:
        assert all(a.dtype != object for a in block)
    for _, _, _, _, _, w in twocopy.PairWalk(spec).blocks():
        assert w.dtype == np.int64


def test_lane_primes_shared_by_threads(monkeypatch):
    # four threads released at once each need about 100 more primes than the
    # list holds, which grows by trial division below its last prime: every
    # prime must be found once, in descending order, whatever the interleaving
    monkeypatch.setattr(twocopy, "_PRIMES", [4093])
    start = threading.Barrier(4)
    errors, got = [], []

    def work():
        try:
            start.wait(timeout=60)
            got.append(twocopy._lane_primes((1 << 1200) - 1))
        except Exception as e:  # a race shows as an exception in a worker
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    primes = twocopy._PRIMES
    assert not errors and len(got) == 4 and all(g == primes for g in got)
    assert primes == sorted(set(primes), reverse=True) and math.prod(primes[:-1]) < 1 << 1200 < math.prod(primes)
    assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes)


def test_residue_arithmetic_matches_python_ints():
    rng = random.Random(5)
    lanes = twocopy._Residues((1 << 400) - 1)
    for n in (5, 300):
        a, b, c = ([rng.randrange(1 << 130) for _ in range(n)] for _ in range(3))
        product = lanes.mul(lanes.mul(lanes.of(a), lanes.of(b)), lanes.of(c))
        assert lanes.values(product) == [x * y * z for x, y, z in zip(a, b, c)]
        index = [rng.randrange(7) for _ in range(n)]
        sums = [sum(x for x, i in zip(a, index) if i == j) for j in range(7)]
        assert lanes.values(lanes.sum_at(np.array(index), lanes.of(a), 7)) == sums
