"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import reference
import run
import worker
import workloads
from layers import TARGETS, per_layer_metrics
from tracer import Target, Tracer
from workloads import Op

from rcgibbs.experiments import examples
from rcgibbs.lattice import hypergraph
from rcgibbs.models import example1_spec, ising_spec

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_sweep_aggregate_equals_sweep_correlation_bound():
    n, seed = 8, 7
    wl = workloads.WORKLOADS["sweep"]
    outs = [
        wl.run(Op("sweep", (m,), example1_spec(1.0, 1.0) if m == 0 else examples._random_spec(m, seed)))
        for m in range(n)
    ]
    want = examples.sweep_correlation_bound(n, seed)
    got = workloads.sweep_aggregate(outs)
    assert got == {k: want[k] for k in got}


def test_sweep_mix_is_the_family_mix():
    mix = workloads.WORKLOADS["sweep"].build(3)
    sizes = sorted((op.key[0] % 6, len(op.spec.region)) for op in mix)
    assert sizes == sorted(
        (k, 6 if k == workloads.Sweep.GRID else n) for k in range(6) for n in (3, 4, 5, 6)
    )
    forbidden = {kind: [] for kind in range(6)}
    for op in mix:
        kind, n = op.key[0] % 6, len(op.spec.region)
        forbidden[kind].append(sum(f == 0 for t in op.spec.interaction.tables.values() for f in t.factors))
        if kind == workloads.Sweep.RANDOM:
            assert len(op.spec.graph.bonds) == n
    assert all(sorted(v) == [0, 0, 1, 1] for v in forbidden.values())


def test_speed_scales_each_call_to_the_reference_speed():
    wl = workloads.WORKLOADS["glass"]
    mix = [Op("glass", (0,)), Op("glass", (1,))]
    # a call made while the machine ran at half speed took twice as long
    calls = [(mix[0], None, 2.0, 0.5), (mix[1], None, 4.0, 1.0),
             (mix[0], None, 1.0, 1.0), (mix[1], None, 8.0, 0.5),
             (mix[0], None, 1.0, 1.0), (mix[1], None, 9.0, 1.0)]
    per = workloads.GLASS["n_samples"]
    got = worker.speed(wl, mix, calls)
    assert got["ops_per_s"] == pytest.approx(2 * per / 5.0)
    assert got["op_ms_p50"] == pytest.approx(2.5e3 / per)
    assert got["wall_ops_per_s"] == pytest.approx(2 * per / 9.0)


def test_sampler_gauges_speed_and_leaves_out_its_own_time():
    sampler = reference.Sampler()
    sampler.start()
    try:
        a = sampler.mark()
        t = time.perf_counter()
        while time.perf_counter() - t < 0.2:
            sum(range(1000))
        b = sampler.mark()
        short = sampler.mark(), sampler.mark()
    finally:
        sampler.stop()
    assert b[1] - a[1] >= 10  # about one loop per PERIOD_S
    wall, speed = sampler.interval(a, b)
    assert 0 < wall < b[0] - a[0] and 0 < speed < 100
    assert sampler.interval(*short)[1] > 0  # no loop inside: the neighbours count
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bindings(fn_names):
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "rcgibbs" or name.startswith("rcgibbs.")):
            for attr, v in vars(mod).items():
                if callable(v) and getattr(v, "__name__", None) in fn_names:
                    out[(name, attr)] = v
    return out


def test_tracer_restores_every_wrapped_name():
    names = {t.attr for t in TARGETS}
    before = _bindings(names)
    from rcgibbs import percolation

    with pytest.raises(RuntimeError):
        with Tracer(TARGETS):
            assert examples.integrated_rc is not before[("rcgibbs.percolation", "integrated_rc")]
            assert percolation.integrated_rc is examples.integrated_rc
            raise RuntimeError("leave the block early")
    after = _bindings(names)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_names_are_reported_not_raised():
    targets = [
        Target("rcgibbs.percolation", "no_such_function", "percolation.no_such_function"),
        Target("rcgibbs.no_such_module", "f", "no_such_module.f"),
        Target("rcgibbs.percolation", "chain_components", "percolation.chain_components"),
    ]
    with Tracer(targets) as tracer:
        examples.check_model_bounds(example1_spec(1.0, 1.0))
    assert tracer.missing == ["rcgibbs.percolation.no_such_function", "rcgibbs.no_such_module.f"]
    assert tracer.self_times()["percolation.chain_components"][0] > 0


def _small_ops():
    chain = ising_spec(hypergraph(4, [(0, 1), (1, 2), (2, 3)]), 0.6, h=0.2)
    return [
        ("sweep", Op("sweep", (5,), examples._random_spec(5, 1))),
        ("ibar", Op("grid_float", (0,), chain, frozenset({0}), frozenset({3}))),
        ("mc", Op("mc", (0,), chain, frozenset({0}), frozenset({3}), seed=4)),
    ]


@pytest.mark.parametrize("name,op", _small_ops())
def test_spans_cover_most_of_each_operation(name, op):
    wl = workloads.WORKLOADS[name]
    with Tracer(TARGETS) as tracer:
        tracer.op = 0
        t0 = time.perf_counter()
        wl.run(op)
        wall = time.perf_counter() - t0
    assert tracer.top_level_time(0) / wall > 0.9
    for _, t0, t1, parent, _ in tracer.spans:
        assert t1 >= t0 and parent < len(tracer.spans)


def test_glass_spans_and_counters():
    wl = workloads.WORKLOADS["glass"]
    with Tracer(TARGETS) as tracer:
        tracer.op = 0
        t0 = time.perf_counter()
        wl._call(8, 3, True, n_sweeps=20, n_samples=4)
        wall = time.perf_counter() - t0
    assert tracer.top_level_time(0) / wall > 0.9
    vals = layers.layer_values(tracer, 0.0, {})
    assert vals["experiments.ea._cluster_stats.periodic.calls"] == 8
    assert vals["experiments.ea._cluster_stats.open.calls"] == 0
    assert vals["experiments.ea.site_updates_per_s"] > 0
    assert vals["experiments.ea.gap"] >= 1


class _Spec:
    def __init__(self, exact):
        self.exact = exact


def test_ibar_check_rules():
    wl = workloads.WORKLOADS["ibar"]
    exact = Op("grid_exact", (0,), _Spec(True))
    flt = Op("grid_float", (0,), _Spec(False))
    chain = Op("chain7", (0,), _Spec(False))
    assert wl.check(exact, {"profile": Fraction(1, 3), "integrated": Fraction(1, 3)}, None) is None
    assert wl.check(exact, {"profile": Fraction(1, 3), "integrated": 1 / 3}, None) is not None
    assert wl.check(flt, {"profile": 0.5, "integrated": 0.5 + 1e-12}, None) is None
    reason = wl.check(flt, {"profile": 0.5, "integrated": 0.6}, None)
    assert reason and not wl.known(flt, reason)
    assert wl.known(chain, wl.check(chain, {"profile": 0.1, "integrated": 0.4}, None))
    raised = wl.check(chain, {"profile": 0.1, "integrated": "raised TooLargeError: x"}, None)
    assert raised and not wl.known(chain, raised)


@pytest.mark.parametrize("name", ["ibar", "mc", "glass"])
def test_inputs_are_a_function_of_the_seed(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.build(5), wl.build(5), wl.build(6)
    assert [op.key for op in a] == [op.key for op in b]
    assert repr(a) == repr(b)
    assert repr(a) != repr(c)


def test_benchmark_json_matches_the_definitions():
    bench = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, u, b, _ in per_layer_metrics()
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
