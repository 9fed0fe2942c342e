"""One workload in its own process: set up, warm up, time, check, report.

Started by run.py; prints one JSON report as its last line. With
--setup-only it stops after building the inputs and reports set-up time.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import Sampler

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
MIN_ROUNDS = 3  # a timed run repeats every input at least this often
SAMPLER = Sampler()  # gauges the machine's speed from set-up to the end of timing


def run_rounds(wl, mix, seconds=None, n_rounds=None, tracer=None):
    """Run the whole mix, round after round, until `n_rounds` are done, or
    until MIN_ROUNDS are done and another round, at the fastest round's
    pace, would end after `seconds`.

    Returns ([(op, output, wall seconds, machine speed)] in call order, so
    call i ran mix[i % len(mix)]; [wall seconds of each round]). A call's
    wall time leaves out the sampler's handler, and its speed is the
    sampler's mean over the call (reference.py). An exception from an
    operation is kept as its output and fails its check.
    """
    marked = []
    round_s = []
    clock = time.perf_counter
    t0 = clock()
    r = 0
    while True:
        tr = clock()
        for op in mix:
            if tracer is not None:
                tracer.op = len(marked)
            a = SAMPLER.mark()
            try:
                out = wl.run(op)
            except Exception as e:  # reported as a failed operation
                out = Raised(f"{type(e).__name__}: {e}")
            marked.append((op, out, a, SAMPLER.mark()))
        round_s.append(clock() - tr)
        r += 1
        if r == n_rounds or (n_rounds is None and r >= MIN_ROUNDS and clock() - t0 + min(round_s) > seconds):
            SAMPLER.tick()
            return [(op, out, *SAMPLER.interval(a, b)) for op, out, a, b in marked], round_s


class Raised(str):
    """An operation's exception, kept as its output."""


def check_calls(wl, calls, refs):
    """(attempted, failed, known failures, first reasons, digest records, z values)."""
    attempted = failed = known = 0
    reasons, records, zs = [], [], []
    for op, out, *_ in calls:
        k = wl.ops(op)
        attempted += k
        reason = f"raised {out}" if isinstance(out, Raised) else wl.check(op, out, refs)
        if reason is None:
            records.append(wl.record(op, out))
            z = wl.z(op, out, refs)
            if z is not None:
                zs.append(z)
            continue
        failed += k
        known += k if wl.known(op, reason) else 0
        records.append([list(op.key), reason])
        example = f"{op.kind} {list(op.key)}: {reason}"
        if len(reasons) < 5 and example not in reasons:
            reasons.append(example)
    return attempted, failed, known, reasons, records, zs


def speed(wl, mix, calls) -> dict:
    """Throughput and per-operation latency at the reference speed.

    Each input's time is the median over its calls of the call's wall time
    times the machine's speed during it (reference.py). ops_per_s is the mix's
    operations over the sum of those times; the latencies are the median
    and a fixed percentile over the inputs. wall_ops_per_s is ops_per_s
    from unscaled wall times, for comparison.
    """
    import numpy as np

    n = len(mix)
    per = [statistics.median(dt * sp for _, _, dt, sp in calls[i::n]) for i in range(n)]
    wall = [statistics.median(dt for _, _, dt, _ in calls[i::n]) for i in range(n)]
    lat = np.array([t / wl.ops(op) * 1e3 for op, t in zip(mix, per)])
    tail = float(np.percentile(lat, wl.tail_pct))
    n_ops = sum(wl.ops(op) for op in mix)
    return {
        "ops_per_s": n_ops / sum(per),
        "wall_ops_per_s": n_ops / sum(wall),
        "speed_p50": statistics.median(sp for *_, sp in calls),
        "op_ms_p50": float(np.median(lat)),
        "op_ms_tail": tail,
        "tail_pct": wl.tail_pct,
        "n_inputs": len(lat),
        "n_beyond_tail": int((lat > tail).sum()),
    }


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    SAMPLER.start()
    t0 = SAMPLER.mark()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = ap.parse_args(argv)

    import rcgibbs
    import workloads

    src = Path(rcgibbs.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"rcgibbs imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    mix = wl.build(args.seed)
    setup_wall, setup_speed = SAMPLER.interval(t0, SAMPLER.mark())
    report = {"setup_s": setup_wall * setup_speed, "setup_wall_s": setup_wall}
    if args.setup_only or args.trace:
        SAMPLER.stop()  # spans hold the program's time alone
    if args.setup_only:
        print(json.dumps(report))
        return 0

    wl.warmup()
    if not args.trace:
        calls, round_s = run_rounds(wl, mix, seconds=args.seconds)
        SAMPLER.stop()
        refs = wl.refs(mix)
        attempted, failed, known, reasons, records, zs = check_calls(wl, calls, refs)
        report["digest_round0"] = digest(records[: len(mix)])
    else:
        from layers import TARGETS, layer_values
        from tracer import Tracer

        plain, _ = run_rounds(wl, mix, n_rounds=wl.trace_rounds)
        with Tracer(TARGETS) as tracer:
            calls, round_s = run_rounds(wl, mix, n_rounds=wl.trace_rounds, tracer=tracer)
        refs = wl.refs(mix)
        attempted, failed, known, reasons, records, zs = check_calls(wl, plain + calls, refs)
        n_ops = sum(wl.ops(op) for op, *_ in calls)
        busy = sum(dt for _, _, dt, _ in calls)
        plain_s = sum(dt for _, _, dt, _ in plain)
        covered = sum(tracer.top_level_time(i) for i in range(len(calls)))
        overhead = {
            "trace.ops_per_s_delta": n_ops / busy - n_ops / plain_s,
            "trace.overhead": busy / plain_s - 1.0,
            "trace.span_coverage": covered / busy,
        }
        report["per_layer"] = layer_values(tracer, max(zs, default=0.0), overhead)
        report["missing"] = tracer.missing
        report["inclusive_share"] = {
            name: total / busy for name, (_, total, _) in tracer.self_times().items()
        }
        report["digest_traced"] = digest(records[len(plain):])
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, f)
    report.update(speed(wl, mix, calls))
    report.update(
        ops=sum(wl.ops(op) for op, *_ in calls),
        elapsed_s=sum(round_s),
        round_s=round_s,
        call_s=[dt for _, _, dt, _ in calls],
        call_speed=[sp for *_, sp in calls],
        attempted=attempted,
        failed=failed,
        known_failed=known,
        failure_examples=reasons,
        known_defect=wl.KNOWN_DEFECT if known else None,
        z_max=max(zs, default=None),
        versions={m: sys.modules[m].__version__ for m in ("numpy", "scipy")},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.workload == "sweep" and not args.trace:
        outs = [out for _, out, *_ in calls if not isinstance(out, Raised)]
        report["sweep_summary"] = workloads.sweep_aggregate(outs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
