"""rcgibbs benchmark: one workload per fresh process, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

--workload is sweep, ibar, mc, glass, or all. With --trace 0 the last
line of standard output is a JSON object whose metrics are the end-to-end
metrics; with --trace 1 they are the per-layer metrics of a traced run
over a fixed amount of work. The lines before it give the same figures by
name with their units, the check results, and the machine. A full record,
with the output digest, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import per_layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "ibar", "mc", "glass")
SETUP_PROBES = 3  # extra processes that only set up; setup_s is the median
BUDGET_S = 170  # the whole run, every child included, ends within this
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; its last stdout line is its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine(root: Path, report: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **report["versions"],
        "git": git_sha(root),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    probes = [run_child(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans", str(out_dir / f"spans-{name}-seed{seed}.json")]
    report = run_child(base + extra, deadline)
    probes.append(report)
    report["setup_s_all"] = [p["setup_s"] for p in probes]
    report["setup_wall_s_all"] = [p["setup_wall_s"] for p in probes]
    report["setup_s"] = statistics.median(report["setup_s_all"])
    return report


def describe(name: str, r: dict, trace: int) -> list[str]:
    """Human-readable lines for one workload's report."""
    lines = []
    ratio = r["failed"] / r["attempted"]
    lines.append(
        f"# {name}: {r['ops']} ops in {r['elapsed_s']:.2f} s; "
        f"fail_ratio = {ratio:.4g} ({r['failed']}/{r['attempted']})"
    )
    if r["known_failed"]:
        lines.append(f"#   {r['known_failed']} of the failures are a {r['known_defect']}")
    for reason in r["failure_examples"]:
        lines.append(f"#   failed: {reason}")
    if r.get("z_max") is not None:
        lines.append(f"#   largest |estimate - exact| / reported stderr: {r['z_max']:.4g}")
    if "sweep_summary" in r:
        lines.append(f"#   sweep summary: {json.dumps(r['sweep_summary'])}")
    if not trace:
        lines.append(
            f"#   each input timed by its median over {len(r['round_s'])} rounds, scaled to the "
            f"reference speed; op_ms_tail is p{r['tail_pct']} over the {r['n_inputs']} inputs "
            f"({r['n_beyond_tail']} beyond it)"
        )
        lines.append(
            f"#   wall clock: ops_per_s {r['wall_ops_per_s']:.6g}, setup_s "
            f"{statistics.median(r['setup_wall_s_all']):.6g}; machine speed (median over "
            f"calls) {r['speed_p50']:.4g} of the reference speed"
        )
        lines.append(f"#   output digest (first round): {r['digest_round0']}")
    else:
        lines.append(f"#   output digest (traced work): {r['digest_traced']}")
        shares = sorted(r["inclusive_share"].items(), key=lambda kv: -kv[1])[:6]
        lines.append("#   share of traced time inside each span (children included): "
                     + ", ".join(f"{k} {v:.1%}" for k, v in shares))
        if r["missing"]:
            lines.append(f"#   wrapped names missing from the program: {', '.join(r['missing'])}")
    return lines


def metrics_of(r: dict, trace: int) -> dict:
    if trace:
        return {
            name: {"value": r["per_layer"][name], "unit": unit}
            for name, unit, _, _ in per_layer_metrics()
        }
    return {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rcgibbs" / "__init__.py").is_file():
        print("perfbench: run from the root of an rcgibbs checkout (src/rcgibbs not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    info = machine(root, results[names[0]])
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    metrics = {}
    for name, r in results.items():
        for line in describe(name, r, args.trace):
            print(line)
        m = metrics_of(r, args.trace)
        if args.trace:
            moves = {n: mv for n, _, _, mv in per_layer_metrics()}
            for k, v in m.items():
                print(f"{name} {k} = {v['value']:.6g} {v['unit']}    [{moves[k]}]")
        else:
            for k, v in m.items():
                print(f"{name} {k} = {v['value']:.6g} {v['unit']}")
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": info, "report": r}
        (HERE / "out" / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    known = sum(r["known_failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
