"""Command-line entry point with machine-readable, byte-stable output.

Every run writes results.json (canonical JSON embedding the exact config
used) and, with --format csv, table.csv for the row-structured part of the
report. Wall-clock timing goes to meta.json only when --timing is given,
keeping default outputs identical for identical (config, seed).

Exit codes: 0 success, 1 inequality-violation finding, 2 usage error,
3 resource cap exceeded, 4 internal error (an unexpected exception; one
line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
import traceback
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import RcgibbsError, TooLargeError, UsageError
from .gibbs import GibbsSpec, effective_bonds, gibbs_measure, product_outcomes
from .models import spec_from_dict
from .percolation import sigma_connection_profile
from .rcr import (
    LevelSystem,
    allowed_locals,
    bond_level_system,
    monotone_base,
    reconstruct,
    solve_bernoulli,
)
from .sampling import mc_connection_probability
from .twocopy import nonoverlap_distribution, overlap_distribution, make_slice


def _plain(x):
    """json.dumps's default: the JSON value of what it cannot write itself.
    A Fraction becomes a float, a numpy scalar or array its tolist() and a
    set its sorted list."""
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def emit(report: dict, config: dict, out_dir, fmt: str = "json", timing: float | None = None):
    """Write results.json (and table.csv) deterministically; timing goes to
    a separate meta.json so canonical outputs stay byte-stable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"config": config, "version": __version__, "results": report}
    text = json.dumps(payload, sort_keys=True, indent=2, default=_plain)
    (out / "results.json").write_text(text + "\n")
    if fmt == "csv":
        rows = report.get("rows", [])
        header: list[str] = []
        for r in rows:
            for k in r:
                if k not in header:
                    header.append(k)
        with open(out / "table.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in rows:
                w.writerow([_csv_cell(r.get(k)) for k in header])
    if timing is not None:
        (out / "meta.json").write_text(
            json.dumps({"wall_time_s": timing, "written_at": time.time()}) + "\n"
        )
    return out / "results.json"


def _csv_cell(v):
    if isinstance(v, (dict, list, tuple, set, frozenset, np.ndarray)):
        return json.dumps(v, sort_keys=True, default=_plain)
    return _plain(v) if isinstance(v, (Fraction, np.generic)) else v


def _parse_numbers(arg: str, what: str, sep: str = ",", kind=int, length=None) -> list:
    """The numbers of a sep-separated argument; UsageError (exit 2) for a
    malformed entry or, given length, a wrong count."""
    parts = [t for t in arg.replace(" ", "").split(sep) if t != ""]
    try:
        values = [kind(t) for t in parts]
    except ValueError:
        raise UsageError(f"bad {what} {arg!r}") from None
    if length is not None and len(values) != length:
        raise UsageError(f"bad {what} {arg!r}: expected {length} values, got {len(values)}")
    return values


def _parse_vertices(arg: str):
    if arg is None:
        raise UsageError("missing vertex list")
    return frozenset(_parse_numbers(arg, "vertex list"))


def _require_seed(args):
    if args.seed is None:
        raise UsageError("--seed is mandatory in Monte Carlo mode")
    return int(args.seed)


def _load_spec(args) -> GibbsSpec:
    """Model file with optional graph-builder overrides."""
    try:
        with open(args.model) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read model file {args.model}: {exc}") from exc
    if getattr(args, "grid", None):
        d["graph"] = {"grid": args.grid, "periodic": bool(getattr(args, "periodic", False))}
    elif getattr(args, "tree", None):
        d["graph"] = {"tree": args.tree}
    elif getattr(args, "graph", None):
        try:
            with open(args.graph) as fh:
                d["graph"] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read graph file {args.graph}: {exc}") from exc
    return spec_from_dict(d)


def _parse_bc(arg: str) -> dict:
    out = {}
    for part in arg.replace(" ", "").split(","):
        if part:
            v, val = _parse_numbers(part, "boundary entry VERTEX:VALUE", ":", length=2)
            out[v] = val
    return out


# ---------------------------------------------------------------------------
# Command implementations (each returns the report dict)


def cmd_gibbs_eval(args) -> dict:
    spec = _load_spec(args)
    lam = args.lam and args.lam != "all"
    if lam or args.bc:
        region = tuple(sorted(_parse_vertices(args.lam))) if lam else spec.region
        boundary = {**spec.boundary, **(_parse_bc(args.bc) if args.bc else {})}
        try:
            spec = GibbsSpec(spec.graph, spec.alphabet, spec.interaction, region, boundary)
        except ValueError as exc:
            raise UsageError(f"bad --lambda or --bc: {exc}") from exc
    mu = gibbs_measure(spec)
    report = {
        "backing": "exact" if spec.exact else "float",
        "n_states": spec.n_states(),
        "region": list(spec.region),
    }
    if len(mu) <= 4096:
        report["rows"] = [{"config": list(o), "prob": p} for o, p in sorted(mu.items())]
    report["site_means"] = mu.site_means()
    return report


def cmd_twocopy_rho(args) -> dict:
    spec = _load_spec(args)
    rho = overlap_distribution(spec)
    # the product order of the overlap law is lexicographic in sigma, so a
    # stable sort of the positive weights gives the (-rho, sigma) order
    positive = np.flatnonzero(rho.weights > 0)
    top = positive[np.argsort(-rho.weights[positive], kind="stable")[:4096]]
    rows = zip(product_outcomes(top, rho.domains), rho.weights[top].tolist())
    return {"n_sigma": len(positive), "rows": [{"sigma": list(s), "rho": p} for s, p in rows]}


def cmd_twocopy_slice(args) -> dict:
    spec = _load_spec(args)
    sigma = tuple(_parse_numbers(args.sigma, "sigma", length=len(spec.region)))
    sl = make_slice(spec, sigma)
    mu_s = nonoverlap_distribution(spec, sigma)
    sym_err = max(
        abs(mu_s.prob(o) - mu_s.prob(tuple(s - x for s, x in zip(sigma, o))))
        for o in mu_s.outcomes()
    )
    return {
        "sigma": list(sigma),
        "overlap_region": sorted(sl.overlap_region),
        "n_support": len(mu_s),
        "symmetry_defect": float(sym_err),
        "rows": [
            {"config": list(o), "prob": p} for o, p in sorted(mu_s.items())
        ],
    }


def _load_subsets(path, n_bonds: int) -> list:
    """Candidate subset masks per effective bond from a JSON file."""
    try:
        with open(path) as fh:
            masks_per_bond = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read subsets file {path}: {exc}") from exc
    well_formed = isinstance(masks_per_bond, list) and all(
        isinstance(masks, list) and masks and all(type(m) is int for m in masks)
        for masks in masks_per_bond
    )
    if not well_formed:
        raise UsageError(f"subsets file {path}: expected a nonempty list of integer masks per bond")
    if len(masks_per_bond) != n_bonds:
        raise UsageError(
            f"subsets file {path} lists {len(masks_per_bond)} bonds; the model has {n_bonds}"
        )
    return masks_per_bond


def cmd_rcr_solve(args) -> dict:
    spec = _load_spec(args)
    if args.subsets:
        bonds = effective_bonds(spec)
        rows = []
        for eb, masks in zip(bonds, _load_subsets(args.subsets, len(bonds))):
            levels, level_masks = bond_level_system(eb.table, allowed_locals(spec, eb.inside), spec.exact)
            try:
                system = LevelSystem(levels, level_masks, tuple(masks))
            except ValueError as exc:
                raise UsageError(f"subsets of bond {eb.index}: {exc}") from exc
            sol = solve_bernoulli(system, tol=args.tolerance)
            rows.append(
                {
                    "bond": eb.index,
                    "subsets": [int(m) for m in system.subsets],
                    "probs": list(sol.probs),
                    "scale": sol.scale,
                    "degenerate": sol.degenerate,
                    "residual": sol.residual,
                }
            )
        return {"mode": "custom-subsets", "rows": rows}
    base = monotone_base(spec)
    rows = [
        {
            "bond": j,
            "vertices": list(bb.vertices),
            "subsets": [int(s) for s in bb.subsets],
            "probs": [float(p) for p in bb.probs],
            "levels": [float(x) for x in bb.levels],
        }
        for j, bb in enumerate(base.bonds)
    ]
    return {"mode": "monotone", "rows": rows}


def cmd_rcr_check(args) -> dict:
    spec = _load_spec(args)
    base = monotone_base(spec)
    mu = gibbs_measure(spec)
    rec = reconstruct(spec, base)
    err = max(abs(rec.prob(o) - p) for o, p in mu.items())
    ok = err <= args.tolerance
    return {
        "roundtrip_max_error": float(err),
        "tolerance": args.tolerance,
        "violations": 0 if ok else 1,
    }


def cmd_perc_ibar(args) -> dict:
    spec = _load_spec(args)
    A = _parse_vertices(args.A)
    B = _parse_vertices(args.B)
    n = spec.graph.n_vertices
    for v in sorted(A | B):
        if not 0 <= v < n:
            raise UsageError(f"vertex {v} is outside the graph's vertices 0..{n - 1}")
    if args.mc is not None:
        seed = _require_seed(args)
        res = mc_connection_probability(
            spec, A, B, n_samples=int(args.mc), seed=seed, threads=args.threads
        )
        return {
            "mode": "mc",
            "A": sorted(A),
            "B": sorted(B),
            "estimate": res["estimate"],
            "stderr": res["stderr"],
            "n_samples": res["n_samples"],
            "n_pairs": res["n_pairs"],
            "equilibration": {k: res[k] for k in ("burn_in", "tau", "equilibrated")},
        }
    profile, pbar = sigma_connection_profile(spec, A, B)
    rows = [
        {"sigma": list(s), "rho": float(r), "p_connect": float(p)}
        for s, r, p in profile
    ]
    return {
        "mode": "exact",
        "A": sorted(A),
        "B": sorted(B),
        "estimate": float(pbar),
        "stderr": 0.0,
        "rows": rows,
    }


def cmd_exp(args) -> dict:
    from .experiments import (
        ea_mns_percolation,
        hardcore_disagreement,
        run_cayley,
        run_example1,
        run_example2,
        sweep_correlation_bound,
    )
    from .experiments.hardcore import checkerboard_instance

    if args.exp_command == "example1":
        return run_example1()
    if args.exp_command == "example2":
        return run_example2(args.J12, args.J23)
    if args.exp_command == "sweep":
        if args.n < 1:
            raise UsageError(f"bad --n {args.n}: need at least one model")
        seed = args.seed if args.seed is not None else 7
        return sweep_correlation_bound(args.n, seed=int(seed))
    if args.exp_command == "cayley":
        grid = None
        if args.J_grid:
            a, b, s = _parse_numbers(args.J_grid, "J grid A:B:STEP", ":", float, 3)
            if not (np.isfinite([a, b, s]).all() and a >= 0 and s > 0):
                raise UsageError(
                    f"bad J grid {args.J_grid!r}: need finite ends, a start >= 0 and a positive step"
                )
            grid = list(np.arange(a, b + 1e-12, s))
        return run_cayley(grid)
    if args.exp_command == "hardcore":
        w, h = _parse_numbers(args.grid.lower(), "grid WxH", "x", length=2)
        if min(w, h) < 1:
            raise UsageError(f"bad grid {args.grid!r}: need positive sides")
        graph, region, bc1 = checkerboard_instance(w, h, 0)
        _, _, bc2 = checkerboard_instance(w, h, 1)
        A = {region[0]}
        B = {region[-1]}
        return hardcore_disagreement(
            graph, args.a, A, B, boundary1=bc1, boundary2=bc2, region=region
        )
    if args.exp_command == "ea":
        seed = _require_seed(args)
        return ea_mns_percolation(
            L=args.L,
            J=args.J,
            beta_scale=args.beta,
            seed=seed,
            n_sweeps=args.sweeps,
            n_samples=args.samples,
            n_disorder=args.seeds,
            periodic=args.periodic,
            threads=args.threads,
        )
    raise UsageError(f"unknown exp command {args.exp_command!r}")


# ---------------------------------------------------------------------------


def _add_model_args(sp):
    sp.add_argument("--model", required=True)
    sp.add_argument("--grid", default=None, metavar="WxH",
                    help="override the model's graph with a grid")
    sp.add_argument("--tree", default=None, metavar="DEPTHxBRANCH",
                    help="override the model's graph with a rooted tree")
    sp.add_argument("--graph", default=None, metavar="FILE",
                    help="override the model's graph with a JSON graph file")


class _Parser(argparse.ArgumentParser):
    """argparse with one-line errors that reads '--opt -2,0,0' as '--opt=-2,0,0'.

    argparse takes a token that starts with '-' for an option unless it is a
    plain negative number, so a list or range value such as '-2,0,0' or
    '-1:1:0.5' would need the '=' form. No option of this parser starts with
    '-' and a digit or '.', so such a token after a long option is its value.
    """

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for tok in sys.argv[1:] if args is None else args:
            if (
                joined
                and joined[-1].startswith("--")
                and "=" not in joined[-1]
                and re.match(r"-[\d.]", tok)
            ):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="rcgibbs",
        description="Random-cluster representations of finite-volume Gibbs fields",
    )
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--timing", action="store_true", help="also write meta.json with wall time")
    sub = p.add_subparsers(dest="group", required=True)

    g = sub.add_parser("gibbs").add_subparsers(dest="gibbs_command", required=True)
    ge = g.add_parser("eval")
    _add_model_args(ge)
    ge.add_argument("--lambda", dest="lam", default="all")
    ge.add_argument("--bc", default=None)
    ge.set_defaults(fn=cmd_gibbs_eval)

    t = sub.add_parser("twocopy").add_subparsers(dest="twocopy_command", required=True)
    tr = t.add_parser("rho")
    _add_model_args(tr)
    tr.set_defaults(fn=cmd_twocopy_rho)
    ts = t.add_parser("slice")
    _add_model_args(ts)
    ts.add_argument("--sigma", required=True)
    ts.set_defaults(fn=cmd_twocopy_slice)

    r = sub.add_parser("rcr").add_subparsers(dest="rcr_command", required=True)
    rs = r.add_parser("solve")
    _add_model_args(rs)
    rs.add_argument("--subsets", default=None)
    rs.set_defaults(fn=cmd_rcr_solve)
    rc = r.add_parser("check")
    _add_model_args(rc)
    rc.set_defaults(fn=cmd_rcr_check)

    pe = sub.add_parser("perc").add_subparsers(dest="perc_command", required=True)
    pi = pe.add_parser("ibar")
    _add_model_args(pi)
    pi.add_argument("--A", required=True)
    pi.add_argument("--B", required=True)
    pi.add_argument("--mc", type=int, default=None, metavar="N")
    pi.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    pi.set_defaults(fn=cmd_perc_ibar)

    e = sub.add_parser("exp").add_subparsers(dest="exp_command", required=True)
    e1 = e.add_parser("example1")
    e1.set_defaults(fn=cmd_exp)
    e2 = e.add_parser("example2")
    e2.add_argument("--J12", type=float, default=1.0)
    e2.add_argument("--J23", type=float, default=1.0)
    e2.set_defaults(fn=cmd_exp)
    es = e.add_parser("sweep")
    es.add_argument("--n", type=int, default=500)
    es.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    es.set_defaults(fn=cmd_exp)
    ec = e.add_parser("cayley")
    ec.add_argument("--J-grid", dest="J_grid", default=None, metavar="A:B:STEP")
    ec.set_defaults(fn=cmd_exp)
    eh = e.add_parser("hardcore")
    eh.add_argument("--a", type=float, default=1.0)
    eh.add_argument("--grid", default="2x3")
    eh.set_defaults(fn=cmd_exp)
    ee = e.add_parser("ea")
    ee.add_argument("--L", type=int, default=32)
    ee.add_argument("--J", type=float, default=1.0)
    ee.add_argument("--beta", type=float, default=1.0)
    ee.add_argument("--seeds", type=int, default=1, help="number of disorder realizations")
    ee.add_argument("--sweeps", type=int, default=1000)
    ee.add_argument("--samples", type=int, default=200)
    ee.add_argument("--periodic", action="store_true")
    ee.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ee.set_defaults(fn=cmd_exp)

    return p


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # threads, out, and timing are execution details, not part of the
    # semantic run config; excluding them keeps results.json byte-stable
    # for one (config, seed) across thread counts and output locations.
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("fn", "threads", "out", "timing") and not callable(v)
    }
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line  # one stderr line per warning, no source echo
            report = args.fn(args)
        wall = time.perf_counter() - t0
        try:
            emit(
                report,
                config,
                args.out,
                fmt=args.format,
                timing=wall if args.timing else None,
            )
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLargeError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except RcgibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # One line, no traceback; the innermost frame says where it broke.
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"({Path(where.filename).name}:{where.lineno})",
            file=sys.stderr,
        )
        return 4
    violations = int(report.get("violations", 0) or 0)
    return 1 if violations > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
