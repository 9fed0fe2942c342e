#!/usr/bin/env python3
"""Binary-tree chain scan: fixed points, activity values, 1/2-crossings."""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from rcgibbs.errors import TooLargeError, check_cap
from rcgibbs.experiments import run_cayley

ap = argparse.ArgumentParser()
ap.add_argument("--grid", default="0.1:2.0:0.05", metavar="A:B:STEP")
args = ap.parse_args()

# exit 2 on a malformed grid, 3 past the J-grid point cap, each with one line
try:
    a, b, s = (float(x) for x in args.grid.split(":"))
except ValueError:
    print(f"error: bad --grid {args.grid!r}: expected A:B:STEP", file=sys.stderr)
    sys.exit(2)
if not (all(map(math.isfinite, (a, b, s))) and s > 0):
    print(f"error: bad --grid {args.grid!r}: need finite ends and a positive finite step", file=sys.stderr)
    sys.exit(2)
span = (b + 1e-12 - a) / s  # may be inf: a step too small for the float range
n_points = math.floor(span) + 1 if span < 2**53 else span
try:
    check_cap("J-grid points", n_points)
except TooLargeError as exc:
    print(f"resource cap: {exc}", file=sys.stderr)
    sys.exit(3)
# the points a, a + s, ... up to b + 1e-12, rounded to 10 places
grid = [round(a + i * s, 10) for i in range(max(n_points, 0))]

rep = run_cayley(grid)
cf = rep["crossing_formula"]
cb = rep["crossing_branching"]
print(f"printed formula crossing  J* = {cf['J_star']:.9f}  gap to log(3)/2 = {cf['gap_to_log3_half']:+.9f}")
print(f"bare determinant crossing J* = {cb['J_star']:.9f}  gap to log(3)/2 = {cb['gap_to_log3_half']:+.2e}")

out = Path("runs/cayley")
out.mkdir(parents=True, exist_ok=True)
(out / "scan.json").write_text(json.dumps(rep, indent=2))
with open(out / "scan.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(
        ["J", "n_fixed_points", "pbar_formula", "pbar_branching",
         "critical_field", "pbar_formula_at_boundary", "pbar_branching_at_boundary"]
    )
    for r in rep["rows"]:
        w.writerow([r["J"], r["n_fixed_points"], r["pbar_formula"], r["pbar_branching"],
                    r["critical_field"], r["pbar_formula_at_boundary"],
                    r["pbar_branching_at_boundary"]])
print(f"wrote {out}/scan.json, scan.csv")
