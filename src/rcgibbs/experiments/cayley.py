"""Markov chains on the rooted binary tree: fixed points and bond activity.

Chains at coupling J and field h are indexed by solutions of
t = h + log(cosh(t+J)/cosh(t-J)). The non-overlap bond-activity parameter
is evaluated both as printed in the source material (determinant times
tanh 4J) and as the bare determinant, which equals the exact per-edge
disagreement-propagation probability; the two crossings of 1/2 are
located and compared with log(3)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG3_HALF = math.log(3.0) / 2.0


def _log_cosh_ratio(t: float, J: float) -> float:
    # log(cosh(t+J)/cosh(t-J)), stable for large |t|
    return (
        math.log(math.cosh(t + J)) - math.log(math.cosh(t - J))
        if max(abs(t + J), abs(t - J)) < 300
        else abs(t + J) - abs(t - J)
    )


def fixed_point_residual(J: float, h: float, t: float) -> float:
    return abs(t - h - _log_cosh_ratio(t, J))


def cayley_fixed_points(J: float, h: float, tol: float = 1e-12) -> list[float]:
    """All real solutions of t = h + log(cosh(t+J)/cosh(t-J)).

    Bracketed bisection on a grid covering |t| <= 10J + |h| + 5,
    deduplicated at 1e-9.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    # imported where a root is solved: scipy.optimize loads some 300 scipy
    # modules, which no other command of the package needs
    from scipy.optimize import brentq

    f = lambda t: t - h - _log_cosh_ratio(t, J)
    span = 10 * J + abs(h) + 5
    grid = np.linspace(-span, span, 4001)
    vals = [f(t) for t in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0:
            roots.append(float(brentq(f, a, b, xtol=tol)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    dedup = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    return dedup


def transition_matrix(J: float, t: float) -> np.ndarray:
    """Forward transition matrix of the chain with boundary parameter t."""
    return np.array(
        [
            [
                math.exp(J - t) / (2 * math.cosh(J - t)),
                math.exp(t - J) / (2 * math.cosh(J - t)),
            ],
            [
                math.exp(-J - t) / (2 * math.cosh(J + t)),
                math.exp(t + J) / (2 * math.cosh(J + t)),
            ],
        ]
    )


@dataclass(frozen=True)
class CayleyActivity:
    """Bond-activity quantities at one (J, h, t) point.

    value is the printed formula det(A) * tanh(4J); branching_value is the
    bare determinant, which the package's own small-tree enumeration
    identifies as the exact conditional activity parameter. p_single and
    p_nonoverlap are the printed single-copy and doubled-coupling bond
    probabilities quoted for comparison.
    """

    J: float
    h: float
    t: float
    det: float
    value: float
    branching_value: float
    p_single: float
    p_nonoverlap: float


def cayley_pbar(J: float, h: float, t: float) -> CayleyActivity:
    A = transition_matrix(J, t)
    det = float(A[0, 0] * A[1, 1] - A[1, 0] * A[0, 1])
    return CayleyActivity(
        J=J,
        h=h,
        t=t,
        det=det,
        value=det * math.tanh(4 * J),
        branching_value=det,
        p_single=math.tanh(2 * J),
        p_nonoverlap=math.tanh(4 * J),
    )


def argmax_boundary_t(J: float) -> float:
    """t maximizing log(cosh(t+J)/cosh(t-J)) - t over t >= 0."""
    from scipy.optimize import brentq

    g = lambda t: math.tanh(t + J) - math.tanh(t - J) - 1.0
    if g(0.0) <= 0:
        return 0.0
    hi = 1.0
    while g(hi) > 0:
        hi *= 2
        if hi > 1e6:
            raise RuntimeError("no stationary point found")
    return float(brentq(g, 0.0, hi, xtol=1e-13))


def critical_field(J: float) -> float:
    t = argmax_boundary_t(J)
    return _log_cosh_ratio(t, J) - t


def crossing_scan(
    variant: str = "formula",
    h: float = 0.0,
    bracket=(1e-3, 3.0),
    xtol: float = 1e-9,
) -> dict:
    """Locate the coupling where the activity parameter crosses 1/2.

    variant "formula" uses det * tanh(4J); "branching" uses the bare
    determinant. At h = 0 the chain used is t = 0. Returns the crossing
    and its gap to log(3)/2.
    """

    def val(J: float) -> float:
        roots = cayley_fixed_points(J, h)
        t = min(roots, key=abs) if h == 0 else roots[0]
        act = cayley_pbar(J, h, t)
        return act.value if variant == "formula" else act.branching_value

    from scipy.optimize import brentq

    f = lambda J: val(J) - 0.5
    lo, hi = bracket
    if f(lo) * f(hi) > 0:
        raise ValueError("no crossing inside the bracket")
    J_star = float(brentq(f, lo, hi, xtol=xtol))
    return {
        "variant": variant,
        "J_star": J_star,
        "gap_to_log3_half": J_star - LOG3_HALF,
        "value_at_crossing": val(J_star),
    }


def nonoverlap_connection_recursion(J: float, depth: int, branching: int = 2) -> float:
    """Closed-form survival of root-to-depth active connection, zero field.

    Per edge, conditional on the parent disagreeing between the copies,
    the child disagrees the same way and the doubled-coupling coin comes
    up with total probability equal to det(A(J, 0)) = tanh(J); the root
    disagrees with probability 1/2.
    """
    p = cayley_pbar(J, 0.0, 0.0).branching_value
    f = 1.0
    for _ in range(depth):
        f = 1.0 - (1.0 - p * f) ** branching
    return 0.5 * f


def run_cayley(J_grid=None, h: float = 0.0) -> dict:
    """Fixed points, activity values, crossings, and boundary comparison."""
    if J_grid is None:
        J_grid = [0.1 + 0.05 * i for i in range(39)]
    rows = []
    for J in J_grid:
        roots = cayley_fixed_points(J, h)
        t0 = min(roots, key=abs) if h == 0 else roots[0]
        act = cayley_pbar(J, h, t0)
        tm = argmax_boundary_t(J)
        act_b = cayley_pbar(J, critical_field(J), tm)
        rows.append(
            {
                "J": J,
                "n_fixed_points": len(roots),
                "fixed_points": roots,
                "max_residual": max(fixed_point_residual(J, h, t) for t in roots),
                "pbar_formula": act.value,
                "pbar_branching": act.branching_value,
                "boundary_t": tm,
                "critical_field": critical_field(J),
                "pbar_formula_at_boundary": act_b.value,
                "pbar_branching_at_boundary": act_b.branching_value,
            }
        )
    crossing_formula = crossing_scan("formula", h=h, xtol=1e-9)
    crossing_branching = crossing_scan("branching", h=h, xtol=1e-9)
    return {
        "h": h,
        "rows": rows,
        "crossing_formula": crossing_formula,
        "crossing_branching": crossing_branching,
        "log3_half": LOG3_HALF,
    }
