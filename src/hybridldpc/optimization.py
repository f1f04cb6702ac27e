"""Degree-profile design for hybrid ensembles via linear programming.

The one-iteration evolution map becomes linear in the variable-side
proportions once every message class is seeded with one common scalar:
with all check nodes in the same group, the check-side combination sees
the same input regardless of how variable mass is split, so the updated
aggregate is a plain weighted sum of per-class outputs. Those per-class
outputs are precomputed on a grid of seed values and the monotonicity
constraint F(x) >= x + margin turns into one inequality row per grid
point.

Two directions are supported, mirroring the two ways of pinning one
factor of pi(i, k) and optimizing the other:

* ``optimize_lambda``: the group profile gamma(i, k) per degree is
  fixed, the edge degree distribution lambda is the unknown.
* ``optimize_gamma``: the graph is (d_v, d_c) regular and the edge-wise
  split of variable nodes across groups is the unknown.

Both maximize the rate numerator (the average variable-node bit
content per edge) at a fixed design channel, which is equivalent to
maximizing the code rate since the check side is held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .density_evolution import check_node_mi, mi_extend, mi_truncate, var_node_mi
from .ensembles import Ensemble

__all__ = [
    "OptimizationError",
    "ConstraintGrid",
    "LambdaDesign",
    "GammaDesign",
    "binary_info_gamma",
    "lambda_exit_matrix",
    "gamma_exit_matrix",
    "optimize_lambda",
    "optimize_gamma",
    "best_sigma",
]

_MASS_EPS = 1e-9


class OptimizationError(RuntimeError):
    """Raised when a design problem is malformed or infeasible."""


# Near x = 1 the evolution map can stall at a fixed point a few 1e-3 below
# the convergence target, which a uniform grid of 0.01 spacing steps over;
# a share _GRID_TAIL of the grid therefore lies above _GRID_KNEE.
_GRID_KNEE = 0.99
_GRID_TAIL = 0.4


@dataclass(frozen=True)
class ConstraintGrid:
    """Grid of seed values for the linearized convergence constraint.

    40 percent of the points lie above 0.99, equally spaced in log(1 - x)
    up to ``x_max``; the rest are equally spaced on [0, 0.99].
    """

    points: int = 100
    x_max: float = 1.0 - 1e-4
    margin: float = 1e-5

    def xs(self) -> np.ndarray:
        if self.points < 2:
            raise OptimizationError("constraint grid needs at least 2 points")
        if not 0.0 < self.x_max < 1.0:
            raise OptimizationError(f"x_max {self.x_max!r} outside (0, 1)")
        n_tail = 0
        if self.x_max > _GRID_KNEE:
            n_tail = min(round(_GRID_TAIL * self.points), self.points - 2)
        if n_tail == 0:
            return np.linspace(0.0, self.x_max, self.points)
        lin = np.linspace(0.0, _GRID_KNEE, self.points - n_tail)
        gaps = np.geomspace(1.0 - _GRID_KNEE, 1.0 - self.x_max, n_tail + 1)[1:]
        return np.concatenate([lin, 1.0 - gaps])


@dataclass(frozen=True)
class LambdaDesign:
    """Result of the fixed-gamma direction."""

    lambda_: dict[int, float]
    gamma_profile: dict[int, dict[int, float]]
    rho: dict[int, float]
    check_group: int
    sigma: float
    rate: float
    objective: float
    ensemble: Ensemble


@dataclass(frozen=True)
class GammaDesign:
    """Result of the fixed-connectivity direction."""

    gamma: dict[int, float]
    d_v: int
    d_c: int
    check_group: int
    sigma: float
    rate: float
    objective: float
    ensemble: Ensemble


def binary_info_gamma(max_degree: int, high_group: int) -> dict[int, dict[int, float]]:
    """Profile with degree-2 mass in the high group and everything else
    binary: the structural layout where redundancy symbols carry the
    large alphabet and information symbols stay cheap to decode."""
    profile: dict[int, dict[int, float]] = {2: {high_group: 1.0}}
    for i in range(3, max_degree + 1):
        profile[i] = {2: 1.0}
    return profile


def lambda_exit_matrix(
    gamma_profile: dict[int, dict[int, float]],
    rho: dict[int, float],
    check_group: int,
    m_bc: float,
    xs: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """Rows: grid points. Columns: degrees. Entry (g, i) is the aggregate
    MI after one iteration contributed per unit of lambda_i when the
    state is seeded at xs[g]. The node updates are those of
    ``exit_iteration_hybrid``."""
    degrees = sorted(gamma_profile)
    var_groups = sorted({k for prof in gamma_profile.values()
                         for k, v in prof.items() if v > 0})
    A = np.zeros((len(xs), len(degrees)))
    for g, x in enumerate(xs):
        xcv = {}
        for j in sorted(rho):
            x_check = check_node_mi(float(x), j, check_group)
            for k in var_groups:
                xcv[(j, k)] = mi_truncate(x_check, check_group, k)
        for col, i in enumerate(degrees):
            acc = 0.0
            for k, gik in sorted(gamma_profile[i].items()):
                if gik <= 0:
                    continue
                z = sum(rj * xcv[(j, k)] for j, rj in sorted(rho.items()))
                acc += gik * mi_extend(var_node_mi(z, i, k, m_bc), k, check_group)
            A[g, col] = acc
    return A, degrees


def gamma_exit_matrix(
    d_v: int,
    d_c: int,
    groups: list[int],
    check_group: int,
    m_bc: float,
    xs: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """Same linearization for the regular-connectivity direction: entry
    (g, k) is the one-iteration aggregate per unit of group-k edge mass."""
    gs = sorted(groups)
    A = np.zeros((len(xs), len(gs)))
    for g, x in enumerate(xs):
        x_check = check_node_mi(float(x), d_c, check_group)
        for col, k in enumerate(gs):
            z = mi_truncate(x_check, check_group, k)
            A[g, col] = mi_extend(var_node_mi(z, d_v, k, m_bc), k, check_group)
    return A, gs


def _clean_weights(values: np.ndarray, keys: list, eps: float = _MASS_EPS) -> dict:
    """Drop solver dust and renormalize to unit mass."""
    kept = {k: float(v) for k, v in zip(keys, values) if v > eps}
    if not kept:
        raise OptimizationError("solution has no mass above tolerance")
    total = sum(kept.values())
    return {k: v / total for k, v in sorted(kept.items())}


# Defers the scipy import to the first LP, so encoding and decoding never load it.
def linprog(*args, **kwargs):
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _solve_design_lp(
    A: np.ndarray,
    xs: np.ndarray,
    margin: float,
    w: np.ndarray,
    host: np.ndarray,
    red_nodes: float,
    red_bits: float,
    rate_min: float | None,
    rate_eq: float | None,
    var_bounds: list[tuple[float, float]],
) -> np.ndarray:
    """Common LP core of both design directions.

    Maximizes the rate ``w @ v`` subject to the seed-grid rows
    ``A v >= xs + margin``, the simplex constraint and the redundancy
    host row ``host @ v >= red_nodes``. A rate R holds when
    ``w @ v`` equals ``red_bits / (1 - R)``; ``rate_min`` makes that a
    floor. With ``rate_eq`` the rate is no longer free, so the objective
    switches to the uniform margin above the grid (an auxiliary variable
    added to every row).
    """
    if rate_min is not None and rate_eq is not None:
        raise OptimizationError("rate_min and rate_eq are mutually exclusive")
    m_rows, n = A.shape
    if rate_eq is not None:
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.vstack([
            np.hstack([-A, np.ones((m_rows, 1))]),
            np.hstack([-host[None, :], [[0.0]]]),
        ])
        b_ub = np.concatenate([-(xs + margin), [-red_nodes]])
        a_eq = np.vstack([
            np.hstack([np.ones((1, n)), [[0.0]]]),
            np.hstack([w[None, :], [[0.0]]]),
        ])
        b_eq = np.array([1.0, red_bits / (1.0 - rate_eq)])
        bounds = list(var_bounds) + [(0.0, 1.0)]
    else:
        c = -w
        a_ub = [-A, -host[None, :]]
        b_ub = [-(xs + margin), [-red_nodes]]
        if rate_min is not None:
            a_ub.append(-w[None, :])
            b_ub.append([-red_bits / (1.0 - rate_min)])
        a_ub = np.vstack(a_ub)
        b_ub = np.concatenate(b_ub)
        a_eq = np.ones((1, n))
        b_eq = np.array([1.0])
        bounds = list(var_bounds)
    res = linprog(c=c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise OptimizationError(f"linear program failed: {res.message}")
    return res.x


def optimize_lambda(
    gamma_profile: dict[int, dict[int, float]],
    rho: dict[int, float],
    sigma: float,
    grid: ConstraintGrid = ConstraintGrid(),
    rate_min: float | None = None,
    rate_eq: float | None = None,
    allow_binary_degree2: bool = False,
    name: str = "",
) -> LambdaDesign:
    """Optimize lambda at a fixed design channel.

    ``gamma_profile[i][k]`` fixes how degree-i edge mass splits across
    groups. All check nodes sit in the largest group present. The
    convergence constraint is enforced on the seed grid. Two objectives:
    by default maximize the code rate, optionally with a ``rate_min``
    floor; with ``rate_eq`` the rate is pinned exactly and the uniform
    margin above the seed grid is maximized instead (the natural
    objective once the rate is no longer free).
    """
    if not gamma_profile:
        raise OptimizationError("empty gamma profile")
    all_groups = sorted({k for prof in gamma_profile.values() for k in prof})
    check_group = all_groups[-1]
    g22 = gamma_profile.get(2, {}).get(2, 0.0)
    if g22 > 0 and not allow_binary_degree2:
        raise OptimizationError(
            "degree-2 binary variables are prohibited; pass "
            "allow_binary_degree2=True to override"
        )
    for i, prof in gamma_profile.items():
        s = sum(prof.values())
        if abs(s - 1.0) > 1e-9:
            raise OptimizationError(f"gamma profile for degree {i} sums to {s!r}")
    m_bc = ChannelParams(sigma).m_bc
    xs = grid.xs()
    A, degrees = lambda_exit_matrix(gamma_profile, rho, check_group, m_bc, xs)
    n = len(degrees)
    w = np.array([
        sum(gamma_profile[i].get(k, 0.0) * math.log2(k) for k in all_groups) / i
        for i in degrees
    ])
    # every check row owns one redundancy column in the check group, so
    # the check group must host at least that many variable nodes
    red_nodes = sum(rj / j for j, rj in rho.items())
    host = np.array([gamma_profile[i].get(check_group, 0.0) / i
                     for i in degrees])
    res = _solve_design_lp(A, xs, grid.margin, w, host, red_nodes,
                           red_nodes * math.log2(check_group), rate_min, rate_eq,
                           [(0.0, 1.0)] * n)
    lam = _clean_weights(res[:n], degrees)
    gamma = {i: dict(sorted(gamma_profile[i].items())) for i in lam}
    ens = Ensemble.from_factored(all_groups, lam, dict(sorted(rho.items())),
                                 gamma, name=name)
    return LambdaDesign(
        lambda_=lam,
        gamma_profile=gamma,
        rho=dict(sorted(rho.items())),
        check_group=check_group,
        sigma=sigma,
        rate=ens.rate(),
        objective=float(w @ res[:n]),
        ensemble=ens,
    )


def optimize_gamma(
    d_v: int,
    d_c: int,
    groups: list[int],
    sigma: float,
    grid: ConstraintGrid = ConstraintGrid(),
    rate_min: float | None = None,
    rate_eq: float | None = None,
    name: str = "",
) -> GammaDesign:
    """Maximize the code rate over the group split of a (d_v, d_c)
    regular graph at a fixed design channel, all check nodes in the
    largest group. With ``rate_eq`` the rate is pinned exactly and the
    uniform grid margin is maximized instead.

    Degree-2 binary mass is structurally excluded: when d_v == 2 the
    binary group gets a hard zero bound.
    """
    gs = sorted(set(groups))
    check_group = gs[-1]
    if d_v < 2 or d_c < 2:
        raise OptimizationError("degrees must be at least 2")
    m_bc = ChannelParams(sigma).m_bc
    xs = grid.xs()
    A, gs = gamma_exit_matrix(d_v, d_c, gs, check_group, m_bc, xs)
    n = len(gs)
    w = np.array([math.log2(k) / d_v for k in gs])
    bounds = []
    for k in gs:
        if k == 2 and d_v == 2:
            bounds.append((0.0, 0.0))
        else:
            bounds.append((0.0, 1.0))
    # redundancy columns all live in the check group: its node share
    # (equal to its edge share on a regular graph) must cover them
    host = np.array([1.0 / d_v if k == check_group else 0.0 for k in gs])
    res = _solve_design_lp(A, xs, grid.margin, w, host, 1.0 / d_c,
                           math.log2(check_group) / d_c, rate_min, rate_eq,
                           bounds)
    g = _clean_weights(res[:n], gs)
    ens_groups = sorted(set(g) | {check_group})
    ens = Ensemble.from_factored(
        ens_groups, {d_v: 1.0}, {d_c: 1.0}, {d_v: g}, name=name,
    )
    return GammaDesign(
        gamma=g,
        d_v=d_v,
        d_c=d_c,
        check_group=check_group,
        sigma=sigma,
        rate=ens.rate(),
        objective=float(w @ res[:n]),
        ensemble=ens,
    )


def best_sigma(solve, lo: float, hi: float, tol: float = 1e-3):
    """Push the design channel as noisy as the problem allows.

    ``solve(sigma)`` returns a design or raises OptimizationError; the
    result is the design found at the largest feasible sigma in
    [lo, hi], located by bisection to within ``tol``.
    """
    try:
        best = solve(lo)
    except OptimizationError as exc:
        raise OptimizationError(
            f"design infeasible even at sigma={lo}: {exc}"
        ) from exc
    try:
        return solve(hi)
    except OptimizationError:
        pass
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        try:
            best = solve(mid)
            lo = mid
        except OptimizationError:
            hi = mid
    return best
