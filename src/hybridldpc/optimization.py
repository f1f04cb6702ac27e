"""Degree-profile design for hybrid ensembles via linear programming.

The constraint rows are one step of density evolution itself: on the
ensemble that holds the design's (degree, group) variable classes, every
check in the largest group, ``exit_iteration_hybrid`` runs once from
every message seeded at one grid value x, and each class's output is
read off. With all checks in one group the check side sees x whatever
the variable mass split, so the updated aggregate is linear in the
variable-side proportions, and the constraint F(x) >= x + margin is one
inequality row per grid point.

Both directions pin one factor of pi(i, k) and solve the same LP for
the other. Its unknowns are the edge masses of a list of variable
units, each a (degree, {group: share of that degree's edges}) pair:

* ``optimize_lambda``: the group profile gamma(i, k) per degree is
  fixed; one unit per degree i carries gamma(i, .), and lambda is the
  unknown.
* ``optimize_gamma``: the graph is (d_v, d_c) regular; one unit
  (d_v, {k: 1}) per group k, and the edge-wise split of variable nodes
  across groups is the unknown.

The LP maximizes the rate numerator (the average variable-node bit
content per edge) at a fixed design channel, which is equivalent to
maximizing the code rate since the check side is held fixed; or, with
the rate pinned, the uniform margin above the seed grid. The rate
weights, the redundancy host row and the redundancy bit budget all
follow from the units and the check degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import ChannelParams
from .density_evolution import bisect_edge, exit_iteration_hybrid
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
        # F(x) >= x + margin asks each iteration to make progress only
        # with a positive margin
        if not 0.0 < self.margin < math.inf:
            raise OptimizationError(f"margin {self.margin!r} must be positive and finite")
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


def _class_outputs(classes: list[tuple[int, int]], rho: dict[int, float],
                   check_group: int, m_bc: float, xs: np.ndarray) -> np.ndarray:
    """Rows: grid points. Column c: the output MI of the variable class
    ``classes[c]`` = (degree, group) after one ``exit_iteration_hybrid``
    step from every message seeded at xs[g], on the ensemble that holds
    these classes in equal shares and every check in ``check_group`` with
    check degrees ``rho``."""
    share = 1.0 / len(classes)
    pi = {(i, j, k, check_group): share * rj
          for i, k in classes for j, rj in rho.items()}
    ens = Ensemble(tuple(sorted({k for _i, k in classes} | {check_group})), pi)
    out = np.empty((len(xs), len(classes)))
    for g, x in enumerate(xs.tolist()):
        state = exit_iteration_hybrid(
            {(c, check_group): x for c in classes}, ens, m_bc)
        out[g] = [state[(c, check_group)] for c in classes]
    return out


def _exit_matrix(units, rho, check_group, m_bc, xs) -> np.ndarray:
    """Rows: grid points. Column u: the aggregate MI after one iteration
    per unit of the LP unknown of ``units[u]`` = (degree, {group: share}),
    when the state is seeded at xs[g]: the share-weighted mixture of the
    class outputs of `_class_outputs`."""
    classes = [(i, k) for i, shares in units for k, s in shares.items() if s > 0]
    out = dict(zip(classes, _class_outputs(classes, rho, check_group, m_bc, xs).T))
    A = np.zeros((len(xs), len(units)))
    for u, (i, shares) in enumerate(units):
        for k, s in shares.items():
            if s > 0:
                A[:, u] += s * out[(i, k)]
    return A


def _lambda_units(gamma_profile: dict[int, dict[int, float]]) -> list:
    return [(i, dict(sorted(gamma_profile[i].items()))) for i in sorted(gamma_profile)]


def lambda_exit_matrix(
    gamma_profile: dict[int, dict[int, float]],
    rho: dict[int, float],
    check_group: int,
    m_bc: float,
    xs: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """`_exit_matrix` with one column per degree i, the unit carrying
    gamma(i, .)."""
    A = _exit_matrix(_lambda_units(gamma_profile), rho, check_group, m_bc, xs)
    return A, sorted(gamma_profile)


def gamma_exit_matrix(
    d_v: int,
    d_c: int,
    groups: list[int],
    check_group: int,
    m_bc: float,
    xs: np.ndarray,
) -> tuple[np.ndarray, list[int]]:
    """`_exit_matrix` of a (d_v, d_c) regular graph with one column per
    group k: the output of class (d_v, k)."""
    gs = sorted(groups)
    return _exit_matrix([(d_v, {k: 1.0}) for k in gs], {d_c: 1.0}, check_group,
                        m_bc, xs), gs


def _clean_weights(values: np.ndarray, keys: list, eps: float = 1e-9) -> dict:
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


def _design_lp(units, rho, sigma, grid, rate_min, rate_eq, bounds, exit_matrix):
    """The LP of both design directions over variable units.

    A unit is (degree, {group: share of that degree's edges}) with one
    unknown v_u, its edge mass; all checks sit in the largest group and
    have check degrees ``rho``. ``exit_matrix(check_group, m_bc, xs)``
    returns ``(A, columns)`` with A as `_exit_matrix` builds it.

    Maximizes the rate numerator ``w @ v`` (variable bits per edge)
    subject to the seed-grid rows ``A v >= xs + margin``, the simplex
    constraint and the redundancy host row: every check row owns one
    redundancy column in the check group, so that group must host at
    least ``red_nodes`` variable nodes per edge. A rate R holds when
    ``w @ v`` equals ``red_bits / (1 - R)``; ``rate_min`` makes that a
    floor. With ``rate_eq`` the rate is no longer free, so the objective
    switches to the uniform margin above the grid (an auxiliary variable
    added to every row). Returns v and ``w @ v``.
    """
    if rate_min is not None and rate_eq is not None:
        raise OptimizationError("rate_min and rate_eq are mutually exclusive")
    total = sum(rho.values())
    if abs(total - 1.0) > 1e-9:
        raise OptimizationError(f"rho masses sum to {total!r}, expected 1")
    check_group = max(k for _i, shares in units for k in shares)
    xs = grid.xs()
    A = exit_matrix(check_group, ChannelParams(sigma).m_bc, xs)[0]
    w = np.array([sum(s * math.log2(k) for k, s in shares.items()) / i
                  for i, shares in units])
    host = np.array([shares.get(check_group, 0.0) / i for i, shares in units])
    red_nodes = sum(rj / j for j, rj in rho.items())
    # summed per check degree, so that rho = {d_c: 1} rounds log2(q) / d_c once
    red_bits = sum(rj * math.log2(check_group) / j for j, rj in rho.items())
    m_rows, n = A.shape
    if rate_eq is not None:
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.vstack([
            np.hstack([-A, np.ones((m_rows, 1))]),
            np.hstack([-host[None, :], [[0.0]]]),
        ])
        b_ub = np.concatenate([-(xs + grid.margin), [-red_nodes]])
        a_eq = np.vstack([
            np.hstack([np.ones((1, n)), [[0.0]]]),
            np.hstack([w[None, :], [[0.0]]]),
        ])
        b_eq = np.array([1.0, red_bits / (1.0 - rate_eq)])
        bounds = list(bounds) + [(0.0, 1.0)]
    else:
        c = -w
        a_ub = [-A, -host[None, :]]
        b_ub = [-(xs + grid.margin), [-red_nodes]]
        if rate_min is not None:
            a_ub.append(-w[None, :])
            b_ub.append([-red_bits / (1.0 - rate_min)])
        a_ub = np.vstack(a_ub)
        b_ub = np.concatenate(b_ub)
        a_eq = np.ones((1, n))
        b_eq = np.array([1.0])
    res = linprog(c=c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise OptimizationError(f"linear program failed: {res.message}")
    return res.x[:n], float(w @ res.x[:n])


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
    units = _lambda_units(gamma_profile)
    v, objective = _design_lp(units, rho, sigma, grid, rate_min, rate_eq,
                              [(0.0, 1.0)] * len(units),
                              partial(lambda_exit_matrix, gamma_profile, rho))
    lam = _clean_weights(v, sorted(gamma_profile))
    gamma = {i: dict(sorted(gamma_profile[i].items())) for i in lam}
    all_groups = sorted({k for prof in gamma_profile.values() for k in prof})
    ens = Ensemble.from_factored(all_groups, lam, dict(sorted(rho.items())),
                                 gamma, name=name)
    return LambdaDesign(
        lambda_=lam,
        gamma_profile=gamma,
        rho=dict(sorted(rho.items())),
        check_group=all_groups[-1],
        sigma=sigma,
        rate=ens.rate(),
        objective=objective,
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
    if not groups:
        raise OptimizationError("no variable groups to split across")
    if d_v < 2 or d_c < 2:
        raise OptimizationError("degrees must be at least 2")
    gs = sorted(set(groups))
    bounds = [(0.0, 0.0 if k == 2 and d_v == 2 else 1.0) for k in gs]
    v, objective = _design_lp([(d_v, {k: 1.0}) for k in gs], {d_c: 1.0}, sigma,
                              grid, rate_min, rate_eq, bounds,
                              partial(gamma_exit_matrix, d_v, d_c, gs))
    g = _clean_weights(v, gs)
    ens = Ensemble.from_factored(sorted(set(g) | {gs[-1]}), {d_v: 1.0},
                                 {d_c: 1.0}, {d_v: g}, name=name)
    return GammaDesign(
        gamma=g,
        d_v=d_v,
        d_c=d_c,
        check_group=gs[-1],
        sigma=sigma,
        rate=ens.rate(),
        objective=objective,
        ensemble=ens,
    )


def best_sigma(solve, lo: float, hi: float, tol: float = 1e-3):
    """Push the design channel as noisy as the problem allows.

    ``solve(sigma)`` returns a design or raises OptimizationError; the
    result is the design found at the largest feasible sigma in
    [lo, hi], with lo < hi, located by bisection to within ``tol`` > 0.
    """
    designs = {}
    errors = []

    def feasible(sigma: float) -> bool:
        try:
            designs[sigma] = solve(sigma)
        except OptimizationError as exc:
            errors.append(exc)
            return False
        return True

    sigma = bisect_edge(feasible, lo, hi, tol, good_hi=False)
    if sigma is None:
        raise OptimizationError(
            f"design infeasible even at sigma={lo}: {errors[0]}"
        ) from errors[0]
    return designs[sigma]
