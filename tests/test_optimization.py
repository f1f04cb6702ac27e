"""Degree-distribution LP behavior in both design directions."""

import math

import numpy as np
import pytest

from hybridldpc import optimization
from hybridldpc.channel import ChannelParams
from hybridldpc.density_evolution import (
    aggregate_mi,
    de_converges,
    exit_iteration_hybrid,
)
from hybridldpc.ensembles import Ensemble
from hybridldpc.optimization import (
    ConstraintGrid,
    OptimizationError,
    best_sigma,
    binary_info_gamma,
    gamma_exit_matrix,
    lambda_exit_matrix,
    optimize_gamma,
    optimize_lambda,
)

from oracles import lambda_marginal

# coarse grid keeps the unit tests fast; the acceptance suite runs the
# full-resolution checks
QUICK = ConstraintGrid(points=40)


def small_profile() -> dict[int, dict[int, float]]:
    return binary_info_gamma(8, 8)


def test_binary_info_gamma_layout():
    prof = binary_info_gamma(6, 64)
    assert prof[2] == {64: 1.0}
    assert all(prof[i] == {2: 1.0} for i in range(3, 7))


def test_lambda_design_is_structurally_valid():
    des = optimize_lambda(small_profile(), {6: 1.0}, 0.9, grid=QUICK)
    lam = des.lambda_
    assert abs(sum(lam.values()) - 1.0) < 1e-12
    assert all(0.0 < v <= 1.0 for v in lam.values())
    assert set(lam) <= set(small_profile())
    # redundancy host row: check-group node mass covers one column per row
    red = sum(rj / j for j, rj in des.rho.items())
    hosted = sum(lam[i] * des.gamma_profile[i].get(des.check_group, 0.0) / i
                 for i in lam)
    assert hosted >= red - 1e-9
    assert des.ensemble.rate() == pytest.approx(des.rate)


def test_lambda_rate_floor_respected():
    des = optimize_lambda(small_profile(), {6: 1.0}, 0.8, grid=QUICK,
                          rate_min=0.4)
    assert des.rate >= 0.4 - 1e-9


def test_lambda_rate_eq_pins_rate():
    des = optimize_lambda(small_profile(), {6: 1.0}, 0.8, grid=QUICK,
                          rate_eq=0.45)
    assert des.rate == pytest.approx(0.45, abs=1e-9)


def test_lambda_rate_modes_mutually_exclusive():
    with pytest.raises(OptimizationError):
        optimize_lambda(small_profile(), {6: 1.0}, 0.8, grid=QUICK,
                        rate_min=0.4, rate_eq=0.5)


def test_degree2_binary_mass_prohibited():
    prof = {2: {2: 1.0}, 3: {8: 1.0}, 5: {2: 1.0}}
    with pytest.raises(OptimizationError):
        optimize_lambda(prof, {6: 1.0}, 0.8, grid=QUICK)
    des = optimize_lambda(prof, {6: 1.0}, 0.8, grid=QUICK,
                          allow_binary_degree2=True)
    assert abs(sum(des.lambda_.values()) - 1.0) < 1e-12


def test_lambda_linearization_matches_full_iteration(rng):
    # quick version of the acceptance audit: the LP rows evaluated at a
    # lambda equal the true one-iteration aggregate MI of that ensemble
    prof = small_profile()
    rho = {6: 1.0}
    sigma = 0.9
    m_bc = ChannelParams(sigma).m_bc
    xs = np.linspace(0.1, 0.9, 5)
    A, degrees = lambda_exit_matrix(prof, rho, 8, m_bc, xs)
    for _ in range(5):
        raw = rng.random(len(degrees))
        lam = {i: float(v / raw.sum()) for i, v in zip(degrees, raw)}
        ens = Ensemble.from_factored(
            sorted({k for p in prof.values() for k in p} | {8}),
            lam, rho, {i: prof[i] for i in lam})
        lam_vec = np.array([lam[i] for i in degrees])
        for g, x in enumerate(xs):
            state = {((i, qk), ql): float(x) for (i, _j, qk, ql) in ens.pi}
            out = aggregate_mi(exit_iteration_hybrid(state, ens, m_bc), ens)
            assert out == pytest.approx(float(A[g] @ lam_vec), abs=1e-10)


def test_gamma_linearization_matches_full_iteration(rng):
    # the LP rows of the regular direction, evaluated at a group split,
    # equal the true one-iteration aggregate MI of that ensemble
    gs = [8, 16, 256]
    m_bc = ChannelParams(1.45).m_bc
    xs = ConstraintGrid(points=30).xs()
    A, cols = gamma_exit_matrix(2, 3, gs, 256, m_bc, xs)
    assert cols == gs
    for _ in range(5):
        raw = rng.random(len(gs))
        gamma = {k: float(v / raw.sum()) for k, v in zip(gs, raw)}
        ens = Ensemble.from_factored(gs, {2: 1.0}, {3: 1.0}, {2: gamma})
        gamma_vec = np.array([gamma[k] for k in gs])
        for g, x in enumerate(xs):
            state = {((i, qk), ql): float(x) for (i, _j, qk, ql) in ens.pi}
            out = aggregate_mi(exit_iteration_hybrid(state, ens, m_bc), ens)
            assert out == pytest.approx(float(A[g] @ gamma_vec), abs=1e-10)


def test_gamma_design_is_structurally_valid():
    des = optimize_gamma(2, 3, [8, 16, 256], 1.45, grid=QUICK, rate_eq=1 / 6)
    assert abs(sum(des.gamma.values()) - 1.0) < 1e-12
    assert des.rate == pytest.approx(1 / 6, abs=1e-9)
    # host row: redundancy fraction 1/d_c within the check-group node share
    assert des.gamma.get(des.check_group, 0.0) / des.d_v >= 1 / des.d_c - 1e-9


def test_lp_calls_the_module_linprog(monkeypatch):
    # the benchmark times the LP by wrapping optimization.linprog
    calls = []
    real = optimization.linprog

    def spy(*args, **kwargs):
        calls.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(optimization, "linprog", spy)
    des = optimize_gamma(2, 3, [8, 16, 256], 1.45, grid=QUICK, rate_eq=1 / 6)
    assert calls == ["highs"]
    assert des.rate == pytest.approx(1 / 6, abs=1e-9)


def test_gamma_excludes_binary_degree2():
    des = optimize_gamma(2, 3, [2, 8, 64], 1.2, grid=QUICK)
    assert des.gamma.get(2, 0.0) == 0.0


def test_designed_ensemble_converges_at_design_sigma():
    des = optimize_lambda(small_profile(), {6: 1.0}, 0.8, grid=QUICK,
                          rate_min=0.4)
    assert de_converges(des.ensemble, 0.8 * (1.0 - 1e-3))


def test_constraint_grid_dense_near_one():
    xs = ConstraintGrid().xs()
    assert len(xs) == 100
    assert xs[0] == 0.0 and xs[-1] == pytest.approx(1.0 - 1e-4)
    assert np.all(np.diff(xs) > 0)
    # 40 points above 0.99, equally spaced in log(1 - x)
    tail = xs[xs > 0.99]
    assert len(tail) == 40
    steps = np.diff(np.log(1.0 - np.concatenate([[0.99], tail])))
    assert np.allclose(steps, steps[0])
    # a small grid keeps the same split
    assert int(np.sum(QUICK.xs() > 0.99)) == 16


def test_lp_design_converges_under_de():
    # the rate-maximizing design at sigma 0.85 stalls at 0.9989 under DE
    # when the grid is uniform, so the LP must see points above 0.99
    des = optimize_lambda(binary_info_gamma(10, 8), {6: 1.0}, 0.85)
    assert de_converges(des.ensemble, 0.85 * (1.0 - 1e-3))


def test_bisect_sigma_finds_feasibility_edge():
    edge = 1.17

    def solve(s):
        if s > edge:
            raise OptimizationError("infeasible")
        return ("design", s)

    design, sigma = best_sigma(solve, 0.5, 2.0, 1e-4)
    assert design == "design"
    assert abs(sigma - edge) < 1e-3
    # feasible at the upper end: no bisection
    assert best_sigma(solve, 0.5, 1.0) == ("design", 1.0)

    def never(s):
        raise OptimizationError("no")

    with pytest.raises(OptimizationError):
        best_sigma(never, 0.5, 2.0, 1e-4)


def test_packaged_designs_converge_at_recorded_sigma():
    # fixtures record the sigma each design was solved at; full DE must
    # agree with 1e-3 relative slack
    import json

    from hybridldpc.ensembles import fixture_path

    with open(fixture_path("designs")) as fh:
        designs = json.load(fh)
    checked = 0
    for name, doc in designs.items():
        if doc.get("design_sigma") is None:
            continue
        ens = Ensemble.load(fixture_path(name))
        degrees = set(lambda_marginal(ens))
        # the group-split direction designs at d_v = 2 sit on a feasibility
        # edge thinner than the MI table jitter; give them a wider berth
        slack = 1e-3 if degrees != {2} else 5e-3
        assert de_converges(ens, doc["design_sigma"] * (1.0 - slack)), name
        checked += 1
    assert checked >= 3
