"""Degree-distribution LP behavior in both design directions."""

import json
import math

import numpy as np
import pytest

from hybridldpc import optimization
from hybridldpc.channel import ChannelParams
from hybridldpc.density_evolution import (
    aggregate_mi,
    de_converges,
    exit_iteration_hybrid,
    threshold_search,
)
from hybridldpc.ensembles import Ensemble, fixture_path
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


def test_design_benchmark_outputs_match_fixtures():
    # the two outputs the design benchmark checks, at its settings. Both
    # rest on the exact J_v sample stream: capping a sample chunk at 4096
    # moved this threshold to 0.46875 dB and made this LP infeasible
    with open(fixture_path("designs")) as fh:
        designs = json.load(fh)
    ens = Ensemble.load(fixture_path("r12_hybrid_g8g2"))
    assert threshold_search(ens, tol_db=0.01) == designs["r12_hybrid_g8g2"]["threshold_ebn0_db"]
    want = designs["r16_hybrid_g256g16g8"]
    d = optimize_gamma(2, 3, [8, 16, 256], want["design_sigma"], rate_eq=1 / 6)
    assert {str(k) for k in d.gamma} == set(want["node_fractions"])
    for k, v in d.gamma.items():
        assert v == pytest.approx(want["node_fractions"][str(k)], abs=1e-4)
    assert d.rate == pytest.approx(1 / 6, abs=1e-9)


def test_lp_rows_are_one_de_iteration():
    # each column is a class output of one exit_iteration_hybrid step from
    # the seeded state, on the ensemble holding the classes in equal shares
    with open(fixture_path("designs")) as fh:
        sigma = json.load(fh)["r16_hybrid_g256g16g8"]["design_sigma"]
    m_bc = ChannelParams(sigma).m_bc
    xs = ConstraintGrid().xs()
    gs = [8, 16, 256]
    A, cols = gamma_exit_matrix(2, 3, gs, 256, m_bc, xs)
    ens = Ensemble.from_factored(gs, {2: 1.0}, {3: 1.0},
                                 {2: {k: 1.0 / len(gs) for k in gs}})
    for g, x in enumerate(xs.tolist()):
        state = {((i, qk), ql): x for (i, _j, qk, ql) in ens.pi}
        out = exit_iteration_hybrid(state, ens, m_bc)
        assert A[g].tolist() == [out[((2, k), 256)] for k in cols]
    # the lambda direction mixes the same class outputs by gamma(i, k)
    prof = small_profile()
    A, degrees = lambda_exit_matrix(prof, {6: 1.0}, 8, m_bc, xs[:10])
    ens = Ensemble.from_factored([2, 8], {i: 1.0 / len(prof) for i in prof},
                                 {6: 1.0}, prof)
    for g, x in enumerate(xs[:10].tolist()):
        state = {((i, qk), ql): x for (i, _j, qk, ql) in ens.pi}
        out = exit_iteration_hybrid(state, ens, m_bc)
        assert A[g].tolist() == [out[((i, k), 8)] for i in degrees for k in prof[i]]


def no_rows(*args):
    raise AssertionError("constraint rows built for a malformed problem")


def test_conflicting_rates_fail_before_any_row(monkeypatch):
    monkeypatch.setattr(optimization, "gamma_exit_matrix", no_rows)
    monkeypatch.setattr(optimization, "lambda_exit_matrix", no_rows)
    with pytest.raises(OptimizationError, match="mutually exclusive"):
        optimize_gamma(2, 3, [8, 16, 256], 1.4, rate_min=0.1, rate_eq=1 / 6)
    with pytest.raises(OptimizationError, match="mutually exclusive"):
        optimize_lambda(small_profile(), {6: 1.0}, 0.8, rate_min=0.4,
                        rate_eq=0.5)


def test_gamma_rejects_empty_group_list(monkeypatch):
    monkeypatch.setattr(optimization, "gamma_exit_matrix", no_rows)
    with pytest.raises(OptimizationError, match="no variable groups"):
        optimize_gamma(2, 3, [], 1.4)


def limited_solve(edge: float, limit: int = 100):
    """Feasible up to ``edge``; stops a bisection that never ends."""
    calls = []

    def solve(s):
        calls.append(s)
        if len(calls) > limit:
            raise AssertionError("bisection did not stop")
        if s > edge:
            raise OptimizationError("infeasible")
        return ("design", s)

    return solve, calls


@pytest.mark.parametrize("lo, hi, tol", [(0.5, 2.0, 0.0), (0.5, 2.0, -1e-3),
                                         (1.0, 0.8, 1e-3), (0.9, 0.9, 1e-3)])
def test_best_sigma_rejects_bad_tol_and_bracket(lo, hi, tol):
    # with lo >= hi both ends are feasible, and the design at hi is the
    # smaller sigma: refuse before solving anything
    solve, calls = limited_solve(1.17)
    with pytest.raises(ValueError):
        best_sigma(solve, lo, hi, tol)
    assert calls == []


def test_best_sigma_keeps_its_error_and_stops_at_rounding():
    def never(s):
        raise OptimizationError("no")

    with pytest.raises(OptimizationError, match="sigma=0.5") as info:
        best_sigma(never, 0.5, 2.0)
    assert str(info.value.__cause__) == "no"
    solve, calls = limited_solve(1.17)
    design, sigma = best_sigma(solve, 0.5, 2.0, 1e-300)
    assert design == "design" and sigma == 1.17 and len(calls) < 100


def test_bad_rho_fails_by_name_before_any_row(monkeypatch):
    monkeypatch.setattr(optimization, "lambda_exit_matrix", no_rows)
    monkeypatch.setattr(optimization, "gamma_exit_matrix", no_rows)
    with pytest.raises(OptimizationError, match="rho masses sum to 0.5"):
        optimize_lambda(small_profile(), {6: 0.5}, 0.8)
    # the gamma direction's check degrees are {d_c: 1}: check the shared
    # LP core on its units directly
    gs = [8, 16, 256]
    with pytest.raises(OptimizationError, match="rho masses sum to 0.5"):
        optimization._design_lp(
            [(2, {k: 1.0}) for k in gs], {3: 0.5}, 1.4, QUICK, None, 1 / 6,
            [(0.0, 1.0)] * len(gs),
            lambda *args: optimization.gamma_exit_matrix(2, 3, gs, *args))


README_PROFILE = {2: {8: 1.0}, 3: {2: 1.0}, 8: {2: 0.3, 8: 0.7}}
R16_SIGMA = 1.4538085937499998  # designs.json, r16_hybrid_g256g16g8


# float.hex of the weights, the rate and the objective of a few designs of
# both directions, under every objective; the LP must reproduce them bit
# for bit
@pytest.mark.parametrize("design, weights, rate, objective", [
    pytest.param(
        lambda: optimize_gamma(2, 3, [8, 16, 256], R16_SIGMA, grid=QUICK,
                               rate_eq=1 / 6),
        {8: "0x1.1111111111118p-2", 16: "0x1.11111111110f8p-4",
         256: "0x1.5555555555555p-1"},
        "0x1.5555555555554p-3", "0x1.9999999999999p+1", id="gamma-r16-rate_eq"),
    pytest.param(
        lambda: optimize_gamma(2, 3, [2, 8, 64], 1.2, grid=QUICK),
        {64: "0x1.0000000000000p+0"},
        "0x1.5555555555555p-2", "0x1.8000000000000p+1", id="gamma-binary-excluded"),
    pytest.param(
        lambda: optimize_gamma(3, 6, [2, 4], 0.8, grid=ConstraintGrid(points=30),
                               rate_min=0.45),
        {4: "0x1.0000000000000p+0"},
        "0x1.0000000000000p-1", "0x1.5555555555555p-1", id="gamma-rate_min"),
    pytest.param(
        lambda: optimize_gamma(3, 5, [2, 8], 0.8, grid=QUICK),
        {8: "0x1.0000000000000p+0"},
        "0x1.9999999999998p-2", "0x1.0000000000000p+0", id="gamma-g8-checks"),
    pytest.param(
        lambda: optimize_lambda(README_PROFILE, {6: 1.0}, 0.75, rate_min=0.5),
        {2: "0x1.5a02fc9971350p-1", 3: "0x1.4bfa06cd1d960p-2"},
        "0x1.1bca1d0fd70c4p-1", "0x1.1f2c68aed75efp+0", id="lambda-readme"),
    pytest.param(
        lambda: optimize_lambda(small_profile(), {6: 1.0}, 0.9, grid=QUICK),
        {2: "0x1.631e825fa819ap-2", 3: "0x1.4e70bed02bf33p-1"},
        "0x1.4a2a83f51fd47p-2", "0x1.79d1cc0d220f0p-1", id="lambda-free"),
    pytest.param(
        lambda: optimize_lambda(small_profile(), {6: 1.0}, 0.8, grid=QUICK,
                                rate_eq=0.45),
        {2: "0x1.f959c427e566fp-2", 3: "0x1.03531dec0d4c8p-1"},
        "0x1.cccccccccccccp-2", "0x1.d1745d1745d16p-1", id="lambda-rate_eq"),
    pytest.param(
        lambda: optimize_lambda({2: {2: 1.0}, 3: {8: 1.0}, 5: {2: 1.0}}, {6: 1.0},
                                0.8, grid=QUICK, allow_binary_degree2=True),
        {3: "0x1.0000000000000p+0"},
        "0x1.0000000000000p-1", "0x1.0000000000000p+0", id="lambda-binary-degree2"),
])
def test_pinned_designs(design, weights, rate, objective):
    des = design()
    got = des.gamma if isinstance(des, optimization.GammaDesign) else des.lambda_
    assert {k: v.hex() for k, v in got.items()} == weights
    assert (des.rate.hex(), des.objective.hex()) == (rate, objective)
