"""Graph construction: quantization, PEG placement, structure, alist IO."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridldpc import construction
from hybridldpc.construction import (
    AlistParseError,
    ConstructionError,
    HybridParityCheck,
    _layout,
    _plan,
    _quantize,
    apportion,
    build_code,
    built_length,
    length_window,
    load_code,
    save_code,
)
from hybridldpc.ensembles import Ensemble, fixture_path
from hybridldpc.groups import bits_per_symbol

from oracles import empirical_pi_check, empirical_pi_var, random_tree_code, reference_peg_place

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_hybrid() -> Ensemble:
    return Ensemble.from_factored(
        [2, 8],
        {2: 0.3, 3: 0.4, 8: 0.3},
        {6: 1.0},
        {2: {8: 1.0}, 3: {2: 1.0}, 8: {2: 0.3, 8: 0.7}},
    )


def test_apportion_exact_unit_coins():
    counts = apportion({"a": 3.4, "b": 6.6}, {"a": 1, "b": 1}, 10)
    assert counts == {"a": 3, "b": 7}


def test_apportion_weighted_coins():
    # 3-bit and 1-bit classes paying into a 17-bit budget
    counts = apportion({"x": 2.2, "y": 9.0}, {"x": 3, "y": 1}, 17)
    assert counts["x"] * 3 + counts["y"] * 1 == 17


def test_apportion_repair_path():
    # greedy flooring must overshoot-repair: only coin 3 available, budget 7
    with pytest.raises(ConstructionError):
        apportion({"x": 2.0}, {"x": 3}, 7)


@given(st.integers(10, 400), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_apportion_budget_always_exact(total, seed):
    rng = np.random.default_rng(seed)
    coins = {"g2": 1, "g8": 3, "g16": 4}
    shares = rng.dirichlet([1.0, 1.0, 1.0])
    bits = {c: total * s for c, s in zip(coins, shares)}
    targets = {c: bits[c] / coins[c] for c in coins}
    try:
        counts = apportion(targets, coins, total)
    except ConstructionError:
        return
    assert sum(counts[c] * coins[c] for c in coins) == total
    for c in coins:
        assert counts[c] >= 0


@pytest.mark.parametrize("n_bits", [512, 1000])
def test_build_code_valid_and_sized(n_bits):
    code = build_code(small_hybrid(), n_bits, seed=5)
    code.validate()
    assert code.n_bits == n_bits
    assert code.n == code.n_info + code.m


def test_build_code_group_layout():
    code = build_code(small_hybrid(), 600, seed=1)
    info = code.var_groups[: code.n_info]
    red = code.var_groups[code.n_info:]
    assert np.all(np.diff(info) >= 0)
    assert np.all(np.diff(red) >= 0)
    assert np.array_equal(red, code.check_groups)


def test_build_code_triangular_redundancy():
    code = build_code(small_hybrid(), 600, seed=2)
    for e in range(code.n_edges):
        c, r = int(code.edge_col[e]), int(code.edge_row[e])
        if c >= code.n_info:
            assert r <= c - code.n_info
    for t in range(code.m):
        code.diagonal_edge_index(t)


def test_build_code_no_parallel_edges():
    code = build_code(small_hybrid(), 800, seed=3)
    pairs = set(zip(code.edge_row.tolist(), code.edge_col.tolist()))
    assert len(pairs) == code.n_edges


def test_build_code_empirical_pi_close():
    ens = small_hybrid()
    code = build_code(ens, 3000, seed=4)
    for emp, want in ((empirical_pi_var(code), ens.pi_var()),
                      (empirical_pi_check(code), ens.pi_check())):
        for key, mass in want.items():
            assert emp.get(key, 0.0) == pytest.approx(mass, abs=0.05)


def test_build_code_deterministic():
    a = build_code(small_hybrid(), 512, seed=9)
    b = build_code(small_hybrid(), 512, seed=9)
    assert np.array_equal(a.edge_row, b.edge_row)
    assert np.array_equal(a.edge_col, b.edge_col)
    assert all(x.cols == y.cols for x, y in zip(a.edge_maps, b.edge_maps))


def test_build_code_seed_changes_graph():
    a = build_code(small_hybrid(), 512, seed=9)
    b = build_code(small_hybrid(), 512, seed=10)
    assert not (np.array_equal(a.edge_row, b.edge_row)
                and np.array_equal(a.edge_col, b.edge_col))


def test_validate_catches_broken_triangularity():
    code = build_code(small_hybrid(), 512, seed=0)
    bad = HybridParityCheck(
        var_groups=code.var_groups,
        check_groups=code.check_groups,
        n_info=code.n_info,
        edge_row=code.edge_row.copy(),
        edge_col=code.edge_col.copy(),
        edge_maps=list(code.edge_maps),
        degree_shortfall=code.degree_shortfall,
    )
    e = code.diagonal_edge_index(0)
    bad.edge_row[e] = code.m - 1
    with pytest.raises(ConstructionError):
        bad.validate()


def test_alist_roundtrip(tmp_path):
    code = build_code(small_hybrid(), 700, seed=6)
    path = str(tmp_path / "code.alist")
    save_code(code, path)
    again = load_code(path)
    again.validate()
    assert np.array_equal(again.var_groups, code.var_groups)
    assert np.array_equal(again.check_groups, code.check_groups)
    assert again.n_info == code.n_info
    assert np.array_equal(again.edge_row, code.edge_row)
    assert np.array_equal(again.edge_col, code.edge_col)
    assert all(x.cols == y.cols for x, y in zip(again.edge_maps, code.edge_maps))
    # the file carries structure only; provenance fields do not round-trip
    assert again.seed is None


def test_alist_roundtrip_tree_codes(tmp_path, rng):
    for trial in range(5):
        code = random_tree_code(rng)
        path = str(tmp_path / f"tree{trial}.alist")
        save_code(code, path)
        again = load_code(path)
        again.validate()
        assert np.array_equal(again.edge_col, code.edge_col)


@pytest.mark.parametrize("path", [
    "perfbench/codes/r12_binary_irregular_3008_seed1.alist",
    "fer_results/codes/r16_hybrid_g256g16g8_6144.alist",
    "fer_results/codes/r16_gf256_regular_6144.alist",
])
def test_shipped_alist_roundtrip_is_byte_identical(tmp_path, path):
    src = os.path.join(ROOT, path)
    out = str(tmp_path / "again.alist")
    save_code(load_code(src), out)
    with open(src, "rb") as a, open(out, "rb") as b:
        assert a.read() == b.read()


def test_alist_parse_error_reports_line(tmp_path):
    path = str(tmp_path / "bad.alist")
    with open(path, "w") as fh:
        fh.write("not an alist\n")
    with pytest.raises(AlistParseError):
        load_code(path)


def test_fixture_codes_build():
    ens = Ensemble.load(fixture_path("r12_gf8_regular36"))
    code = build_code(ens, 1500, seed=0)
    code.validate()
    assert code.n_bits == 1500
    assert code.info_bits == pytest.approx(750, abs=3)


FIXTURES = ["r12_binary_irregular", "r12_gf8_regular36", "r12_hybrid_g8g2",
            "r16_gf256_regular", "r16_hybrid_g256g16g8"]


def _exact_cause(ens: Ensemble, n_bits: int) -> str | None:
    """Why quantization or layout refuse exactly n_bits; None if they don't."""
    try:
        var_counts, chk_counts, _ = _quantize(ens, n_bits)
        _layout(ens, var_counts, chk_counts)
    except ConstructionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", FIXTURES)
def test_length_rule(name):
    # the longest realisable length at or below the request, within the
    # window; exact whenever the request itself is realisable
    ens = Ensemble.load(fixture_path(name))
    window = length_window(ens)
    for n_bits in list(range(1, 1200, 13)) + [1024, 3008, 3072, 6144]:
        cause = _exact_cause(ens, n_bits)
        try:
            lay = _plan(ens, n_bits)
        except ConstructionError as exc:
            assert cause is not None and cause in str(exc)
            assert all(_exact_cause(ens, n) is not None
                       for n in range(max(1, n_bits - window + 1), n_bits))
            continue
        got = sum(bits_per_symbol(int(q)) for q in lay.var_groups)
        assert built_length(ens, n_bits) == got
        assert n_bits - window < got <= n_bits
        assert _exact_cause(ens, got) is None
        if cause is None:
            assert got == n_bits
        assert all(_exact_cause(ens, n) is not None for n in range(got + 1, n_bits))


def test_build_code_reports_built_length():
    ens = Ensemble.load(fixture_path("r12_gf8_regular36"))
    code = build_code(ens, 1024, seed=0)
    code.validate()
    assert code.n_bits == 1020  # 1024 is no multiple of 3; 1023 fails the check side
    assert built_length(ens, 1024) == 1020


def test_build_code_refuses_unhostable_ensemble():
    # group 16 would host 0.55 of the redundancy nodes but holds 0.375
    ens = Ensemble.from_factored(
        [2, 4, 16], {2: 0.25, 3: 0.5, 6: 0.25}, {5: 0.5, 6: 0.5},
        {2: {16: 1.0}, 3: {2: 0.6, 4: 0.4}, 6: {2: 1.0}})
    with pytest.raises(ConstructionError, match="group 16"):
        build_code(ens, 1024, seed=0)


@pytest.mark.parametrize("name, n_bits", [
    ("r12_binary_irregular", 600), ("r12_gf8_regular36", 1026),
    ("r12_hybrid_g8g2", 1024), ("r16_hybrid_g256g16g8", 2048), (None, 700)])
def test_peg_matches_full_search(monkeypatch, name, n_bits):
    # the component shortcut and the early stop of the search pick the
    # same rows, and draw the same ties, as a full breadth-first search
    ens = small_hybrid() if name is None else Ensemble.load(fixture_path(name))
    fast = build_code(ens, n_bits, seed=3)
    monkeypatch.setattr(construction._Peg, "place", reference_peg_place)
    full = build_code(ens, n_bits, seed=3)
    assert np.array_equal(fast.edge_row, full.edge_row)
    assert np.array_equal(fast.edge_col, full.edge_col)
    assert [m.cols for m in fast.edge_maps] == [m.cols for m in full.edge_maps]
