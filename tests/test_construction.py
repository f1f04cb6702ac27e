"""Graph construction: quantization, PEG placement, structure, alist IO."""

import os
import re

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
from hybridldpc.groups import SymbolMap, bits_per_symbol, identity_map

from oracles import (
    diagonal_edge_index,
    empirical_pi_check,
    empirical_pi_var,
    random_tree_code,
    reference_peg_place,
)

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
        diagonal_edge_index(code, t)


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
    e = diagonal_edge_index(code, 0)
    bad.edge_row[e] = code.m - 1
    with pytest.raises(ConstructionError):
        bad.validate()


def test_validate_names_first_row_without_diagonal_edge():
    code = build_code(small_hybrid(), 512, seed=0)
    gone = [diagonal_edge_index(code, t) for t in (code.m - 2, 5, 9)]
    keep = np.setdiff1d(np.arange(code.n_edges), gone)
    bad = HybridParityCheck(
        var_groups=code.var_groups,
        check_groups=code.check_groups,
        n_info=code.n_info,
        edge_row=code.edge_row[keep],
        edge_col=code.edge_col[keep],
        edge_maps=[code.edge_maps[e] for e in keep],
    )
    with pytest.raises(ConstructionError, match=r"^row 5 lacks a unique diagonal edge$"):
        bad.validate()


ID2, ID8 = identity_map(2), identity_map(8)
A28, B28 = SymbolMap(2, 8, (5,)), SymbolMap(2, 8, (3,))
# rows of G(2) and G(8); information columns of G(2), G(2), G(8)
TINY = [(0, 0, ID2), (1, 0, A28), (0, 1, ID2), (1, 1, B28), (1, 2, ID8), (0, 3, ID2), (1, 4, ID8)]


def tiny_code(edges) -> HybridParityCheck:
    return HybridParityCheck(
        var_groups=np.array([2, 2, 8, 2, 8]), check_groups=np.array([2, 8]), n_info=3,
        edge_row=np.array([r for r, _c, _mp in edges], dtype=np.int64),
        edge_col=np.array([c for _r, c, _mp in edges], dtype=np.int64),
        edge_maps=[mp for _r, _c, mp in edges])


@pytest.mark.parametrize("edges, message", [
    # each list holds a second fault on a later edge, of a check that
    # comes earlier in order, or of the same check
    (TINY[:3] + [(0, 1, ID2)] + TINY[3:] + [(1, 3, A28), (0, 0, ID2)],
     "duplicate edge (0, 1)"),
    (TINY[:4] + [(0, 2, ID8)] + TINY[5:] + [(0, 3, ID2)],
     "edge (0, 2): variable group 8 exceeds check group 2"),
    (TINY[:1] + [(1, 0, ID2)] + TINY[2:4] + [(0, 2, ID8)] + TINY[5:],
     "edge (1, 0): map orders do not match groups"),
    (TINY[:4] + [(1, 2, SymbolMap(8, 8, (2, 1, 4)))] + TINY[5:6] + [(1, 4, ID2)],
     "edge (1, 2): same-group edge must carry identity"),
    (TINY[:6] + [(1, 3, A28)] + TINY[6:] + [(1, 4, ID8)],
     "edge (1, 3) below the redundancy diagonal breaks triangularity"),
], ids=["duplicate", "exceeds", "map-orders", "identity", "triangularity"])
def test_validate_names_first_bad_edge_and_its_first_failed_check(edges, message):
    tiny_code(TINY).validate()
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        tiny_code(edges).validate()


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


@pytest.mark.parametrize("name, n_bits, path", [
    ("r12_binary_irregular", 3008, "perfbench/codes/r12_binary_irregular_3008_seed1.alist"),
    ("r16_hybrid_g256g16g8", 6144, "fer_results/codes/r16_hybrid_g256g16g8_6144.alist"),
    ("r16_gf256_regular", 6144, "fer_results/codes/r16_gf256_regular_6144.alist"),
])
def test_build_code_reproduces_shipped_alists(tmp_path, name, n_bits, path):
    out = str(tmp_path / "built.alist")
    save_code(build_code(Ensemble.load(fixture_path(name)), n_bits, seed=1), out)
    with open(os.path.join(ROOT, path), "rb") as a, open(out, "rb") as b:
        assert a.read() == b.read()


def test_alist_parse_error_reports_line(tmp_path):
    path = str(tmp_path / "bad.alist")
    with open(path, "w") as fh:
        fh.write("not an alist\n")
    with pytest.raises(AlistParseError):
        load_code(path)


def test_truncated_alist_reports_end_of_file_once(tmp_path):
    path = str(tmp_path / "cut.alist")
    save_code(tiny_code(TINY), path)
    with open(path) as fh:
        magic = fh.readline()
    with open(path, "w") as fh:
        fh.write(magic)
    with pytest.raises(AlistParseError, match=r"^line 2: unexpected end of file$"):
        load_code(path)


@pytest.mark.parametrize("lineno, text, message", [
    (6, "2 5", "line 6: max degrees 2 5, edges give 2 4"),
    (8, "4 3", "line 8: row 0: 3 edges, degree says 4"),
    (15, None, "line 15: unexpected end of file"),
], ids=["max-degrees", "row-degrees", "missing-row-line"])
def test_alist_header_must_describe_the_edges(tmp_path, lineno, text, message):
    path = str(tmp_path / "tiny.alist")
    save_code(tiny_code(TINY), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 15 and lines[5] == "2 4" and lines[7] == "3 4"
    load_code(path)
    if text is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = text
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(AlistParseError, match=f"^{re.escape(message)}$"):
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


def test_bit_counts_follow_the_column_orders():
    code = build_code(small_hybrid(), 512, seed=0)
    bits = [bits_per_symbol(int(q)) for q in code.var_groups]
    assert code.n_bits == sum(bits) and code.info_bits == sum(bits[: code.n_info])
    assert len(np.unique(code.var_groups[: code.n_info])) > 1
    # an invalid order raises as bits_per_symbol does
    bad = HybridParityCheck(
        var_groups=np.array([2, 6, 8]), check_groups=np.array([8]), n_info=2,
        edge_row=np.array([0]), edge_col=np.array([2]), edge_maps=[identity_map(8)])
    for prop in ("n_bits", "info_bits"):
        with pytest.raises(ValueError, match="power of two in \\[2, 256\\], got 6"):
            getattr(bad, prop)


def test_build_code_refuses_unhostable_ensemble():
    # group 16 would host 0.55 of the redundancy nodes but holds 0.375
    ens = Ensemble.from_factored(
        [2, 4, 16], {2: 0.25, 3: 0.5, 6: 0.25}, {5: 0.5, 6: 0.5},
        {2: {16: 1.0}, 3: {2: 0.6, 4: 0.4}, 6: {2: 1.0}})
    with pytest.raises(ConstructionError, match="group 16"):
        build_code(ens, 1024, seed=0)


@pytest.mark.parametrize("name, n_bits", [
    ("r12_binary_irregular", 600), ("r12_gf8_regular36", 1026),
    ("r12_gf8_regular36", 512), ("r12_hybrid_g8g2", 1024),
    ("r16_hybrid_g256g16g8", 2048), (None, 700)])
def test_peg_matches_full_search(monkeypatch, name, n_bits):
    # the component shortcut and the early stop of the row-level search
    # pick the same rows, and draw the same ties, as a full breadth-first
    # search of the bipartite graph; the 512-bit GF(8) build overflows a row
    ens = small_hybrid() if name is None else Ensemble.load(fixture_path(name))
    for seed in (3, 4):
        fast = build_code(ens, n_bits, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(construction._Peg, "place", reference_peg_place)
            full = build_code(ens, n_bits, seed=seed)
        assert np.array_equal(fast.edge_row, full.edge_row)
        assert np.array_equal(fast.edge_col, full.edge_col)
        assert [m.cols for m in fast.edge_maps] == [m.cols for m in full.edge_maps]
