"""Degree distribution bookkeeping: pi, marginals, rates, serialization."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hybridldpc.ensembles import (
    Ensemble,
    EnsembleError,
    fixture_path,
    node_proportions,
)

from oracles import (
    gamma_given_degree,
    lambda_marginal,
    rate_lambda_profile,
    rate_regular,
    rho_marginal,
)

FIXTURES = [
    "r12_binary_irregular",
    "r12_gf8_regular36",
    "r12_hybrid_g8g2",
    "r16_gf256_regular",
    "r16_hybrid_g256g16g8",
]


def two_group() -> Ensemble:
    return Ensemble.from_factored(
        [2, 8],
        {2: 0.3, 3: 0.4, 8: 0.3},
        {6: 1.0},
        {2: {8: 1.0}, 3: {2: 1.0}, 8: {2: 0.5, 8: 0.5}},
    )


def test_from_factored_marginals_roundtrip():
    ens = two_group()
    lam = lambda_marginal(ens)
    assert lam[2] == pytest.approx(0.3)
    assert lam[3] == pytest.approx(0.4)
    assert lam[8] == pytest.approx(0.3)
    assert rho_marginal(ens) == pytest.approx({6: 1.0})
    assert gamma_given_degree(ens, 8) == pytest.approx({2: 0.5, 8: 0.5})
    assert gamma_given_degree(ens, 2) == pytest.approx({8: 1.0})


def test_pi_sums_to_one():
    ens = two_group()
    assert sum(ens.pi.values()) == pytest.approx(1.0, abs=1e-12)


def test_conditionals_normalize():
    ens = two_group()
    for (j, ql) in ens.pi_check():
        s = sum(ens.var_class_given_check_class(j, ql).values())
        assert s == pytest.approx(1.0, abs=1e-12)
    for (i, qk) in ens.pi_var():
        s = sum(ens.check_class_given_var_class(i, qk).values())
        assert s == pytest.approx(1.0, abs=1e-12)


def test_conditional_bayes_consistency():
    ens = two_group()
    # pi(i,j,k,l) = pi_var(i,k) * check_class_given_var_class(i,k)[(j,l)]
    for (i, j, qk, ql), m in ens.pi.items():
        w = ens.pi_var()[(i, qk)] * ens.check_class_given_var_class(i, qk)[(j, ql)]
        assert w == pytest.approx(m, abs=1e-12)


def test_var_group_exceeding_check_group_rejected():
    with pytest.raises(EnsembleError, match="variable group exceeds check group"):
        Ensemble((4, 8), {(3, 6, 8, 4): 1.0})


def test_bad_mass_rejected():
    with pytest.raises(EnsembleError):
        Ensemble.from_factored([2], {3: 0.9}, {6: 1.0}, {3: {2: 1.0}})
    with pytest.raises(EnsembleError):
        Ensemble.from_factored([2], {3: 1.0}, {6: 0.5}, {3: {2: 1.0}})
    with pytest.raises(EnsembleError):
        Ensemble.from_factored([2], {3: 1.0}, {6: 1.0}, {3: {2: 0.7}})


def test_redundancy_overflow_rejected():
    # all checks in G(8) but almost no variable nodes there
    ens = Ensemble.from_factored(
        [2, 8],
        {2: 0.98, 3: 0.02},
        {3: 1.0},
        {2: {2: 1.0}, 3: {8: 1.0}},
    )
    with pytest.raises(EnsembleError):
        node_proportions(ens)


def test_node_proportions_regular_36():
    ens = Ensemble.from_factored([8], {3: 1.0}, {6: 1.0}, {3: {8: 1.0}})
    info, red = node_proportions(ens)
    assert info == pytest.approx({8: 0.5})
    assert red == pytest.approx({8: 0.5})


def test_rate_formulas_agree():
    ens = two_group()
    r_general = ens.rate()
    lam = lambda_marginal(ens)
    gamma = {i: gamma_given_degree(ens, i) for i in lam}
    r_profile = rate_lambda_profile(lam, rho_marginal(ens), gamma, 8)
    assert r_general == pytest.approx(r_profile, abs=1e-12)


def test_rate_regular_agrees_with_general():
    ens = Ensemble.from_factored(
        [8, 256], {2: 1.0}, {3: 1.0}, {2: {8: 0.32, 256: 0.68}},
    )
    gt = ens.var_group_node_fractions()
    r1 = rate_regular(2, 3, gt, 256)
    assert ens.rate() == pytest.approx(r1, abs=1e-12)


@given(st.integers(2, 6), st.integers(3, 12))
@settings(max_examples=30, deadline=None)
def test_rate_regular_binary_identity(d_v, d_c):
    # single binary group: R = 1 - d_v/d_c
    if d_v >= d_c:
        return
    assert rate_regular(d_v, d_c, {2: 1.0}, 2) == pytest.approx(1 - d_v / d_c)


def test_save_load_roundtrip(tmp_path):
    ens = two_group()
    path = str(tmp_path / "ens.json")
    ens.save(path)
    again = Ensemble.load(path)
    assert again.groups == ens.groups
    assert set(again.pi) == set(ens.pi)
    for key, m in ens.pi.items():
        assert again.pi[key] == pytest.approx(m, abs=1e-15)


def test_factored_json_form():
    # only the pi form is read: a factored document, or one of another
    # format, is an error that names the cause
    factored = {
        "format": "hybrid-ensemble-1",
        "groups": [2, 8],
        "lambda": {"3": 1.0},
        "rho": {"6": 1.0},
        "gamma": {"3": {"2": 0.5, "8": 0.5}},
    }
    with pytest.raises(EnsembleError, match="no pi rows"):
        Ensemble.from_json_dict(factored)
    doc = two_group().to_json_dict()
    with pytest.raises(EnsembleError, match="format 'hybrid-ensemble-2'"):
        Ensemble.from_json_dict(dict(doc, format="hybrid-ensemble-2"))
    del doc["format"]
    with pytest.raises(EnsembleError, match="format None"):
        Ensemble.from_json_dict(doc)


@pytest.mark.parametrize("name", FIXTURES)
def test_packaged_fixtures_load(name):
    ens = Ensemble.load(fixture_path(name))
    assert sum(ens.pi.values()) == pytest.approx(1.0, abs=1e-9)
    node_proportions(ens)


def test_design_summary_matches_fixtures():
    with open(fixture_path("designs")) as fh:
        designs = json.load(fh)
    assert sorted(designs) == FIXTURES
    for name, entry in designs.items():
        ens = Ensemble.load(fixture_path(name))
        fractions = {str(q): f for q, f in ens.var_group_node_fractions().items()}
        assert entry["node_fractions"] == fractions, name
        assert entry["rate"] == ens.rate(), name


def test_fixture_rates_hit_targets():
    for name, target in [("r12_hybrid_g8g2", 0.5),
                         ("r16_hybrid_g256g16g8", 1 / 6)]:
        ens = Ensemble.load(fixture_path(name))
        assert ens.rate() == pytest.approx(target, abs=1e-6)
