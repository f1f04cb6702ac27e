"""MI functionals, EXIT recursion, and threshold search behavior."""

import math

import numpy as np
import pytest

from hybridldpc.channel import ChannelParams
from hybridldpc.density_evolution import (
    de_converges,
    de_trajectory,
    exit_iteration_hybrid,
    initial_state,
    jc,
    jc_inv,
    jv_channel_offset,
    mi_extend,
    mi_truncate,
    threshold_search,
)
from hybridldpc.ensembles import Ensemble
from hybridldpc.groups import symbol_weights

from oracles import (
    InadmissibleMeanError,
    binary_j_quadrature,
    covariance_from_mean,
    exit_iteration_gfq,
    ldr_mi,
    mutual_info_mc,
    sample_channel_ldr,
)


def binary_36() -> Ensemble:
    return Ensemble.from_factored([2], {3: 1.0}, {6: 1.0}, {3: {2: 1.0}})


def test_covariance_structure():
    q = 8
    m = 1.7 * symbol_weights(q)[1:].astype(np.float64)
    cov = covariance_from_mean(m, q)
    mfull = np.concatenate([[0.0], m])
    for a in range(1, q):
        for b in range(1, q):
            assert cov[a - 1, b - 1] == pytest.approx(
                mfull[a] + mfull[b] - mfull[a ^ b])
    assert np.allclose(cov, cov.T)


def test_covariance_rejects_inadmissible_mean():
    # huge single component cannot come from any symmetric Gaussian
    with pytest.raises(InadmissibleMeanError):
        covariance_from_mean(np.array([1.0, 1.0, 40.0]), 4)


def test_jc_monotone_with_endpoints():
    for q in (2, 4, 16):
        ms = np.linspace(0.0, 50.0, 40)
        vals = np.array([jc(float(m), q) for m in ms])
        assert vals[0] == pytest.approx(0.0, abs=1e-3)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 0.99


def test_jc_inverse_roundtrip():
    for q in (2, 8):
        for i in np.linspace(0.05, 0.95, 10):
            m = jc_inv(float(i), q)
            assert jc(m, q) == pytest.approx(i, abs=1e-6)


def test_jc_binary_matches_quadrature_oracle():
    # table is Monte Carlo built; the oracle integrates the exact density
    for m in (0.3, 1.0, 3.0, 8.0, 20.0):
        assert jc(m, 2) == pytest.approx(binary_j_quadrature(m), abs=5e-3)


def test_mutual_info_mc_matches_oracle_channel():
    q = 8
    params = ChannelParams(0.9)
    m = params.m_bc * symbol_weights(q)[1:].astype(np.float64)
    val, se = mutual_info_mc(m, q, n_samples=200_000, seed=3)
    rng = np.random.default_rng(10)
    w = sample_channel_ldr(rng, q, params.m_bc, 200_000)
    ref = ldr_mi(w, q)
    assert se < 2e-3
    assert val == pytest.approx(ref, abs=5e-3)


def test_jv_binary_collapses_to_jc():
    m_bc = 2.4
    for c in (0.0, 0.7, 5.0):
        assert jv_channel_offset(2, m_bc, c) == jc(m_bc + c, 2)


def test_jv_zero_offset_matches_channel_mi():
    q = 8
    m_bc = ChannelParams(0.8).m_bc
    rng = np.random.default_rng(5)
    w = sample_channel_ldr(rng, q, m_bc, 400_000)
    assert jv_channel_offset(q, m_bc, 0.0) == pytest.approx(ldr_mi(w, q), abs=5e-3)


@pytest.mark.parametrize("q", [4, 8])
def test_jv_offset_matches_general_mean_mc(q):
    # the family samples channel and offset parts separately; the oracle
    # samples the full covariance of the mean m_bc * weight(a) + c. The
    # bound is about 3 standard errors of the family's 40,000 samples.
    m_bc = 1.3
    w = symbol_weights(q)[1:].astype(np.float64)
    for c in (0.9, 4.0):
        ref, se = mutual_info_mc(m_bc * w + c, q, n_samples=200_000, seed=4)
        assert se < 2e-3
        assert jv_channel_offset(q, m_bc, c) == pytest.approx(ref, abs=1e-2)


def test_mi_extend_bounds_and_monotonicity():
    xs = np.linspace(0.0, 1.0, 21)
    for q, big in ((2, 8), (4, 64), (8, 256)):
        vals = [mi_extend(float(x), q, big) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert np.all(np.diff(vals) > 0)
        # embedding adds knowledge of the coset: MI can only grow
        assert all(v >= x for v, x in zip(vals, xs))
        assert mi_extend(1.0, q, big) == pytest.approx(1.0)
    assert mi_extend(0.42, 8, 8) == 0.42
    with pytest.raises(ValueError):
        mi_extend(0.5, 8, 4)


def test_mi_truncate_bounds_and_monotonicity():
    xs = np.linspace(0.01, 0.99, 21)
    for big, q in ((8, 2), (64, 4), (256, 8)):
        vals = [mi_truncate(float(x), big, q) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert np.all(np.diff(vals) > 0)
    assert mi_truncate(0.0, 64, 4) == 0.0
    assert mi_truncate(0.42, 8, 8) == 0.42
    with pytest.raises(ValueError):
        mi_truncate(0.5, 4, 8)


def test_hybrid_iteration_collapses_to_single_group():
    # quick version of the full collapse check in the acceptance suite
    q = 4
    ens = Ensemble.from_factored([q], {3: 1.0}, {6: 1.0}, {3: {q: 1.0}})
    for sigma in (0.8, 1.1):
        m_bc = ChannelParams(sigma).m_bc
        for x in np.linspace(0.05, 0.95, 10):
            state = {((3, q), q): float(x)}
            got = exit_iteration_hybrid(state, ens, m_bc)[((3, q), q)]
            want = exit_iteration_gfq(float(x), {3: 1.0}, {6: 1.0}, m_bc, q)
            assert got == pytest.approx(want, abs=1e-12)


def test_initial_state_covers_every_edge_class():
    ens = Ensemble.from_factored(
        [2, 8], {2: 0.3, 3: 0.4, 8: 0.3}, {6: 1.0},
        {2: {8: 1.0}, 3: {2: 1.0}, 8: {2: 0.3, 8: 0.7}})
    state = initial_state(ens, ChannelParams(1.0).m_bc)
    for (i, j, qk, ql) in ens.pi:
        assert ((i, qk), ql) in state
        assert 0.0 <= state[((i, qk), ql)] <= 1.0


def test_de_trajectory_monotone_until_stop():
    ens = binary_36()
    ok, traj = de_trajectory(ens, 0.84)
    assert ok
    assert np.all(np.diff(traj) > 0)


def test_de_converges_splits_around_threshold():
    ens = binary_36()
    assert de_converges(ens, 0.84)
    assert not de_converges(ens, 0.95)


def test_threshold_search_binary_regular():
    # GA threshold of the binary (3,6) ensemble sits near 1.1 dB Eb/N0
    thr = threshold_search(binary_36(), tol_db=0.02)
    assert 0.95 < thr < 1.35
    sigma_ok = ChannelParams.from_ebn0_db(thr + 0.02, 0.5).sigma
    sigma_bad = ChannelParams.from_ebn0_db(thr - 0.1, 0.5).sigma
    assert de_converges(binary_36(), sigma_ok)
    assert not de_converges(binary_36(), sigma_bad)
