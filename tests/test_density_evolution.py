"""MI functionals, EXIT recursion, and threshold search behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from hybridldpc import density_evolution
from hybridldpc.channel import ChannelParams
from hybridldpc.density_evolution import (
    _HI_DB,
    JTable,
    JvFamily,
    clamp_stats,
    de_converges,
    de_trajectory,
    exit_iteration_hybrid,
    get_table,
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
from scipy.interpolate import PchipInterpolator

from oracles import (
    InadmissibleMeanError,
    ReferenceJTable,
    binary_j_quadrature,
    covariance_from_mean,
    exit_iteration_gfq,
    ldr_mi,
    mutual_info_mc,
    reference_jc_grid_i,
    reference_jv_grid_i,
    reference_mi_grid,
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


# the q = 256 case spans two sample chunks with a short grid to stay
# quick. The kernel factors the common terms out of the log-sum-exp, so
# it agrees with the direct walk up to rounding: 2.2e-16 measured, and
# the bound leaves a factor of about 50.
@pytest.mark.parametrize("q, m_bc, kw", [
    (4, 0.8, {}), (8, 1.3, {}), (8, 0.41, {}), (16, 2.1, {}), (32, 1.7, {}),
    (256, 1.0, {"points": 8, "n_samples": 32_000}),
])
def test_jv_family_matches_direct_walk(q, m_bc, kw):
    fam = JvFamily(q, m_bc, **kw)
    assert np.max(np.abs(fam.grid_i - reference_jv_grid_i(q, m_bc, **kw))) <= 1e-14
    interp = PchipInterpolator(fam.grid_c, fam.grid_i, extrapolate=False)
    c_max = float(fam.grid_c[-1])
    cs = np.concatenate([[-1.0, -0.0, 0.0, c_max, c_max + 1.0], fam.grid_c,
                         np.random.default_rng(q).uniform(0.0, c_max, 200)])
    for c in cs.tolist():
        before = clamp_stats.count
        got = fam.eval(c)
        assert got == float(interp(min(max(c, 0.0), c_max)))
        assert clamp_stats.count - before == int(c < 0.0) + int(c > c_max)


def test_jv_family_at_the_strongest_searched_channel():
    # threshold_search reaches _HI_DB, which at rate 1/2 is m_bc = 20: the
    # widest channel part the kernel's factored sum must absorb
    m_bc = ChannelParams.from_ebn0_db(_HI_DB, 0.5).m_bc
    kw = {"points": 12, "n_samples": 32_000}
    fam = JvFamily(256, m_bc, **kw)
    assert np.all(np.isfinite(fam.grid_i))
    assert 0.0 <= fam.grid_i[0] and fam.grid_i[-1] <= 1.0
    assert np.all(np.diff(fam.grid_i) > 0)
    assert np.max(np.abs(fam.grid_i - reference_jv_grid_i(256, m_bc, **kw))) <= 1e-14


# z is drawn one block at a time and summed one tree node at a time, so
# neither size may change the draws or the values; each patched block
# size leaves a short last block, and each node cap cuts z blocks
@pytest.mark.parametrize("build, block, leaf", [
    (lambda: JvFamily(8, 1.3, points=24, n_samples=10_000), 7 * 3001, 5000),
    (lambda: JvFamily(256, 1.0, points=8, n_samples=32_000), 255 * 97, 1500),
    (lambda: JTable.build(32, n_samples=4000, points=16), 31 * 333, 700),
], ids=["jv_q8", "jv_q256", "jc_q32"])
def test_mi_grid_independent_of_block_size(build, block, leaf, monkeypatch):
    want = build().grid_i
    monkeypatch.setattr(density_evolution, "_BLOCK_ELEMS", block)
    monkeypatch.setattr(density_evolution, "_LEAF_SAMPLES", leaf)
    assert np.array_equal(build().grid_i, want)


# the streamed kernel against the whole-chunk kernel it replaced: the same
# draws, the same per-value arithmetic and the same pairwise sums. "two
# chunks" spans 31,250 + 750 samples; "straddle" has q = 32 z blocks of
# 1057 samples, which cross the nodes at 2496, 5000 and 7496 of the
# whole-chunk walk
@pytest.mark.parametrize("q, m_bc, n_samples, chunk, points", [
    (4, 0.8, 40_000, 40_000, 96),
    (8, 1.3, 40_000, 40_000, 96),
    (256, 1.0, 32_000, 31_250, 8),
    (16, None, 45_000, 20_000, 32),
    (32, 1.7, 10_007, 10_007, 16),
], ids=["jv_q4", "jv_q8", "jv_q256_two_chunks", "jc_q16", "jv_q32_straddle"])
def test_mi_grid_bit_identical_to_frozen_kernel(q, m_bc, n_samples, chunk, points):
    grid = density_evolution._grid(density_evolution._M_MAX, points)
    rngs = [np.random.default_rng(np.random.SeedSequence([q, n_samples])) for _ in "ab"]
    got = density_evolution._mi_grid(q, grid, n_samples, rngs[0], chunk, m_bc)
    want = reference_mi_grid(q, grid, n_samples, rngs[1], chunk, m_bc)
    assert np.array_equal(got, want)
    # and the generator resumes where the frozen kernel left it
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_pairwise_nodes_sum_like_numpy():
    # the kernel adds node sums as numpy's pairwise sum adds its halves;
    # "first value + pairwise(rest)" or a sequential sum would differ
    rng = np.random.default_rng(11)
    for n in [*range(1, 300), 1000, 2496, 4681, 5000, 20_000, 31_250, 40_000]:
        a = rng.exponential(size=n) * 10.0 ** rng.uniform(-3, 3)
        for cap in (130, 700, 4096):
            got = density_evolution._pairwise_nodes(
                n, cap, lambda r0, m: a[None, r0:r0 + m].sum(axis=1))
            assert got[0] == a.sum()
            assert density_evolution._largest_node(n, cap) <= max(cap, 128)


def test_jv_family_working_set_is_a_block_not_the_chunk():
    # the whole-chunk kernel held a (96, 40,000) array at q = 8
    JvFamily(8, 1.3, points=4, n_samples=100)   # scipy's imports are traced too
    tracemalloc.start()
    try:
        JvFamily(8, 1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 40_000 * 8 / 4


def test_jtable_build_matches_direct_walk():
    # 4000 samples span four blocks at q = 32, the last one short. The
    # blocked walk groups the sums differently, so it agrees up to rounding
    # only.
    tab = JTable.build(32, n_samples=4000, points=16)
    ref = reference_jc_grid_i(32, n_samples=4000, points=16)
    assert tab.grid_i.shape == ref.shape == (16,)
    assert np.max(np.abs(tab.grid_i - ref)) <= 1e-12


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256])
def test_jc_lookups_bit_identical_to_scipy_calls(q):
    tab = get_table(q)
    ref = ReferenceJTable(tab)
    rng = np.random.default_rng(q)
    m_top = ref.m_max
    ms = np.concatenate([
        [-1.0, -1e-300, -0.0, 0.0, m_top, np.nextafter(m_top, np.inf), m_top + 1.0, 1e3],
        tab.grid_m, rng.uniform(0.0, m_top, 750), 10.0 ** rng.uniform(-4, 1.9, 750)])
    want_hits = 0
    before = clamp_stats.count
    for m in ms.tolist():
        want, hits = ref.jc(m)
        want_hits += hits
        assert jc(m, q) == want
    assert clamp_stats.count - before == want_hits
    i_top = ref.i_max
    targets = np.concatenate([
        [-0.1, -0.0, 0.0, 5e-324, i_top, np.nextafter(i_top, 0.0), 1.0, 1.5],
        tab.grid_i, rng.uniform(0.0, i_top, 750), 1.0 - 10.0 ** rng.uniform(-9, 0, 750)])
    want, want_hits = ref.jc_inv(targets)
    before = clamp_stats.count
    got = np.array([jc_inv(t, q) for t in targets.tolist()])
    assert np.array_equal(got, want)
    assert clamp_stats.count - before == want_hits


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


def limited(predicate, limit=100):
    """Spy that records its probes and stops a bisection that never ends."""
    probes = []

    def probe(*args):
        probes.append(args[-1])
        if len(probes) > limit:
            raise AssertionError("bisection did not stop")
        return predicate(args[-1])

    return probe, probes


@pytest.mark.parametrize("tol_db", [0.0, -0.01])
def test_threshold_search_rejects_nonpositive_tol(monkeypatch, tol_db):
    # a bracket never narrows to a width of zero or less: fail before
    # the first density evolution run
    fake, probes = limited(lambda sigma: sigma < 0.9)
    monkeypatch.setattr(density_evolution, "de_converges", fake)
    with pytest.raises(ValueError, match=f"positive, got {tol_db!r}"):
        threshold_search(binary_36(), tol_db=tol_db)
    assert probes == []


def test_bisect_edge_probe_order():
    # good end, bad end, then midpoints; the good end of the bracket wins
    ok, probes = limited(lambda x: x >= 0.3)
    assert density_evolution.bisect_edge(ok, 0.0, 1.0, 0.1, good_hi=True) == 0.3125
    assert probes == [1.0, 0.0, 0.5, 0.25, 0.375, 0.3125]
    ok, probes = limited(lambda x: x <= 0.3)
    assert density_evolution.bisect_edge(ok, 0.0, 1.0, 0.1, good_hi=False) == 0.25
    assert probes == [0.0, 1.0, 0.5, 0.25, 0.375, 0.3125]
    ok, probes = limited(lambda x: x > 2.0)
    assert density_evolution.bisect_edge(ok, 0.0, 1.0, 0.1, good_hi=True) is None
    assert probes == [1.0]
    ok, probes = limited(lambda x: True)
    assert density_evolution.bisect_edge(ok, 0.0, 1.0, 0.1, good_hi=True) == 0.0
    assert probes == [1.0, 0.0]


def test_bisect_edge_rejects_bad_bracket_and_stops_at_rounding():
    ok, probes = limited(lambda x: x >= 0.3)
    for lo, hi, tol in ((1.0, 0.0, 0.1), (0.5, 0.5, 0.1), (0.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            density_evolution.bisect_edge(ok, lo, hi, tol, good_hi=True)
    assert probes == []
    # a tolerance below one ulp ends when no midpoint is left strictly inside
    edge = density_evolution.bisect_edge(ok, 0.0, 1.0, 1e-300, good_hi=True)
    assert edge == 0.3 and len(probes) < 100
