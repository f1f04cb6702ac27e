"""Monte Carlo harness: statistics, determinism, CSV caching."""

import csv
import math
import multiprocessing
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from hybridldpc import simulation
from hybridldpc.codec import Decoder
from hybridldpc.construction import build_code, load_code
from hybridldpc.ensembles import Ensemble
from hybridldpc.simulation import (
    CSV_FIELDS,
    CampaignConfig,
    PointResult,
    run_campaign,
    run_point,
)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_code(seed: int = 2):
    ens = Ensemble.from_factored([4], {3: 1.0}, {6: 1.0}, {3: {4: 1.0}})
    return build_code(ens, 240, seed=seed)


def make_result(frames: int, frame_errors: int) -> PointResult:
    return PointResult(
        ebn0_db=1.0, sigma=0.9, frames=frames, frame_errors=frame_errors,
        bit_errors=3 * frame_errors, info_bits=frames * 120,
        mean_iterations=7.5, max_iter=50, seed=0)


def test_point_result_rates():
    r = make_result(2000, 40)
    assert r.fer == pytest.approx(0.02)
    assert r.ber == pytest.approx(120 / (2000 * 120))
    lo, hi = r.fer_ci()
    assert lo < r.fer < hi
    # log-normal interval: symmetric as a ratio, not as a difference
    assert hi / r.fer == pytest.approx(r.fer / lo, rel=1e-9)


def test_point_result_zero_errors_rule_of_three():
    r = make_result(600, 0)
    lo, hi = r.fer_ci()
    assert lo == 0.0
    assert hi == pytest.approx(3.0 / 600)


def test_ci_covers_true_rate():
    # the interval construction on simulated Bernoulli data
    rng = np.random.default_rng(0)
    p = 0.03
    hits = 0
    reps = 100
    for _ in range(reps):
        frames = 4000
        k = int(rng.binomial(frames, p))
        r = make_result(frames, k)
        lo, hi = r.fer_ci()
        hits += int(lo <= p <= hi)
    assert hits >= 90


def test_run_point_statistics_and_determinism():
    code = tiny_code()
    cfg = CampaignConfig(max_iter=30, min_frame_errors=10, max_frames=400,
                         chunk_frames=32, seed=7)
    a = run_point(code, 2.0, code.rate(), cfg)
    b = run_point(code, 2.0, code.rate(), cfg)
    assert a == b
    assert a.frames <= 400
    assert a.info_bits == a.frames * 2 * code.n_info
    assert 0 < a.mean_iterations <= 30


def test_worker_count_does_not_change_totals():
    code = tiny_code()
    base = dict(max_iter=30, min_frame_errors=8, max_frames=320,
                chunk_frames=32, seed=3)
    serial = run_point(code, 2.0, code.rate(), CampaignConfig(**base, workers=1))
    pooled = run_point(code, 2.0, code.rate(), CampaignConfig(**base, workers=3))
    assert serial == pooled


def test_worker_processes_run_one_blas_thread(monkeypatch):
    # the setting holds while workers spawn, and this process's
    # environment is restored afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    spawn = multiprocessing.get_context("spawn")
    with simulation._worker_env(), ProcessPoolExecutor(1, mp_context=spawn) as pool:
        seen = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result()
        assert seen == pool.submit(os.getenv, "OMP_NUM_THREADS").result() == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("workers", [0, -3])
def test_fewer_than_one_worker_is_an_error(workers):
    assert CampaignConfig().workers == 1
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig(workers=workers)


@pytest.mark.parametrize("field", ["chunk_frames", "max_iter", "max_frames",
                                   "min_frame_errors"])
@pytest.mark.parametrize("value", [0, -1, 2.5])
def test_counts_below_one_are_errors(field, value):
    # a chunk of no frames never ends a point, a decoder needs an
    # iteration, a point that needs no frame error stops after its first
    # chunk, and no count can be fractional: the config is refused before
    # any point can start
    with pytest.raises(ValueError, match=field):
        CampaignConfig(**{field: value})


def test_negative_seed_is_an_error():
    assert CampaignConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match="seed"):
        CampaignConfig(seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        CampaignConfig(seed=1.5)


@pytest.mark.parametrize("random_codewords", [False, True])
def test_totals_do_not_depend_on_chunk_size(random_codewords, monkeypatch):
    # each frame decodes the same in any chunk and in any decoder pass:
    # with more frame errors asked for than the budget holds, every
    # chunking runs all 15 frames
    code = tiny_code()
    assert Decoder(code).frames_per_pass >= 15
    totals = set()
    for passes in (None, 1, 4):
        if passes:
            monkeypatch.setattr(Decoder, "frames_per_pass", property(lambda self, n=passes: n))
        for chunk in (1, 7, 15):
            cfg = CampaignConfig(max_iter=30, min_frame_errors=16, max_frames=15,
                                 chunk_frames=chunk, seed=4, random_codewords=random_codewords)
            res = run_point(code, 1.0, code.rate(), cfg)
            totals.add((res.frames, res.frame_errors, res.bit_errors, res.mean_iterations))
    assert len(totals) == 1
    frames, frame_errors, _bits, _iters = totals.pop()
    assert frames == 15 and 0 < frame_errors < 15


def test_campaign_memory_does_not_grow_with_chunk_frames():
    # a chunk decodes one pass at a time, and a pass of the shipped
    # 6144-bit hybrid code is one frame: a 4-frame chunk holds no more
    # than four 1-frame chunks do (on whole-chunk decodes, about 25 MiB
    # more)
    code = load_code(os.path.join(ROOT, "fer_results", "codes",
                                  "r16_hybrid_g256g16g8_6144.alist"))
    # the code's lazily built edge tables, outside the traced runs
    Decoder(code)
    peaks = []
    for chunk in (4, 1):
        cfg = CampaignConfig(max_iter=2, min_frame_errors=5, max_frames=4,
                             chunk_frames=chunk, seed=1)
        tracemalloc.start()
        try:
            assert run_point(code, 0.719, code.rate(), cfg).frames == 4
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) <= 4 * 2**20, peaks


def test_random_codewords_path_matches_all_zero_statistics():
    # decoder is translation covariant, so both transmit modes estimate
    # the same FER; with different noise realizations they differ only
    # statistically
    code = tiny_code()
    base = dict(max_iter=30, min_frame_errors=1000, max_frames=600,
                chunk_frames=64, seed=11)
    zero = run_point(code, 2.2, code.rate(), CampaignConfig(**base))
    rand = run_point(code, 2.2, code.rate(),
                     CampaignConfig(**base, random_codewords=True))
    assert zero.frames == rand.frames == 600
    lo_z, hi_z = zero.fer_ci()
    lo_r, hi_r = rand.fer_ci()
    assert max(lo_z, lo_r) <= min(hi_z, hi_r), (zero.fer, rand.fer)


def test_campaign_csv_roundtrip_and_resume(tmp_path):
    code = tiny_code()
    cfg = CampaignConfig(max_iter=25, min_frame_errors=5, max_frames=256,
                         chunk_frames=32, seed=5)
    csv_path = os.path.join(tmp_path, "points.csv")
    first = run_campaign(code, [2.0, 2.5], code.rate(), cfg, csv_path=csv_path)
    # resume: cached rows are loaded, new points appended
    logged = []
    second = run_campaign(code, [2.0, 2.5, 3.0], code.rate(), cfg,
                          csv_path=csv_path, log=logged.append)
    assert second[:2] == first
    assert sum("cached" in line for line in logged) == 2
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("ebn0_db,")


def test_campaign_resumes_over_numpy_points(tmp_path):
    # numpy scalars must reach the CSV as plain numbers, or the next run
    # cannot read the file back
    code = tiny_code()
    cfg = CampaignConfig(max_iter=25, min_frame_errors=5, max_frames=64,
                         chunk_frames=32, seed=5)
    csv_path = os.path.join(tmp_path, "points.csv")
    points = np.arange(3.0, 4.0, 0.5)
    first = run_campaign(code, points, code.rate(), cfg, csv_path=csv_path)
    logged = []
    second = run_campaign(code, points, code.rate(), cfg, csv_path=csv_path,
                          log=logged.append)
    assert second == first
    assert [type(r.ebn0_db) for r in second] == [float, float]
    assert sum("cached" in line for line in logged) == 2


def test_campaign_reruns_on_config_change(tmp_path):
    code = tiny_code()
    csv_path = os.path.join(tmp_path, "points.csv")
    cfgybase = dict(min_frame_errors=5, max_frames=128, chunk_frames=32)
    run_campaign(code, [2.0], code.rate(),
                 CampaignConfig(max_iter=25, seed=5, **cfgybase),
                 csv_path=csv_path)
    # different iteration cap is a different measurement, not a cache hit
    out = run_campaign(code, [2.0], code.rate(),
                       CampaignConfig(max_iter=10, seed=5, **cfgybase),
                       csv_path=csv_path)
    assert out[0].max_iter == 10
    with open(csv_path) as fh:
        assert len(fh.read().strip().splitlines()) == 3


def test_campaign_resumes_a_csv_without_the_codeword_column(tmp_path):
    # rows of a file written before the column existed resume all-zero
    # runs only; appending to it rewrites it under the current header,
    # the old rows' new cell empty, so that no value changes column
    code = tiny_code()
    csv_path = os.path.join(tmp_path, "points.csv")
    base = dict(max_iter=25, min_frame_errors=5, max_frames=16, chunk_frames=8, seed=5)
    zero = run_campaign(code, [2.0], code.rate(), CampaignConfig(**base))
    old = [f for f in CSV_FIELDS if f != "random_codewords"]
    with open(csv_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=old, extrasaction="ignore")
        w.writeheader()
        w.writerow(zero[0].csv_row())
    logged = []
    assert run_campaign(code, [2.0], code.rate(), CampaignConfig(**base),
                        csv_path=csv_path, log=logged.append) == zero
    assert sum("cached" in line for line in logged) == 1
    rand = run_campaign(code, [2.0], code.rate(),
                        CampaignConfig(**base, random_codewords=True), csv_path=csv_path)
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == CSV_FIELDS
    assert [r["random_codewords"] for r in rows] == ["", "True"]
    assert [simulation._result_from_row(r) for r in rows] == zero + rand


def test_campaign_writes_the_header_into_an_empty_csv(tmp_path):
    # an existing empty file gets the header before its first row, so
    # the next run finds the point instead of reading the row as a header
    code = tiny_code()
    csv_path = os.path.join(tmp_path, "points.csv")
    open(csv_path, "w").close()
    cfg = CampaignConfig(max_iter=25, min_frame_errors=5, max_frames=16, chunk_frames=8, seed=3)
    first = run_campaign(code, [1.0], code.rate(), cfg, csv_path=csv_path)
    logged = []
    assert run_campaign(code, [1.0], code.rate(), cfg, csv_path=csv_path,
                        log=logged.append) == first
    assert sum("cached" in line for line in logged) == 1
