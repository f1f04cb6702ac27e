"""Monte-Carlo error-rate measurement over the binary-input AWGN channel.

Frames are drawn in fixed-size chunks with one RNG per frame, keyed by
(master seed, frame index). One chunk runner, `_run_chunk`, decodes a
chunk with a decoder of its own, mapped over the chunks in this process
or in spawned worker processes. It draws, transmits and decodes the
chunk one decoder pass (`Decoder.frames_per_pass` frames) at a time, so
a worker holds one pass whatever the chunk size, and the totals do not
depend on the pass size. The stop rule is evaluated on chunk
boundaries in frame order, so results are reproducible bit for bit
regardless of how many worker processes run the chunks. Worker
processes are spawned with BLAS pinned to one thread each, as the
workers already share out the cores.

A campaign CSV row records the point's Eb/N0, iteration cap, seed and
codeword mode, which `run_campaign` matches to resume; rows of a file
written before the `random_codewords` column hold all-zero runs.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import ChannelParams, transmit
from .codec import Decoder, channel_llrs, encode, symbols_to_bits
from .construction import HybridParityCheck
from .groups import symbol_weights

__all__ = [
    "CampaignConfig",
    "PointResult",
    "run_point",
    "run_campaign",
    "CSV_FIELDS",
]

CSV_FIELDS = [
    "ebn0_db", "sigma", "frames", "frame_errors", "bit_errors",
    "info_bits", "fer", "ber", "fer_ci_lo", "fer_ci_hi",
    "mean_iterations", "max_iter", "seed", "random_codewords",
]
_Z95 = 1.96  # two-sided 95 percent normal quantile
# BLAS thread settings of campaign worker processes
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one measurement campaign."""

    max_iter: int = 500
    min_frame_errors: int = 200
    max_frames: int = 10_000_000
    chunk_frames: int = 256
    seed: int = 0
    random_codewords: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        # counts of at least 1: a chunk of no frames never ends a point, a
        # point of no frames measures nothing, a decoder needs an iteration,
        # and a point that needs no frame error stops after its first chunk
        for name in ("max_iter", "min_frame_errors", "max_frames", "chunk_frames", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # frame RNGs are keyed by (seed, frame index), which must not be negative
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PointResult:
    """Aggregated statistics of one Eb/N0 point."""

    ebn0_db: float
    sigma: float
    frames: int
    frame_errors: int
    bit_errors: int
    info_bits: int
    mean_iterations: float
    max_iter: int
    seed: int
    random_codewords: bool = False

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else math.nan

    @property
    def ber(self) -> float:
        return self.bit_errors / self.info_bits if self.info_bits else math.nan

    def fer_ci(self) -> tuple[float, float]:
        """95 percent interval on the frame error rate.

        Normal approximation on the log scale; with zero observed errors
        the upper limit falls back to the rule of three.
        """
        if self.frames == 0:
            return (math.nan, math.nan)
        if self.frame_errors == 0:
            return (0.0, 3.0 / self.frames)
        p = self.fer
        sig_log = math.sqrt(max(1.0 - p, 0.0) / self.frame_errors)
        return (p * math.exp(-_Z95 * sig_log), p * math.exp(_Z95 * sig_log))

    def csv_row(self) -> dict:
        lo, hi = self.fer_ci()
        return {
            "ebn0_db": repr(self.ebn0_db),
            "sigma": repr(self.sigma),
            "frames": self.frames,
            "frame_errors": self.frame_errors,
            "bit_errors": self.bit_errors,
            "info_bits": self.info_bits,
            "fer": repr(self.fer),
            "ber": repr(self.ber),
            "fer_ci_lo": repr(lo),
            "fer_ci_hi": repr(hi),
            "mean_iterations": repr(self.mean_iterations),
            "max_iter": self.max_iter,
            "seed": self.seed,
            "random_codewords": self.random_codewords,
        }


def _run_chunk(code: HybridParityCheck, params: ChannelParams,
               cfg: CampaignConfig, args: tuple[int, int]) -> tuple[int, int, int, int]:
    """Decode frames [first, first + count) with a decoder of its own, one
    decoder pass at a time, so that no more than a pass's frames are held:
    returns frame count, frame errors, info bit errors, summed iterations."""
    first, count = args
    decoder = Decoder(code, max_iter=cfg.max_iter)
    # XOR keeps each symbol inside its group, so one popcount table of the
    # largest order counts the bit errors of every column
    weights = symbol_weights(int(code.var_groups.max()))
    frame_errors = bit_errors = iterations = 0
    step = decoder.frames_per_pass
    for lo in range(first, first + count, step):
        frames = min(step, first + count - lo)
        tx_syms = np.zeros((frames, code.n), dtype=np.int64)
        y = np.empty((frames, code.n_bits), dtype=np.float64)
        for f in range(frames):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, lo + f)))
            if cfg.random_codewords:
                info = np.array([
                    rng.integers(0, int(q))
                    for q in code.var_groups[: code.n_info]
                ], dtype=np.int64)
                tx_syms[f] = encode(code, info[None, :])[0]
            bits = symbols_to_bits(code, tx_syms[f])
            y[f] = transmit(bits, params, rng)

        res = decoder.decode(channel_llrs(code, y, params))
        frame_errors += int(np.count_nonzero((res.symbols != tx_syms).any(axis=1)))
        bit_errors += int(weights[(res.symbols ^ tx_syms)[:, : code.n_info]].sum())
        iterations += int(res.iterations.sum())
    return count, frame_errors, bit_errors, iterations


@contextmanager
def _worker_env():
    """Set _WORKER_ENV in this process's environment, restoring it on
    exit. Processes spawned meanwhile load numpy under it."""
    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@contextmanager
def _chunk_map(workers: int):
    """The builtin ``map`` for one worker, else a spawned pool's; a
    consumer that drops the pool's iterator cancels the chunks not started."""
    if workers == 1:
        yield map
        return
    # spawned, not forked: a fork would inherit this process's BLAS
    # threads, set when numpy was loaded
    spawn = multiprocessing.get_context("spawn")
    with _worker_env(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        yield pool.map


def run_point(
    code: HybridParityCheck,
    ebn0_db: float,
    rate: float,
    cfg: CampaignConfig = CampaignConfig(),
) -> PointResult:
    """Measure one Eb/N0 point until the error or frame budget is hit.

    With ``cfg.workers`` above 1 the chunks run in spawned processes,
    which import the caller's main module: a script that calls this
    must start from an ``if __name__ == "__main__":`` block.
    """
    params = ChannelParams.from_ebn0_db(ebn0_db, rate)

    frames = 0
    frame_errors = 0
    bit_errors = 0
    iter_sum = 0

    def chunk_args():
        first = 0
        while first < cfg.max_frames:
            count = min(cfg.chunk_frames, cfg.max_frames - first)
            yield (first, count)
            first += count

    def consume(out: tuple[int, int, int, int]) -> bool:
        nonlocal frames, frame_errors, bit_errors, iter_sum
        c, fe, be, it = out
        frames += c
        frame_errors += fe
        bit_errors += be
        iter_sum += it
        return frame_errors >= cfg.min_frame_errors or frames >= cfg.max_frames

    with _chunk_map(cfg.workers) as chunk_map:
        # consume strictly in chunk order: totals do not depend on the
        # worker count
        for out in chunk_map(partial(_run_chunk, code, params, cfg), chunk_args()):
            if consume(out):
                break

    return PointResult(
        ebn0_db=float(ebn0_db),
        sigma=params.sigma,
        frames=frames,
        frame_errors=frame_errors,
        bit_errors=bit_errors,
        info_bits=frames * code.info_bits,
        mean_iterations=iter_sum / frames if frames else math.nan,
        max_iter=cfg.max_iter,
        seed=cfg.seed,
        random_codewords=cfg.random_codewords,
    )


def _random_codewords(row: dict) -> bool:
    # a file written before the column existed, or its rows after an
    # upgrade (cell empty), holds all-zero runs
    return row.get("random_codewords") == "True"


def _load_done(csv_path: str) -> dict[tuple, dict]:
    done: dict[tuple, dict] = {}
    if not os.path.exists(csv_path):
        return done
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (float(row["ebn0_db"]), int(row["max_iter"]), int(row["seed"]),
                   _random_codewords(row))
            done[key] = row
    return done


def _append_row(csv_path: str, row: dict) -> None:
    """Append one row to a campaign CSV. A new or empty file gets the
    header first. A file of an older layout, without a later column, is
    first rewritten under CSV_FIELDS with that column's cells empty, so
    that no value lands under another column's name."""
    rows = []
    if os.path.exists(csv_path):
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = None if reader.fieldnames == CSV_FIELDS else list(reader)
    if rows is None:
        with open(csv_path, "a", newline="") as fh:
            csv.DictWriter(fh, fieldnames=CSV_FIELDS).writerow(row)
        return
    tmp = csv_path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_FIELDS, restval="")
        w.writeheader()
        w.writerows(rows + [row])
    os.replace(tmp, csv_path)


def _result_from_row(row: dict) -> PointResult:
    return PointResult(
        ebn0_db=float(row["ebn0_db"]),
        sigma=float(row["sigma"]),
        frames=int(row["frames"]),
        frame_errors=int(row["frame_errors"]),
        bit_errors=int(row["bit_errors"]),
        info_bits=int(row["info_bits"]),
        mean_iterations=float(row["mean_iterations"]),
        max_iter=int(row["max_iter"]),
        seed=int(row["seed"]),
        random_codewords=_random_codewords(row),
    )


def run_campaign(
    code: HybridParityCheck,
    ebn0_points: list[float],
    rate: float,
    cfg: CampaignConfig = CampaignConfig(),
    csv_path: str | None = None,
    log=None,
) -> list[PointResult]:
    """Measure a list of Eb/N0 points, appending each to a CSV as it
    finishes. Points already present in the CSV (same Eb/N0, iteration
    cap, seed and codeword mode) are loaded instead of re-run."""
    done = _load_done(csv_path) if csv_path else {}
    results = []
    for db in ebn0_points:
        key = (float(db), cfg.max_iter, cfg.seed, cfg.random_codewords)
        if key in done:
            res = _result_from_row(done[key])
            if log:
                log(f"  {db:+.3f} dB: cached ({res.frames} frames)")
            results.append(res)
            continue
        res = run_point(code, db, rate, cfg)
        results.append(res)
        if csv_path:
            _append_row(csv_path, res.csv_row())
        if log:
            lo, hi = res.fer_ci()
            log(f"  {db:+.3f} dB: fer {res.fer:.3e} [{lo:.2e}, {hi:.2e}] "
                f"({res.frame_errors}/{res.frames} frames, "
                f"{res.mean_iterations:.1f} iters)")
    return results
