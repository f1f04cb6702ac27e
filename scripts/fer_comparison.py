#!/usr/bin/env python3
"""Finite-length FER comparison of the packaged ensemble designs.

Builds one code per fixture (rate 1/2 set at 3008 bits, rate 1/6 set
at 6144 bits), measures FER over a grid of Eb/N0 points anchored at
each design's DE threshold, and writes per-code CSV files plus a
gnuplot script for the two comparison plots. Finished points are
cached in the CSVs, so the script can be re-run to extend a campaign.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hybridldpc.cli import _positive_int, _seed
from hybridldpc.construction import build_code, built_length, load_code, save_code
from hybridldpc.ensembles import Ensemble, fixture_path
from hybridldpc.simulation import CampaignConfig, run_campaign

SETS = {
    "r12": {
        "n_bits": 3008,
        "codes": ["r12_binary_irregular", "r12_hybrid_g8g2",
                  "r12_gf8_regular36"],
    },
    "r16": {
        "n_bits": 6144,
        "codes": ["r16_hybrid_g256g16g8", "r16_gf256_regular"],
    },
}

GNUPLOT = """set terminal pngcairo size 800,600
set datafile separator comma
set logscale y
set grid
set xlabel "Eb/N0 (dB)"
set ylabel "FER"
set key bottom left
"""


def log(msg: str) -> None:
    print(msg, flush=True)


def thresholds(path: str) -> dict:
    with open(path) as fh:
        return {k: v["threshold_ebn0_db"] for k, v in json.load(fh).items()}


def get_code(name: str, n_bits: int, seed: int, code_dir: str):
    """The code of fixture ``name`` for a request of ``n_bits`` bits,
    cached as ``<name>_<built bits>.alist``. ``build_code`` may build
    fewer bits than asked (its length rule), and the rule gives the built
    length without drawing a graph, so a rerun finds the file again."""
    ens = Ensemble.load(fixture_path(name))
    path = os.path.join(code_dir, f"{name}_{built_length(ens, n_bits)}.alist")
    if os.path.exists(path):
        return load_code(path)
    t0 = time.time()
    code = build_code(ens, n_bits, seed=seed)
    save_code(code, path)
    log("  built %s: %d bits, n=%d cols, %d checks (%.0fs) -> %s"
        % (name, code.n_bits, code.n, len(code.check_groups), time.time() - t0, path))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sets", nargs="*", choices=sorted(SETS),
                    default=sorted(SETS))
    ap.add_argument("--offsets", type=float, nargs="*",
                    default=[0.4, 0.6, 0.8, 1.0, 1.2],
                    help="Eb/N0 grid as offsets above each DE threshold")
    # counts and the seed are checked here, before any code is built
    ap.add_argument("--min-frame-errors", type=_positive_int, default=100)
    ap.add_argument("--max-frames", type=_positive_int, default=2_000_000)
    ap.add_argument("--max-iter", type=_positive_int, default=500)
    ap.add_argument("--chunk-frames", type=_positive_int, default=64)
    ap.add_argument("--seed", type=_seed, default=1)
    ap.add_argument("--workers", type=_positive_int, default=1)
    ap.add_argument("--out-dir", default="fer_results")
    args = ap.parse_args()

    code_dir = os.path.join(args.out_dir, "codes")
    os.makedirs(code_dir, exist_ok=True)
    thr = thresholds(fixture_path("designs"))

    plots = []
    for set_name in args.sets:
        spec = SETS[set_name]
        curves = []
        for name in spec["codes"]:
            log("code %s (n_bits=%d)" % (name, spec["n_bits"]))
            code = get_code(name, spec["n_bits"], args.seed, code_dir)
            ens = Ensemble.load(fixture_path(name))
            rate = ens.rate()
            points = [round(thr[name] + off, 3) for off in args.offsets]
            cfg = CampaignConfig(
                max_iter=args.max_iter,
                min_frame_errors=args.min_frame_errors,
                max_frames=args.max_frames,
                chunk_frames=args.chunk_frames,
                seed=args.seed,
                workers=args.workers,
            )
            csv_path = os.path.join(args.out_dir, f"{name}.csv")
            run_campaign(code, points, rate, cfg, csv_path=csv_path, log=log)
            curves.append((name, os.path.basename(csv_path)))
        png = f"fer_{set_name}.png"
        lines = ", \\\n  ".join(
            f"'{csv}' skip 1 using 1:7 with linespoints title '{name}'"
            for name, csv in curves
        )
        plots.append(f"set output '{png}'\nplot {lines}\n")

    gp_path = os.path.join(args.out_dir, "plot.gp")
    with open(gp_path, "w") as fh:
        fh.write(GNUPLOT + "\n".join(plots))
    log("wrote %s (run: gnuplot plot.gp inside %s)" % (gp_path, args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
