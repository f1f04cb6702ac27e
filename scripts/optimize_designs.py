#!/usr/bin/env python3
"""Produce the packaged ensemble fixtures with the LP designer.

Two comparison sets are generated:

* rate 1/2: a hybrid G(8)/G(2) profile (binary information symbols of
  degree 3 and up, degree-2 mass in G(8)), a plain binary irregular
  profile, and the regular (3,6) ensemble over G(8);
* rate 1/6: a (2,3)-regular hybrid over G(8)/G(16)/G(256) from the
  group-split direction, and the regular ultra-sparse G(256) baseline.

Each design is saved as ensemble JSON under the package fixture
directory together with a summary (design sigma, rate, DE threshold).
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hybridldpc.channel import ChannelParams
from hybridldpc.density_evolution import threshold_search
from hybridldpc.ensembles import Ensemble, node_proportions
from hybridldpc.optimization import (
    OptimizationError,
    best_sigma,
    binary_info_gamma,
    optimize_gamma,
    optimize_lambda,
)

FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "hybridldpc", "data", "fixtures"
)


def log(msg: str) -> None:
    print(msg, flush=True)


def summarize(name: str, ens: Ensemble, sigma: float) -> dict:
    t0 = time.time()
    thr = threshold_search(ens, tol_db=0.01)
    np_ = node_proportions(ens)
    info = {
        "name": name,
        "rate": ens.rate(),
        "design_sigma": None if sigma != sigma else sigma,
        "threshold_ebn0_db": thr,
        "threshold_sigma": ChannelParams.from_ebn0_db(thr, ens.rate()).sigma,
        "node_fractions": {str(q): f for q, f in zip(np_.orders, np_.fractions)},
    }
    log("  threshold %.3f dB (search took %.0fs)" % (thr, time.time() - t0))
    return info


def design_r12_hybrid(max_degree: int) -> tuple[Ensemble, float]:
    profile = binary_info_gamma(max_degree, 8)
    rho = {14: 0.7, 15: 0.3}
    d = best_sigma(lambda s: optimize_lambda(profile, rho, s, rate_eq=0.5,
                                             name="hybrid-g8-g2-r12"),
                   lo=0.6, hi=1.4)
    log("  lambda: %s" % {i: round(v, 4) for i, v in d.lambda_.items()})
    log("  design sigma %.4f rate %.4f" % (d.sigma, d.rate))
    return d.ensemble, d.sigma


def design_r12_binary(max_degree: int) -> tuple[Ensemble, float]:
    profile = {i: {2: 1.0} for i in range(2, max_degree + 1)}
    best = None
    for rho in ({8: 1.0}, {8: 0.5, 9: 0.5}, {9: 1.0}, {9: 0.5, 10: 0.5}):
        try:
            d = best_sigma(
                lambda s: optimize_lambda(profile, rho, s, rate_min=0.5,
                                          allow_binary_degree2=True,
                                          name="binary-irregular-r12"),
                lo=0.6, hi=1.3)
        except OptimizationError:
            continue
        if best is None or d.sigma > best.sigma:
            best = d
    if best is None:
        raise OptimizationError("no feasible binary design")
    log("  rho: %s" % best.rho)
    log("  lambda: %s" % {i: round(v, 4) for i, v in best.lambda_.items()})
    log("  design sigma %.4f rate %.4f" % (best.sigma, best.rate))
    return best.ensemble, best.sigma


def design_r12_gf8() -> tuple[Ensemble, float]:
    ens = Ensemble.from_factored([8], {3: 1.0}, {6: 1.0}, {3: {8: 1.0}},
                                 name="gf8-regular-36")
    return ens, float("nan")


def design_r16_hybrid() -> tuple[Ensemble, float]:
    d = best_sigma(lambda s: optimize_gamma(2, 3, [8, 16, 256], s,
                                            rate_eq=1.0 / 6.0,
                                            name="hybrid-g256-g16-g8-r16"),
                   lo=1.3, hi=2.2)
    log("  gamma: %s" % {k: round(v, 4) for k, v in d.gamma.items()})
    log("  design sigma %.4f rate %.4f" % (d.sigma, d.rate))
    return d.ensemble, d.sigma


def design_r16_gf256() -> tuple[Ensemble, float]:
    ens = Ensemble.from_factored([256], {2: 1.0}, {2: 0.5, 3: 0.5},
                                 {2: {256: 1.0}}, name="gf256-regular-r16")
    return ens, float("nan")


DESIGNS = {
    "r12_hybrid_g8g2": design_r12_hybrid,
    "r12_binary_irregular": design_r12_binary,
    "r12_gf8_regular36": design_r12_gf8,
    "r16_hybrid_g256g16g8": design_r16_hybrid,
    "r16_gf256_regular": design_r16_gf256,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", nargs="*", choices=sorted(DESIGNS),
                    help="subset of designs to regenerate")
    ap.add_argument("--max-degree", type=int, default=30)
    ap.add_argument("--out-dir", default=FIXTURE_DIR)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    wanted = args.only or sorted(DESIGNS)
    summary_path = os.path.join(args.out_dir, "designs.json")
    summary = {}
    if os.path.exists(summary_path):
        with open(summary_path) as fh:
            summary = json.load(fh)

    for key in wanted:
        log("designing %s ..." % key)
        t0 = time.time()
        fn = DESIGNS[key]
        if key in ("r12_hybrid_g8g2", "r12_binary_irregular"):
            ens, sigma = fn(args.max_degree)
        else:
            ens, sigma = fn()
        path = os.path.join(args.out_dir, key + ".json")
        ens.save(path)
        summary[key] = summarize(key, ens, sigma)
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        log("  saved %s (%.0fs)" % (path, time.time() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
