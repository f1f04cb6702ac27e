"""Command line front end.

Subcommands cover the whole workflow: design an ensemble (optimize),
check its asymptotic quality (threshold), realize it as a parity-check
matrix (construct), run data through it (encode/decode) and measure
error rates (simulate).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .channel import ChannelParams
from .codec import Decoder, channel_llrs, encode
from .construction import (AlistParseError, ConstructionError, build_code, load_code,
                           save_code)
from .density_evolution import DivergingEnsembleError, threshold_search
from .ensembles import Ensemble, EnsembleError
from .optimization import (ConstraintGrid, OptimizationError, best_sigma, optimize_gamma,
                           optimize_lambda)
from .simulation import CampaignConfig, run_campaign


class _BadValue(ValueError, argparse.ArgumentTypeError):
    """Bad option text: argparse reports it as a usage error."""


def _parse_ebn0(text: str) -> list[float]:
    """Accept "a,b,c" or "start:step:stop" (stop inclusive)."""
    if ":" in text:
        start, step, stop = (float(t) for t in text.split(":"))
        if not (step > 0 and np.isfinite([start, stop]).all() and start <= stop + 1e-9):
            raise _BadValue(f"range {text!r} needs finite ends, step > 0 and start <= stop")
        out = []
        x = start
        while x <= stop + 1e-9:
            out.append(round(x, 9))
            x += step
        return out
    return [float(t) for t in text.split(",")]


def _positive(text: str) -> float:
    if not float(text) > 0:
        raise _BadValue(f"{text!r} is not positive")
    return float(text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise _BadValue(f"{text!r} is not a positive integer")
    return value


def _read_frames(path: str, width: int, kind=np.int64) -> np.ndarray:
    data = np.loadtxt(path, dtype=kind, ndmin=2)
    if data.shape[1] != width:
        raise SystemExit(
            f"{path}: expected {width} values per line, got {data.shape[1]}")
    return data


def _write_frames(path: str, frames: np.ndarray, fmt: str) -> None:
    out = sys.stdout if path == "-" else open(path, "w")
    try:
        np.savetxt(out, frames, fmt=fmt)
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_construct(args) -> int:
    ens = Ensemble.load(args.ensemble)
    code = build_code(ens, n_bits=args.n_bits, seed=args.seed)
    save_code(code, args.out)
    short = f" ({args.n_bits} requested)" if code.n_bits != args.n_bits else ""
    print(f"wrote {args.out}: n={code.n} symbols, m={code.m} checks, "
          f"{code.n_bits} bits{short}, rate {code.rate():.4f}")
    return 0


def _cmd_encode(args) -> int:
    code = load_code(args.code)
    info = _read_frames(args.infile, code.n_info)
    cw = encode(code, info)
    _write_frames(args.out, cw, "%d")
    return 0


def _cmd_decode(args) -> int:
    code = load_code(args.code)
    if args.sigma is not None:
        params = ChannelParams(args.sigma)
    else:
        params = ChannelParams.from_ebn0_db(args.ebn0_db, code.rate())
    y = _read_frames(args.infile, code.n_bits, kind=np.float64)
    dec = Decoder(code, max_iter=args.max_iter)
    res = dec.decode(channel_llrs(code, y, params))
    _write_frames(args.out, res.symbols, "%d")
    ok = int(res.success.sum())
    print(f"{ok}/{len(res.success)} frames with zero syndrome, "
          f"mean {res.iterations.mean():.1f} iterations", file=sys.stderr)
    return 0 if ok == len(res.success) else 1


def _cmd_threshold(args) -> int:
    ens = Ensemble.load(args.ensemble)
    db = threshold_search(ens, tol_db=args.tol_db)
    sigma = ChannelParams.from_ebn0_db(db, ens.rate()).sigma
    print(f"rate {ens.rate():.4f}  threshold {db:.3f} dB  sigma {sigma:.4f}")
    return 0


# the keys an optimize config may set, in common and per direction
_COMMON_KEYS = {"direction", "name", "grid", "sigma", "sigma_lo", "sigma_hi",
                "rate_min", "rate_eq"}
_DIRECTION_KEYS = {"lambda": {"gamma_profile", "rho", "allow_binary_degree2"},
                   "gamma": {"groups", "d_v", "d_c"}}


def _intkeys(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


def _cmd_optimize(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    grid_cfg = cfg.get("grid", {})
    unknown = sorted(set(grid_cfg) - {f.name for f in fields(ConstraintGrid)})
    if unknown:
        raise SystemExit(f"unknown grid key(s) {', '.join(unknown)} in {args.config}")
    grid = ConstraintGrid(**grid_cfg)
    direction = cfg.get("direction")
    if direction not in _DIRECTION_KEYS:
        raise SystemExit(f"unknown direction {direction!r}")
    unknown = sorted(set(cfg) - _COMMON_KEYS - _DIRECTION_KEYS[direction])
    if unknown:
        raise SystemExit(f"unknown key(s) {', '.join(unknown)} in {args.config}")
    common = dict(grid=grid, rate_min=cfg.get("rate_min"), rate_eq=cfg.get("rate_eq"),
                  name=cfg.get("name", ""))
    if direction == "lambda":
        profile = {int(i): _intkeys(p) for i, p in cfg["gamma_profile"].items()}
        rho = _intkeys(cfg["rho"])
        allow = cfg.get("allow_binary_degree2", False)
        sigma_hi = 2.5

        def solve(sigma):
            return optimize_lambda(profile, rho, sigma,
                                   allow_binary_degree2=allow, **common)
    else:
        groups = [int(q) for q in cfg["groups"]]
        sigma_hi = 3.5

        def solve(sigma):
            return optimize_gamma(cfg["d_v"], cfg["d_c"], groups, sigma, **common)
    if "sigma" in cfg:
        design = solve(cfg["sigma"])
    else:
        design = best_sigma(solve, cfg.get("sigma_lo", 0.5),
                            cfg.get("sigma_hi", sigma_hi))
    weights = design.lambda_ if direction == "lambda" else design.gamma
    print(f"{direction}:", {k: round(v, 6) for k, v in weights.items()})
    print(f"design sigma {design.sigma:.4f}  rate {design.rate:.4f}")
    design.ensemble.save(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    code = load_code(args.code)
    rate = args.rate if args.rate is not None else code.rate()
    cfg = CampaignConfig(
        max_iter=args.max_iter,
        min_frame_errors=args.min_frame_errors,
        max_frames=args.max_frames,
        chunk_frames=args.chunk_frames,
        seed=args.seed,
        random_codewords=args.random_codewords,
        workers=args.workers,
    )
    print(f"simulating {args.code}: rate {rate:.4f}, "
          f"{len(args.ebn0)} points, seed {cfg.seed}")
    run_campaign(code, args.ebn0, rate, cfg, csv_path=args.out,
                 log=lambda m: print(m, flush=True))
    if args.out:
        print(f"results in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    campaign = CampaignConfig()
    ap = argparse.ArgumentParser(prog="hybridldpc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code from an ensemble")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("encode", help="encode information frames")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="text file, one frame of information symbols per line")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", help="decode received frames")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="text file, one frame of received values per line")
    chan = p.add_mutually_exclusive_group(required=True)
    chan.add_argument("--sigma", type=float)
    chan.add_argument("--ebn0-db", type=float)
    p.add_argument("--max-iter", type=_positive_int, default=100)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("threshold", help="density evolution threshold")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--tol-db", type=_positive, default=0.01)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("optimize", help="design a degree distribution")
    p.add_argument("--config", required=True,
                   help="JSON problem description, see README")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("simulate", help="measure FER/BER over the channel")
    p.add_argument("--code", required=True)
    p.add_argument("--ebn0", type=_parse_ebn0, required=True,
                   help='Eb/N0 points in dB: "a,b,c" or "start:step:stop"')
    p.add_argument("--rate", type=float, default=None,
                   help="rate used for the Eb/N0 conversion "
                        "(default: information bits / codeword bits)")
    p.add_argument("--max-iter", type=_positive_int, default=campaign.max_iter)
    p.add_argument("--min-frame-errors", type=int, default=campaign.min_frame_errors)
    p.add_argument("--max-frames", type=_positive_int, default=campaign.max_frames)
    p.add_argument("--chunk-frames", type=_positive_int, default=campaign.chunk_frames)
    p.add_argument("--seed", type=int, default=campaign.seed)
    p.add_argument("--random-codewords", action="store_true")
    p.add_argument("--workers", type=_positive_int, default=campaign.workers)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(fn=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AlistParseError, ConstructionError, DivergingEnsembleError, EnsembleError,
            OptimizationError, OSError) as exc:
        # input that cannot work: one line naming the command, no traceback
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
