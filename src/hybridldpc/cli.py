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
import warnings
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


class _BadFile(Exception):
    """An input file whose content cannot work; the message names it."""


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
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # no data: reported below
            data = np.loadtxt(path, dtype=kind, ndmin=2)
    except ValueError as exc:  # a token that is not a number
        raise _BadFile(f"{path}: {exc}") from None
    if data.size == 0:
        raise _BadFile(f"{path}: no frames")
    if data.shape[1] != width:
        raise _BadFile(f"{path}: expected {width} values per line, got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise _BadFile(f"{path}: values must be finite")
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
    try:
        cw = encode(code, info)
    except ValueError as exc:  # a symbol outside its column's group
        raise _BadFile(f"{args.infile}: {exc}") from None
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
# every direction key but the one optional flag is required
_REQUIRED_KEYS = {d: keys - {"allow_binary_degree2"} for d, keys in _DIRECTION_KEYS.items()}


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """A finite number, integers included, that a float can hold."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return abs(v) <= sys.float_info.max


def _int_keyed(v, value_ok) -> bool:
    """An object whose keys read as integers and whose values pass ``value_ok``."""
    if not isinstance(v, dict):
        return False
    try:
        for key in v:
            int(key)
    except ValueError:
        return False
    return all(value_ok(x) for x in v.values())


# what each config value must be: its description and its test
_POSITIVE = ("a positive number", lambda v: _number(v) and v > 0)
_RATE = ("a number", lambda v: v is None or _number(v))
_INTEGER = ("an integer", _integer)
_NUMBER = ("a number", _number)
_VALUE_KINDS = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "grid": ("an object", lambda v: isinstance(v, dict)),
    "sigma": _POSITIVE, "sigma_lo": _POSITIVE, "sigma_hi": _POSITIVE,
    "rate_min": _RATE, "rate_eq": _RATE,
    "gamma_profile": ("an object of degree: {group: edge mass}",
                      lambda v: _int_keyed(v, lambda row: _int_keyed(row, _number))),
    "rho": ("an object of degree: edge mass", lambda v: _int_keyed(v, _number)),
    "allow_binary_degree2": ("true or false", lambda v: isinstance(v, bool)),
    "groups": ("a list of integers", lambda v: isinstance(v, list) and all(map(_integer, v))),
    "d_v": _INTEGER, "d_c": _INTEGER,
    "grid.points": _INTEGER, "grid.x_max": _NUMBER, "grid.margin": _NUMBER,
}


def _check_values(path: str, doc: dict, prefix: str = "") -> None:
    for key, value in doc.items():
        kind = _VALUE_KINDS.get(prefix + key)
        if kind and not kind[1](value):
            raise _BadFile(f"{path}: {prefix}{key} must be {kind[0]}, got {json.dumps(value)}")


def _intkeys(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


def _cmd_optimize(args) -> int:
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadFile(f"{args.config}: not JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise _BadFile(f"{args.config}: not a JSON object")
    direction = cfg.get("direction")
    if not isinstance(direction, str) or direction not in _DIRECTION_KEYS:
        raise _BadFile(f"{args.config}: unknown direction {direction!r}")
    unknown = sorted(set(cfg) - _COMMON_KEYS - _DIRECTION_KEYS[direction])
    if unknown:
        raise _BadFile(f"{args.config}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(_REQUIRED_KEYS[direction] - set(cfg))
    if missing:
        raise _BadFile(f"{args.config}: missing key(s) {', '.join(missing)}")
    _check_values(args.config, cfg)
    grid_cfg = cfg.get("grid", {})
    unknown = sorted(set(grid_cfg) - {f.name for f in fields(ConstraintGrid)})
    if unknown:
        raise _BadFile(f"{args.config}: unknown grid key(s) {', '.join(unknown)}")
    _check_values(args.config, grid_cfg, prefix="grid.")
    grid = ConstraintGrid(**grid_cfg)
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
        groups = cfg["groups"]
        sigma_hi = 3.5

        def solve(sigma):
            return optimize_gamma(cfg["d_v"], cfg["d_c"], groups, sigma, **common)
    if "sigma" in cfg:
        design = solve(cfg["sigma"])
    else:
        lo, hi = cfg.get("sigma_lo", 0.5), cfg.get("sigma_hi", sigma_hi)
        if not lo < hi:
            raise _BadFile(f"{args.config}: sigma_lo {lo} must be below sigma_hi {hi}")
        design = best_sigma(solve, lo, hi)
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
            OptimizationError, OSError, _BadFile) as exc:
        # input that cannot work: one line naming the command, no traceback
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
