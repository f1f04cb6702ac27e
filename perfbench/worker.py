"""One repetition of one workload in a fresh interpreter.

Started by run.py with BLAS threads pinned to 1. Module-level caches of
the package (J_v families, J_c tables, clamp counts, the campaign context)
start empty, as they do for every command-line run. Prints one JSON object
as its last line of standard output.

    python3 perfbench/worker.py --workload design --seed 1 --trace 0 --mode full --out-dir .perfbench_out
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_targets():
    """Public calls of each layer that get a span, with notes on sizes."""
    from hybridldpc import channel, codec, construction, density_evolution as de
    from hybridldpc import optimization as opt, simulation

    def fwht_note(args, kwargs, result):
        x = args[0]
        axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
        return [int(x.size), int(x.shape[axis])]

    def decode_note(args, kwargs, result):
        decoder, chan = args[0], args[1]
        frames = chan.shape[0] if chan.ndim == 3 else 1
        return [int(frames), int(decoder.code.n_edges), int(decoder.q_max)]

    def rows_note(args, kwargs, result):
        return int(result[0].shape[0]) if result is not None else 0

    def edges_note(args, kwargs, result):
        return int(result.n_edges) if result is not None else 0

    return [
        (de, "threshold_search", "threshold_search", None),
        (de, "de_converges", "de_converges", None),
        (de, "exit_iteration_hybrid", "exit_iteration_hybrid", None),
        (de, "jc", "jc", None),
        (de, "jc_inv", "jc_inv", None),
        (de, "jv_channel_offset", "jv_channel_offset", None),
        (de.JvFamily, "__init__", "JvFamily", None),
        (opt, "optimize_gamma", "optimize_gamma", None),
        (opt, "gamma_exit_matrix", "exit_matrix", rows_note),
        (opt, "linprog", "linprog", None),
        (construction, "build_code", "build_code", edges_note),
        (construction, "apportion", "apportion", None),
        (construction, "random_injective_map", "random_injective_map", None),
        (construction.HybridParityCheck, "validate", "validate", None),
        (construction, "load_code", "load_code", None),
        (simulation, "run_point", "run_point", None),
        (channel, "transmit", "transmit", None),
        (channel, "symbol_llr_array", "symbol_llr_array", None),
        (codec, "encode", "encode", None),
        (codec, "symbols_to_bits", "symbols_to_bits", None),
        (codec, "channel_llrs", "channel_llrs", None),
        (codec.Decoder, "decode", "decode", decode_note),
        (codec, "loo_convolve", "loo_convolve", None),
        (codec, "walsh_hadamard", "walsh_hadamard", fwht_note),
    ]


def layer_metrics(spans, selfs) -> dict:
    """Per-layer numbers from the spans of set-up and the timed operations."""
    calls: dict = {}
    incl: dict = {}
    own: dict = {}
    notes: dict = {}
    for s, self_ns in zip(spans, selfs):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + (s[2] - s[1])
        own[name] = own.get(name, 0) + self_ns
        if s[5] is not None:
            notes.setdefault(name, []).append(s[5])

    def sec(table, name):
        return table.get(name, 0) / 1e9

    fwht = notes.get("walsh_hadamard", [])
    decodes = notes.get("decode", [])
    return {
        "density_evolution.threshold_search_s": sec(incl, "threshold_search"),
        "density_evolution.de_converges_calls": calls.get("de_converges", 0),
        "density_evolution.de_iterations": calls.get("exit_iteration_hybrid", 0),
        "density_evolution.exit_iteration_s": sec(own, "exit_iteration_hybrid"),
        "density_evolution.jc_inv_calls": calls.get("jc_inv", 0),
        "density_evolution.jc_inv_s": sec(incl, "jc_inv"),
        "density_evolution.jc_s": sec(incl, "jc"),
        "density_evolution.jv_eval_s": sec(own, "jv_channel_offset"),
        "density_evolution.jv_family_builds": calls.get("JvFamily", 0),
        "density_evolution.jv_family_build_s": sec(incl, "JvFamily"),
        "optimization.optimize_s": sec(incl, "optimize_gamma"),
        "optimization.exit_matrix_s": sec(incl, "exit_matrix"),
        "optimization.linprog_s": sec(incl, "linprog"),
        "optimization.grid_points": sum(notes.get("exit_matrix", [])),
        "construction.build_code_s": sec(incl, "build_code"),
        "construction.peg_self_s": sec(own, "build_code"),
        "construction.apportion_s": sec(incl, "apportion"),
        "construction.map_draw_s": sec(incl, "random_injective_map"),
        "construction.map_draws": calls.get("random_injective_map", 0),
        "construction.validate_s": sec(incl, "validate"),
        "construction.edges": sum(notes.get("build_code", [])),
        "construction.load_code_s": sec(incl, "load_code"),
        "simulation.run_point_s": sec(incl, "run_point"),
        "simulation.self_s": sec(own, "run_point"),
        "simulation.chunks": calls.get("decode", 0),
        "simulation.frames": sum(d[0] for d in decodes),
        "channel.transmit_s": sec(incl, "transmit"),
        "channel.symbol_llr_array_s": sec(incl, "symbol_llr_array"),
        "codec.encode_s": sec(incl, "encode"),
        "codec.encode_calls": calls.get("encode", 0),
        "codec.symbols_to_bits_s": sec(incl, "symbols_to_bits"),
        "codec.symbols_to_bits_calls": calls.get("symbols_to_bits", 0),
        "codec.channel_llrs_s": sec(incl, "channel_llrs"),
        "codec.decode_s": sec(incl, "decode"),
        "codec.decode_self_s": sec(own, "decode"),
        "codec.loo_convolve_s": sec(incl, "loo_convolve"),
        "codec.loo_convolve_calls": calls.get("loo_convolve", 0),
        "codec.walsh_hadamard_s": sec(incl, "walsh_hadamard"),
        # computed from argument shapes: each butterfly stage reads and
        # writes every float64 element once
        "codec.fwht_elems": sum(n for n, _q in fwht),
        "codec.fwht_bytes": sum(16 * n * int(math.log2(q)) for n, q in fwht),
        # both message arrays, (F, E, q_max) float64, at decode entry
        "codec.message_bytes": max((2 * f * e * q * 8 for f, e, q in decodes), default=0),
    }


def campaign_stats(point, seconds: float, n_bits: int, decodes: list) -> dict:
    """Figures of the operating-point campaign of one repetition."""
    converged = sum(int(res.success.sum()) for _code, res in decodes)
    iters = point.mean_iterations * point.frames
    return {
        "point_s": seconds,
        "kbit_iter_per_s": n_bits * iters / seconds / 1e3,
        "mean_iter": point.mean_iterations,
        "fer": point.fer,
        "frame_iterations": iters,
        "converged_ratio": converged / point.frames,
        # a frame that never converged cannot equal the sent codeword, so
        # the remaining errors converged to another codeword
        "undetected_frames": point.frame_errors - (point.frames - converged),
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed(name, fn, tracer, out) -> bool:
    """Run and time ``fn`` once.

    A raised exception fails the operation and is kept with its record;
    the workload goes on with its next operation."""
    if tracer is not None:
        tracer.op = name
    ok, err = True, ""
    t0 = time.perf_counter()
    try:
        fn()
    except Exception:  # counted as a failed operation
        ok, err = False, traceback.format_exc()
    out["ops"].append({"name": name, "seconds": time.perf_counter() - t0,
                       "ok": ok, "error": err})
    return ok


# run_point's traced children; with its own self time they make up its span
RUN_POINT_PARTS = ("simulation.self_s", "codec.encode_s", "codec.symbols_to_bits_s",
                   "channel.transmit_s", "codec.channel_llrs_s", "codec.decode_s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "task", "full"), required=True,
                    help="set up only; also run the timed operations; also run "
                         "the probe and the output checks")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np  # noqa: F401  (part of set-up, as in any command-line run)
    from hybridldpc import density_evolution
    from spans import Tracer, self_times, span_cost_ns
    from workloads import WORKLOADS, DecodeLog

    wl = WORKLOADS[args.workload](ROOT, args.seed, args.out_dir)
    log = DecodeLog()
    log.install()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(traced_targets())
        tracer.op = "setup"
    wl.setup()
    out = {"setup_s": time.perf_counter() - T_START, "ops": []}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    clamp0 = density_evolution.clamp_stats.count
    for name, fn in wl.task():
        if timed(name, fn, tracer, out):
            out["ops"][-1]["task_s"] = out["ops"][-1]["seconds"] * wl.task_scale(name)
    clamp = density_evolution.clamp_stats.count - clamp0
    if tracer is not None:
        tracer.uninstall()
    out["task_end_s"] = time.perf_counter() - T_START
    decodes = log.take()
    log.uninstall()
    task_ok = all(op["ok"] for op in out["ops"])
    # high-water mark of set-up and the timed operations
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    point = wl.outputs.get("point")
    if point is not None:
        seconds = next(op["seconds"] for op in out["ops"] if op["name"] == "run_point")
        out["campaign"] = campaign_stats(point, seconds, wl.code.n_bits, decodes)
    out["checks"] = []
    if args.mode == "full":
        out["probe"] = wl.probe()
        if task_ok:
            out["checks"] = [list(c) for c in wl.checks(decodes)]
    out["outputs"] = {k: (v if isinstance(v, (int, float, str, dict)) else repr(v))
                      for k, v in wl.outputs.items()}
    out["env"] = environment()

    if tracer is not None:
        spans = tracer.finished()
        layers = layer_metrics(spans, self_times(spans))
        layers["density_evolution.clamp_count"] = clamp
        if point is not None:
            # a layer left out, called outside run_point or counted twice
            # breaks this sum
            parts = sum(layers[k] for k in RUN_POINT_PARTS)
            ok = abs(parts - layers["simulation.run_point_s"]) <= 1e-6
            out["checks"].append(["run_point_layers_sum_to_run_point", ok,
                                  f"{parts:.6f} s vs {layers['simulation.run_point_s']:.6f} s"])
        # the spans' cost over the traced region, set-up included
        layers["trace.spans"] = len(spans)
        layers["trace.overhead_ratio"] = len(spans) * span_cost_ns() / 1e9 / out["task_end_s"]
        out["layers"] = layers
        tracer.write(os.path.join(args.out_dir, f"{wl.name}-s{args.seed}-spans.json.gz"),
                     f"{wl.name}/seed{args.seed}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
