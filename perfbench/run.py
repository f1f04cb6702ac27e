"""Benchmark of the hybridldpc pipeline: DE design, PEG construction, FER campaigns.

    python3 perfbench/run.py --workload campaign_r12 --seed 1 --seconds 32 --trace 0

Each repetition runs in a fresh single-threaded interpreter (worker.py).
With ``--trace 0`` repetitions run one after another until the next one
would overrun ``--seconds``; every run makes at least one. The first
repetition also runs the probe and the output checks; the later ones add
samples of the timed operations. All repetitions of a run use the same
seed, so their outputs must agree. Set-up time is also sampled in
interpreters that only set up, and reported as the median of all samples.
The last line of standard output carries the end-to-end metrics of
BENCHMARK.json.

With ``--trace 1`` the run is one traced repetition with the checks, and
the last line carries the per-layer metrics, the stage and campaign
figures and the tracing overhead.

The lines before the last are a readable report. Full results and spans
go to ``.perfbench_out/``. Exits non-zero when an output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_ONLY = 3      # interpreters that only set up; each repetition adds one
DEADLINE_S = 170.0
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# timed operations reported under the names of the pipeline stages
STAGES = {"threshold_s": "threshold_search", "design_s": "optimize_gamma",
          "build_s": "build_code"}
# metric name: (key of a worker's campaign record, unit)
CAMPAIGN = {"point_s": ("point_s", "s"),
            "kbit_iter_per_s": ("kbit_iter_per_s", "kbit.iter/s"),
            "mean_iter": ("mean_iter", "iter/frame"), "fer": ("fer", "ratio"),
            "codec.frame_iterations": ("frame_iterations", "count"),
            "codec.converged_ratio": ("converged_ratio", "ratio"),
            "codec.undetected_frames": ("undetected_frames", "count")}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, trace: int, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--mode", mode, "--out-dir", OUT_DIR]
    env = dict(os.environ, **WORKER_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def median_of(values: list) -> float:
    return statistics.median(values) if values else 0


def op_samples(reps: list, key: str) -> dict:
    """``key`` of each timed operation's record, pooled over reps."""
    out: dict = {}
    for rep in reps:
        for op in rep["ops"]:
            if key in op:
                out.setdefault(op["name"], []).append(op[key])
    return out


def task_seconds(reps: list) -> float:
    """Sum over the timed operations of their median share of task_s."""
    return sum(median_of(v) for v in op_samples(reps, "task_s").values())


def figures_of(reps: list) -> dict:
    """Medians of the stage times and campaign figures, with units; 0 where
    the workload has no such stage. None is gated on its own: the stage
    times are parts of task_s, and the campaign figures are reported as
    measured."""
    op_s = op_samples(reps, "seconds")
    out = {key: (median_of(op_s.get(op, [])), "s") for key, op in STAGES.items()}
    camp = [rep["campaign"] for rep in reps if "campaign" in rep]
    for name, (key, unit) in CAMPAIGN.items():
        out[name] = (median_of([c[key] for c in camp]), unit)
    return out


def report(args, reps, setups, figures, checks, refusals) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  set-up samples {len(setups)}")
    for i, rep in enumerate(reps):
        for op in rep["ops"]:
            state = "ok" if op["ok"] else "FAILED"
            share = f"  task_s share {op['task_s']:9.3f} s" if "task_s" in op else ""
            print(f"  [rep {i}] {op['name']:18s} {op['seconds']:9.3f} s{share}  {state}")
            if not op["ok"]:
                print(op["error"])
    for name, (value, unit) in figures.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for key, value in sorted(reps[0]["outputs"].items()):
        print(f"  output {key}: {value}")
    for msg in refusals:
        print(f"  refused build (not counted as failed): {msg}")
    for name, ok, detail in checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} {detail}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hybridldpc", "__init__.py")):
        print("perfbench: no hybridldpc sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    setups: list[float] = []
    reps: list[dict] = []
    worker_failures: list[str] = []
    try:
        if args.trace:
            reps.append(run_worker(args, 1, "full", left()))
        else:
            for _ in range(SETUP_ONLY):
                setups.append(run_worker(args, 0, "setup", left())["setup_s"])
            # the first repetition also runs the probe and the checks
            next_s = 0.0
            while True:
                mode = "task" if reps else "full"
                t0 = time.monotonic()
                rep = run_worker(args, 0, mode, left())
                reps.append(rep)
                took = time.monotonic() - t0
                next_s = max(next_s, took if mode == "task" else rep["task_end_s"])
                elapsed = time.monotonic() - start
                if elapsed + next_s > args.seconds or next_s > left():
                    break
    except WorkerFailed as exc:
        worker_failures.append(str(exc))
    setups += [rep["setup_s"] for rep in reps]

    if not reps:
        print("perfbench: no complete repetition", file=sys.stderr)
        for msg in worker_failures:
            print(msg, file=sys.stderr)
        return 1
    # each timed call is one operation
    ops = [op for rep in reps for op in rep["ops"]]
    attempted = len(ops) + len(worker_failures)
    failed = sum(not op["ok"] for op in ops) + len(worker_failures)
    checks = [c for rep in reps for c in rep["checks"]]
    checks += [("worker_ran", False, msg) for msg in worker_failures]
    if len(reps) > 1:
        # the fingerprints come from the first repetition only, so compare
        # the outputs every repetition has
        common = set.intersection(*(set(rep["outputs"]) for rep in reps))
        outputs = {json.dumps({k: rep["outputs"][k] for k in common}, sort_keys=True)
                   for rep in reps}
        checks.append(("repetitions_agree", len(outputs) == 1,
                       f"{len(reps)} repetitions with seed {args.seed}, on {sorted(common)}"))
    refusals = sorted({rep["probe"]["refusal"] for rep in reps
                       if rep.get("probe", {}).get("refusal")})

    figures = figures_of(reps)
    figures["ops_attempted"] = (attempted, "count")
    figures["ops_failed"] = (failed, "count")
    if args.trace:
        values = dict(reps[0]["layers"])
        values.update({key: value for key, (value, _unit) in figures.items()})
        values["construction.refused_builds"] = reps[0]["probe"].get("refused_builds", 0)
    else:
        values = {
            "setup_s": median_of(setups),
            "task_s": task_seconds(reps),
            "peak_rss_mb": median_of([rep["peak_rss_mb"] for rep in reps]),
        }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = all(ok for _name, ok, _detail in checks) and failed == 0

    figures.update({k: (v["value"], v["unit"]) for k, v in metrics.items()})
    report(args, reps, setups, figures, checks, refusals)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "env": reps[0]["env"], "setup_samples": setups, "repetitions": reps,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"  env {json.dumps(record['env'])}  commit {record['git_commit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
