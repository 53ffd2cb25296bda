"""Benchmark of drasim: three workloads from the paper's claims, end to end and per layer.

    python3 perfbench/run.py --workload credibility|separation|audit \\
        --seed N --seconds S --trace 0|1

Run it from the root of a drasim checkout; it imports drasim from ./src and
exits with an error when ./src/drasim is missing. The load is a closed loop
from this one process: each measurement is a fresh, single-threaded Python
child (perfbench/child.py), started one after another.

  * SETUP_PROBES children only set up, for the median set-up time.
  * One body child repeats the workload for S seconds and checks every output.
    Its timings are scaled by a reference kernel timed beside them
    (perfbench/reference.py), which takes out the shared machine's slow spells.
  * With --trace 1 the body child gets S/2 seconds, and one more child repeats
    the workload for S/2 seconds with the tracer's wrappers installed
    (perfbench/tracer.py); its answers must hash to the same digest.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. The lines above it give the machine, the
digest and every metric computed, for people.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("credibility", "separation", "audit")
SETUP_PROBES = 6
TIME_BUDGET_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(root: str, env: dict, deadline: float, *args) -> dict:
    """Run child.py to completion (killed at the deadline) and parse its record."""
    cmd = [sys.executable, CHILD, *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {' '.join(args)} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    src = os.path.join(root, "src", "drasim")
    if os.path.dirname(record["drasim_file"]) != src:
        raise BenchError(f"child imported drasim from {record['drasim_file']}, not {src}")
    return record


def machine(env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def end_to_end_metrics(setups: list, body: dict) -> dict:
    wall = body["wall_s"]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (wall, "s"),
        "profiles_per_s": (body["profiles_per_rep"] / wall, "1/s"),
        "runs_per_s": (body["ops"] / wall, "1/s"),
        "run_latency_us.p50": (body["latency_us_p50"], "us"),
        "peak_rss_mb": (body["peak_rss_mb"], "MB"),
    }


_LAYER_UNITS = {"calls": "count", "self_pct": "%", "draw_reuse": "ratio", "evals": "count",
                "events_per_run": "events/run", "view_parses_per_view": "parses/view",
                "spans": "count", "unattributed_pct": "%"}


def per_layer_metrics(setups: list, body: dict, traced: dict) -> dict:
    metrics = {name: (value, _LAYER_UNITS[name.rsplit(".", 1)[1]])
               for name, value in traced["layers"].items()}
    metrics.update({
        "estimate.zero_se_count": (body["zero_se_per_rep"], "count"),
        "run_latency_us.p99": (body["latency_us_p99"], "us"),
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "setup.inputs_s": (statistics.median(s["inputs_s"] for s in setups), "s"),
        "process.cpu_s": (body["cpu_s"], "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_frac": (traced["wall_s"] / body["wall_s"] - 1.0, "ratio"),
        "machine.speed_scale": (body["speed_scale"], "ratio"),
        "error_rate": (body["failed"] / body["attempted"], "ratio"),
    })
    return metrics


def select(metrics: dict, declared: list) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with its units."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in metrics:
            raise BenchError(f"metric {name} declared in BENCHMARK.json was not measured")
        value, unit = metrics[name]
        if unit != spec["unit"]:
            raise BenchError(f"metric {name}: unit {unit}, BENCHMARK.json says {spec['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "drasim", "__init__.py")):
        print("perfbench: no src/drasim in the working directory; "
              "run from the root of a drasim checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    deadline = time.monotonic() + TIME_BUDGET_S
    env = child_env(root)
    common = ("--workload", args.workload, "--seed", str(args.seed))
    # with --trace 1 the untraced and traced children share the run's seconds
    seconds = str(args.seconds / 2 if args.trace else args.seconds)
    try:
        setups = [run_child(root, env, deadline, *common, "--mode", "setup")
                  for _ in range(SETUP_PROBES)]
        body = run_child(root, env, deadline, *common, "--mode", "body", "--seconds", seconds)
        setups.append(body)
        traced = None
        if args.trace:
            traced = run_child(root, env, deadline, *common, "--mode", "traced",
                               "--seconds", seconds)
            setups.append(traced)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    children = [body] + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    digests_agree = all(c["digest_stable"] and c["digest"] == body["digest"] for c in children)
    correct = failed == 0 and digests_agree

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine(env), sort_keys=True))
    print(f"repetitions {body['reps']} of {body['ops']} operations, "
          f"median repetition {body['rep_wall_median_s']!r} s, "
          f"raw fastest wall {body['raw_best_wall_s']!r} s, "
          f"median speed scale {body['speed_scale']!r}")
    print(f"set-up raw median {statistics.median(s['setup_raw_s'] for s in setups)!r} s")
    print(f"digest {body['digest']} reps={body['reps']}"
          + (f" traced_digest={traced['digest']} traced_reps={traced['reps']}" if traced else ""))
    for c in children:
        for message in c["messages"]:
            print(f"FAILED {message}")
    if not digests_agree:
        print("FAILED digests differ between repetitions or between traced and untraced runs")
    metrics = end_to_end_metrics(setups, body)
    if traced:
        metrics.update(per_layer_metrics(setups, body, traced))
        for layer, seconds in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
            if seconds:
                print(f"self {layer} {seconds:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    try:
        chosen = select(metrics, declared["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
