"""One measured process of the benchmark; started by run.py, one after another.

    child.py --workload NAME --seed N --mode setup|body|traced [--seconds S]

Every mode first times its set-up: from before `import drasim` until the
workload's operations are built, scaled by the python reference kernel timed
right before and after. `setup` stops there. `body` then repeats the
workload's operations for S seconds (at least MIN_REPS, at most MAX_REPS times),
timing every operation and checking every repetition's outputs. `traced` does
the same with the tracer's wrappers installed after set-up, and writes the
spans it kept to .perfbench_out/ in the working directory.

Timings are taken per operation and scaled to the machine's nominal speed by
a reference kernel timed around every block of operations (see reference.py).
Each kind of operation (workload.kind(op): operations of one kind make the
same call on inputs of the same size, from other seeds) keeps the median of its
scaled times over all repetitions. The raw fastest time of each kind is kept
too, for the human-readable lines.

The last line of stdout is one JSON record for run.py.
"""

import argparse
import json
import os
import sys
import time
import traceback

from reference import BLOCK_S, KERNELS, measure

MIN_REPS = 2
MAX_REPS = 100  # sizes the timing arrays; 30 s of audit takes 40-80 repetitions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "body", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    # set-up is interpreter work: it is scaled by the python kernel, timed
    # before and after it (median of three each)
    setup_kernel, setup_nominal_s = KERNELS["python"]
    setup_kernel()  # warm-up
    ref_before = sorted(measure(setup_kernel) for _ in range(3))[1]
    t0 = time.perf_counter()
    import drasim  # noqa: F401  (timed: part of set-up)
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    t2 = time.perf_counter()
    ref_after = sorted(measure(setup_kernel) for _ in range(3))[1]
    setup_scale = setup_nominal_s / (0.5 * (ref_before + ref_after))
    record = {"import_s": (t1 - t0) * setup_scale, "inputs_s": (t2 - t1) * setup_scale,
              "setup_s": (t2 - t0) * setup_scale, "setup_raw_s": t2 - t0,
              "drasim_file": drasim.__file__}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    import resource
    import statistics
    from array import array

    import numpy as np

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    kernel, nominal_s = KERNELS[workload.reference]
    kernel()  # warm-up
    # Timings go into arrays allocated and written in full before the loop, so
    # the benchmark's own memory does not grow with the number of repetitions
    # and peak_rss_mb stays the program's. Unused slots stay NaN.
    raw = np.full((len(ops), MAX_REPS), np.nan)
    scaled = np.full((len(ops), MAX_REPS), np.nan)
    scales = array("d")
    rep_walls, rep_spans, messages = [], [], []
    digest, digest_stable = None, True
    attempted = failed = 0
    first_error = None
    start = clock()
    # repeat until the next repetition would end past --seconds
    while len(rep_walls) < MAX_REPS and (
            len(rep_walls) < MIN_REPS or clock() - start + rep_spans[-1] <= args.seconds):
        rep = len(rep_walls)
        results = []
        rep_start = clock()
        ref_before = ref_s = measure(kernel)
        block_start, block_s = 0, 0.0
        for k, op in enumerate(ops):
            t = clock()
            try:
                result = workload.call(op)
            except Exception as exc:  # a raising operation is a failed one, see check()
                result = exc
                first_error = first_error or exc
            elapsed = clock() - t
            results.append(result)
            raw[k, rep] = elapsed
            block_s += elapsed
            if block_s >= BLOCK_S or k == len(ops) - 1:
                ref_after = measure(kernel)
                ref_s += ref_after
                scale = nominal_s / (0.5 * (ref_before + ref_after))
                scales.append(scale)
                scaled[block_start:k + 1, rep] = raw[block_start:k + 1, rep] * scale
                ref_before, block_start, block_s = ref_after, k + 1, 0.0
        rep_spans.append(clock() - rep_start)
        rep_walls.append(rep_spans[-1] - ref_s)  # the repetition without its reference samples
        if tracer is not None:
            tracer.end_rep()
        checked = workload.check(ops, results)
        attempted += checked.attempted
        failed += checked.failed
        digest = digest or checked.digest
        digest_stable = digest_stable and checked.digest == digest
        messages.extend(checked.messages[:5 - len(messages)])
    if first_error is not None:
        traceback.print_exception(first_error, file=sys.stderr)

    rows = {}  # kind -> its operations' rows
    for k, op in enumerate(ops):
        rows.setdefault(workload.kind(op), []).append(k)
    typical = [0.0] * len(ops)  # median scaled time of each operation's kind
    best = [0.0] * len(ops)  # raw fastest time of each operation's kind
    for members in rows.values():
        median = float(np.nanmedian(scaled[members]))
        fastest = float(np.nanmin(raw[members]))
        for k in members:
            typical[k], best[k] = median, fastest
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update({
        "reps": len(rep_walls),
        "ops": len(ops),
        "wall_s": sum(typical),
        "raw_best_wall_s": sum(best),
        "rep_wall_median_s": statistics.median(rep_walls),
        "speed_scale": statistics.median(scales),
        "latency_us_p50": statistics.median(typical) * 1e6,
        "latency_us_p99": float(np.nanquantile(raw, 0.99)) * 1e6,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "digest_stable": digest_stable,
        "messages": messages,
        "profiles_per_rep": checked.profiles,
        "zero_se_per_rep": checked.zero_se,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    })
    if tracer is not None:
        record["layers"] = tracer.summary(sum(rep_walls), len(rep_walls))
        record["self_s"] = tracer.self_seconds()
        out_dir = os.path.join(os.getcwd(), ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}.json"),
                           {"workload": args.workload, "seed": args.seed,
                            "reps": len(rep_walls)})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
