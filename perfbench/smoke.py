"""Smoke test of the benchmark at its smallest size.

    python3 perfbench/smoke.py

Run from the root of a drasim checkout; it takes about two minutes. For each
workload it runs perfbench/run.py with --seconds 1 (two repetitions), once
with --trace 0 and once with --trace 1, on one seed, and asserts that:

  * the last stdout line is the result object and holds exactly the metrics
    BENCHMARK.json declares for the mode, each with its declared unit;
  * correct is true, failed is 0 and error_rate is 0;
  * the untraced and traced runs print the same digest;
  * the per-layer self times sum to no more than the traced wall.

Last, it copies BENCHMARK.json and perfbench/ into a directory without
src/drasim and asserts that run.py fails there without printing a result.
Exit code 0 means every check passed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED = 7


def run(cwd: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=200)


def check_workload(root: str, bench: dict, workload: str) -> None:
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(root, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                   "--trace", str(trace))
        assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
        declared = {m["name"]: m["unit"] for m in bench[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared, f"{workload} trace={trace}: metrics {printed} != {declared}"
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
            f"{workload} trace={trace}: {result['correct']=} {result['failed']=}\n{proc.stdout}"
        digest_line = next(line for line in lines if line.startswith("digest "))
        fields = dict(f.split("=", 1) for f in digest_line.split()[2:])
        digests.append(digest_line.split()[1])
        if trace:
            metrics = result["metrics"]
            assert metrics["error_rate"]["value"] == 0.0
            assert fields["traced_digest"] == digests[-1], digest_line
            self_pct = sum(m["value"] for name, m in metrics.items()
                           if name.endswith(".self_pct"))
            assert self_pct <= 100.0, f"{workload}: self times sum to {self_pct}% of the wall"
    assert digests[0] == digests[1], f"{workload}: digests differ across runs {digests}"
    print(f"smoke {workload}: ok, digest {digests[0][:16]}")


def check_bare_directory(root: str) -> None:
    scratch = os.path.join(root, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "audit",
                               "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=200)
        assert proc.returncode != 0, "run.py succeeded without src/drasim"
        assert '"correct"' not in proc.stdout, "run.py printed a result without src/drasim"
    print("smoke bare directory: ok, exit code", proc.returncode)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        check_workload(root, bench, workload)
    check_bare_directory(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
