#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload impact_fixed --seed 1 --seconds 6 --trace 0

Run it from the repository root. The first run configures and builds the
`perfbench` CMake package (the contactpart library from `src/` plus the
driver) under `$CARGO_TARGET_DIR` (default `.bench_build`); later runs only
rebuild what changed. Detail files and traces go to
`<build root>/perfbench-out/`.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Its metric names and units are
checked against BENCHMARK.json before it is printed. Exit codes: 0 when every
step passed its check, 1 when a check failed, 2 when the build failed, 3 when
the driver crashed, timed out or printed a malformed result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path):
    """Runs a build step with its output in a log; prints the tail on failure."""
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = pathlib.Path(log_path).read_text(errors="replace")[-4000:]
        print(tail, file=sys.stderr)
        fail(2, f"build step failed: {' '.join(cmd)}")


def build(build_root):
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_root / "perfbench-build.log"
    if not (build_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log)
    return build_dir / "perfbench_driver"


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_result(line, contract, traced):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    expected = contract["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(units):
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(units))}")
    for name, metric in got.items():
        if metric.get("unit") != units[name]:
            raise ValueError(f"{name}: unit {metric.get('unit')} != {units[name]}")
        if not isinstance(metric.get("value"), (int, float)):
            raise ValueError(f"{name}: value is not a number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    contract_path = ROOT / "BENCHMARK.json"
    if not contract_path.exists():
        fail(2, "BENCHMARK.json not found next to the benchmark directory")
    contract = json.loads(contract_path.read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload not in workloads:
        fail(2, f"unknown workload {args.workload}; choose from {workloads}")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver = build(build_root)
    out_dir = build_root / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", str(out_dir), "--source_digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"driver did not finish within {DRIVER_TIMEOUT_S} s")

    lines = proc.stdout.splitlines()
    if not lines:
        fail(3, f"driver printed nothing (exit code {proc.returncode})")
    try:
        check_result(lines[-1], contract, args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        print("\n".join(lines), file=sys.stderr)
        fail(3, f"malformed result: {err}")
    print("\n".join(lines), flush=True)
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
