#!/usr/bin/env python3
"""Suite benchmark entry point: builds perfbench/suite_bench from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check      # fast checks on tiny cells
    python3 perfbench/run.py --write-pins      # re-pin outputs (perfbench/pins.tsv)

Run from the repository root.  The build lives in .bench_build/perfbench;
traced runs write their spans to .bench_build/traces/.  The last line of
standard output is the benchmark's JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "suite_bench")
PINS = os.path.join(HERE, "pins.tsv")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "suite_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_bench(args, capture=False):
    """Runs suite_bench; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([BINARY, *args], timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: suite_bench timed out", file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def self_check():
    """Every metric of BENCHMARK.json printed with its unit, an injected
    signature mismatch counted as a failure, traced spans reconciled."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, out = run_bench(["--workload", workload, "--seed", "7",
                                   "--seconds", "0", "--trace", trace,
                                   "--pins", PINS, "--tiny"], capture=True)
            what = f"{workload} --trace {trace}"
            if code != 0 or not out:
                problems.append(f"{what}: exit {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{what}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            if got != want:
                problems.append(f"{what}: metrics {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
            if trace == "1" and "# reconcile: ok" not in out:
                problems.append(f"{what}: spans do not reconcile with wall_s")
    code, out = run_bench(["--workload", "app_validated", "--seed", "7",
                           "--seconds", "0", "--trace", "0", "--pins", PINS,
                           "--tiny", "--inject-mismatch"], capture=True)
    result = json.loads(out.strip().splitlines()[-1]) if code == 0 and out else None
    if result is None or result["failed"] == 0 or result["correct"]:
        problems.append("an injected signature mismatch was not counted")
    for p in problems:
        print("self-check:", p)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="26")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_check:
        return self_check()
    if args.write_pins:
        return run_bench(["--write-pins", PINS])[0]
    if not args.workload:
        ap.error("--workload is required")
    cmd = ["--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--pins", PINS]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    return run_bench(cmd)[0]


if __name__ == "__main__":
    sys.exit(main())
