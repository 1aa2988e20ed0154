#!/usr/bin/env python3
"""Repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload score_mem --seed 7 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src unmodified) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later calls reuse the build. The
benchmark binary runs the workload, prints a readable report (every metric
with its unit, every output check), and this script adds provenance,
writes the full result set to .bench_out/results/, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Exit status is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULT_PREFIX = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "titant_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "titant_perfbench")


def source_identity():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, check=True, timeout=10)
        if os.path.realpath(top.stdout.strip()) == os.path.realpath("."):
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 check=True, timeout=10)
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(".bench_out", "work-" + run_name + f"-{os.getpid()}")
    results_dir = os.path.join(".bench_out", "results")
    os.makedirs(results_dir, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        shutil.rmtree(workdir, ignore_errors=True)
        return 1
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    spans = os.path.join(workdir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(results_dir, run_name + ".spans.jsonl"))
    shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        log(f"benchmark binary exited {proc.returncode} without a result")
        return 1

    result["provenance"].update({
        "seed": str(args.seed),
        "nproc_os": str(os.cpu_count()),
        "kernel_release": os.uname().release,
        "source": source_identity(),
        "seconds": str(args.seconds),
    })
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    mislabelled = [m["name"] for m in wanted
                   if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
    if missing or mislabelled:
        log(f"benchmark did not report: {missing}; unit differs from BENCHMARK.json: {mislabelled}")
        return 1

    print()
    print(f"provenance: " + ", ".join(f"{k}={v}" for k, v in result["provenance"].items()))
    for group, entries in (("end-to-end", spec["end_to_end"]), ("per-layer", spec["per_layer"])):
        print(f"{group} metrics:")
        for m in entries:
            if m["name"] in metrics:
                print(f"  {m['name']:<40} {metrics[m['name']]['value']:>16.6g} {m['unit']}")
    with open(os.path.join(results_dir, run_name + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
