#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source checkout:

    python3 vdtbench/run.py --workload <tune|serve-read> \
        --seed <n> --seconds <s> --trace <0|1>

The first run compiles the library and the measuring program into
.bench_build/vdtbench (CMake, Release); later runs rebuild incrementally.
The measuring program prints one line per metric, a provenance line, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics. The metrics must be exactly those BENCHMARK.json declares for the
run (end_to_end untraced, per_layer traced), each in its unit. The exit code
is non-zero when the build fails, when an output check fails, or when no
such result was produced.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("tune", "serve-read")
# Library executor width: with two server workers and two client
# connections, the serving workloads stay within four busy threads.
VDT_THREADS = "2"


def run_timeout_s(seconds):
    """A fixed allowance for set-up, checks and the write probe's 25 s of
    traffic, plus the measured time: a traced run drives each serving
    ladder for half of it, and its workload's own twice."""
    return 90 + 3 * seconds


def declared_metrics(root, trace):
    """{name: unit} of the metrics BENCHMARK.json declares for the run."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def fail(message):
    print("vdtbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_commit(root):
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "vdtbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, bench_dir, build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=root, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   cwd=root, check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "vdtbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "vdms", "vdms.h")):
        fail("library sources not found under ./src; run from the root of "
             "a source checkout")
    try:
        declared = declared_metrics(root, args.trace)
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metrics of BENCHMARK.json: %s" % e)
    build_root = os.path.join(root, ".bench_build")
    try:
        binary = build(root, bench_dir, os.path.join(build_root, "vdtbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    work_dir = os.path.join(build_root, "run")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, VDT_THREADS=VDT_THREADS,
               VDTBENCH_COMMIT=source_commit(root))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir, root)]
    timeout_s = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout_s)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if (not isinstance(result, dict) or
                set(result) != {"correct", "attempted", "failed", "metrics"}):
            raise ValueError("unexpected result line")
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, TypeError, KeyError, AttributeError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("no result line (exit code %d)" % proc.returncode)
    if reported != declared:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" %
             (sorted(set(declared.items()) - set(reported.items())),
              sorted(set(reported.items()) - set(declared.items()))))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
