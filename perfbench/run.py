#!/usr/bin/env python3
"""Build and run the benchmark (see BENCHMARK.json at the repository root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, then runs one benchmark run from the repository root
with the kernel pool pinned to one thread.  The last line of standard output
is the result JSON; build output goes to standard error.  A traced run also
writes its spans to .bench_build/trace/<workload>-<seed>.jsonl.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; exits non-zero on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)

    def configure():
        return subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) or not configure():
        # A cache from another source location cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not configure():
            log("configure failed")
            sys.exit(1)
    if subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(BUILD, "perfbench")


def commit_stamp():
    """The git commit, or a digest of the library sources outside a repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")]
    env = dict(os.environ, CMFL_THREADS="1", PERFBENCH_COMMIT=commit_stamp())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
