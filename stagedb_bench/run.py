#!/usr/bin/env python3
"""Builds stagedb_bench from the checkout's sources and runs one workload.

    python3 stagedb_bench/run.py --workload htap_mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/stagedb_bench
(configured once, rebuilt incrementally); the server's WAL and the traced
run's span files go to .bench_build/work. The workload settings come from
workloads.json beside this file. Human-readable lines go to stdout first; the
last stdout line is the JSON result. Exits non-zero when the build fails, an
answer check fails, or the run is invalid.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def die(msg):
    print(f"stagedb_bench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        die(f"build step failed: {e}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no StagedDB sources (src/CMakeLists.txt) next to the benchmark")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen, BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_logged(["cmake", "--build", build_dir, "--target", "stagedb_bench",
                "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "stagedb_bench")


def source_id():
    """A commit id when the checkout is a git work tree, else a hash of src/."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "src-sha256 " + src_hash()
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "commit " + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "src-sha256 " + src_hash()


def src_hash():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        settings = json.load(f)
    if args.workload not in settings["workloads"]:
        die(f"unknown workload {args.workload!r}; known: "
            f"{', '.join(settings['workloads'])}")

    build_root = os.path.join(ROOT, ".bench_build")
    binary = build(os.path.join(build_root, "stagedb_bench"))
    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)

    params = dict(settings["common"])
    params.update(settings["workloads"][args.workload])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    for key, value in params.items():
        cmd += ["--set", f"{key}={value}"]
    print(f"# source: {source_id()}")
    print(f"# flush policy: {settings['flush_policy']}")
    sys.stdout.flush()

    # Own session, so a timeout can stop the generator and its server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"run exceeded {RUN_TIMEOUT_S}s")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        die(f"no result line (exit code {proc.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line")
    print(json.dumps(result))
    sys.exit(proc.returncode if proc.returncode != 0 else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
