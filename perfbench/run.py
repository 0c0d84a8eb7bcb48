#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The harness and the dvs-sim CLI are
built in an optimized configuration of their own under .bench_build/
(or $CARGO_TARGET_DIR); the first run builds, later runs only check that the
build is current.  stdout ends with one JSON object: correct, attempted,
failed and metrics.  The line before it is the environment stamp (commit,
build type, compiler, nproc, load average at start and end).  Build logs and
the harness's own notes go to stderr.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sweep", "fleet-population", "serve-backlog")
OPTIMIZED = ("Release", "RelWithDebInfo")
# Workloads run at 4 workers, the core count of the reference machine (a
# 4-vCPU Intel Xeon VM); never more.
MAX_JOBS = 4
HARNESS_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build(build_dir, jobs):
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler temporaries inside the checkout
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs),
                  "--target", "dvs_perfbench", "dvs_sim_cli"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail(2, "build failed: " + " ".join(cmd))
    build_type = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type not in OPTIMIZED:
        fail(3, f"refusing to measure a '{build_type}' build; "
                f"configure {build_dir} with one of {OPTIMIZED}")
    return build_type


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the self-tests")
    ap.add_argument("--inject", choices=("flip-digest", "bad-job"),
                    help="plant a failure, for the self-tests")
    ap.add_argument("--print-digests", action="store_true",
                    help="print the output digests (to refresh digests.json)")
    args = ap.parse_args()

    for need in ("src", "tools"):
        if not os.path.isdir(os.path.join(ROOT, need)):
            fail(2, f"no {need}/ beside perfbench/: run from a full checkout")

    ncpu = os.cpu_count() or 1
    jobs = min(MAX_JOBS, ncpu)
    load_start = os.getloadavg()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build_type = build(build_dir, jobs)

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [os.path.join(build_dir, "dvs_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sim", os.path.join(build_dir, "dvs_tools", "dvs-sim"),
           "--digests", os.path.join(HERE, "digests.json"),
           "--work", work, "--jobs", str(jobs)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.print_digests:
        cmd.append("--print-digests")
    os.sync()  # write back the build's output before anything is timed
    t0 = time.monotonic()
    # Its own session, so that a timeout also stops the serve daemon the
    # harness may have started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(4, f"harness exceeded {HARNESS_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    os.sync()  # settle the deletions here rather than in the next run
    if proc.returncode != 0:
        fail(proc.returncode, f"harness exited with {proc.returncode}")

    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    stamp_in, result = lines[0]["build"], lines[-1]
    if not stamp_in.get("optimized") or stamp_in.get("type") != build_type:
        fail(3, f"harness build stamp {stamp_in} does not match {build_type}")
    for extra in lines[1:-1]:
        print(json.dumps(extra))
    env = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": build_type,
        "compiler": stamp_in["compiler"],
        "nproc": ncpu,
        "jobs": jobs,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.monotonic() - t0, 3),
    }
    if result["attempted"] > 0:
        env["error_rate"] = result["failed"] / result["attempted"]
    print(json.dumps({"env": env}))
    with open(os.path.join(build_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"env": env, "result": result}) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
