#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Checks that:
  * every workload's untraced run prints every end_to_end metric of
    BENCHMARK.json with its unit, and its traced run every per_layer metric;
  * a flipped output digest and an unparsable job dropped into a serve spool
    are both counted as failed operations (the error rate);
  * without the repository sources beside it, run.py exits non-zero and
    prints no result.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(*args, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    r = subprocess.run([sys.executable, script, *args], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    return r


def result_of(r):
    if r.returncode != 0:
        raise AssertionError(f"run.py exited {r.returncode}:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)
    print(f"ok   {msg}")


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    # serve-backlog is not gated in BENCHMARK.json (see README.md) but must
    # keep working.
    for wl in names + [n for n in ("serve-backlog",) if n not in names]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(bench("--workload", wl, "--seed", "7", "--seconds", "1",
                                  "--trace", str(trace), "--tiny"))
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace {trace}: result has exactly the four keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{wl} trace {trace}: correct, {res['attempted']} attempted, none failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{wl} trace {trace}: every {key} metric present with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  f"{wl} trace {trace}: every value is a number")

    res = result_of(bench("--workload", "paper-sweep", "--seed", "7", "--seconds", "1",
                          "--tiny", "--inject", "flip-digest"))
    check(not res["correct"] and res["failed"] > 0,
          f"flipped digest counted: {res['failed']} of {res['attempted']} failed")

    res = result_of(bench("--workload", "serve-backlog", "--seed", "7", "--seconds", "1",
                          "--tiny", "--inject", "bad-job"))
    check(not res["correct"] and res["failed"] >= 1,
          f"unparsable serve job counted: {res['failed']} of {res['attempted']} failed")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(r.returncode != 0 and not r.stdout.strip(),
          f"without the sources run.py exits {r.returncode} and prints no result")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
