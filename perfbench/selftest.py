#!/usr/bin/env python3
"""Smoke self-test of the benchmark (about a minute, plus the build).

    python3 perfbench/selftest.py

Runs every workload untraced and traced at tiny scale and asserts that
every metric is emitted, that the outputs check clean, that the traced
run records spans for every layer and reproduces the untraced digests,
that the controller drivers build what System builds, that a perturbed
configuration (doubled epoch length) is reported as failed ops, that
BENCHMARK.json matches the tables in run.py, and that the benchmark
refuses to run without the simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402

SPAN_LAYERS = {"harness", "sim", "mem", "cache", "workloads", "core",
               "baselines"}
# End-to-end quantities reported beside the gated metrics.
EXTRA_E2E = {"sim_ms", "nvm_write_mb", "case_samples"}


def bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py")] + list(args), cwd=run.ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    return last


def report(workload, trace):
    path = (run.build_dir().parent / "results" /
            f"{workload}-tiny-seed1-trace{trace}.json")
    return json.loads(path.read_text())


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)
    print(f"ok: {msg}")


def main():
    check(json.loads((run.ROOT / "BENCHMARK.json").read_text()) ==
          run.spec(), "BENCHMARK.json matches run.py's tables")
    e2e_names = [m[0] for m in run.END_TO_END]
    layer_names = [m[0] for m in run.PER_LAYER]

    for workload, _ in run.WORKLOADS:
        for trace in (0, 1):
            res = result_of(bench("--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--scale", "tiny"))
            want = layer_names if trace else e2e_names
            check(list(res["metrics"]) == want and res["correct"] and
                  res["failed"] == 0,
                  f"{workload} trace={trace}: {len(want)} metrics, "
                  f"{res['attempted']} ops, 0 failed")
            rep = report(workload, trace)
            check(EXTRA_E2E <= set(rep["driver"]["end_to_end"]),
                  f"{workload} trace={trace}: sim_ms, nvm_write_mb and "
                  f"case_samples reported")
            if trace:
                spans_file = (run.build_dir().parent / "results" /
                              f"{workload}-tiny-seed1-trace1-spans.json")
                layers = {s[0].split(".")[0] for s in
                          json.loads(spans_file.read_text())}
                want_layers = SPAN_LAYERS | (
                    {"fuzz"} if workload == "crash_campaign" else set())
                check(want_layers <= layers,
                      f"{workload}: spans for {sorted(want_layers)}")
                check(rep["driver"]["controller_check"] == [],
                      f"{workload}: controller drivers build what System "
                      f"builds {rep['driver']['controller_check']}")
                check(rep["driver"]["traced_rounds"] >= 1,
                      f"{workload}: traced rounds checked against the "
                      f"untraced digests")

    for workload in ("l1_resident", "crash_campaign"):
        res = result_of(bench("--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", "0",
                              "--scale", "tiny", "--perturb-epoch"))
        check(not res["correct"] and res["failed"] > 0,
              f"{workload}: doubled epoch length reported as "
              f"{res['failed']} failed ops")

    # A directory holding only BENCHMARK.json and perfbench/ must fail
    # without printing a result.
    bare = run.build_dir().parent / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "l1_resident",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "refuses to run without the simulator sources")
    shutil.rmtree(bare)

    env = dict(os.environ, THYNVM_CHANNELS="2")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "l1_resident",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=run.ROOT,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    check(proc.returncode != 0 and "THYNVM_CHANNELS" in proc.stderr,
          "refuses to run with THYNVM_* set")
    print("selftest passed")


if __name__ == "__main__":
    main()
