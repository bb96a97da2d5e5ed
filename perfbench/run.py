#!/usr/bin/env python3
"""Layered, repeated benchmark of the ThyNVM simulator.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the C++ driver (perfbench/CMakeLists.txt, Release) on first use,
runs one workload in its own process, checks every simulated output
against the digests recorded in perfbench/digests.json, and prints the
metrics. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md). A full report with provenance is written
to <build dir>/results/.

Maintenance modes:
    --record [--seeds A-B]   re-record the expected digests
    --write-spec             rewrite BENCHMARK.json from the tables below
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
RECORDED_SEEDS = range(0, 32)

WORKLOADS = [
    ("micro_miss",
     "Fig. 7 Random/Streaming/Sliding on all 7 kinds: L1 misses, so "
     "controllers, devices and the event kernel do the work"),
    ("l1_resident",
     "1 KB ops over a 16 KB array on all 7 kinds: L1 hits, so the cache "
     "fast path and CPU do the work; the no-change check for controllers"),
    ("kv_store",
     "Fig. 9 hash/256 B and rbtree/4 KB KV store on all 7 kinds plus a "
     "1 GiB sparse store whose image init and pages dominate set-up/RSS"),
    ("crash_campaign",
     "Differential-oracle crash campaign, 5 checkpointing kinds at 1 and "
     "2 channels: fuzz, crash/recover, store clones, kernel windows"),
]

# (name, unit, better, bound) -- reported by every workload; bound is the
# share of the parent commit's median by which the metric may worsen.
# Every timing is an op at its fastest round, scaled to the reference
# host's clock (README.md, "Timing on a shared host"). Timings get the
# widest bound allowed: on a busy host the crash campaign's single-call
# cases spread up to 0.15 and moved a whole set by 1.19x (README.md).
END_TO_END = [
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("host_ms_per_sim_ms", "ms/ms", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("case_ms_p50", "ms", "lower", 0.25),
    ("case_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better) -- reported by --trace 1, no bound.
KINDS = ["ideal_dram", "ideal_nvm", "journal", "shadow", "icl",
         "incremental"]
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.fast_path_schedules", "count", "higher"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.driver.ns_per_event", "ns", "lower"),
    ("sim.kernel_windows", "count", "lower"),
    ("sim.kernel_messages", "count", "lower"),
    ("mem.nvm.reads", "count", "lower"),
    ("mem.nvm.writes", "count", "lower"),
    ("mem.nvm.row_hit_ratio", "ratio", "higher"),
    ("mem.dram.reads", "count", "lower"),
    ("mem.dram.writes", "count", "lower"),
    ("mem.dram.row_hit_ratio", "ratio", "higher"),
    ("mem.device.ns_per_req", "ns", "lower"),
    ("mem.store.touched_pages", "count", "lower"),
    ("mem.store.ns_per_page_write", "ns", "lower"),
    ("mem.store.ns_per_clone_page", "ns", "lower"),
    ("cache.l1.hit_ratio", "ratio", "higher"),
    ("cache.l2.hit_ratio", "ratio", "higher"),
    ("cache.l3.hit_ratio", "ratio", "higher"),
    ("cache.writebacks", "count", "lower"),
    ("cache.driver.ns_per_hit", "ns", "lower"),
    ("cache.driver.ns_per_miss", "ns", "lower"),
    ("cache.fast_ratio", "ratio", "higher"),
    ("cpu.ops", "count", "lower"),
    ("cpu.instructions", "count", "lower"),
    ("workloads.ns_per_op", "ns", "lower"),
    ("workloads.init_s", "s", "lower"),
]
for _layer, _kind in [("core", "thynvm")] + [("baselines", k) for k in KINDS]:
    _p = f"{_layer}.{_kind}."
    PER_LAYER += [
        (_p + "ns_per_access", "ns", "lower"),
        (_p + "ns_per_ckpt", "ns", "lower"),
        (_p + "epochs", "count", "lower"),
        (_p + "ckpt_time_frac", "ratio", "lower"),
        (_p + "write_amp", "ratio", "lower"),
    ]
PER_LAYER += [
    ("harness.build_ms", "ms", "lower"),
    ("harness.start_ms", "ms", "lower"),
    ("harness.crash_ms", "ms", "lower"),
    ("harness.recover_ms", "ms", "lower"),
    ("harness.dump_stats_ms", "ms", "lower"),
    ("fuzz.enumerate_ms", "ms", "lower"),
    ("fuzz.case_ms.ch1", "ms", "lower"),
    ("fuzz.case_ms.ch2", "ms", "lower"),
    ("fuzz.cases", "count", "higher"),
    ("fuzz.sites_reached", "count", "higher"),
    ("fuzz.not_reached", "count", "lower"),
    ("fuzz.violations", "count", "lower"),
    ("attrib.sim.share", "ratio", "lower"),
    ("attrib.mem.share", "ratio", "lower"),
    ("attrib.cache.share", "ratio", "lower"),
    ("attrib.workloads.share", "ratio", "lower"),
    ("attrib.unexplained", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.run_s_traced", "s", "lower"),
    ("trace.spans", "count", "lower"),
]
PER_LAYER += [(f"trace.self_ms.{layer}", "ms", "lower") for layer in
              ["harness", "sim", "mem", "cache", "workloads", "core",
               "baselines", "fuzz"]]
PER_LAYER += [
    ("out.sim_ms", "ms", "lower"),
    ("out.nvm_write_mb", "MB", "lower"),
    ("host.clock_floor_ms", "ms", "lower"),
]

RUN_SECONDS = 25
PINNED_ENV_PREFIX = "THYNVM_"


def spec():
    """The BENCHMARK.json contents, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base).resolve() / "perfbench-release"


def build():
    """Configure (once) and build the driver; returns the binary path."""
    if not (ROOT / "src").is_dir() or not (HERE / "CMakeLists.txt").is_file():
        fail("simulator sources not found; run from a full checkout")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(log, "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                fail(f"cmake configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                            stdout=out, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"build failed, see {log}")
    return bdir / "perfbench"


def check_env():
    """SystemConfig defaults and sweep fan-out read these silently."""
    bad = sorted(k for k in os.environ if k.startswith(PINNED_ENV_PREFIX))
    if bad:
        fail("refusing to run with " + ", ".join(bad) +
             " set: the benchmark pins channels, threads and stores itself")


def run_driver(binary, args, timeout):
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def load_digests():
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def expected_digests(scale, workload, seed):
    return load_digests().get(scale, {}).get(workload, {}).get(str(seed), {})


def count_ops(result, expected):
    """(attempted, failed, notes): every cell execution or crash case."""
    attempted = failed = 0
    notes = []
    for op in result["ops"]:
        label, digests = op["label"], op["digests"]
        want = expected.get(label, digests[0])
        bad = sum(1 for d in digests if d != want)
        attempted += len(digests)
        failed += max(bad, int(op["unfinished"]))
        if bad:
            notes.append(f"{label}: {bad}/{len(digests)} digests != {want}")
        if op["unfinished"]:
            notes.append(f"{label}: {op['unfinished']} runs did not finish")
    rounds = result["campaign"]
    if rounds:
        want = expected.get("campaign", rounds[0]["digest"])
        for r in rounds:
            attempted += r["cases"]
            if r["digest"] != want:
                failed += r["cases"]
                notes.append(f"campaign: plan/outcome digest {r['digest']} "
                             f"!= {want}")
            else:
                failed += r["not_reached"] + r["violations"]
            if r["not_reached"] or r["violations"]:
                notes.append(f"campaign: {r['not_reached']} not reached, "
                             f"{r['violations']} violations")
    return attempted, failed, notes


def provenance(result, seed):
    rev = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    prov = dict(result["provenance"])
    prov.update({"git_rev": rev, "src_sha256": h.hexdigest()[:16],
                 "nproc": os.cpu_count(), "seed": seed})
    return prov


def record(args, binary):
    seeds = RECORDED_SEEDS
    if args.seeds:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        seeds = range(lo, hi + 1)
    data = load_digests()
    names = [args.workload] if args.workload else [n for n, _ in WORKLOADS]
    for name in names:
        for seed in seeds:
            res = run_driver(binary, ["--workload", name, "--seed", str(seed),
                                      "--seconds", "1", "--trace", "0",
                                      "--rounds", "1", "--scale", args.scale],
                             timeout=600)
            got = {op["label"]: op["digests"][0] for op in res["ops"]}
            if res["campaign"]:
                c = res["campaign"][0]
                if c["not_reached"] or c["violations"]:
                    fail(f"{name} seed {seed}: campaign is not clean")
                got["campaign"] = c["digest"]
            data.setdefault(args.scale, {}).setdefault(name, {})[
                str(seed)] = got
            print(f"recorded {args.scale}/{name}/seed {seed}", flush=True)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--perturb-epoch", action="store_true",
                    help="double every epoch length (self-test: the "
                         "output check must report failed ops)")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", help="seed range A-B for --record")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec(), indent=2) + "\n")
        return
    check_env()
    binary = build()
    if args.record:
        record(args, binary)
        return
    if not args.workload:
        fail("--workload is required")

    out_dir = build_dir().parent / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        cmd += ["--spans-out", str(out_dir / (stem + "-spans.json"))]
    if args.perturb_epoch:
        cmd.append("--perturb-epoch")
    # A run overshoots --seconds by at most one round plus the traced
    # run's layer drivers; anything far beyond that is a hang.
    result = run_driver(binary, cmd, timeout=2 * args.seconds + 60)

    expected = expected_digests(args.scale, args.workload, args.seed)
    attempted, failed, notes = count_ops(result, expected)
    prov = provenance(result, args.seed)

    table = END_TO_END if not args.trace else PER_LAYER
    source = result["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for row in table:
        name, unit = row[0], row[1]
        if name not in source:
            fail(f"driver did not report {name}")
        metrics[name] = {"value": source[name]["value"], "unit": unit}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"rounds={result['rounds']}+{result['traced_rounds']} "
          f"check={'recorded' if expected else 'self-consistency'} "
          f"rev={prov['git_rev'][:12]} src={prov['src_sha256']} "
          f"build={prov['build_type']} ({prov['opt_flags'].strip()}) "
          f"nproc={prov['nproc']}")
    for name, m in sorted(result["end_to_end"].items()):
        print(f"  e2e   {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, m in result["per_layer"].items():
        print(f"  layer {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, ms in sorted(result["span_self_ms"].items()):
        print(f"  span  {name:<34} {ms:>16.3f} ms self")
    for note in notes:
        print(f"  FAIL  {note}")
    for note in result["controller_check"]:
        print(f"  WARN  controller driver differs from System: {note}")

    report = {"provenance": prov, "attempted": attempted, "failed": failed,
              "notes": notes, "driver": result}
    (out_dir / (stem + ".json")).write_text(json.dumps(report, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
