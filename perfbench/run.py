#!/usr/bin/env python3
"""The repo benchmark: build, set up, measure, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of the workloads named in
BENCHMARK.json, or `all`, which interleaves every workload in one process.
The first run builds the simulator and the benchmark programs from source
into `.bench_build` (or $CARGO_TARGET_DIR). Each run then

  * runs the benchmark's self-test (perfbench_selftest);
  * with --trace 0, times set-up (process start until the workload's
    inputs are built and its first, untimed warm-up call begins) in
    SETUP_SAMPLES processes and reports the median;
  * measures the workload for S seconds in one process (laec_perfbench) and
    checks its rows against the warm-up and the reference path;
  * prints every metric by name with its unit, writes a stamped record to
    `.bench_results/`, and prints one JSON object as its last line.

With --trace 0 the JSON carries BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics. The exit code is 0 only when every
operation succeeded and every output matched.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up measurements per run (the measuring process and SETUP_SAMPLES - 1
# set-up-only processes, a few milliseconds each); the median is reported.
SETUP_SAMPLES = 16
# Every process this script starts must finish well inside the 180 s a run
# may take.
PROCESS_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the two programs up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/ (run from a repo checkout)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "laec_perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def cpu_ticks():
    """(busy, stolen) CPU ticks summed over the machine's CPUs."""
    try:
        with open("/proc/stat") as fh:
            f = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return f[0] + f[1] + f[2] + f[5] + f[6], f[7]


def spawn(exe, args, timeout):
    """Run one benchmark process. Returns its parsed JSON, its return code
    and its set-up time: spawn to the ready stamp it prints, net of the
    hypervisor steal over that interval (see steal_share in perfbench.cpp)."""
    busy, steal = cpu_ticks()
    t0 = time.monotonic_ns()
    p = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                       timeout=timeout)
    try:
        doc = last_json(p.stdout)
    except ValueError as e:
        fail(f"{os.path.basename(exe)} {' '.join(args)} gave no result "
             f"(exit {p.returncode}): {e}")
    stolen = doc["steal_ticks"] - steal
    wanted = stolen + doc["busy_ticks"] - busy
    share = stolen / wanted if wanted > 0 else 0.0
    return doc, p.returncode, (doc["ready_ns"] - t0) * 1e-9 * (1.0 - share)


def source_digest():
    """SHA-256 over the simulator and benchmark sources: a commit stand-in
    that also works in a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(doc):
    commit = None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_digest": source_digest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": doc["compiler"], "build_type": doc["build_type"],
            "threads": doc["threads"], "seed": doc["seed"]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0x1AEC)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build()
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, timeout=60)
    if selftest.returncode:
        fail("self-test failed")

    exe = os.path.join(build_dir, "laec_perfbench")
    workloads = names if args.workload == "all" else [args.workload]
    common = [f"--workloads={','.join(workloads)}", f"--seed={args.seed}"]
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            _, rc, setup_s = spawn(exe, common + ["--setup-only"], PROCESS_TIMEOUT_S)
            if rc:
                fail("set-up failed")
            setup.append(setup_s)
    doc, rc, setup_s = spawn(exe, common + [f"--seconds={args.seconds}"]
                             + (["--trace"] if args.trace else []), PROCESS_TIMEOUT_S)
    if not args.trace:
        setup.append(setup_s)

    attempted = failed = 0
    metrics, records = {}, {}
    for w in workloads:
        res = doc["workloads"][w]
        attempted += res["attempted"]
        failed += res["failed"]
        figures = dict(res["layers" if args.trace else "metrics"])
        if setup:
            q = statistics.quantiles(setup, n=4, method="inclusive")
            figures["setup_s"] = {"median": statistics.median(setup), "q1": q[0],
                                  "q3": q[2], "n": len(setup), "unit": "s"}
        print(f"{w}: {res['reps']} repetitions, {res['failed']} of "
              f"{res['attempted']} operations failed, row digest {res['digest']}")
        for name in sorted(figures):
            f = figures[name]
            print(f"  {name:34s} {f['median']:.6g} {f['unit']} "
                  f"(q1 {f['q1']:.6g}, q3 {f['q3']:.6g}, n={f['n']})")
        for m in wanted:
            if m["name"] not in figures:
                fail(f"{w}: metric {m['name']} was not measured")
            if figures[m["name"]]["unit"] != m["unit"]:
                fail(f"{w}: metric {m['name']} unit mismatch")
            key = m["name"] if len(workloads) == 1 else f"{w}/{m['name']}"
            metrics[key] = {"value": figures[m["name"]]["median"], "unit": m["unit"]}
        records[w] = {"attempted": res["attempted"], "failed": res["failed"],
                      "digest": res["digest"], "repetitions": res["reps"],
                      "layers" if args.trace else "metrics": figures}

    correct = failed == 0 and rc == 0
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    record = {"stamp": stamp(doc), "workload": args.workload,
              "trace": args.trace, "seconds": args.seconds,
              "correct": correct, "setup_samples_s": setup, "workloads": records}
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
