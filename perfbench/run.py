#!/usr/bin/env python3
"""perfbench: the repository's benchmark, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the simulator's libraries and perfbench/harness.cpp with CMake
(Release) under $CARGO_TARGET_DIR, or .bench_build when that is unset,
runs the workload in a process of its own, checks the outputs against
the pinned digests in perfbench/expected.json, and prints one JSON object
as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics declared in BENCHMARK.json and
--trace 1 the per-layer ones; the traced run also writes its spans under
<build dir>/spans/. Build output and diagnostics go to standard error.
A missing source tree or a failed build exits nonzero without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170
# Per-layer times measured inside one traced repetition's timed phase.
LAYER_TIMES = ("net.settle_s", "net.deliver_s", "bgmp.repair_s",
               "workload.protocol_s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile); the maximum when there are 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def best_positions(reps):
    """Each timed position's fastest repetition. Every repetition runs the
    same deterministic positions, so the minimum is the position's time
    with the least interference from the rest of the host. The harness
    fixes the repetition count from --seconds alone, so a faster or slower
    build gets the same number of samples per position."""
    if any(len(r) != len(reps[0]) for r in reps):
        fail("repetitions timed different numbers of positions")
    return [min(r[k] for r in reps) for k in range(len(reps[0]))]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then rebuilds incrementally; returns the harness."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_harness")


def run_harness(exe, args, spans_path):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--extra-cycles", str(args.extra_cycles)]
    if spans_path:
        cmd += ["--spans-out", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(workload, seed, raw):
    """Every output the run produced must agree with itself and, for a
    pinned seed, with perfbench/expected.json. Returns the problems."""
    problems = []
    for key in ("rib_digests", "engine_digests", "members_totals"):
        if len(set(raw[key])) > 1:
            problems.append(f"{key} differ between repetitions: {raw[key]}")
    with open(os.path.join(HERE, "expected.json")) as f:
        pinned = json.load(f).get(workload, {}).get(str(seed), {})
    for key, want in pinned.items():
        got = raw[key + "s"]
        if not got or any(value != want for value in got):
            problems.append(f"{key} {got} != pinned {want}")
    if raw["violations"]:
        problems.append(f"{raw['violations']} invariant violations")
    if raw["failed"]:
        problems.append(f"{raw['failed']} settles hit the event budget")
    return problems


def span_shares(path):
    """Self time of each span name inside the traced `run` spans, as a
    share of their total duration (a span's self time is its duration
    minus the part its children cover). The CPU placement probes between
    timed steps are left out of both."""
    with open(path) as f:
        spans = json.load(f)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    in_run = []
    total = 0.0
    selfs = {}
    for i, s in enumerate(spans):
        parent = s["parent"]
        in_run.append(s["name"] == "run" or (parent >= 0 and in_run[parent]))
        length = s["end"] - s["start"]
        if s["name"] == "run":
            total += length
        if in_run[i] and s["name"] == "cpu.pin":
            total -= length
        elif in_run[i]:
            own = length - child_time[i]
            selfs[s["name"]] = selfs.get(s["name"], 0.0) + own
    if not total:
        return {}
    return {name: t / total for name, t in sorted(selfs.items())}


def layer_shares(raw):
    """The step-profiled layer times of the traced run as shares of its
    median traced repetition."""
    run_s = statistics.median(raw["traced_s"])
    return {name: raw["layer"][name] / run_s for name in LAYER_TIMES}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--extra-cycles", type=int, default=0,
                        help="flap-1k only: extra link cycles per round "
                             "(the resolution self-test's known extra work)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    exe = build(bdir)
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
        spans_path = os.path.join(
            bdir, "spans", f"{args.workload}-seed{args.seed}.json")
    raw = run_harness(exe, args, spans_path)
    problems = check_outputs(args.workload, args.seed, raw)
    for p in problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {p}",
              file=sys.stderr)

    best = best_positions(raw["reps"])
    steps = [s * 1e3 for s in best[:raw["steps"]]]
    step_tail, tail_pct = tail(steps)
    if args.trace:
        values = dict(raw["layer"])
        values["step.samples"] = len(steps)
        values["step.tail_pct"] = tail_pct
    else:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "run_s": sum(best),
            "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
            "step_p50_ms": statistics.median(steps),
            "step_tail_ms": step_tail,
        }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"workload produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_samples": len(raw["setup_s"]),
        "repetitions": len(raw["reps"]) + len(raw["traced_s"]),
        "step_samples": len(steps), "step_tail_pct": tail_pct,
        "rib_digest": raw["rib_digests"][:1],
        "engine_digest": raw["engine_digests"][:1],
        "members_total": raw["members_totals"][:1],
        "problems": problems,
    }
    if spans_path:
        detail["run_self_share"] = span_shares(spans_path)
        detail["layer_share"] = layer_shares(raw)
        detail["spans"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
