#!/usr/bin/env python3
"""Self-test of `macro_scenario --check`: one unit of digest drift must fail.

Usage: macro_check_selftest.py MACRO_SCENARIO BASELINE_JSON

Writes a copy of a flat single-run baseline (BENCH_macro_ci.json) with
`rib_digest` raised by 1, runs `macro_scenario` with the baseline's
parameters and `--check` against the copy, and exits 0 only if the check
exits 1, reports `rib_digest` as the one divergence and prints the
baseline value exactly as the copy holds it. Python's json module keeps
the 64-bit integer exact when it writes the copy.
"""
import json
import os
import subprocess
import sys
import tempfile


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, baseline = sys.argv[1], sys.argv[2]
    with open(baseline) as f:
        doc = json.load(f)
    doc["rib_digest"] += 1
    params = doc["params"]
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "baseline.json")
        with open(copy, "w") as f:
            json.dump(doc, f, indent=2)
        cmd = [binary, "--domains", str(params["domains"]),
               "--groups", str(params["groups"]),
               "--joins", str(params["joins"]),
               "--seed", str(params["seed"]),
               "--out", os.path.join(tmp, "run.json"),
               "--check", copy]
        run = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    sys.stderr.write(run.stderr)
    failures = [line for line in run.stderr.splitlines()
                if "diverged" in line or "regressed" in line
                or "lacks" in line]
    want = f"rib_digest diverged: baseline {doc['rib_digest']},"
    if run.returncode != 1:
        print(f"selftest: --check exited {run.returncode}, want 1",
              file=sys.stderr)
        return 1
    if len(failures) != 1 or want not in failures[0]:
        print(f"selftest: want exactly one failure line containing "
              f"'{want}', got {failures}", file=sys.stderr)
        return 1
    print("selftest: --check caught rib_digest + 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
