#!/usr/bin/env python3
"""Self-test of `macro_scenario --check`: one unit of drift must fail.

Usage: macro_check_selftest.py MACRO_SCENARIO BASELINE_JSON

For each exactly gated column it probes (`rib_digest`, the converged
state, and `bgmp_joins_sent`, the tree-building work), writes a copy of a
flat single-run baseline (BENCH_macro_ci.json) with that column raised by
1, runs `macro_scenario` with the baseline's parameters and `--check`
against the copy, and requires that the check exits 1, reports that
column as the one divergence and prints the baseline value exactly as the
copy holds it. Exits 0 only if every probe is caught. Python's json module
keeps 64-bit integers exact when it writes the copy.
"""
import json
import os
import subprocess
import sys
import tempfile

PROBES = ("rib_digest", "bgmp_joins_sent")


def probe(binary: str, baseline: dict, key: str) -> bool:
    doc = dict(baseline)
    doc[key] += 1
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
    want = f"{key} diverged: baseline {doc[key]},"
    if run.returncode != 1:
        print(f"selftest: {key} + 1: --check exited {run.returncode}, "
              f"want 1", file=sys.stderr)
        return False
    if len(failures) != 1 or want not in failures[0]:
        print(f"selftest: {key} + 1: want exactly one failure line "
              f"containing '{want}', got {failures}", file=sys.stderr)
        return False
    print(f"selftest: --check caught {key} + 1")
    return True


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, baseline = sys.argv[1], sys.argv[2]
    with open(baseline) as f:
        doc = json.load(f)
    caught = [probe(binary, doc, key) for key in PROBES]
    return 0 if all(caught) else 1


if __name__ == "__main__":
    sys.exit(main())
