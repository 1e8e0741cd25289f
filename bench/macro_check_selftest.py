#!/usr/bin/env python3
"""Self-test of `macro_scenario --check`: one unit of drift must fail.

Usage: macro_check_selftest.py MACRO_SCENARIO BASELINE_JSON LADDER_JSON

Each probe runs `--check` against a doctored copy of a baseline and wants
exit code 1 with one failure line naming the change: in the flat baseline
`rib_digest` + 1, `bgmp_joins_sent` + 1 and `params.seed` = 2 (no rung
matches); in the ladder, the 256-domain rung's `rib_digest` + 1. Python's
json module keeps the 64-bit digests exact in the copies.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

FAILURE_MARKS = ("diverged", "regressed", "lacks", "no baseline rung")


def probe(binary: str, doc: dict, args: list, name: str, want: str) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        with open(baseline, "w") as f:
            json.dump(doc, f, indent=2)
        run = subprocess.run(
            [binary, *args, "--out", os.path.join(tmp, "run.json"),
             "--check", baseline],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(run.stderr)
    failures = [line for line in run.stderr.splitlines()
                if any(mark in line for mark in FAILURE_MARKS)]
    if run.returncode != 1 or len(failures) != 1 or want not in failures[0]:
        print(f"selftest: {name}: --check exited {run.returncode}, want 1 "
              f"with one failure line containing '{want}', got {failures}",
              file=sys.stderr)
        return False
    print(f"selftest: --check caught {name}")
    return True


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    with open(sys.argv[2]) as f:
        flat = json.load(f)
    with open(sys.argv[3]) as f:
        ladder = json.load(f)
    p = flat["params"]
    args = ["--domains", str(p["domains"]), "--groups", str(p["groups"]),
            "--joins", str(p["joins"]), "--seed", str(p["seed"])]
    caught = []
    for key in ("rib_digest", "bgmp_joins_sent"):
        doc = copy.deepcopy(flat)
        doc[key] += 1
        caught.append(probe(binary, doc, args, f"{key} + 1",
                            f"{key} diverged: baseline {doc[key]},"))
    doc = copy.deepcopy(flat)
    doc["params"]["seed"] = 2
    caught.append(probe(binary, doc, args, "a baseline with no matching rung",
                        "no baseline rung"))
    doc = copy.deepcopy(ladder)
    rung = next(r for r in doc["rungs"] if r["params"]["domains"] == 256)
    rung["rib_digest"] += 1
    p = rung["params"]
    args = ["--ladder", "256", "--groups", str(p["groups"]),
            "--joins", str(p["joins"]), "--seed", str(p["seed"])]
    caught.append(probe(binary, doc, args, "the 256-domain rib_digest + 1",
                        f"rib_digest diverged: baseline {rung['rib_digest']},"))
    return 0 if all(caught) else 1


if __name__ == "__main__":
    sys.exit(main())
