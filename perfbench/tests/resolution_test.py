#!/usr/bin/env python3
"""Resolution self-test for perfbench.

Shows that the run_s bound can see a regression of its own size: flap-1k
with extra link cycles per round, a known extra share of work 1.5 times
the bound, must read a higher run_s than the unmodified workload in at
least 9 of 10 pairs. The pairs alternate which side runs first and use a
fresh seed each. About five minutes:

    python3 perfbench/tests/resolution_test.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from schema_test import load_bench, run_bench  # noqa: E402

RING_PAIRS = 32  # 64 backbone tops on the 1024-domain rung
PAIRS = 10
SECONDS = 5


class ResolutionTest(unittest.TestCase):
    def test_extra_work_beyond_the_bound_reads_worse(self):
        bound = next(m["bound"] for m in load_bench()["end_to_end"]
                     if m["name"] == "run_s")
        extra = math.ceil(RING_PAIRS * 1.5 * bound)
        wins = 0
        for i in range(PAIRS):
            seed = i + 1
            sides = [(), ("--extra-cycles", str(extra))]
            if i % 2:
                sides.reverse()
            run_s = {}
            for side in sides:
                result = run_bench("flap-1k", 0, seconds=SECONDS, seed=seed,
                                   extra=side)
                self.assertTrue(result["correct"])
                run_s[bool(side)] = result["metrics"]["run_s"]["value"]
            print(f"pair {i}: base {run_s[False]:.4f} s, "
                  f"+{extra} cycles {run_s[True]:.4f} s", file=sys.stderr)
            wins += run_s[True] > run_s[False]
        self.assertGreaterEqual(wins, 9)


if __name__ == "__main__":
    unittest.main()
