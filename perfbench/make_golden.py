#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the engine at the default seed.

    python3 perfbench/make_golden.py

The golden file keeps only mathematically determined fields (depth, dim,
mdepth, Ass, the local-cohomology table, seqCM status, filtration level
generators), so a correct change to Depth-Lemma intervals, att claims or
seqCM witnesses does not invalidate it.  Nothing is written unless every
answer passes the oracle checks first.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

import gen
import run

GOLDEN_COUNTS = {"pool": 200, "polarized": 40}


def main() -> int:
    os.chdir(run.ROOT)
    seed = run.DEFAULT_SEED
    tally = run.Tally()
    golden = {"seed": seed, "cycles": {}}
    for op in sorted(gen.cycle_ops(seed, gen.BASELINE_CYCLES), key=lambda o: o["key"]):
        done = subprocess.run(run.plain_cli(op), capture_output=True, text=True,
                              env=run.child_env(), timeout=run.OP_TIMEOUT_S)
        view = run.cli_view(op["command"], json.loads(done.stdout))
        tally.record(op["key"], run.check_cycle_op(op, view))
        golden["cycles"][op["key"]] = view
    deadline = perf_counter() + 600
    for kind, count in GOLDEN_COUNTS.items():
        insts = sorted(gen.instances(kind, seed, count), key=lambda i: i["id"])
        (done,), _ = run.serve_instances(kind, insts, tally, [], deadline)
        golden[kind] = [r["result"] for r in done]
    if tally.failed:
        print("\n".join(tally.reasons), file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {run.GOLDEN.relative_to(run.ROOT)}: {tally.attempted} checked answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
