"""Benchmark child process: runs the engine, optionally traced.

Run from the repository root with PYTHONPATH=src.

    worker.py serve --trace 0|1 [--spans PATH]
        Reads one JSON instance per stdin line, runs the workload's library
        calls on it, writes one JSON result line.  On end of input a traced
        worker writes a final {"summary": ...} line.
    worker.py cli --trace 0|1 [--spans PATH] -- CLI-ARGS...
        Runs `maxdepth.cli.main(CLI-ARGS)` once, prints one JSON line with
        its exit code, its stdout and the seconds spent in it, and exits
        with its exit code.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from time import perf_counter

from tracer import Tracer


def instance_result(prof, filt, seq) -> dict:
    """The fields the checks read, in plain JSON types."""
    return {
        "depth": prof.depth,
        "dim": prof.dim,
        "mdepth": prof.mdepth,
        "cohen_macaulay": prof.cohen_macaulay,
        "ass": [list(p.vars) for p in prof.ass],
        "h_table": [[d.nonzero, d.finite_length, d.k_dim] for d in prof.hochster.degrees],
        "t": filt.t,
        "levels": [[list(g.exponents) for g in lv.ideal.gens] for lv in filt.levels],
        "sequentially_cm": None if seq is None else seq.status,
    }


def run_instance(inst: dict, tracer: Tracer | None) -> dict:
    """Time the workload's calls on one instance; the module attributes are
    looked up at call time so that traced wrappers are used."""
    from maxdepth import filtration, ideals, invariants

    rng = ideals.ring(inst["n"], ideals.FieldSpec(inst["field"]))
    I = ideals.MonomialIdeal(rng, tuple(ideals.Monomial(tuple(g)) for g in inst["gens"]))
    if tracer is not None:
        tracer.op = inst["id"]
    t0 = perf_counter()
    prof = invariants.profile(I)
    t1 = perf_counter()
    filt = filtration.dimension_filtration(I)
    filtration.quotient_depth_intervals(filt)
    t2 = perf_counter()
    seq = filtration.is_sequentially_cm(I) if inst["kind"] == "pool" else None
    t3 = perf_counter()
    filtration.att_report(I)
    t4 = perf_counter()
    times = {"analyze": t1 - t0, "filtration": t2 - t1, "seqcm": t3 - t2, "att": t4 - t3}
    return {"id": inst["id"], "ok": True, "times": times, "total": t4 - t0,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "result": instance_result(prof, filt, seq)}


def serve(tracer: Tracer | None, spans_path: str | None) -> None:
    for line in sys.stdin:
        inst = json.loads(line)
        try:
            out = run_instance(inst, tracer)
        except Exception as exc:  # reported as a failed op, the loop goes on
            out = {"id": inst["id"], "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()
    if tracer is not None:
        sys.stdout.write(json.dumps({"summary": tracer.summary()}) + "\n")
        if spans_path:
            tracer.dump(spans_path)


def run_cli(argv: list[str], tracer: Tracer | None, spans_path: str | None) -> int:
    import maxdepth.cli as cli

    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    elapsed = perf_counter() - t0
    out = {"code": code, "stdout": buf.getvalue(), "main_s": elapsed}
    if tracer is not None:
        out["summary"] = tracer.summary()
        out["first"] = tracer.first_inclusive()
        if spans_path:
            tracer.dump(spans_path)
    print(json.dumps(out))
    return code


def main() -> int:
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("serve", "cli"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv[:cut])
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.mode == "serve":
        serve(tracer, args.spans)
        return 0
    return run_cli(argv[cut + 1:], tracer, args.spans)


if __name__ == "__main__":
    sys.exit(main())
