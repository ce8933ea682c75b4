#!/usr/bin/env python3
"""The maxdepth benchmark: end-to-end and per-layer metrics, checked outputs.

Run from the repository root (stdlib only, nothing is installed):

    python3 perfbench/run.py --workload cycles|pool|polarized \
        --seed N --seconds S --trace 0|1

Workloads (the reasons are also in BENCHMARK.json):
  cycles     CLI `analyze`, `filtration` and `seqcm` on the cycle edge ideals
             C8, C10 and C12 plus `analyze` on RP2 over QQ and GF(2), each op
             in a fresh `python -m maxdepth.cli` process (PYTHONPATH=src).
             The traced run adds C14 `analyze` and `seqcm` for the ROADMAP
             baseline table, outside the per-layer metrics.
  pool       random squarefree ideals in one worker process: profile,
             dimension filtration with depth intervals, seqCM, att report.
  polarized  random non-squarefree ideals (8-10 polarized vertices) in one
             worker process: profile, dimension filtration with depth
             intervals, att report.

Load is a closed loop from one client, one op and one process at a time.
--seconds sizes the work, not a timer: a run sends the instances that took
about that long at the seed commit on the reference machine (2-vCPU Xeon),
so that every commit and every run measures the same inputs (the seed only
orders them) and a faster commit simply finishes sooner.  A run repeats its
inputs in passes (the cycles ladder four times, the pool and polarized
instance sets three times, each in a fresh worker) and takes each op's
fastest time over the passes.  Every time metric is then scaled to the
reference machine's speed by a host gauge, a fixed stdlib program timed
about once a second between ops; the unscaled values are in the `info`
line.  setup_s is the median over the run of a fresh interpreter importing
maxdepth.cli, timed next to each gauge sample.  Every op is checked against stdlib oracles, a golden file and, on
cycles, the stdout digests of earlier runs of the same source tree; any
violation counts as a failed op.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same inputs
untraced and traced, op by op in alternating order, and prints the
per-layer metrics from the spans recorded around the public functions.
The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import gen

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
GOLDEN = ROOT / "perfbench" / "golden.json"
DEFAULT_SEED = 1
WORKLOADS = ("cycles", "pool", "polarized")

BATCH = {"pool": 100, "polarized": 10}  # instances per batch: analyze_s and filtration_s
RATE = {"pool": 80, "polarized": 5}  # instances per second at the seed commit
LADDER_S = 6  # seconds per pass of the cycles ladder at the seed commit
# A shared host can run 20-50% slower, in spells of a few seconds to minutes.
# Against the short spells every run repeats its inputs in passes and takes
# each op's fastest time over the passes (the same op from the same state:
# other tenants only ever add time); against the long ones it scales every
# time by the host gauge below.
POOL_PASSES = 3  # each pool/polarized pass in a fresh worker (cold caches)
MIN_LADDER_PASSES = 3
GAUGE_SHARE = 0.3  # of a run's time, spent in the gauge and set-up samples
# ROADMAP baseline table (single untraced runs), seconds per stage and cycle
ROADMAP_BASELINE = {
    "associated_primes_s": {8: 0.02, 10: 0.09, 12: 0.45, 14: 2.06},
    "complex_table_s": {8: 0.002, 10: 0.012, 12: 0.094, 14: 1.40},
    "is_sequentially_cm_s": {8: 0.005, 10: 0.042, 12: 0.34, 14: 4.06},
}
# The host gauge: a fixed stdlib program in a fresh interpreter, run between
# ops about once a second.  Its time follows the long spells in which the
# host runs this kind of code (interpreter start-up, many small allocations)
# slower; every time metric is scaled by the gauge's nominal time over its
# mean time in the run.
GAUGE_PROGRAM = ("import random\nrng = random.Random(3)\nd = {}\n"
                 "for i in range(40000):\n    d[frozenset(rng.sample(range(30), 5))] = i\n")
GAUGE_NOMINAL_S = 0.3  # the gauge's time on the reference machine (2-vCPU Xeon)
GAUGE_EVERY_S = 1.0
TIME_METRICS = ("setup_s", "analyze_s", "filtration_s", "instance_p50_ms", "instance_p90_ms")
RATE_METRICS = ("instances_per_s",)
RUN_LIMIT_S = 170  # every run must end within 180 s
OP_TIMEOUT_S = 120


class RunFailure(Exception):
    """The benchmark cannot produce a result (missing program, broken setup)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "src_digest": source_digest()}


def timed_child(code: str, env: dict | None = None) -> float:
    """Wall seconds of `python -c code` in a fresh interpreter."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=60)
    wall = perf_counter() - t0
    if done.returncode != 0:
        raise RunFailure(f"python -c {code[:40]!r} failed: " + done.stderr.decode()[-400:])
    return wall


class HostGauge:
    """Between ops, about every GAUGE_EVERY_S seconds, times GAUGE_PROGRAM
    and the program's set-up, a fresh interpreter importing maxdepth.cli."""

    def __init__(self):
        self.samples: list[float] = []
        self.setups: list[float] = []
        self.last = None

    def sample(self) -> None:
        self.samples.append(timed_child(GAUGE_PROGRAM))
        self.setups.append(timed_child("import maxdepth.cli", child_env()))
        self.last = perf_counter()

    def tick(self) -> None:
        if self.last is None or perf_counter() - self.last >= GAUGE_EVERY_S:
            self.sample()

    def slowness(self) -> float:
        """The host's slowness in this run: 1 on the reference machine."""
        return statistics.fmean(self.samples) / GAUGE_NOMINAL_S


def scale_to_reference(values: dict, slowness: float) -> dict:
    """Time metrics as they would read at the reference machine's speed."""
    out = dict(values)
    for key in TIME_METRICS:
        out[key] = values[key] / slowness
    for key in RATE_METRICS:
        out[key] = values[key] * slowness
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Attempted and failed ops, with the first few reasons kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, key, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{key}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# checks

def _names_to_indices(prime: list[str]) -> list[int]:
    return sorted(int(name[1:]) - 1 for name in prime)


def cli_view(command: str, doc: dict) -> dict:
    """The mathematically determined fields of a CLI JSON answer."""
    if command == "analyze":
        return {"depth": doc["depth"], "dim": doc["dim"], "mdepth": doc["mdepth"],
                "ass": sorted(_names_to_indices(p) for p in doc["ass"]),
                "h_table": [[r["nonzero"], r["finite_length"], r.get("k_dim")]
                            for r in doc["h_table"]]}
    if command == "filtration":
        return {"t": doc["t"], "levels": [lv["ideal_gens"] for lv in doc["levels"]]}
    return {"sequentially_cm": doc["sequentially_cm"]}


def check_cycle_op(op: dict, view: dict) -> list[str]:
    """Closed forms for Cn and RP2; Ass against minimal vertex covers."""
    bad = []
    if op["key"].startswith("RP2"):
        facets = [[v - 1 for v in f] for f in gen.RP2_FACETS]
        expect = {"depth": gen.RP2_DEPTH[op["field"]], "dim": 3, "mdepth": 3,
                  "ass": gen.ass_of_facets(6, facets)}
    else:
        n = op["n"]
        closed = gen.cycle_expected(n)
        expect = {k: closed[k] for k in ("depth", "dim", "mdepth", "t", "sequentially_cm")}
        expect["ass"] = sorted(gen.cycle_min_primes(n))
    for key, value in view.items():
        if key in expect and value != expect[key]:
            bad.append(f"{key}={value!r}, expected {expect[key]!r}")
    return bad


def check_instance(inst: dict, res: dict) -> list[str]:
    """Oracle checks for one pool or polarized instance."""
    bad = []
    if inst["kind"] == "pool":
        sizes = [len(f) for f in inst["facets"]]
        expect = {"ass": gen.ass_of_facets(inst["n"], inst["facets"]),
                  "dim": max(sizes), "mdepth": min(sizes)}
        if res["cohen_macaulay"] and res["sequentially_cm"] != "true":
            bad.append("Cohen-Macaulay but not sequentially CM")
    else:
        expect = {"ass": gen.polarized_ass(inst["gens"])}
        if res["mdepth"] > res["dim"]:
            bad.append(f"mdepth {res['mdepth']} > dim {res['dim']}")
    if res["depth"] > res["mdepth"]:
        bad.append(f"depth {res['depth']} > mdepth {res['mdepth']}")
    for key, value in expect.items():
        if res[key] != value:
            bad.append(f"{key}={res[key]!r}, expected {value!r}")
    return bad


def check_golden(expected: dict | None, view: dict) -> list[str]:
    if expected is None or expected == view:
        return []
    fields = sorted(k for k in view if view.get(k) != expected.get(k))
    return [f"differs from golden in {', '.join(fields)}"]


class DigestStore:
    """stdout digests of earlier runs of the same source tree."""

    def __init__(self, src: str, path: Path = OUT / "digests.json"):
        self.path = path
        try:
            with open(self.path, encoding="utf-8") as fh:
                self.all = json.load(fh)
        except (OSError, ValueError):
            self.all = {}
        self.known = self.all.setdefault(src, {})

    def check(self, key: str, stdout: str) -> list[str]:
        d = hashlib.sha256(stdout.encode()).hexdigest()
        seen = self.known.setdefault(key, d)
        return [] if seen == d else [f"stdout digest {d[:12]} differs from earlier {seen[:12]}"]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# cycles: the CLI ladder

def cli_argv(op: dict) -> list[str]:
    return ["--format", "json", "--field", op["field"], op["command"], *op["input"]]


class Exited(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    peak_kb: int  # the process's own peak RSS


def run_process(argv: list[str], deadline: float):
    """(wall seconds, Exited) or (None, reason) on timeout.  The child's
    output goes through files in OUT, and wait4 reaps it and gives its own
    peak RSS, apart from every other child of the benchmark."""
    timeout = min(OP_TIMEOUT_S, deadline - perf_counter())
    if timeout <= 0:
        return None, "no time left in the run"
    OUT.mkdir(parents=True, exist_ok=True)
    expired = threading.Event()
    with open(OUT / "op.stdout", "w+", encoding="utf-8") as out, \
            open(OUT / "op.stderr", "w+", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(timeout, lambda: (expired.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if expired.is_set():
            return None, f"timed out after {timeout:.0f} s"
        out.seek(0)
        err.seek(0)
        return wall, Exited(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def cycle_op(op, argv, stdout_of, tally, store, golden, deadline, gauge=None, peaks=None):
    """Run one ladder op, check it, and return (wall, parsed payload)."""
    if gauge is not None:
        gauge.tick()
    wall, done = run_process(argv, deadline)
    if wall is None:
        tally.record(op["key"], [done])
        return None, None
    if peaks is not None:
        peaks.append(done.peak_kb)
    payload, stdout = stdout_of(done)
    if done.returncode != 0 or stdout is None:
        tally.record(op["key"], [f"exit {done.returncode}: {done.stderr.strip()[-300:]}"])
        return None, None
    try:
        view = cli_view(op["command"], json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        tally.record(op["key"], [f"unreadable output: {exc}"])
        return None, None
    problems = check_cycle_op(op, view) + store.check(op["key"], stdout)
    problems += check_golden(golden.get(op["key"]), view)
    tally.record(op["key"], problems)
    return (None, None) if problems else (wall, payload)


def plain_cli(op):
    return [sys.executable, "-m", "maxdepth.cli", *cli_argv(op)]


def plain_stdout(done):
    return None, done.stdout


def launcher(trace: int, spans: Path | None = None):
    def argv(op):
        extra = ["--spans", str(spans / f"{op['key']}.json")] if spans else []
        return [sys.executable, "perfbench/worker.py", "cli", "--trace", str(trace),
                *extra, "--", *cli_argv(op)]
    return argv


def launcher_stdout(done):
    try:
        payload = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, None
    return payload, payload["stdout"]


def run_cycles(workload, seed, seconds, trace, tally, golden, info, gauge):
    ops = gen.cycle_ops(seed)
    info["inputs"] = {"ops": len(ops), "input_digest": gen.digest([cli_argv(o) for o in ops])}
    store = DigestStore(source_digest())
    deadline = perf_counter() + RUN_LIMIT_S - 15
    gold = golden.get("cycles", {})
    try:
        if trace:
            return trace_cycles(seed, ops, tally, store, gold, deadline, info)
        walls = {op["key"]: [] for op in ops}
        peaks = []
        for _ in range(max(MIN_LADDER_PASSES, round(seconds * (1 - GAUGE_SHARE) / LADDER_S))):
            for op in ops:
                wall, _ = cycle_op(op, plain_cli(op), plain_stdout, tally, store, gold,
                                   deadline, gauge, peaks)
                if wall is not None:
                    walls[op["key"]].append(wall)
    finally:
        store.save()
    fastest = {key: min(ws) for key, ws in walls.items() if ws}
    if not fastest:
        raise RunFailure("no cycles op succeeded")
    info["samples"] = sum(len(ws) for ws in walls.values())
    by_cmd = lambda cmd: sum(w for k, w in fastest.items() if k.endswith("-" + cmd))
    per_op = list(fastest.values())
    return {
        "analyze_s": by_cmd("analyze"),
        "filtration_s": by_cmd("filtration"),
        "instances_per_s": len(per_op) / sum(per_op),
        "instance_p50_ms": 1e3 * statistics.median(per_op),
        "instance_p90_ms": 1e3 * quantile(per_op, 9),
        "max_rss_mb": max(peaks) / 1024,
    }


def trace_cycles(seed, ops, tally, store, gold, deadline, info):
    spans = OUT / "trace" / "cycles"
    spans.mkdir(parents=True, exist_ok=True)
    plain, traced = {}, {}
    runs = [(launcher(0), plain), (launcher(1, spans), traced)]
    for i, op in enumerate(ops):
        for argv, sink in runs if i % 2 == 0 else runs[::-1]:  # alternate against drift
            _, payload = cycle_op(op, argv(op), launcher_stdout, tally, store, gold, deadline)
            if payload is not None:
                sink[op["key"]] = payload
    both = [k for k in traced if k in plain]
    if not both:
        raise RunFailure("no traced cycles op succeeded")
    layers = merge_summaries([traced[k]["summary"] for k in both])
    layers["trace.overhead_frac"] = (sum(traced[k]["main_s"] for k in both)
                                     / sum(plain[k]["main_s"] for k in both) - 1)
    # The ROADMAP table also has rows for cycles beyond the timed ladder:
    # trace their analyze and seqcm ops once, outside the per-layer metrics.
    ladder = {op["key"] for op in ops}
    for op in gen.cycle_ops(seed, gen.BASELINE_CYCLES):
        if op["key"] not in ladder and op["command"] != "filtration":
            _, payload = cycle_op(op, launcher(1, spans)(op), launcher_stdout, tally, store,
                                  gold, deadline)
            if payload is not None:
                traced[op["key"]] = payload
    # the ROADMAP table: inclusive time of each stage's first call, with
    # the traced value, the ROADMAP value and their relative difference
    table = {}
    for n in gen.BASELINE_CYCLES:
        analyze = traced.get(f"C{n}-analyze", {}).get("first", {})
        seqcm = traced.get(f"C{n}-seqcm", {}).get("first", {})
        ours = {"associated_primes_s": analyze.get("ideals.associated_primes"),
                "complex_table_s": analyze.get("invariants.complex_table"),
                "is_sequentially_cm_s": seqcm.get("filtration.is_sequentially_cm")}
        table[f"C{n}"] = {stage: [value, ROADMAP_BASELINE[stage][n],
                                  None if value is None else value / ROADMAP_BASELINE[stage][n] - 1]
                          for stage, value in ours.items()}
    info["baseline"] = table
    return layers


# ---------------------------------------------------------------------------
# pool and polarized: one worker process

class Worker:
    """A `worker.py serve` child; one JSON line in, one JSON line out."""

    def __init__(self, trace: int, spans: Path | None = None):
        argv = [sys.executable, "perfbench/worker.py", "serve", "--trace", str(trace)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env())

    def ask(self, inst: dict, timeout: float) -> dict | None:
        try:
            self.proc.stdin.write(json.dumps(inst) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0))
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def close(self) -> dict | None:
        """End input and return the traced worker's summary, if any."""
        summary = None
        try:
            self.proc.stdin.close()
            for line in self.proc.stdout:
                summary = json.loads(line).get("summary", summary)
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        return summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def serve_instances(kind, instances, tally, golden, deadline, traces=(0,), spans=None,
                    gauge=None):
    """Send each instance to one worker per entry of `traces` (0 untraced,
    1 traced), alternating their order.  Return the checked responses per
    worker and the traced summary."""
    workers = [Worker(t, spans if t else None) for t in traces]
    done = [[] for _ in traces]
    summary = None
    try:
        for inst in instances:
            if gauge is not None:
                gauge.tick()
            if perf_counter() >= deadline:
                tally.record(f"{kind}#{inst['id']}", ["no time left in the run"])
                break
            order = range(len(workers)) if inst["id"] % 2 == 0 else reversed(range(len(workers)))
            for w in order:
                key = f"{kind}#{inst['id']}"
                resp = workers[w].ask(inst, min(OP_TIMEOUT_S, deadline - perf_counter()))
                if resp is None:
                    tally.record(key, ["no answer (worker died or timed out)"])
                    workers[w].kill()
                    workers[w] = Worker(traces[w], spans if traces[w] else None)
                    continue
                if not resp["ok"]:
                    tally.record(key, [resp["error"]])
                    continue
                problems = check_instance(inst, resp["result"])
                gold = golden[inst["id"]] if inst["id"] < len(golden) else None
                problems += check_golden(gold, resp["result"])
                tally.record(key, problems)
                if not problems:
                    done[w].append(resp)
        for w in workers:
            summary = w.close() or summary
    finally:
        for w in workers:
            w.kill()
    return done, summary


def run_random(workload, seed, seconds, trace, tally, golden, info, gauge):
    kind = workload
    gold = golden.get(kind, [])  # by instance id: the seed only orders the instances
    deadline = perf_counter() + RUN_LIMIT_S - 15
    count = max(BATCH[kind], round(seconds * (1 - GAUGE_SHARE) * RATE[kind] / POOL_PASSES))
    insts = gen.instances(kind, seed, count)
    info["inputs"] = {"instances": len(insts), "input_digest": gen.digest(insts)}
    if trace:
        spans = OUT / "trace" / f"{kind}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        (plain, traced), summary = serve_instances(kind, insts, tally, gold, deadline,
                                                   (0, 1), spans)
        if summary is None or not plain:
            raise RunFailure("the traced worker returned no summary")
        ids = {r["id"] for r in plain} & {r["id"] for r in traced}
        seconds_of = lambda rs: sum(r["total"] for r in rs if r["id"] in ids)
        summary["trace.overhead_frac"] = seconds_of(traced) / seconds_of(plain) - 1
        return summary

    passes = []
    for _ in range(POOL_PASSES):
        (done,), _ = serve_instances(kind, insts, tally, gold, deadline, gauge=gauge)
        passes.append({r["id"]: r for r in done})
    ids = [i["id"] for i in insts if all(i["id"] in done for done in passes)]
    if not ids:
        raise RunFailure(f"no {kind} instance succeeded in every pass")
    info["samples"] = len(ids) * POOL_PASSES
    # each instance's fastest time over the passes
    fastest = lambda pick: [min(pick(done[i]) for done in passes) for i in ids]
    totals = fastest(lambda r: r["total"])
    per_batch = lambda op: BATCH[kind] * statistics.fmean(fastest(lambda r: r["times"][op]))
    return {
        "analyze_s": per_batch("analyze"),
        "filtration_s": per_batch("filtration"),
        "instances_per_s": len(totals) / sum(totals),
        "instance_p50_ms": 1e3 * statistics.median(totals),
        "instance_p90_ms": 1e3 * quantile(totals, 9),
        "max_rss_mb": max(max(r["rss_kb"] for r in done.values()) for done in passes) / 1024,
    }


# ---------------------------------------------------------------------------
# result

def merge_summaries(summaries: list[dict]) -> dict:
    out: dict[str, float] = {}
    for s in summaries:
        for key, value in s.items():
            out[key] = max(out.get(key, 0), value) if ".max_" in key else out.get(key, 0) + value
    return out


def per_layer_values(summary: dict) -> dict:
    out = dict(summary)
    calls = out.get("linalg.reduced_homology.calls", 0)
    out["linalg.reduced_homology.computed_ratio"] = (
        out.get("linalg.reduced_homology.computed", 0) / calls if calls else 0.0)
    return out


def result_line(spec: list[dict], values: dict, tally: Tally) -> str:
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise RunFailure(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    # One CPU for the benchmark and every process it starts: the host slows
    # its CPUs down apart from each other, and the gauge must time the CPU
    # that runs the ops.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if not (ROOT / "src" / "maxdepth" / "cli.py").is_file():
            raise RunFailure("src/maxdepth is missing; run from a full checkout")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        print("env " + json.dumps(environment(), sort_keys=True))
        tally = Tally()
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        gauge = HostGauge()
        run = run_cycles if args.workload == "cycles" else run_random
        values = run(args.workload, args.seed, args.seconds, args.trace, tally,
                     load_golden(), info, gauge)
        if args.trace:
            spec = bench["per_layer"]
            values = per_layer_values(values)
        else:
            spec = bench["end_to_end"]
            values["ok_frac"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
            gauge.sample()
            values["setup_s"] = statistics.median(gauge.setups)
            info["host"] = {"gauge_s": gauge.samples, "slowness": gauge.slowness(),
                            "unscaled": {k: values[k] for k in TIME_METRICS + RATE_METRICS}}
            values = scale_to_reference(values, gauge.slowness())
        info["failures"] = tally.reasons
        print("info " + json.dumps(info, sort_keys=True))
        line = result_line(spec, values, tally)
    except RunFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
