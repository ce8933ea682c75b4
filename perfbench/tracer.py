"""In-memory span tracer for the engine's public functions.

`Tracer.install` rebinds each listed function, in every `maxdepth.*`
namespace that binds it, to a wrapper that records a span (name, start,
end, parent, op id).  Spans stay in memory; `summary` turns them into
per-layer calls, self times (a span minus its direct children) and the
counters the benchmark reports.  cProfile is not used: its per-call cost
distorts the proportions.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "ideals": ("associated_primes", "irreducible_decomposition",
               "primary_decomposition", "polarize"),
    "complexes": ("link", "to_ideal", "from_squarefree_ideal", "pure_skeleton"),
    "linalg": ("rank", "reduced_homology", "boundary_matrix"),
    "invariants": ("profile", "complex_table", "projdim"),
    "filtration": ("is_sequentially_cm", "quotient_depth_intervals",
                   "dimension_filtration", "att_report"),
    "cli": ("main",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
COUNTERS = (
    "complexes.to_ideal.gens_out", "complexes.from_squarefree_ideal.facets_out",
    "filtration.is_sequentially_cm.skeleton_scans", "linalg.rank.cells", "linalg.rank.nnz",
    "linalg.rank.max_rows", "linalg.rank.max_cols",
    "filtration.quotient_depth_intervals.profile_calls",
)
# first-call inclusive times that reproduce the ROADMAP baseline table
BASELINE_STAGES = ("ideals.associated_primes", "invariants.complex_table",
                   "filtration.is_sequentially_cm")


def _face_count(facets) -> int:
    seen = set()
    for f in facets:
        mask = 0
        for v in f:
            mask |= 1 << v
        sub = mask
        while True:  # every submask of the facet
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return len(seen)


def _colon_box(ideal) -> int:
    top = [max(col) for col in zip(*(g.exponents for g in ideal.gens))] if ideal.gens else []
    box = 1
    for e in top:
        box *= e + 1
    return box


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = None
        self.open = defaultdict(int)  # name -> spans of that name now open
        self.counts = defaultdict(int)
        self.distinct = defaultdict(dict)  # name -> argument -> first call

    def install(self) -> None:
        import maxdepth.cli  # noqa: F401  (imports every layer)

        modules = [m for name, m in sys.modules.items()
                   if (name == "maxdepth" or name.startswith("maxdepth.")) and m is not None]
        for name in NAMES:
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"maxdepth.{mod}"], fn)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack, open_ = self.spans, self.stack, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                open_[name] -= 1
            if count is not None:
                count(args, result)
            return result

        return traced

    # counters, recorded at the boundary where the work happens

    def _count_ideals_associated_primes(self, args, result):
        self.distinct["ideals.associated_primes"].setdefault(args[0], None)

    def _count_complexes_to_ideal(self, args, result):
        self.counts["complexes.to_ideal.gens_out"] += len(result.gens)

    def _count_complexes_from_squarefree_ideal(self, args, result):
        self.counts["complexes.from_squarefree_ideal.facets_out"] += len(result.facets)

    def _count_complexes_pure_skeleton(self, args, result):
        if self.open["filtration.is_sequentially_cm"]:
            self.counts["filtration.is_sequentially_cm.skeleton_scans"] += 1

    def _count_linalg_rank(self, args, result):
        m = args[0]
        c = self.counts
        c["linalg.rank.cells"] += m.rows * m.cols
        c["linalg.rank.nnz"] += len(m.entries)
        c["linalg.rank.max_rows"] = max(c["linalg.rank.max_rows"], m.rows)
        c["linalg.rank.max_cols"] = max(c["linalg.rank.max_cols"], m.cols)

    def _count_invariants_profile(self, args, result):
        if self.open["filtration.quotient_depth_intervals"]:
            self.counts["filtration.quotient_depth_intervals.profile_calls"] += 1

    def _count_invariants_complex_table(self, args, result):
        self.distinct["invariants.complex_table"].setdefault(args, None)

    def summary(self) -> dict:
        """Per-layer calls, self seconds and counters over every span."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        for (name, *_), inner in zip(self.spans, child):
            total[name] -= inner
        out = {key: self.counts[key] for key in COUNTERS}
        for name in NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = total[name]
        out["ideals.associated_primes.colon_box"] = sum(
            _colon_box(I) for I in self.distinct["ideals.associated_primes"])
        out["invariants.complex_table.faces"] = sum(
            _face_count(cx.facets) for cx, *_ in self.distinct["invariants.complex_table"])
        # reduced_homology calls that reached the rank kernel
        rank_parents = {s[3] for s in self.spans if s[0] == "linalg.rank"}
        out["linalg.reduced_homology.computed"] = sum(
            1 for i in rank_parents if i >= 0 and self.spans[i][0] == "linalg.reduced_homology")
        return out

    def first_inclusive(self) -> dict:
        """Inclusive seconds of the first span of each baseline stage."""
        out = {}
        for name, start, end, *_ in self.spans:
            if name in BASELINE_STAGES and name not in out:
                out[name] = end - start
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
