"""Command-line surface: ingestion, analysis commands, regression suite.

Exit codes: 0 success, 2 malformed input, 3 cap exceeded, 4 precondition
violation.  With a fixed seed and flags the output is byte-identical across
reruns (canonical orderings everywhere).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import regress as regress_mod
from .errors import EngineError, MalformedInputError, NotInSupportError
from .ideals import (
    FieldSpec,
    Limits,
    MonomialIdeal,
    ideal_from_json,
    limited,
    parse_field,
    parse_generators,
    polarize,
    ring,
    tensor_join,
)
from .complexes import complex_from_json, parse_edge_list, to_ideal
from .invariants import (
    ModuleProfile,
    direct_sum_profile,
    localization_profile,
    profile,
)
from .filtration import (
    AttClaim,
    DimensionFiltration,
    ProbeConfig,
    ProbeHit,
    SeqCMResult,
    att_report,
    dimension_filtration,
    is_sequentially_cm,
    probe_open_question,
    psupp_monomial,
    quotient_depth_intervals,
)


# ---------------------------------------------------------------------------
# serialization

def _prime_names(p, rng) -> list[str]:
    return [rng.names[i] for i in p.vars]


def profile_json(prof: ModuleProfile) -> dict:
    rng = prof.ring
    h_table = []
    for i, d in enumerate(prof.hochster.degrees):
        row = {"i": i, "nonzero": d.nonzero, "finite_length": d.finite_length}
        if d.k_dim is not None:
            row["k_dim"] = d.k_dim
        h_table.append(row)
    return {
        "dim": prof.dim,
        "depth": prof.depth,
        "mdepth": prof.mdepth,
        "maximal_depth": prof.maximal_depth,
        "cohen_macaulay": prof.cohen_macaulay,
        "unmixed": prof.unmixed,
        "generalized_cm": prof.generalized_cm,
        "field": prof.ring.field_spec.label,
        "ass": [_prime_names(p, rng) for p in prof.ass],
        "assd": [_prime_names(p, rng) for p in prof.assd],
        "h_table": h_table,
    }


def filtration_json(f: DimensionFiltration) -> dict:
    rng = f.base.ring
    levels = [
        {
            "i": i,
            "ideal_gens": [g.format(rng) for g in lv.ideal.gens],
            "nonzero": lv.nonzero,
            "ass_i": [_prime_names(p, rng) for p in lv.ass_level],
            "depth_interval": list(iv.module) if iv.module else None,
            "quotient_depth_interval": list(iv.quotient) if iv.quotient else None,
        }
        for i, (lv, iv) in enumerate(zip(f.levels, quotient_depth_intervals(f)))
    ]
    return {"t": f.t, "levels": levels}


def seqcm_json(res: SeqCMResult) -> dict:
    out = {"sequentially_cm": res.status}
    if res.status == "false":
        out["witness"] = {
            "skeleton_dim": res.witness_skeleton,
            "face": None if res.witness_face is None else [v + 1 for v in res.witness_face],
            "homology_degree": res.witness_degree,
        }
    return out


def att_json(claims: tuple[AttClaim, ...], I: MonomialIdeal) -> dict:
    rng = I.ring
    return {
        "claims": [
            {
                "degree": i,
                "kind": c.kind,
                "tag": c.tag,
                "primes": [_prime_names(p, rng) for p in c.primes],
            }
            for i, c in enumerate(claims)
        ],
    }


def psupp_json(degree: int, faces: tuple[tuple[int, ...], ...]) -> dict:
    return {
        "degree": degree,
        "faces": [[v + 1 for v in f] for f in faces],
    }


def localize_json(face: tuple[int, ...], local: ModuleProfile) -> dict:
    """`face` lists the 1-based vertices as typed; dim R/P_F = |F|."""
    return {
        "face": list(face),
        "prime_codim_complement": len(face),
        "profile": profile_json(local),
    }


def probe_json(samples: int, eligible: int, hits: tuple[ProbeHit, ...]) -> dict:
    return {
        "samples": samples,
        "eligible": eligible,
        "hits": [
            {
                "gens": [g.format(h.ideal.ring) for g in h.ideal.gens],
                "vars": list(h.ideal.ring.names),
                "degree": h.degree,
                "depth": h.depth,
                "dim": h.dim,
            }
            for h in hits
        ],
    }


def _render(obj: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj, sort_keys=True, indent=2)
    return _table(obj)


def _table(obj, indent: str = "") -> str:
    lines = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_table(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                row = "  ".join(f"{k}={_fmt_scalar(k, v)}" for k, v in item.items())
                lines.append(f"{indent}  {row}")
        else:
            lines.append(f"{indent}{key}: {_fmt_scalar(key, value)}")
    return "\n".join(lines)


# keys whose values are lists of primes or of faces: an empty one prints {},
# apart from the list holding only the zero prime or the empty face, ()
_PRIME_OR_FACE_LISTS = ("ass", "assd", "ass_i", "primes", "faces")


def _fmt_scalar(key: str, v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    if key in _PRIME_OR_FACE_LISTS:
        return " ".join("(" + ", ".join(map(str, x)) + ")" for x in v) or "{}"
    if isinstance(v, list):
        return "(" + ", ".join(map(str, v)) + ")"
    return str(v)


# ---------------------------------------------------------------------------
# input handling

def _load_ideal(args, field: FieldSpec, which: str = "") -> MonomialIdeal:
    gens = getattr(args, "gens" + which, None)
    edges = getattr(args, "edges" + which, None)
    ideal_json = getattr(args, "ideal_json" + which, None)
    facets_json = getattr(args, "facets_json" + which, None)
    sources = [s for s in (gens, edges, ideal_json, facets_json) if s is not None]
    if len(sources) != 1:
        raise MalformedInputError(
            "exactly one input source required (--gens, --edges, --ideal-json or --facets-json)"
        )
    nvars = getattr(args, "nvars" + which, None)
    if gens is not None:
        return parse_generators(gens, nvars=nvars, field=field)
    if edges is not None:
        return parse_edge_list(edges, field=field)
    if ideal_json is not None:
        return ideal_from_json(_read_file(ideal_json), field=field)
    cx = complex_from_json(_read_file(facets_json))
    return to_ideal(cx, ring(cx.n, field))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc


def _add_input_flags(sp, which: str = ""):
    sp.add_argument(f"--gens{which}", dest=f"gens{which}")
    sp.add_argument(f"--edges{which}", dest=f"edges{which}")
    sp.add_argument(f"--ideal-json{which}", dest=f"ideal_json{which}")
    sp.add_argument(f"--facets-json{which}", dest=f"facets_json{which}")
    sp.add_argument(f"--nvars{which}", dest=f"nvars{which}", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maxdepth",
        description="Exact invariants of monomial quotient rings: depth, mdepth, "
        "maximal depth, dimension filtrations, attached primes.",
    )
    ap.add_argument("--field", default="q", help="coefficient field: q | f2 | fp=P")
    ap.add_argument("--format", default="table", choices=("table", "json"))
    probe = ProbeConfig()
    ap.add_argument(
        "--max-vertices", type=int, default=None,
        help="largest vertex count of a Stanley-Reisner complex or a polarization "
        f"(default {Limits().max_vertices}; polarize above it exits 3); for probe, the "
        "largest sampled vertex count "
        f"(default {probe.max_vertices})",
    )
    ap.add_argument(
        "--search-cap", type=int, default=Limits().search_cap,
        help="most nodes one vertex cover search may visit, for associated "
        "primes, decompositions and Stanley-Reisner facets (default %(default)s)",
    )
    ap.add_argument("--seed", type=int, default=probe.seed)
    ap.add_argument("--samples", type=int, default=probe.samples)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("analyze", "filtration", "seqcm", "att", "polarize"):
        sp = sub.add_parser(name)
        _add_input_flags(sp)

    sp = sub.add_parser("psupp")
    _add_input_flags(sp)
    sp.add_argument("--degree", type=int, required=True)

    sp = sub.add_parser("localize")
    _add_input_flags(sp)
    sp.add_argument("--face", required=True, help="comma-separated 1-based variables F, "
                    "localizing at P_F = (x_j : j not in F); empty for the maximal ideal")

    sp = sub.add_parser("tensor")
    _add_input_flags(sp)
    _add_input_flags(sp, which="2")

    sp = sub.add_parser("directsum")
    sp.add_argument("--gens", action="append", required=True)
    sp.add_argument("--nvars", type=int, required=True)

    sp = sub.add_parser("probe")
    sp.add_argument("--min-vertices", type=int, default=probe.min_vertices)

    sub.add_parser("regress")
    return ap


def run(args) -> tuple[int, str]:
    """Run one parsed command under its own `Limits`, from its flags and the
    defaults, so that a call answers as it would in a fresh process."""
    max_vertices = Limits().max_vertices if args.max_vertices is None else args.max_vertices
    with limited(search_cap=args.search_cap, max_vertices=max_vertices):
        return _dispatch(args)


def _dispatch(args) -> tuple[int, str]:
    field = parse_field(args.field)
    cmd = args.command
    if cmd == "regress":
        ok, lines = regress_mod.run_regression()
        return (0 if ok else 1), "\n".join(lines)
    if cmd == "probe":
        max_vertices = ProbeConfig().max_vertices if args.max_vertices is None else args.max_vertices
        cfg = ProbeConfig(samples=args.samples, max_vertices=max_vertices,
                          min_vertices=args.min_vertices, seed=args.seed, field=field)
        out = probe_json(cfg.samples, *probe_open_question(cfg))
    elif cmd == "directsum":
        profiles = [profile(parse_generators(g, nvars=args.nvars, field=field)) for g in args.gens]
        out = profile_json(direct_sum_profile(profiles))
    else:
        I = _load_ideal(args, field)
        if cmd == "analyze":
            out = profile_json(profile(I))
        elif cmd == "filtration":
            profile(I)  # rejects the unit ideal, then checks the vertex cap before the cover search
            out = filtration_json(dimension_filtration(I))
        elif cmd == "seqcm":
            out = seqcm_json(is_sequentially_cm(I))
        elif cmd == "att":
            out = att_json(att_report(I), I)
        elif cmd == "psupp":
            out = psupp_json(args.degree, psupp_monomial(I, args.degree))
        elif cmd == "polarize":
            pol = polarize(I)
            out = {
                "vars": list(pol.ring.names),
                "gens": [g.format(pol.ring) for g in pol.gens],
                "added_vars": pol.ring.n - I.ring.n,
            }
        elif cmd == "localize":
            try:
                face = tuple(sorted({int(v) for v in args.face.split(",") if v.strip()}))
            except ValueError as exc:
                raise MalformedInputError(f"face vertices must be integers, got {args.face!r}") from exc
            try:
                local = localization_profile(I, tuple(v - 1 for v in face))
            except NotInSupportError as exc:  # name the face as typed, 1-based
                raise NotInSupportError(f"{face} is not a face; its prime is outside Supp") from exc
            out = localize_json(face, local)
        elif cmd == "tensor":
            joined = tensor_join(I, _load_ideal(args, field, which="2"))
            out = {
                "vars": list(joined.ring.names),
                "gens": [g.format(joined.ring) for g in joined.gens],
                "profile": profile_json(profile(joined)),
            }
        else:
            raise MalformedInputError(f"unknown command {cmd}")
    return 0, _render(out, args.format)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code, text = run(args)
    except EngineError as exc:
        print(f'error kind={exc.kind} msg="{exc}"', file=sys.stderr)
        return exc.exit_code
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader has gone: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
