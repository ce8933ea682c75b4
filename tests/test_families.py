"""The engine against the closed forms of `tests/families_oracle.py`: paths
P2-P16, cycles C3-C16, K2-K8, K_{m,n} with 1 <= m <= n <= 5, W(P2)-W(P7)
and W(C3)-W(C7) over QQ and GF(2), and the depths of C4^2 and C5^2, each
formula with its negative control.  The projdim forms are
checked against the Betti numbers of `tests/betti_oracle.py` on P2-P10 and
C3-C10, over the same fields."""
import pytest

from maxdepth.complexes import parse_edge_list
from maxdepth.filtration import is_sequentially_cm
from maxdepth.ideals import F2, QQ, parse_generators
from maxdepth.invariants import profile

import betti_oracle
from families_oracle import (
    ANSWERS,
    CONTROLS,
    GRAPHS,
    PROJDIM,
    PROJDIM_CONTROLS,
    cycle_edges,
    edge_list,
    path_edges,
    power_text,
    surviving_controls,
    wrong_answers,
)


def answers_of(I):
    prof = profile(I)
    status = is_sequentially_cm(I).status
    return {"depth": prof.depth, "mdepth": prof.mdepth, "maximal_depth": prof.maximal_depth,
            "sequentially_cm": {"true": True, "false": False}.get(status, status)}


# family -> the keys tier-1 checks
SIZES = {
    "path": range(2, 17),
    "cycle": range(3, 17),
    "complete": range(2, 9),
    "complete_bipartite": [(m, n) for m in range(1, 6) for n in range(m, 6)],
    "whiskered_path": range(2, 8),
    "whiskered_cycle": range(3, 8),
}


@pytest.fixture(scope="module")
def engine():
    """(family, key, field) -> the engine's answers."""
    got = {}
    for field in (QQ, F2):
        for family, keys in SIZES.items():
            for key in keys:
                text = edge_list(*GRAPHS[family](key))
                got[family, key, field] = answers_of(parse_edge_list(text, field))
        for n, t in ((4, 2), (5, 2)):
            I = parse_generators(power_text(n, cycle_edges(n), t), nvars=n, field=field)
            got["power", (n, t), field] = {"depth": profile(I).depth}
    return got


@pytest.mark.parametrize("family", sorted(ANSWERS))
def test_closed_forms(engine, family):
    assert wrong_answers({k: a for k, a in engine.items() if k[0] == family}) == {}


def test_each_near_miss_fails_somewhere(engine):
    assert surviving_controls(engine) == []
    assert {family for family, _, _ in CONTROLS} == set(ANSWERS)


@pytest.fixture(scope="module")
def betti():
    """(family, n, field) -> projdim S/I from the Betti numbers."""
    return {
        (family, n, field): betti_oracle.projdim(parse_edge_list(edge_list(n, edges(n)), field))
        for field in (QQ, F2)
        for family, sizes, edges in (("path", range(2, 11), path_edges),
                                     ("cycle", range(3, 11), cycle_edges))
        for n in sizes
    }


def test_projdim_closed_forms(betti):
    assert {k: p for k, p in betti.items() if p != PROJDIM[k[0]](k[1])} == {}


def test_each_projdim_near_miss_fails_somewhere(betti):
    # n - ceil(n/3) and n - ceil((n-1)/3) differ exactly at n = 1 (mod 3)
    for family, near_miss in PROJDIM_CONTROLS.items():
        assert {n for (fam, n, _), p in betti.items() if fam == family and p != near_miss(n)} == {4, 7, 10}
    assert set(PROJDIM_CONTROLS) == set(PROJDIM)
