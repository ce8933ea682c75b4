"""The engine against the closed forms of `tests/families_oracle.py`: paths
P2-P16 and cycles C3-C16 over QQ and GF(2), and the depths of C4^2 and
C5^2, each formula with its negative control."""
import pytest

from maxdepth.complexes import parse_edge_list
from maxdepth.filtration import is_sequentially_cm
from maxdepth.ideals import F2, QQ, parse_generators
from maxdepth.invariants import profile

from families_oracle import (
    ANSWERS,
    CONTROLS,
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


@pytest.fixture(scope="module")
def engine():
    """(family, key, field) -> the engine's answers."""
    got = {}
    for field in (QQ, F2):
        for family, sizes, edges in (("path", range(2, 17), path_edges),
                                     ("cycle", range(3, 17), cycle_edges)):
            for n in sizes:
                got[family, n, field] = answers_of(parse_edge_list(edge_list(n, edges(n)), field))
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
