"""Local cohomology tables and seqCM verdicts against `cech_oracle`, which
builds H^i_m(S/I) degree by degree from the Čech complex and reads no
simplicial complex.

The oracle's finite-length flags are compared on squarefree input only:
on non-squarefree input the engine reads them off the polarized table,
which does not keep them (ROADMAP item 1)."""
import pytest

from maxdepth.complexes import to_ideal
from maxdepth.filtration import dimension_filtration, is_sequentially_cm
from maxdepth.ideals import F2, QQ, MonomialIdeal, parse_generators, ring
from maxdepth.invariants import profile

from cech_oracle import CONTROLS, cech_table, depth, flags
from conftest import RP2


def oracle(I, **control):
    return cech_table(I.ring.n, [g.exponents for g in I.gens], I.ring.field_spec.characteristic,
                      **control)


def engine_flags(I):
    """(nonzero, finite_length, k_dim) per degree 0..n; the degrees above
    dim S/I are zero."""
    degrees = profile(I).hochster.degrees
    return ([(d.nonzero, d.finite_length, d.k_dim) for d in degrees]
            + [(False, True, 0)] * (I.ring.n + 1 - len(degrees)))


def agrees(I, t):
    """Whether the oracle's table t answers as the engine does on I: every
    flag and K-dimension on squarefree input, the nonzero flags on any
    input, and the depth."""
    got, want = flags(t), engine_flags(I)
    if not I.is_squarefree:
        got, want = [f[0] for f in got], [f[0] for f in want]
    return got == want and depth(t) == profile(I).depth


def test_small_tables_by_hand():
    # S/(x1^2, x1*x2) has H^0 = (x1)/(x1^2, x1*x2), spanned by x1 alone,
    # and H^1 of infinite length; the two planes meet in a point, so H^1
    # has length 1; over GF(2) the projective plane has H^2 = H~_1 = GF(2)
    assert flags(oracle(parse_generators("x1^2,x1*x2", nvars=2))) == [
        (True, True, 1), (True, False, None), (False, True, 0)]
    assert flags(oracle(parse_generators("x1*x3,x1*x4,x2*x3,x2*x4", nvars=4)))[:3] == [
        (False, True, 0), (True, True, 1), (True, False, None)]
    assert depth(oracle(to_ideal(RP2, ring(6, QQ)))) == 3
    assert flags(oracle(to_ideal(RP2, ring(6, F2))))[2] == (True, True, 1)


def test_squarefree_tables_match(pool_small, pool_low_dim):
    # over QQ and GF(2), and the projective plane's field split
    cases = [MonomialIdeal(ring(I.ring.n, field), I.gens) for I in pool_small for field in (QQ, F2)]
    cases += pool_low_dim + [to_ideal(RP2, ring(6, field)) for field in (QQ, F2)]
    for I in cases:
        if not I.is_unit:
            assert agrees(I, oracle(I)), I.format()


def test_non_squarefree_nonzero_flags_and_depth_match(pool_mixed, pool_raised):
    for I in pool_mixed + pool_raised:
        if not I.is_unit and not I.is_squarefree:
            assert agrees(I, oracle(I)), I.format()


def test_seqcm_verdict_from_cech_level_depths(pool_raised, pool_low_dim):
    # S/I is seqCM iff depth S/I^(i) > i at every level i < dim, and the
    # first level that fails is the witness
    not_seqcm = 0
    for I in pool_raised + pool_low_dim:
        levels = dimension_filtration(I).levels[:-1]
        failing = [i for i, lv in enumerate(levels) if depth(oracle(lv.ideal)) <= i]
        res = is_sequentially_cm(I)
        assert (res.status, res.witness_skeleton) == (
            ("false", failing[0]) if failing else ("true", None)), I.format()
        not_seqcm += bool(failing)
    assert not_seqcm >= 100


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_control_disagrees_somewhere(name, pool_small, pool_mixed):
    # a near miss of the definition must fail the comparison somewhere
    cases = [I for I in pool_small + pool_mixed if not I.is_unit]
    assert not all(agrees(I, oracle(I, **CONTROLS[name])) for I in cases)
