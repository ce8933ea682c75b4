"""Monomial arithmetic and monomial-ideal algebra over a fixed variable list.

All values are immutable and canonically ordered: generators are stored
minimalized and sorted graded-lex, so equal ideals compare equal bit for bit.
"""
from __future__ import annotations

import json
import re
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache, reduce
from typing import NamedTuple

from .errors import (
    CapExceededError,
    MalformedInputError,
    RegularityViolationError,
    RingMismatchError,
    UndefinedModuleError,
)


class Limits(NamedTuple):
    """Caps on a computation: the nodes one vertex cover search may visit,
    and the vertex count of a Stanley-Reisner complex (after polarization)."""

    search_cap: int = 2 ** 24
    max_vertices: int = 24


_limits: ContextVar[Limits] = ContextVar("maxdepth_limits", default=Limits())
limits = _limits.get  # the limits in force


@contextmanager
def limited(**caps):
    """Run the block with the named caps replaced; the previous limits return
    when it exits, also by an exception."""
    try:
        token = _limits.set(_limits.get()._replace(**caps))
    except ValueError as exc:  # a name that is not a cap
        raise TypeError(exc) from None
    try:
        yield
    finally:
        _limits.reset(token)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldSpec(NamedTuple("FieldSpec", [("characteristic", int)])):
    """Coefficient field tag: characteristic 0 (rationals) or a prime field."""

    __slots__ = ()

    def __new__(cls, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise MalformedInputError(
                f"field characteristic must be 0 or prime, got {characteristic}"
            )
        return super().__new__(cls, characteristic)

    @property
    def label(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)
F2 = FieldSpec(2)


class RingDescriptor(NamedTuple(
    "RingDescriptor", [("names", tuple[str, ...]), ("field_spec", FieldSpec)]
)):
    __slots__ = ()

    def __new__(cls, names: tuple[str, ...], field_spec: FieldSpec = QQ):
        if len(names) < 1:
            raise MalformedInputError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise MalformedInputError("variable names must be distinct")
        return super().__new__(cls, names, field_spec)

    @property
    def n(self) -> int:
        return len(self.names)


def ring(n: int, field: FieldSpec = QQ, names: tuple[str, ...] | None = None) -> RingDescriptor:
    """Polynomial ring in n variables, default names x1..xn."""
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(n))
    return RingDescriptor(names, field)


class Monomial(NamedTuple("Monomial", [("exponents", tuple[int, ...])])):
    __slots__ = ()

    def __new__(cls, exponents: tuple[int, ...]):
        if any(e < 0 for e in exponents):
            raise MalformedInputError("exponents must be non-negative")
        return super().__new__(cls, exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_one(self) -> bool:
        return self.degree == 0

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def colon_by(self, u: "Monomial") -> "Monomial":
        """self / gcd(self, u)."""
        return Monomial(tuple(max(a - b, 0) for a, b in zip(self.exponents, u.exponents)))

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def format(self, rng: RingDescriptor) -> str:
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(rng.names[i])
            elif e > 1:
                parts.append(f"{rng.names[i]}^{e}")
        return "*".join(parts)


def variable(rng: RingDescriptor, i: int, power: int = 1) -> Monomial:
    exps = [0] * rng.n
    exps[i] = power
    return Monomial(tuple(exps))


class PrimeSupport(NamedTuple):
    """A monomial prime, given by its generating variables; () is the zero prime."""

    vars: tuple[int, ...]

    @classmethod
    def of(cls, indices) -> "PrimeSupport":
        return cls(tuple(sorted(set(indices))))

    def dim_in(self, rng: RingDescriptor) -> int:
        return rng.n - len(self.vars)

    def contains(self, other: "PrimeSupport") -> bool:
        return set(other.vars) <= set(self.vars)

    def format(self, rng: RingDescriptor) -> str:
        if not self.vars:
            return "(0)"
        return "(" + ", ".join(rng.names[i] for i in self.vars) + ")"


def _graded_lex_key(m: Monomial):
    return (m.degree, m.exponents)


def _minimal_gens(gens: tuple[Monomial, ...]) -> tuple[Monomial, ...]:
    uniq = sorted(set(gens), key=_graded_lex_key)
    if any(g.is_one for g in uniq):
        n = len(uniq[0].exponents)
        return (Monomial((0,) * n),)
    kept: list[Monomial] = []
    for g in uniq:
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return tuple(kept)


class MonomialIdeal(NamedTuple(
    "MonomialIdeal", [("ring", RingDescriptor), ("gens", tuple[Monomial, ...])]
)):
    __slots__ = ()

    def __new__(cls, ring: RingDescriptor, gens: tuple[Monomial, ...]):
        for g in gens:
            if len(g.exponents) != ring.n:
                raise MalformedInputError(
                    f"generator has {len(g.exponents)} exponents, ring has {ring.n} variables"
                )
        return super().__new__(cls, ring, _minimal_gens(tuple(gens)))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def lcm_of_gens(self) -> Monomial:
        acc = Monomial((0,) * self.ring.n)
        for g in self.gens:
            acc = acc.lcm(g)
        return acc

    def format(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(g.format(self.ring) for g in self.gens) + ")"


def zero_ideal(rng: RingDescriptor) -> MonomialIdeal:
    return MonomialIdeal(rng, ())


def unit_ideal(rng: RingDescriptor) -> MonomialIdeal:
    return MonomialIdeal(rng, (Monomial((0,) * rng.n),))


def minimalize(rng: RingDescriptor, gens) -> MonomialIdeal:
    """Canonical ideal from an arbitrary generator list."""
    return MonomialIdeal(rng, tuple(gens))


def _require_same_ring(I: MonomialIdeal, J: MonomialIdeal):
    if I.ring != J.ring:
        raise RingMismatchError("operands live in different rings")


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Pairwise-lcm intersection of monomial ideals."""
    _require_same_ring(I, J)
    return MonomialIdeal(I.ring, tuple(u.lcm(v) for u in I.gens for v in J.gens))


def intersect_all(rng: RingDescriptor, ideals) -> MonomialIdeal:
    """Intersection of a family; the empty family gives the unit ideal."""
    ideals = list(ideals)
    if not ideals:
        return unit_ideal(rng)
    return reduce(intersect, ideals)


def colon(I: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """(I : u) for a monomial u."""
    if len(u.exponents) != I.ring.n:
        raise RingMismatchError("monomial has wrong ambient length")
    return MonomialIdeal(I.ring, tuple(g.colon_by(u) for g in I.gens))


def prime_ideal(rng: RingDescriptor, p: PrimeSupport) -> MonomialIdeal:
    return MonomialIdeal(rng, tuple(variable(rng, i) for i in p.vars))


@lru_cache(maxsize=None)
def _tight_covers(I: MonomialIdeal, search_cap: int) -> tuple[frozenset, ...]:
    """The vertex covers C of pol I in which every pair has a tight generator,
    each a set of (variable, power) pairs; sorted by size, then by pairs.

    The polarization vertex x_{i,j} is the pair (i, j), so the generator x^a
    is the edge {(i, j) : 1 <= j <= a_i}.  A generator g is tight for the
    pair (i, j) of C when g_i = j and its edge misses every other pair of C.
    The search branches on the vertices of the first uncovered edge in
    sorted order; branch v forbids the siblings tried before it, and is cut
    when a pair of the grown set has no tight generator left.  Growing the
    set only takes tight generators away, so a tight cover keeps every one
    on its path, and it is reached through the first of its pairs on each
    edge it has to cover: the search yields each tight cover once and
    nothing else.  On squarefree I a tight generator is a private edge, so
    the tight covers are the minimal vertex covers.  Raises
    CapExceededError once the search has visited more than `search_cap`
    nodes.  The cache is keyed on the cap, so a lowered cap is never
    bypassed; call it through `irreducible_covers`, which supplies the cap.
    """
    edges = [
        frozenset((i, j) for i, e in enumerate(g.exponents) for j in range(1, e + 1))
        for g in I.gens
    ]
    tight: dict[tuple[int, int], list[frozenset]] = {}  # (i, j) -> edges with g_i = j
    for g, f in zip(I.gens, edges):
        for i, e in enumerate(g.exponents):
            if e:
                tight.setdefault((i, e), []).append(f)
    results: list[frozenset] = []
    visited = 0

    def rec(chosen: frozenset, forbidden: frozenset):
        nonlocal visited
        visited += 1
        if visited > search_cap:
            raise CapExceededError(
                f"transversal search visited more than {search_cap} nodes"
            )
        for e in edges:
            if not (e & chosen):
                tried = set(forbidden)
                for v in sorted(e - forbidden):
                    grown = chosen | {v}
                    if all(any(f & grown == {u} for f in tight.get(u, ())) for u in grown):
                        rec(grown, frozenset(tried))
                    tried.add(v)
                return
        results.append(chosen)

    rec(frozenset(), frozenset())
    return tuple(sorted(results, key=lambda c: (len(c), tuple(sorted(c)))))


def irreducible_covers(I: MonomialIdeal) -> tuple[frozenset, ...]:
    """The one cover search behind Ass, the decompositions, the filtration
    and the Stanley-Reisner facets, under the search cap in force: the
    covers C of pol I whose ideal q_C = (x_i^j : (i, j) in C) is an
    irreducible component of I, by size (so by decreasing dimension of q_C).

    Each minimal vertex cover C of pol I gives an irreducible ideal q_C
    over I (S. Faridi, Monomial ideals via square-free monomial ideals,
    2005; Herzog-Hibi, Monomial Ideals, ch. 1).  The components of I are
    the q_C in which every pair (i, j) of C has a tight generator: g_i = j,
    and g_k < l for the other pairs (k, l) of C.
    - A tight generator is a private edge, so C is a minimal cover.
    - Tight generators make q_C minimal among the irreducible ideals over
      I: if q_D is one inside q_C, each tight generator lies in q_D only
      through its own variable, which forces D = C.
    - A component q = (x_i^{c_i} : i in A) is q_C for C = {x_{i,c_i}}, a
      minimal cover since a smaller one would give an irreducible ideal
      over I strictly inside q.  Raising c_i by one gives an ideal strictly
      inside q, so some generator of I lies in q but not in that ideal: it
      is tight at i.
    For squarefree I these are all the minimal vertex covers of I.
    """
    return _tight_covers(I, limits().search_cap)


def associated_primes(I: MonomialIdeal) -> frozenset[PrimeSupport]:
    """Ass(S/I): the radicals of the irreducible components of I, read off
    `irreducible_covers` as x_{i,j} -> x_i."""
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    return frozenset(PrimeSupport.of(i for i, _ in c) for c in irreducible_covers(I))


def minimal_primes_of(I: MonomialIdeal) -> frozenset[PrimeSupport]:
    """Inclusion-minimal members of Ass(S/I)."""
    ass = associated_primes(I)
    return frozenset(
        p for p in ass if not any(q != p and p.contains(q) for q in ass)
    )


def irreducible_decomposition(I: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """Irredundant decomposition into ideals generated by pure variable powers:
    q_C for each cover C of `irreducible_covers`."""
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal has no decomposition")
    rng = I.ring
    kept = [
        MonomialIdeal(rng, tuple(variable(rng, i, j) for i, j in c))
        for c in irreducible_covers(I)
    ]
    return tuple(sorted(kept, key=lambda c: tuple(_graded_lex_key(g) for g in c.gens)))


def primary_decomposition(I: MonomialIdeal) -> tuple[tuple[PrimeSupport, MonomialIdeal], ...]:
    """Primary components, by intersecting irreducible components sharing a radical."""
    groups: dict[PrimeSupport, list[MonomialIdeal]] = {}
    for c in irreducible_decomposition(I):
        rad = PrimeSupport.of(i for g in c.gens for i in g.support)
        groups.setdefault(rad, []).append(c)
    out = []
    for rad in sorted(groups):
        out.append((rad, intersect_all(I.ring, groups[rad])))
    return tuple(out)


class Polarization(NamedTuple):
    ideal: MonomialIdeal
    added_vars: int
    slot_owner: tuple[int, ...]  # new variable index -> original variable index


def polarize(I: MonomialIdeal) -> Polarization:
    """Squarefree-ification x_i^k -> x_{i,1}...x_{i,k}; shifts depth by added_vars."""
    if I.is_unit:
        raise UndefinedModuleError("cannot polarize the unit ideal")
    rng = I.ring
    maxexp = [0] * rng.n
    for g in I.gens:
        for i, e in enumerate(g.exponents):
            maxexp[i] = max(maxexp[i], e)
    slots = [max(1, e) for e in maxexp]
    names: list[str] = []
    owner: list[int] = []
    start = [0] * rng.n
    for i, s in enumerate(slots):
        start[i] = len(names)
        if s == 1:
            names.append(rng.names[i])
        else:
            names.extend(f"{rng.names[i]}_{j + 1}" for j in range(s))
        owner.extend([i] * s)
    new_ring = RingDescriptor(tuple(names), rng.field_spec)
    new_gens = []
    for g in I.gens:
        exps = [0] * new_ring.n
        for i, e in enumerate(g.exponents):
            for j in range(e):
                exps[start[i] + j] = 1
        new_gens.append(Monomial(tuple(exps)))
    return Polarization(
        MonomialIdeal(new_ring, tuple(new_gens)),
        new_ring.n - rng.n,
        tuple(owner),
    )


def tensor_join(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Segre-style join S/I tensor T/J: variables of T renumbered after S.

    The joined ring uses fresh canonical names x1..x_{n+m}.
    """
    if I.is_unit or J.is_unit:
        raise UndefinedModuleError("tensor join needs proper ideals")
    if I.ring.field_spec != J.ring.field_spec:
        raise RingMismatchError("tensor join needs a common coefficient field")
    n, m = I.ring.n, J.ring.n
    joined = ring(n + m, I.ring.field_spec)
    gens = [Monomial(g.exponents + (0,) * m) for g in I.gens]
    gens += [Monomial((0,) * n + g.exponents) for g in J.gens]
    return MonomialIdeal(joined, tuple(gens))


def quotient_by_variable(I: MonomialIdeal, v: int) -> MonomialIdeal:
    """Image of I + (x_v) in the remaining variables; x_v must be regular on S/I."""
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal defines the zero module")
    if not 0 <= v < I.ring.n:
        raise MalformedInputError(f"variable index {v} out of range")
    if I.ring.n == 1:
        raise MalformedInputError("cannot remove the last variable")
    for p in sorted(associated_primes(I)):
        if v in p.vars:
            raise RegularityViolationError(
                f"{I.ring.names[v]} lies in the associated prime {p.format(I.ring)}",
                witness=p,
            )
    names = tuple(nm for i, nm in enumerate(I.ring.names) if i != v)
    new_ring = RingDescriptor(names, I.ring.field_spec)
    gens = []
    for g in I.gens:
        if g.exponents[v] == 0:
            gens.append(Monomial(tuple(e for i, e in enumerate(g.exponents) if i != v)))
    return MonomialIdeal(new_ring, tuple(gens))


# ---------------------------------------------------------------------------
# text / JSON interchange

_STRICT_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_CONVENIENCE = re.compile(r"^(?:x\d)+$")


def _parse_monomial_token(token: str) -> dict[int, int]:
    """Token -> {1-based variable index: exponent}."""
    token = token.strip()
    if not token:
        raise MalformedInputError("empty monomial token")
    if token == "1":
        return {}
    exps: dict[int, int] = {}
    if "*" in token or "^" in token:
        for factor in token.split("*"):
            m = _STRICT_FACTOR.match(factor.strip())
            if not m:
                raise MalformedInputError(f"cannot parse monomial factor {factor!r}")
            idx = int(m.group(1))
            exps[idx] = exps.get(idx, 0) + int(m.group(2) or 1)
    elif _CONVENIENCE.match(token):
        # single-digit-index convenience mode: x1x2 means x1*x2
        for pos in range(0, len(token), 2):
            idx = int(token[pos + 1])
            exps[idx] = exps.get(idx, 0) + 1
    else:
        raise MalformedInputError(f"cannot parse monomial {token!r}")
    if 0 in exps:
        raise MalformedInputError("variable indices are 1-based")
    return exps


def parse_generators(
    text: str, nvars: int | None = None, field: FieldSpec = QQ
) -> MonomialIdeal:
    """Ideal text grammar: comma-separated monomials, `x1*x2^2` or `x1x2`."""
    text = text.strip()
    if text in ("", "0"):
        if nvars is None:
            raise MalformedInputError("zero ideal needs an explicit variable count")
        return zero_ideal(ring(nvars, field))
    parsed = [_parse_monomial_token(tok) for tok in text.split(",")]
    needed = max((max(d) for d in parsed if d), default=1)
    n = nvars if nvars is not None else needed
    if needed > n:
        raise MalformedInputError(
            f"monomial uses x{needed} but the ring has {n} variables"
        )
    rng = ring(n, field)
    gens = []
    for d in parsed:
        exps = [0] * n
        for idx, e in d.items():
            exps[idx - 1] = e
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(rng, tuple(gens))


def ideal_from_json(data, field: FieldSpec = QQ) -> MonomialIdeal:
    """JSON form {"vars": [...names...], "gens": [[e1..en], ...]}."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"bad JSON: {exc}") from exc
    try:
        names = tuple(str(v) for v in data["vars"])
        gens = [tuple(int(e) for e in g) for g in data["gens"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad ideal JSON: {exc}") from exc
    rng = RingDescriptor(names, field)
    return MonomialIdeal(rng, tuple(Monomial(g) for g in gens))


def parse_field(text: str) -> FieldSpec:
    """Field flag values: q | f2 | fp=P."""
    text = text.strip().lower()
    if text in ("q", "qq", "0"):
        return QQ
    if text == "f2":
        return F2
    if text.startswith("fp="):
        try:
            return FieldSpec(int(text[3:]))
        except ValueError as exc:
            raise MalformedInputError(f"bad field spec {text!r}") from exc
    raise MalformedInputError(f"unknown field spec {text!r}")
