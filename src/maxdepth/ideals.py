"""Monomial arithmetic and monomial-ideal algebra over a fixed variable list.

All values are immutable and canonically ordered: generators are stored
minimalized and sorted graded-lex, so equal ideals compare equal bit for bit.
"""
from __future__ import annotations

import json
import re
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache, wraps
from operator import lshift
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
    and the vertex count of a Stanley-Reisner complex or a polarization,
    checked before either is built."""

    search_cap: int = 2 ** 24
    max_vertices: int = 24


_limits: ContextVar[Limits] = ContextVar("maxdepth_limits", default=Limits())
limits = _limits.get  # the limits in force


def per_limits(fn):
    """fn(I) in an unbounded lru_cache keyed on I, which carries its field, and
    on the caps in force, so a lowered cap is never bypassed."""
    memo = lru_cache(maxsize=None)(lambda I, caps: fn(I))
    memoized = wraps(fn)(lambda I: memo(I, limits()))
    memoized.cache_info, memoized.cache_clear = memo.cache_info, memo.cache_clear
    return memoized


@contextmanager
def limited(**caps):
    """Run the block with the named caps replaced; the previous limits return
    when it exits, also by an exception."""
    try:
        new = _limits.get()._replace(**caps)
    except ValueError as exc:  # a name that is not a cap
        raise TypeError(exc) from None
    if min(new) < 0:
        raise MalformedInputError(f"caps must be non-negative, got {new}")
    token = _limits.set(new)
    try:
        yield
    finally:
        _limits.reset(token)


def check_vertex_cap(n: int) -> None:
    """Raise CapExceededError if a complex on n vertices exceeds the cap in
    force; callers check it before the work it bounds."""
    if n > limits().max_vertices:
        raise CapExceededError(f"{n} vertices exceeds cap {limits().max_vertices}")


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


def ring(n: int, field: FieldSpec = QQ) -> RingDescriptor:
    """Polynomial ring in n variables named x1..xn."""
    return RingDescriptor(tuple(f"x{i + 1}" for i in range(n)), field)


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

    def format(self, rng: RingDescriptor) -> str:
        if not self.vars:
            return "(0)"
        return "(" + ", ".join(rng.names[i] for i in self.vars) + ")"


def _graded_lex_key(m: Monomial):
    return (m.degree, m.exponents)


def _minimal_gens(gens: tuple[Monomial, ...]) -> tuple[Monomial, ...]:
    """The minimal monomials among `gens`, sorted graded-lex: each one is
    kept unless a monomial kept before it divides it.  A proper divisor has
    lower degree, so it was decided before, and a discarded one has a kept
    divisor.

    The test runs on exponent vectors packed into one int, one field of
    w = bit_length(max exponent) + 1 bits per variable, so every exponent
    fits below the top bit of its field, the guard bit.  With G the guard
    bits, each field of (B | G) - A holds 2^(w-1) + b_k - a_k, which lies
    in [1, 2^w): no field borrows from the next, and its guard bit is set
    exactly when a_k <= b_k.  So x^a divides x^b iff ((B | G) - A) & G == G.
    """
    ordered = sorted(set(gens), key=_graded_lex_key)
    if len(ordered) < 2:
        return tuple(ordered)
    w = max(max(g.exponents) for g in ordered).bit_length() + 1
    shifts = range(0, len(ordered[0].exponents) * w, w)
    guard = sum(1 << (s + w - 1) for s in shifts)
    kept, packed = [], []
    for g in ordered:
        b = sum(map(lshift, g.exponents, shifts))
        bg = b | guard
        if not any((bg - a) & guard == guard for a in packed):
            kept.append(g)
            packed.append(b)
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


def _tight_covers(I: MonomialIdeal, search_cap: int) -> tuple[frozenset, ...]:
    """The vertex covers C of pol I in which every pair has a tight generator,
    each a set of (variable, power) pairs; sorted by size, then by pairs.

    The polarization vertex x_{i,j} is the pair (i, j), so the generator x^a
    is the edge {(i, j) : 1 <= j <= a_i}.  A generator g is tight for the
    pair (i, j) of C when g_i = j and its edge misses every other pair of C.
    Only a pair (i, e) where e is the exponent of x_i in some generator can
    have one, and a branch through any other pair is cut unvisited, so the
    vertices are those pairs alone and the edge of g is {(i, e) : e <= g_i}:
    pol I' for I' with each variable's exponents replaced by their ranks,
    labelled by I's exponents.  It visits the same nodes as on all of pol I,
    and its size does not grow with the exponents.
    The search branches on the vertices of the first uncovered edge in
    sorted order; branch v forbids the siblings tried before it, and is cut
    when a pair of the grown set has no tight generator left.  Growing the
    set only takes tight generators away, so a tight cover keeps every one
    on its path, and it is reached through the first of its pairs on each
    edge it has to cover: the search yields each tight cover once and
    nothing else.  On squarefree I a tight generator is a private edge, so
    the tight covers are the minimal vertex covers.  Raises
    CapExceededError once the search has visited more than `search_cap`
    nodes, or recurses deeper than the interpreter allows; `irreducible_covers`
    supplies the cap and keeps the memo.
    """
    pairs = {(i, e) for g in I.gens for i, e in enumerate(g.exponents) if e}
    edges = [frozenset((i, e) for i, e in pairs if e <= g.exponents[i]) for g in I.gens]
    # (i, e) -> the edges of the generators with g_i = e
    tight = {(i, e): [f for g, f in zip(I.gens, edges) if g.exponents[i] == e] for i, e in pairs}
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
                    if all(any(f & grown == {u} for f in tight[u]) for u in grown):
                        rec(grown, frozenset(tried))
                    tried.add(v)
                return
        results.append(chosen)

    try:
        rec(frozenset(), frozenset())
    except RecursionError:
        raise CapExceededError("transversal search deeper than the interpreter allows") from None
    return tuple(sorted(results, key=lambda c: (len(c), tuple(sorted(c)))))


@per_limits
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


def meet_covers(J: MonomialIdeal, covers) -> MonomialIdeal:
    """J cap q_C over a list of covers C, each an iterable of (variable,
    power) pairs, with q_C = (x_k^j : (k, j) in C); the empty cover gives
    the zero ideal, and an empty list gives J.

    J cap q_C is generated by the lcms of the generators g of J with the
    x_k^j: a g inside q_C (g_k >= j for some (k, j) in C) is its own lcm,
    and any other g is raised at each (k, j) of C to g + (j - g_k) e_k.
    The constructor keeps the minimal ones.
    """
    for c in covers:
        gens = []
        for g in J.gens:
            e = g.exponents
            if any(e[k] >= j for k, j in c):
                gens.append(g)
            else:
                gens.extend(Monomial(e[:k] + (j,) + e[k + 1:]) for k, j in c)
        J = MonomialIdeal(J.ring, tuple(gens))
    return J


def primary_decomposition(I: MonomialIdeal) -> tuple[tuple[PrimeSupport, MonomialIdeal], ...]:
    """Primary components: for each P in Ass(S/I), the meet of the
    irreducible components with radical P."""
    if I.is_unit:
        raise UndefinedModuleError("the unit ideal has no decomposition")
    groups: dict[PrimeSupport, list[frozenset]] = {}
    for c in irreducible_covers(I):
        groups.setdefault(PrimeSupport.of(k for k, _ in c), []).append(c)
    return tuple((rad, meet_covers(unit_ideal(I.ring), groups[rad])) for rad in sorted(groups))


def polarize(I: MonomialIdeal) -> MonomialIdeal:
    """Squarefree-ification x_i^k -> x_{i,1}...x_{i,k}; shifts depth by the
    number of added variables, `polarize(I).ring.n - I.ring.n`.  The vertex
    cap is checked before the new ring is built."""
    if I.is_unit:
        raise UndefinedModuleError("cannot polarize the unit ideal")
    rng = I.ring
    slots = [max(1, e) for e in I.lcm_of_gens().exponents]
    check_vertex_cap(sum(slots))
    names = tuple(x if s == 1 else f"{x}_{j + 1}" for x, s in zip(rng.names, slots) for j in range(s))
    return MonomialIdeal(RingDescriptor(names, rng.field_spec), tuple(
        Monomial(sum(((1,) * e + (0,) * (s - e) for e, s in zip(g.exponents, slots)), ()))
        for g in I.gens))


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
    if "*" in token or "^" in token or _STRICT_FACTOR.match(token):
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


def json_int(v) -> int:
    """v itself when it is a JSON integer (an int, not a bool)."""
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def ideal_from_json(data, field: FieldSpec = QQ) -> MonomialIdeal:
    """JSON form {"vars": [...names...], "gens": [[e1..en], ...]}."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"bad JSON: {exc}") from exc
    try:
        names = data["vars"]
        gens = [tuple(json_int(e) for e in g) for g in data["gens"]]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad ideal JSON: {exc}") from exc
    if type(names) is not list or not all(
        type(v) is str and re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", v) for v in names
    ):
        raise MalformedInputError(f"bad ideal JSON: expected variable names, got {names!r}")
    rng = RingDescriptor(tuple(names), field)
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
