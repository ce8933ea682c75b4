"""Local cohomology of S/I from the Čech complex: the oracle that reads no
simplicial complex.

For a monomial ideal I of S = K[x_1..x_n], H^i_m(S/I) is the cohomology of
the Čech complex C^p = sum over |F| = p of (S/I)_{x_F}, with the signed
localization maps F -> F + {j}.  Everything is Z^n-graded.  In degree a,
(S/I)_{x_F} is K when {j : a_j < 0} lies in F and no generator g has
g_j <= a_j for every j outside F, and 0 otherwise; the map between two
nonzero pieces is the identity, up to its sign.

Every a_j < 0 gives the pieces of a_j = -1.  When a_j >= rho_j, the largest
exponent of x_j in a generator, each F without j has the piece of F + {j},
so the complex is a cone and its cohomology vanishes.  The nonzero degrees
therefore show in the box a_j = -1..rho_j - 1, each with at most 2^n
pieces.  Degree i has finite length when every a with H^i_a != 0 is >= 0,
and then its K-dimension is the sum of those dim H^i_a.

The module uses the standard library only and imports nothing from
`maxdepth`, so it shares no code with the engine.  An ideal is given as
n and a list of exponent tuples, the field as its characteristic (0 for
QQ).  `CONTROLS` are two near misses of the definition, each of which must
disagree with the engine on some tested ideal.

Refs: Brodmann-Sharp, *Local Cohomology*, ch. 5; E. Miller and
B. Sturmfels, *Combinatorial Commutative Algebra*, ch. 13.
"""
from fractions import Fraction
from itertools import product


def rank(rows, p):
    """Rank over QQ (p = 0) or GF(p) of the rows, dicts column -> integer."""
    pivots = {}  # column -> row with a 1 there and no earlier column
    for row in rows:
        row = {c: Fraction(v) if p == 0 else v % p for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                inv = 1 / row[c] if p == 0 else pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv if p == 0 else v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                w = row.get(k, 0) - f * v
                if p:
                    w %= p
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    return len(pivots)


def cech_table(n, gens, p=0, lowest=-1, outside=True):
    """{a: dim H^i_m(S/I)_a} over the nonzero degrees a of the box, for each
    i = 0..n.  `lowest` is the least a_j of the box, and `outside` says
    whether the generator test runs over the j outside F (the definition)
    or inside it; the controls change these."""
    rho = [max((g[j] for g in gens), default=0) for j in range(n)]
    table = [{} for _ in range(n + 1)]
    for a in product(*(range(lowest, r) for r in rho)):
        neg = sum(1 << j for j in range(n) if a[j] < 0)
        above = [sum(1 << j for j in range(n) if g[j] > a[j]) for g in gens]  # j with g_j > a_j
        pieces = [F for F in range(1 << n) if F & neg == neg
                  and not any((b & ~F if outside else b & F) == 0 for b in above)]
        by_size = [[] for _ in range(n + 1)]
        for F in pieces:
            by_size[F.bit_count()].append(F)
        nonzero = set(pieces)
        ranks = [0] * (n + 1)  # rank of d^p : C^p -> C^(p+1)
        for q in range(n):
            rows = []
            for F in by_size[q]:
                row = {}
                for j in range(n):
                    if not F >> j & 1 and F | 1 << j in nonzero:
                        row[F | 1 << j] = -1 if (F & ((1 << j) - 1)).bit_count() % 2 else 1
                rows.append(row)
            ranks[q] = rank(rows, p)
        for i in range(n + 1):
            h = len(by_size[i]) - ranks[i] - (ranks[i - 1] if i else 0)
            if h:
                table[i][a] = h
    return table


def flags(table):
    """(nonzero, finite_length, k_dim) per degree, k_dim None when infinite."""
    out = []
    for degrees in table:
        finite = all(min(a, default=0) >= 0 for a in degrees)
        out.append((bool(degrees), finite, sum(degrees.values()) if finite else None))
    return out


def depth(table):
    """The least i with H^i_m(S/I) != 0, or None when the table is empty."""
    return next((i for i, degrees in enumerate(table) if degrees), None)


# near misses of the definition, as keyword arguments of cech_table
CONTROLS = {
    "no a_j = -1 class": {"lowest": 0},
    "generator test inside F": {"outside": False},
}
