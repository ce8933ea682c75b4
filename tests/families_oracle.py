"""Closed forms for the edge ideals of graph families: the oracle that needs
no second computation.

The graph builders and the formulas use the standard library only and
import nothing from `maxdepth`, so they share no code with the engine.  For
S = K[x_1..x_n] and the edge ideal I(G), the published answers are:

- path P_n (n >= 2): depth S/I = mdepth = ceil(n/3), so maximal depth, and
  S/I is sequentially Cohen-Macaulay;
- cycle C_n (n >= 3): depth S/I = ceil((n-1)/3) and mdepth = ceil(n/3), so
  maximal depth iff n != 1 (mod 3), and S/I is sequentially
  Cohen-Macaulay iff n is 3 or 5;
- powers I(C_n)^t with 2 <= t < ceil((n+1)/2): depth S/I^t = ceil((n-t+1)/3);
- complete graph K_n (n >= 2): depth = mdepth = 1, so maximal depth, and
  S/I is sequentially Cohen-Macaulay.  Proof: the independence complex is
  n points, of dimension 0, and every 0-dimensional complex is CM, so
  unmixed and sequentially CM;
- complete bipartite K_{m,n} on the parts X, Y (m, n >= 1): depth 1 and
  mdepth min(m, n), so maximal depth iff min(m, n) = 1, and sequentially
  Cohen-Macaulay iff min(m, n) = 1.  Proof: Ass = {(X), (Y)}, of
  dimensions n and m; the independence complex is two disjoint simplices,
  disconnected, so H^1 != 0, and H^0 = 0 since the maximal ideal is not
  associated, so depth is 1; its pure 1-skeleton is disconnected of
  dimension 1 when min(m, n) >= 2, and each pure skeleton is a simplex
  skeleton or points when min(m, n) = 1.  This is the family where the
  paper's property fails;
- whiskered path W(P_n) (n >= 2) and whiskered cycle W(C_n) (n >= 3), a
  pendant vertex added at each of the n vertices: depth = mdepth = n, so
  maximal depth, and S/I is sequentially Cohen-Macaulay.  Proof: a graph
  with a whisker at every vertex is CM (Villarreal), so unmixed and
  sequentially CM, of dimension n, since every maximal independent set
  takes one end of each whisker;
- projdim S/I = n - depth S/I by Auslander-Buchsbaum: n - ceil(n/3) on P_n
  and n - ceil((n-1)/3) on C_n.

mdepth is the least dim S/p over the minimal primes, the complements of
the maximal independent sets, so it is the least size of a maximal
independent set: ceil(n/3) on both P_n and C_n, the independent
domination number of the path and of the cycle.

References.  The theorem numbers are given as recalled: none could be
checked against its source offline.

- path depth: S. Morey, *Depths of powers of the edge ideal of a tree*,
  Comm. Algebra 38 (2010), Lemma 2.8;
- cycle depth: S. Jacques, *Betti numbers of graph ideals*, PhD thesis,
  Sheffield (2004), chapter 7 (no number recalled);
- sequentially Cohen-Macaulay: C. A. Francisco and A. Van Tuyl,
  *Sequentially Cohen-Macaulay edge ideals*, Proc. AMS 135 (2007),
  Theorem 3.2 (chordal graphs, so every path) and Proposition 4.1 (C_n iff
  n is 3 or 5);
- powers of cycles: T. N. Trung, *Stability of depths of powers of edge
  ideals*, J. Algebra 452 (2016) (no number recalled, nor whether it
  states the formula for every t in the range; the checked cases are the
  evidence here);
- whiskered graphs: R. H. Villarreal, *Cohen-Macaulay graphs*, Manuscripta
  Math. 66 (1990) (no number recalled).

Each formula has a negative control in `CONTROLS` (`PROJDIM_CONTROLS` for
projdim): a near miss that must disagree with the engine somewhere in the
tested range, so that a check which passes everything is caught.  The
projdim forms are checked against the Betti numbers of
`tests/betti_oracle.py` in the test suite only: the command line interface
has no projdim command.

Run as a script, it asks the command line interface (`maxdepth analyze`
and `maxdepth seqcm`, a fresh process per call, JSON output) for C3-C22,
P2-P20, K2-K20, K_{m,n} with m <= n and m + n <= 14, W(P2)-W(P12) and
W(C3)-W(C12) over QQ and GF(2), and for the depths of C4^2-C7^2, and
compares each answer with its closed form.  It exits 1 on any mismatch or
when a control agrees everywhere:

    PYTHONPATH=src python tests/families_oracle.py
"""
import json
import subprocess
import sys
from itertools import combinations, combinations_with_replacement
from time import perf_counter

FIELDS = ("q", "f2")
# family -> the keys the script asks the CLI for
SIZES = {
    "path": range(2, 21),
    "cycle": range(3, 23),
    "complete": range(2, 21),
    "complete_bipartite": [(m, n) for m in range(1, 8) for n in range(m, 15 - m)],
    "whiskered_path": range(2, 13),
    "whiskered_cycle": range(3, 13),
}
CYCLE_POWERS = ((4, 2), (5, 2), (6, 2), (7, 2))


def ceil_div(a, b):
    return -(-a // b)


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def whiskered(n, edges):
    """The graph on 2n vertices with a pendant edge (v, n + v) at each vertex v."""
    return 2 * n, edges + [(v, n + v) for v in range(n)]


# family -> key -> (vertex count, edges)
GRAPHS = {
    "path": lambda n: (n, path_edges(n)),
    "cycle": lambda n: (n, cycle_edges(n)),
    "complete": lambda n: (n, list(combinations(range(n), 2))),
    "complete_bipartite": lambda mn: (mn[0] + mn[1],
                                      [(a, mn[0] + b) for a in range(mn[0]) for b in range(mn[1])]),
    "whiskered_path": lambda n: whiskered(n, path_edges(n)),
    "whiskered_cycle": lambda n: whiskered(n, cycle_edges(n)),
}


def edge_list(n, edges):
    """The graph in the `--edges` text form, 1-based."""
    return f"n={n}; edges=" + ",".join(f"{a + 1}-{b + 1}" for a, b in edges)


def power_text(n, edges, t):
    """I(G)^t in the `--gens` text form: the products of t edges, not all
    minimal."""
    gens = set()
    for chosen in combinations_with_replacement(edges, t):
        exps = [0] * n
        for a, b in chosen:
            exps[a] += 1
            exps[b] += 1
        gens.add(tuple(exps))
    return ",".join("*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(g) if e)
                    for g in sorted(gens))


# the answers, keyed as the JSON of `analyze` and `seqcm` names them
def path_answers(n):
    return {"depth": ceil_div(n, 3), "mdepth": ceil_div(n, 3), "maximal_depth": True,
            "sequentially_cm": True}


def cycle_answers(n):
    return {"depth": ceil_div(n - 1, 3), "mdepth": ceil_div(n, 3), "maximal_depth": n % 3 != 1,
            "sequentially_cm": n in (3, 5)}


def complete_answers(n):
    return {"depth": 1, "mdepth": 1, "maximal_depth": True, "sequentially_cm": True}


def complete_bipartite_answers(mn):
    return {"depth": 1, "mdepth": min(mn), "maximal_depth": min(mn) == 1,
            "sequentially_cm": min(mn) == 1}


def whiskered_answers(n):
    return {"depth": n, "mdepth": n, "maximal_depth": True, "sequentially_cm": True}


def cycle_power_depth(n, t):
    return ceil_div(n - t + 1, 3)


# family -> projdim S/I at n, the number of vertices less the depth
PROJDIM = {
    "path": lambda n: n - ceil_div(n, 3),
    "cycle": lambda n: n - ceil_div(n - 1, 3),
}

# family -> a near miss of its projdim, each the other family's form
PROJDIM_CONTROLS = {
    "path": lambda n: n - ceil_div(n - 1, 3),
    "cycle": lambda n: n - ceil_div(n, 3),
}


# family -> its answers at a key: n for a path, a cycle, K_n or a whiskered
# graph, (m, n) for K_{m,n}, and (n, t) for the power I(C_n)^t, whose answer
# is its depth alone
ANSWERS = {
    "path": path_answers,
    "cycle": cycle_answers,
    "complete": complete_answers,
    "complete_bipartite": complete_bipartite_answers,
    "whiskered_path": whiskered_answers,
    "whiskered_cycle": whiskered_answers,
    "power": lambda nt: {"depth": cycle_power_depth(*nt)},
}

# (family, invariant, near miss at a key): each must disagree with the
# engine on some key of the tested range
CONTROLS = (
    ("path", "depth", lambda n: ceil_div(n - 1, 3)),
    ("path", "mdepth", lambda n: ceil_div(n - 1, 3)),
    ("path", "maximal_depth", lambda n: n % 3 != 1),
    ("path", "sequentially_cm", lambda n: n in (3, 5)),
    ("cycle", "depth", lambda n: ceil_div(n, 3)),
    ("cycle", "mdepth", lambda n: ceil_div(n - 1, 3)),
    ("cycle", "maximal_depth", lambda n: True),
    ("cycle", "sequentially_cm", lambda n: n <= 5),
    ("complete", "depth", lambda n: ceil_div(n, 3)),  # the path's form
    ("complete", "mdepth", lambda n: n - 1),  # the height of a minimal prime
    ("complete_bipartite", "depth", lambda mn: min(mn)),  # depth = mdepth
    ("complete_bipartite", "mdepth", lambda mn: max(mn)),  # the dimension
    ("complete_bipartite", "maximal_depth", lambda mn: True),
    ("complete_bipartite", "sequentially_cm", lambda mn: mn[0] == mn[1]),  # unmixed
    ("whiskered_path", "depth", lambda n: ceil_div(2 * n, 3)),  # P_2n's form
    ("whiskered_cycle", "depth", lambda n: ceil_div(2 * n - 1, 3)),  # C_2n's form
    ("whiskered_cycle", "sequentially_cm", lambda n: n in (3, 5)),  # C_n's form
    ("power", "depth", lambda nt: ceil_div(nt[0] - nt[1], 3)),
)


def wrong_answers(got):
    """The entries of {(family, key, field): answers} that miss their closed form."""
    return {k: a for k, a in got.items() if a != ANSWERS[k[0]](k[1])}


def surviving_controls(got):
    """The controls that agree with every answer of their family in `got`."""
    return [(family, invariant) for family, invariant, near_miss in CONTROLS
            if all(a[invariant] == near_miss(key) for (fam, key, _), a in got.items() if fam == family)]


def cli(*argv):
    """The JSON output of one `maxdepth` call in a fresh process."""
    run = subprocess.run([sys.executable, "-m", "maxdepth.cli", "--format", "json", *argv],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def engine_answers(field, *source):
    prof = cli("--field", field, "analyze", *source)
    seqcm = cli("--field", field, "seqcm", *source)["sequentially_cm"]
    return {"depth": prof["depth"], "mdepth": prof["mdepth"],
            "maximal_depth": prof["maximal_depth"],
            "sequentially_cm": {"true": True, "false": False}.get(seqcm, seqcm)}


def main():
    t0 = perf_counter()
    got = {}  # (family, key, field) -> the engine's answers
    for field in FIELDS:
        for family, keys in SIZES.items():
            for key in keys:
                text = edge_list(*GRAPHS[family](key))
                got[family, key, field] = engine_answers(field, "--edges", text)
        for n, t in CYCLE_POWERS:
            gens = power_text(n, cycle_edges(n), t)
            prof = cli("--field", field, "analyze", "--gens", gens, "--nvars", str(n))
            got["power", (n, t), field] = {"depth": prof["depth"]}
    wrong, survivors = wrong_answers(got), surviving_controls(got)
    for (family, key, field), answers in wrong.items():
        print(f"mismatch: {family} {key} over {field}: engine {answers}, "
              f"closed form {ANSWERS[family](key)}")
    for family, invariant in survivors:
        print(f"negative control agrees everywhere: {family} {invariant}")
    print(f"{len(got)} family answers, {len(wrong)} mismatches, "
          f"{len(CONTROLS) - len(survivors)} of {len(CONTROLS)} controls caught, "
          f"{perf_counter() - t0:.1f} s")
    return 1 if wrong or survivors else 0


if __name__ == "__main__":
    sys.exit(main())
