"""Every face of a complex as a vertex tuple, from `itertools.combinations`:
the independent enumeration for the facet-mask walk
`maxdepth.complexes.face_meets`, and the face list of the Reisner and
homology oracles.

This was the engine's own face list before every face walk went through
the submasks of the facet masks.
"""
import itertools


def all_faces(cx):
    """Every face (including the empty one), by size, then lexicographic."""
    seen = set()
    for f in cx.facets:
        for k in range(len(f) + 1):
            seen.update(itertools.combinations(f, k))
    return tuple(sorted(seen, key=lambda f: (len(f), f)))
