"""The finite-space topology carried by a complex's face order.

Closed sets are the down-sets of the face order, open sets the up-sets.
The facets generate that order, so everything here reads X's incidences
and never builds the face poset.  One walk, down a set's exit facets or
up its exit cofacets, gives closures, mouths, local closedness and open
hulls; the closed-set walk adds cells along the cofacets.  All functions
take cell-id iterables, checked by :func:`~lefhom.complexes._cellset`, and
return frozensets; rendering layers sort ids when output text must be
stable.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import LefschetzComplex, _cellset, _cofacets
from .errors import NotLocallyClosed, TooManyClosedSets

__all__ = [
    "closure",
    "open_hull",
    "mouth",
    "is_closed",
    "is_locally_closed",
    "restrict",
    "closed_set_walk",
    "enumerate_closed_sets",
]

DEFAULT_CLOSED_SET_CAP = 100_000


def _walk(step, A) -> set:
    """The exit steps of A (its cells' steps outside it) and all past them, a
    level per step: down with ``X._facets``, up with the cofacets of
    :func:`~lefhom.complexes._cofacets`, on X's ranks."""
    walked, level = set(), A
    while level:
        level = set().union(*map(step.__getitem__, level)) - (walked or A)  # first: exits
        walked |= level
    return walked


def closure(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Smallest closed set containing A: A and the walk down from its exit facets."""
    A = _cellset(X, A)
    return A.union(_walk(X._facets, A))


def open_hull(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Smallest open set containing A: A and the walk up from its exit cofacets."""
    A = _cellset(X, A)
    above = _walk(_cofacets(X), set(map(X._rank.__getitem__, A)))
    return A.union(map(X._ids.__getitem__, above))


def mouth(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Closure of A minus A: the walk down from its exit facets, less A."""
    A = _cellset(X, A)
    return frozenset(_walk(X._facets, A) - A)


def is_closed(X: LefschetzComplex, A: Iterable) -> bool:
    """True when A has no exit facets: it holds the facets of each of its cells."""
    A = _cellset(X, A)
    return A.issuperset(set().union(*map(X._facets.__getitem__, A)))


def is_locally_closed(X: LefschetzComplex, A: Iterable) -> bool:
    """True when the mouth of A is closed: the walk down its exit facets misses A."""
    A = _cellset(X, A)
    return _walk(X._facets, A).isdisjoint(A)


def restrict(X: LefschetzComplex, A: Iterable) -> LefschetzComplex:
    """The sub-Lefschetz-complex on a locally closed set A.

    Local closedness is exactly what makes the restricted incidence map
    satisfy the boundary-of-boundary condition again, so the result is X's
    validated cells and incidences inside A, in X's order, not checked again;
    A's ids are checked once, and walked down once for local closedness.
    """
    A = _cellset(X, A)
    if not _walk(X._facets, A).isdisjoint(A):
        raise NotLocallyClosed(f"{sorted(A)} is not locally closed")
    dims = {x: dim for x, dim in X._dims.items() if x in A}
    facets = {x: {y: v for y, v in X._facets[x].items() if y in A} for x in dims}
    return LefschetzComplex._of_valid(X.ring, dims, facets)


def closed_set_walk(X: LefschetzComplex, cap: int = DEFAULT_CLOSED_SET_CAP) -> list:
    """The depth-first walk over the closed sets, as a list of steps.

    A step is a cell id where that cell joins the current set, or None
    where the walk takes the last joined cell out again.  The walk starts
    at the empty set and makes a new closed set at each join, so it finds
    one more set than it has joins; it ends back at the empty set.  Cells
    join in (dim, id) order, each after all its faces and while nothing
    above it is in: a cell's facets say when it may join, and after a join
    only the joined cell's cofacets can become addable, so the walk reads
    X's incidences both ways and builds no face poset; sets are int bitmasks
    of ranks.  Raises TooManyClosedSets past ``cap`` sets, before returning.
    """
    ids, rank, cofacets = X._ids, X._rank, _cofacets(X)  # (dim, id) ranks: a linear extension
    needs = [sum(1 << rank[y] for y in X._facets[x]) for x in ids]  # distinct bits: an OR

    # Depth first over include/exclude decisions in cell order.  A node is
    # a closed set, its last included cell j, and its addable cells: those
    # after j whose facets are all in, as bitmasks.  Each child includes one
    # addable cell and excludes those below it; it keeps the bits above its
    # own and gains only cofacets of j.  Children go on a stack, lowest bit
    # first, instead of recursion, because the depth is the number of
    # cells; None marks where the walk backs out of an include.
    steps, count = [], 0
    stack = [(-1, 0, sum(1 << k for k, need in enumerate(needs) if not need))]
    while stack:
        entry = stack.pop()
        if entry is None:
            steps.append(None)
            continue
        j, chosen, addable = entry
        count += 1
        if count > cap:
            raise TooManyClosedSets(cap)
        if j >= 0:
            steps.append(ids[j])
            stack.append(None)
            for c in cofacets[j]:
                if needs[c] & chosen == needs[c]:
                    addable |= 1 << c
        while addable:
            low = addable & -addable
            addable ^= low  # the bits above the child's own
            stack.append((low.bit_length() - 1, chosen | low, addable))
    return steps


def enumerate_closed_sets(X: LefschetzComplex, cap: int = DEFAULT_CLOSED_SET_CAP) -> list:
    """All closed sets (down-sets of the face poset), smallest first.

    Raises TooManyClosedSets when the count exceeds ``cap``: down-set
    counting is exponential in the width of the poset, so callers must
    opt in to large enumerations explicitly.  The sets are those made by
    replaying the steps of :func:`closed_set_walk`.
    """
    kept, sets = [], [frozenset()]
    for x in closed_set_walk(X, cap):
        if x is None:
            kept.pop()
        else:
            kept.append(x)
            sets.append(frozenset(kept))
    sets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return sets
