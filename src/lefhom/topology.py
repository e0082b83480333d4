"""The finite-space topology carried by a complex's face order.

Closed sets are the down-sets of the face poset, open sets the up-sets.
The facets generate the face order, so closures and closedness walk
``X._facets``; open hulls, openness and the closed-set walk read the face
poset.  All functions take cell-id iterables and return frozensets;
rendering layers sort ids when determinism of output text matters.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import LefschetzComplex
from .errors import NotLocallyClosed, TooManyClosedSets, UnknownCellReference

__all__ = [
    "closure",
    "open_hull",
    "mouth",
    "is_closed",
    "is_open",
    "is_locally_closed",
    "restrict",
    "closed_set_walk",
    "enumerate_closed_sets",
]

DEFAULT_CLOSED_SET_CAP = 100_000


def _cellset(X: LefschetzComplex, A: Iterable) -> frozenset:
    A = frozenset(A)
    unknown = [a for a in A if a not in X]
    if unknown:
        raise UnknownCellReference(f"not cells of the complex: {sorted(unknown)}")
    return A


def closure(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Smallest closed set containing A: everything reached from A down the facets."""
    facets, out = X._facets, set(_cellset(X, A))
    stack = list(out)
    while stack:
        below = facets[stack.pop()].keys() - out
        out |= below
        stack += below
    return frozenset(out)


def open_hull(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Smallest open set containing A: the union of the coface up-sets."""
    poset = X.face_poset()
    return poset._union(_cellset(X, A), poset._up)


def mouth(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Closure of A minus A."""
    A = _cellset(X, A)
    return closure(X, A) - A


def is_closed(X: LefschetzComplex, A: Iterable) -> bool:
    """True when A holds the facets of each of its cells."""
    A, facets = _cellset(X, A), X._facets
    return all(A.issuperset(facets[x]) for x in A)


def is_open(X: LefschetzComplex, A: Iterable) -> bool:
    A = _cellset(X, A)
    return open_hull(X, A) == A


def is_locally_closed(X: LefschetzComplex, A: Iterable) -> bool:
    """True when the mouth of A is closed (closed and open sets qualify)."""
    return is_closed(X, mouth(X, A))


def restrict(X: LefschetzComplex, A: Iterable) -> LefschetzComplex:
    """The sub-Lefschetz-complex on a locally closed set A.

    Local closedness is exactly what makes the restricted incidence map
    satisfy the boundary-of-boundary condition again; construction re-runs
    the full validation, so every call re-checks that fact.
    """
    A = _cellset(X, A)
    if not is_locally_closed(X, A):
        raise NotLocallyClosed(f"{sorted(A)} is not locally closed")
    # X's cells and facets in X's order, so the result never follows set order
    cells = [(x, dim) for x, dim in X._dims.items() if x in A]
    kappa = [((x, y), v) for x, _ in cells for y, v in X._facets[x].items() if y in A]
    return LefschetzComplex(cells, kappa, X.ring)


def closed_set_walk(X: LefschetzComplex, cap: int = DEFAULT_CLOSED_SET_CAP) -> list:
    """The depth-first walk over the closed sets, as a list of steps.

    A step is a cell id where that cell joins the current set, or None
    where the walk takes the last joined cell out again.  The walk starts
    at the empty set and makes a new closed set at each join, so it finds
    one more set than it has joins; it ends back at the empty set.  Cells
    join in (dim, id) order, each after all its faces and while nothing
    above it is in.  Raises TooManyClosedSets past ``cap`` sets, before
    returning anything.
    """
    poset = X.face_poset()  # ranks follow (dim, id): a linear extension
    ids, rank, cofacets = poset._ids, poset._rank, poset._cofacets
    needs = [sum(1 << rank[y] for y in X._facets[x]) for x in ids]  # distinct bits: an OR

    # Depth first over include/exclude decisions in cell order.  A node is
    # a closed set, its last included cell j, and its addable cells: those
    # after j whose facets are all in.  Each child includes one addable cell
    # and excludes those before it; it keeps the later ones and gains only
    # cofacets of j.  Entries (j, set, parent's addable cells, j's place
    # among them) go on a stack instead of recursion, because the depth is
    # the number of cells; None marks where the walk backs out of an
    # include.
    steps = []
    count = 0
    stack = [(-1, 0, [k for k, need in enumerate(needs) if not need], -1)]
    while stack:
        entry = stack.pop()
        if entry is None:
            steps.append(None)
            continue
        j, chosen, siblings, place = entry
        count += 1
        if count > cap:
            raise TooManyClosedSets(cap)
        addable = siblings[place + 1:]
        if j >= 0:
            steps.append(ids[j])
            stack.append(None)
            addable += [c for c in cofacets[j] if needs[c] & chosen == needs[c]]
            addable.sort()
        stack.extend((c, chosen | 1 << c, addable, place) for place, c in enumerate(addable))
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
