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
    "count_closed_sets",
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


def _walk(X: LefschetzComplex, cap: int, sweep=None) -> list:
    """Bitmasks over the (dim, id) cell order of the closed sets found;
    with a sweep, only of those at which ``sweep.visit()`` is true."""
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
    found = []
    count = 0
    stack = [(-1, 0, [k for k, need in enumerate(needs) if not need], -1)]
    while stack:
        entry = stack.pop()
        if entry is None:
            sweep.undo()
            continue
        j, chosen, siblings, place = entry
        count += 1
        if count > cap:
            raise TooManyClosedSets(cap)
        if sweep is None:
            found.append(chosen)
        else:
            if j >= 0:
                sweep.include(ids[j])
                stack.append(None)
            if sweep.visit():
                found.append(chosen)
        addable = siblings[place + 1:]
        if j >= 0:
            addable += [c for c in cofacets[j] if needs[c] & chosen == needs[c]]
            addable.sort()
        stack.extend((c, chosen | 1 << c, addable, place) for place, c in enumerate(addable))
    return found


def count_closed_sets(X: LefschetzComplex, cap: int = DEFAULT_CLOSED_SET_CAP) -> int:
    """The number of closed sets; raises TooManyClosedSets past ``cap``."""
    return len(_walk(X, cap))


def enumerate_closed_sets(X: LefschetzComplex,
                          cap: int = DEFAULT_CLOSED_SET_CAP, sweep=None) -> list:
    """All closed sets (down-sets of the face poset), smallest first.

    Raises TooManyClosedSets when the count exceeds ``cap``: down-set
    counting is exponential in the width of the poset, so callers must
    opt in to large enumerations explicitly.

    The sets are walked depth first by include/exclude decisions in (dim,
    id) order, so a cell joins the current set after all its faces and
    while nothing above it is in.  A ``sweep`` follows the walk: it is told
    ``include(x)`` when cell x joins, ``undo()`` when the walk takes the
    last joined cell out again, and ``visit()`` at each closed set.  Only
    the sets at which ``visit()`` is true are returned then.
    """
    ids = X.face_poset()._ids
    sets = [frozenset(ids[k] for k in range(len(ids)) if mask >> k & 1)
            for mask in _walk(X, cap, sweep)]
    sets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return sets
