"""The finite-space topology carried by a complex's face order.

Closed sets are the down-sets of the face poset, open sets the up-sets.
All functions take cell-id iterables and return frozensets; rendering
layers sort ids when determinism of output text matters.
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
    "enumerate_closed_sets",
]

DEFAULT_CLOSED_SET_CAP = 100_000


def _cellset(X: LefschetzComplex, A: Iterable) -> frozenset:
    A = frozenset(A)
    unknown = A - X.cell_ids
    if unknown:
        raise UnknownCellReference(f"not cells of the complex: {sorted(unknown)}")
    return A


def closure(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Smallest closed set containing A: the union of the face down-sets."""
    A = _cellset(X, A)
    poset = X.face_poset()
    out = set()
    for a in A:
        out |= poset.below(a)
    return frozenset(out)


def open_hull(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Smallest open set containing A: the union of the coface up-sets."""
    A = _cellset(X, A)
    poset = X.face_poset()
    out = set()
    for a in A:
        out |= poset.above(a)
    return frozenset(out)


def mouth(X: LefschetzComplex, A: Iterable) -> frozenset:
    """Closure of A minus A."""
    A = _cellset(X, A)
    return closure(X, A) - A


def is_closed(X: LefschetzComplex, A: Iterable) -> bool:
    A = _cellset(X, A)
    return closure(X, A) == A


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
    cells = [(cid, X.dim_of(cid)) for cid in A]
    kappa = {(x, y): v for (x, y), v in X.kappa_entries.items()
             if x in A and y in A}
    return LefschetzComplex(cells, kappa, X.ring)


def enumerate_closed_sets(X: LefschetzComplex,
                          cap: int = DEFAULT_CLOSED_SET_CAP) -> list:
    """All closed sets (down-sets of the face poset), smallest first.

    Raises TooManyClosedSets when the count exceeds ``cap``: down-set
    counting is exponential in the width of the poset, so callers must
    opt in to large enumerations explicitly.
    """
    ids = [c.id for c in X.cells]  # sorted by (dim, id): a linear extension
    pos = {x: i for i, x in enumerate(ids)}
    poset = X.face_poset()
    need = []
    for x in ids:
        mask = 0
        for y in poset.below(x):
            if y != x:
                mask |= 1 << pos[y]
        need.append(mask)

    # depth-first over include/exclude decisions, excluding first; a stack
    # instead of recursion, because the depth is the number of cells
    results = []
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == len(ids):
            if len(results) >= cap:
                raise TooManyClosedSets(cap)
            results.append(chosen)
            continue
        if need[i] & chosen == need[i]:
            stack.append((i + 1, chosen | (1 << i)))
        stack.append((i + 1, chosen))
    sets = [frozenset(ids[k] for k in range(len(ids)) if mask >> k & 1)
            for mask in results]
    sets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return sets
