"""Order complexes and the singular homology of finite spaces.

The homology of the finite space carried by a complex's face order is
computed here as the homology of its order complex, whose simplices are the
chains of the face poset; McCord (Duke Math. J. 1966) shows that it is the
singular homology of the space.

:func:`finite_space_homology` first shrinks the face poset to a weak-point
core.  A point is weak when its strict down-set or up-set is contractible,
and removing one keeps the weak homotopy type of the finite space
(Barmak-Minian, "Simple homotopy types and finite spaces", Adv. Math.
2008), so the singular homology stays the same.  The core removes beat
points, which are weak, on the Hasse diagram read off the facets, so the
singular side builds no face poset.  Cells go by rank, their place in the
(dim, id) order, which extends the face order.  Chains are enumerated as
rank tuples under the simplex cap, and every boundary matrix, also of the
corollary sweep and of relative homology, is read off them.
Only :func:`order_complex` turns them into a complex, a validated
:class:`~lefhom.complexes.LefschetzComplex` with one cell per chain: the
tests' oracle of the rank routes.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .complexes import LefschetzComplex, _cellset, _cofacets, _down_sets
from .errors import TooManySimplices
from .exact import ExactMatrix, RingSpec, ZZ
from .homology import ChainSlices, HomologyProfile, complex_key, profile_from_boundaries

__all__ = [
    "SimplicialComplex",
    "order_complex",
    "weak_point_core",
    "finite_space_homology",
    "relative_finite_space_homology",
]

DEFAULT_SIMPLEX_CAP = 200_000


def _boundary(rows: Sequence[tuple], cols: Sequence[tuple]) -> ExactMatrix:
    """Each simplex of ``cols`` gives its face without vertex i, if in ``rows``, sign (-1)**i."""
    rindex = {s: i for i, s in enumerate(rows)}.get
    return ExactMatrix._wrap(len(rows), [
        {r: (1, -1)[i % 2] for i in range(len(s)) if (r := rindex(s[:i] + s[i + 1:])) is not None}
        for s in cols], ZZ)


class SimplicialComplex(LefschetzComplex):
    """The order complex of a finite space, as :func:`order_complex` builds it:
    one cell per chain, κ = (-1)**i on the face without the i-th vertex."""

    # No members of its own: perfbench/tracing.py patches this class's
    # boundary_matrix to time order-complex boundaries apart from X's.  The
    # class goes with that table (ROADMAP item 1).
    __slots__ = ()


def _poset_chains(cells: Sequence[int], down, max_simplices: int):
    """One list per dimension of the chains of the poset on ``cells``, X's
    ranks in ascending order, as rank tuples.  ``down[x]`` is the down-set of
    x among ``cells``, x included.  The chains ending at x are x, then each
    chain ending at a cell below x, in ascending rank, with x appended: so
    every list comes out by top cell, and each top cell's chains sorted by
    their reversed tuples."""
    ending, by_dim, total = {}, {}, 0
    for x in cells:
        acc = [(x,)]
        for y in sorted(down[x])[:-1]:  # x itself comes last
            acc.extend([chain + (x,) for chain in ending[y]])
        ending[x] = acc
        total += len(acc)
        if total > max_simplices:
            raise TooManySimplices(max_simplices)
        for chain in acc:
            by_dim.setdefault(len(chain) - 1, []).append(chain)
    return [by_dim[q] for q in range(len(by_dim))]  # faces of chains are chains


def order_complex(X: LefschetzComplex,
                  max_simplices: int = DEFAULT_SIMPLEX_CAP,
                  subspace: Optional[frozenset] = None) -> SimplicialComplex:
    """All non-empty chains of the face poset, as a Lefschetz complex over Z.

    A chain of q + 1 cells is a q-cell; its id is the cells' ranks, their
    places in the (dim, id) order of X, zero-padded to one width and joined
    by ``_``.  That order refines the face order, so the rank tuple orients
    the chain; κ gives the face without its i-th cell the sign (-1)**i.  The
    ids of a degree sort as the rank tuples do, lexicographically, where the
    rank routes list the same chains by top cell.  With ``subspace`` (cell
    ids of X, checked) only the chains inside it are kept: the order complex
    of that subspace of the finite space.  Chain counting is exponential in
    poset height, hence the cap.
    """
    down, cells = X.face_poset(), range(len(X))
    if subspace is not None:
        keep = set(map(X._rank.__getitem__, _cellset(X, subspace)))
        cells, down = sorted(keep), {r: down[r] & keep for r in keep}
    by_dim = _poset_chains(cells, down, max_simplices)
    width = len(str(len(X) - 1))
    digits = [f"{r:0{width}}" for r in range(len(X))]
    names, cells, kappa = {}, [], []
    for q, chains in enumerate(by_dim):
        for chain in chains:
            names[chain] = x = "_".join(map(digits.__getitem__, chain))
            cells.append((x, q))
            if q:
                kappa.extend(((x, names[chain[:i] + chain[i + 1:]]), (1, -1)[i % 2])
                             for i in range(q + 1))
    return SimplicialComplex(cells, kappa, ZZ)


def _meets(covers: list, starts, target: int, bound: int) -> bool:
    """Whether ``target`` is a live cover of a cell reached from ``starts``
    along the live ``covers``, through cells ranked strictly between
    ``target`` and ``bound`` only: ranks extend the face order, so a cell
    between two others has its rank between theirs."""
    low, high = (target, bound) if target < bound else (bound, target)
    seen, stack = set(), list(starts)
    while stack:
        w = stack.pop()
        if low < w < high and w not in seen:
            if target in covers[w]:
                return True
            seen.add(w)
            stack.extend(covers[w])
    return False


def _bypass(x: int, one: list, other: list) -> set:
    """Take x out of the live Hasse diagram, where ``one[x]`` is its only
    cover y on one side (lower covers in ``one``, upper in ``other``, or the
    reverse), and return the cells whose covers changed.

    Each cover z of x on the other side covers y from then on, unless y is
    a cover of a cell reached from z's remaining covers on y's side: then
    another cell lies between them.  No other pair can come to cover each
    other."""
    (y,) = one[x]
    other[y].discard(x)
    for z in other[x]:
        one[z].discard(x)
        if not _meets(one, one[z], y, z):
            one[z].add(y)
            other[y].add(z)
    return one[x] | other[x]


def _beat_core(X: LefschetzComplex) -> tuple:
    """The ranks of :func:`weak_point_core`, ascending, and per rank its lower
    covers, those of a core cell in the core."""
    rank = X._rank
    lower = [set(map(rank.__getitem__, X._facets[x])) for x in X._ids]
    upper = list(map(set, _cofacets(X)))
    kept = set()  # examined, and not a beat point
    heap = list(range(len(lower)))  # sorted, so already a heap
    while heap:
        x = heapq.heappop(heap)
        if len(lower[x]) == 1:
            changed = _bypass(x, lower, upper)
        elif len(upper[x]) == 1:
            changed = _bypass(x, upper, lower)
        else:
            kept.add(x)
            continue
        for y in kept & changed:  # queued again only as a beat point
            if len(lower[y]) == 1 or len(upper[y]) == 1:
                kept.discard(y)
                heapq.heappush(heap, y)
    core = sorted(kept)  # a live cell is kept, or queued
    return core, lower


def weak_point_core(X: LefschetzComplex) -> frozenset:
    """The cells left after removing beat points of the face poset one at a
    time, until none is left.

    A beat point covers exactly one cell or is covered by exactly one
    (Stong, Trans. AMS 1966).  Its strict down-set then has a maximum, or its
    strict up-set a minimum, so it is a weak point, and removing it keeps the
    weak homotopy type (Barmak, LNM 2032, 2011).  The covers are X's facets,
    so the pass runs on the live Hasse diagram (:func:`_bypass`) and builds
    no face poset.  Cells are examined smallest (dimension, id) first; a
    removal changes only the covers of the cells it names, so those of them
    already examined and kept are queued again once they are beat points,
    and the core is deterministic.

    No cell of the core has a strict down- or up-set that is a cone.  If a
    cell's strict up-set U has a maximum M, either U is {M} and the cell is
    a beat point, or a lower cover of M in U has M as its only upper cover;
    a minimum of U is the cell's only upper cover; down-sets are dual.
    """
    return frozenset([X._ids[r] for r in _beat_core(X)[0]])


def order_complex_chains(X: LefschetzComplex, ring: RingSpec) -> ChainSlices:
    """The order complex of X as slices keyed by top cell: the order complex
    of a closed set A is the chains whose top cell lies in A, so
    ``profile(A)`` is the finite-space homology of A.

    Each degree lists its chains by the rank of their top cell, as
    :func:`_poset_chains` builds them.  So the rows of a chain's boundary
    column that share its top cell are the highest, the row order that a
    filtration by closed sets needs.  ``homology.IncrementalReducer`` is
    exact in any row order, since every ready pivot sits in its table; in
    this one its essential columns meet no ready pivot on any input tried,
    the tests' oracle inputs and sweep draws among them.  The corollary
    stacks these degrees above X's, as many or fewer."""
    by_dim = _poset_chains(range(len(X)), X.face_poset(), DEFAULT_SIMPLEX_CAP)
    return ChainSlices(ring, [[X._ids[chain[-1]] for chain in chains] for chains in by_dim],
                       [_boundary(by_dim[q - 1] if q else (), chains)._cols
                        for q, chains in enumerate(by_dim)], ZZ)


def space_key(X: LefschetzComplex) -> tuple:
    """The key of X's finite space in a ``homology.ClosureMemo``: X's content
    keyed with every κ value 1 (``homology.complex_key``), which keeps the
    Hasse diagram in ranks, each rank's ascending facet ranks, and the
    grading, then the tag ``"space"``.  Without the tag, a complex whose
    values are all 1 would key its space as a closure of its content: a lone
    1-cell with no facets has chain homology H_1 = Z, and its space is a
    point."""
    return (*complex_key(X, unit=True), "space")


def finite_space_homology(X: LefschetzComplex, ring: Optional[RingSpec] = None,
                          max_simplices: int = DEFAULT_SIMPLEX_CAP) -> HomologyProfile:
    """Singular homology of the finite space of X, via its order complex.

    Only the chains of :func:`weak_point_core` are enumerated, from
    down-sets built on the core's own lower covers, and their boundaries
    assembled directly: removing a weak point keeps the weak homotopy type
    (Barmak-Minian 2008), hence by McCord the singular homology.  No face
    poset is built.  ``max_simplices`` caps the core's chains, not the
    poset's.
    """
    ring = X.ring if ring is None else ring
    core, lower = _beat_core(X)
    by_dim = _poset_chains(core, _down_sets(core, lower), max_simplices)
    return profile_from_boundaries(ring, [len(chains) for chains in by_dim],
                                   lambda q: _boundary(by_dim[q - 1], by_dim[q]))


def relative_finite_space_homology(X: LefschetzComplex, subspace: Iterable,
                                   ring: Optional[RingSpec] = None,
                                   max_simplices: int = DEFAULT_SIMPLEX_CAP) -> HomologyProfile:
    """Relative singular homology of (X, A) for an arbitrary subspace A.

    A needs no closure property: its order complex is the full subcomplex
    of the ambient order complex on the cells of A, so the quotient keeps
    the chains with a cell outside A, and each boundary its faces among them.
    """
    ring = X.ring if ring is None else ring
    subspace = _cellset(X, subspace)
    outside = {r for r, x in enumerate(X._ids) if x not in subspace}
    rel = [[chain for chain in chains if not outside.isdisjoint(chain)]
           for chains in _poset_chains(range(len(X)), X.face_poset(), max_simplices)]
    return profile_from_boundaries(ring, [len(chains) for chains in rel],
                                   lambda q: _boundary(rel[q - 1], rel[q]))
