"""Order complexes and the singular homology of finite spaces.

The homology of the finite space carried by a complex's face order is
computed here as the homology of its order complex, whose simplices are the
chains of the face poset; McCord (Duke Math. J. 1966) shows that it is the
singular homology of the space.

:func:`finite_space_homology` first shrinks the face poset to a weak-point
core.  A point is weak when its strict down-set or up-set is contractible,
and removing one keeps the weak homotopy type of the finite space
(Barmak-Minian, "Simple homotopy types and finite spaces", Adv. Math.
2008), so the singular homology stays the same.  Cells go by rank, their
place in the (dim, id) order, which extends the face order.  Chains are
enumerated as rank tuples under the simplex cap, and every boundary matrix,
also of the corollary sweep and of relative homology, is read off them.
Only :func:`order_complex` turns them into a complex, a validated
:class:`~lefhom.complexes.LefschetzComplex` with one cell per chain: the
tests' oracle of the rank routes.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .complexes import LefschetzComplex, _cellset
from .errors import TooManySimplices
from .exact import ExactMatrix, RingSpec, ZZ
from .homology import ChainSlices, HomologyProfile, profile_from_boundaries

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


def _poset_chains(X: LefschetzComplex, subspace: Optional[frozenset], max_simplices: int):
    """One list per dimension of the chains inside ``subspace`` (all cells
    when None) as tuples of X's ranks.  The chains starting at x are x,
    then each chain starting at a cell above x, in ascending rank: so every
    list comes out sorted."""
    cells = [r for r, x in enumerate(X._ids) if subspace is None or x in subspace]
    up, keep = X.face_poset().up, set(cells)
    starting = {}
    total = 0
    for x in reversed(cells):
        acc = [(x,)]
        for y in sorted(up[x] & keep)[1:]:  # x itself comes first
            acc.extend([(x,) + chain for chain in starting[y]])
        starting[x] = acc
        total += len(acc)
        if total > max_simplices:
            raise TooManySimplices(max_simplices)
    by_dim = {}
    for x in cells:
        for chain in starting[x]:
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
    ids of a degree sort as the rank tuples do, so the boundary matrices are
    those that the rank routes assemble, column for column.  With
    ``subspace`` (cell ids of X, checked) only the chains inside it are kept:
    the order complex of that subspace of the finite space.  Chain counting
    is exponential in poset height, hence the cap.
    """
    subspace = subspace if subspace is None else _cellset(X, subspace)
    by_dim = _poset_chains(X, subspace, max_simplices)
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


def weak_point_core(X: LefschetzComplex) -> frozenset:
    """The cells left after removing weak points of the face poset one at a
    time, until none is left.

    A cell is taken as weak when its strict down-set or strict up-set in the
    live poset is non-empty and has a maximum or a minimum: such a set is a
    cone, so it is contractible.  Cells are examined smallest (dimension,
    id) first.  A removal changes only the strict down- and up-sets of the
    cells comparable to it, so those of them already examined and kept are
    queued again; the core is deterministic.
    """
    poset = X.face_poset()
    down, up = poset.down, poset.up
    live = set(range(len(down)))
    kept = set()  # live, examined, and not weak at the last examination
    heap = sorted(live)  # sorted, so already a heap
    while heap:
        x = heapq.heappop(heap)
        for strict in (down[x], up[x]):
            rest = live & strict
            rest.discard(x)
            # ranks extend the face order: a maximum has the top rank, a minimum the bottom
            if rest and (rest <= down[max(rest)] or rest <= up[min(rest)]):
                live.discard(x)
                for comparable in (down[x], up[x]):
                    woken = kept & comparable
                    kept -= woken
                    for y in woken:
                        heapq.heappush(heap, y)
                break
        else:
            kept.add(x)
    return frozenset([X._ids[r] for r in live])


def order_complex_chains(X: LefschetzComplex, ring: RingSpec) -> ChainSlices:
    """The order complex of X as slices keyed by top cell: the order complex
    of a closed set A is the chains whose top cell lies in A, so
    ``profile(A)`` is the finite-space homology of A.

    Each degree lists its chains by the rank of their top cell, a stable
    sort of the lexicographic order.  So the rows of a chain's boundary
    column that share its top cell are the highest, the row order that a
    filtration by closed sets needs.  ``homology.IncrementalReducer`` is
    exact in any row order, since every ready pivot sits in its table; in
    this one its essential columns have met no ready pivot on any input
    tried.  The corollary stacks these degrees above X's, as many or fewer."""
    by_dim = [sorted(chains, key=itemgetter(-1))
              for chains in _poset_chains(X, None, DEFAULT_SIMPLEX_CAP)]
    return ChainSlices(ring, [[X._ids[chain[-1]] for chain in chains] for chains in by_dim],
                       [_boundary(by_dim[q - 1] if q else (), chains)._cols
                        for q, chains in enumerate(by_dim)], ZZ)


def finite_space_homology(X: LefschetzComplex, ring: Optional[RingSpec] = None,
                          max_simplices: int = DEFAULT_SIMPLEX_CAP) -> HomologyProfile:
    """Singular homology of the finite space of X, via its order complex.

    Only the chains of :func:`weak_point_core` are enumerated, and their
    boundaries assembled directly: removing a weak point keeps the weak
    homotopy type (Barmak-Minian 2008), hence by McCord the singular
    homology.  ``max_simplices`` caps the core's chains, not the poset's.
    """
    ring = X.ring if ring is None else ring
    by_dim = _poset_chains(X, weak_point_core(X), max_simplices)
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
           for chains in _poset_chains(X, None, max_simplices)]
    return profile_from_boundaries(ring, [len(chains) for chains in rel],
                                   lambda q: _boundary(rel[q - 1], rel[q]))
