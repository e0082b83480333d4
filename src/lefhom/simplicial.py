"""Order complexes and simplicial homology.

The homology of the finite space carried by a complex's face order is
computed here as simplicial homology of the order complex, whose simplices
are the chains of the face poset; McCord (Duke Math. J. 1966) shows that it
is the singular homology of the space.

:func:`finite_space_homology` first shrinks the face poset to a weak-point
core.  A point is weak when its strict down-set or up-set is contractible,
and removing one keeps the weak homotopy type of the finite space
(Barmak-Minian, "Simple homotopy types and finite spaces", Adv. Math.
2008), so the singular homology stays the same.  Cells go by rank, their
place in the (dim, id) order, which extends the face order.  Chains are
enumerated as rank tuples under the simplex cap, and every boundary matrix,
also of the corollary sweep and of relative homology, is read off them;
only :func:`order_complex` turns them into a ``SimplicialComplex``.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .complexes import LefschetzComplex
from .errors import TooManySimplices, UnknownCellReference
from .exact import ExactMatrix, RingSpec, ZZ
from .homology import ChainSlices, HomologyProfile, profile_from_boundaries

__all__ = [
    "SimplicialComplex",
    "order_complex",
    "weak_point_core",
    "simplicial_homology",
    "relative_simplicial_homology",
    "finite_space_homology",
    "relative_finite_space_homology",
]

DEFAULT_SIMPLEX_CAP = 200_000


def _boundary(rows: Sequence[tuple], cols: Sequence[tuple]) -> ExactMatrix:
    """Each simplex of ``cols`` gives its face without vertex i the sign (-1)**i."""
    rindex = {s: i for i, s in enumerate(rows)}
    return ExactMatrix._wrap(len(rows), [
        {rindex[s[:i] + s[i + 1:]]: (1, -1)[i % 2] for i in range(len(s)) if rindex}
        for s in cols], ZZ)


class SimplicialComplex:
    """Finite family of non-empty vertex sets closed under taking subsets.

    A fixed linear order on the vertices orients every simplex; simplices
    are stored as tuples sorted by that order, and boundary signs are the
    usual alternating signs on vertex deletion.
    """

    __slots__ = ("vertex_order", "_pos", "_simplices", "_by_dim")

    def __init__(self, simplices: Iterable, vertex_order: Optional[Sequence[str]] = None):
        families = {frozenset(s) for s in simplices}
        if frozenset() in families:
            raise ValueError("the empty simplex is not allowed")
        vertices = set()
        for s in families:
            vertices |= s
        if vertex_order is None:
            vertex_order = sorted(vertices)
        else:
            if not vertices <= set(vertex_order):
                raise ValueError("vertex_order misses some vertices")
            vertex_order = [v for v in vertex_order]
        self.vertex_order = tuple(vertex_order)
        self._pos = {v: i for i, v in enumerate(self.vertex_order)}
        if len(self._pos) != len(self.vertex_order):
            raise ValueError("vertex_order has repeats")

        # closure under non-empty subsets, checked not repaired
        for s in families:
            if len(s) > 1:
                for v in s:
                    if s - {v} not in families:
                        raise ValueError(f"missing face {sorted(s - {v})} of {sorted(s)}")
        self._simplices = frozenset(families)
        by_dim = {}  # simplices as ascending vertex positions, sorted as such
        for s in families:
            by_dim.setdefault(len(s) - 1, []).append(sorted(map(self._pos.__getitem__, s)))
        order = self.vertex_order
        self._by_dim = {q: tuple([tuple([order[i] for i in p]) for p in sorted(sims)])
                        for q, sims in by_dim.items()}

    @classmethod
    def from_maximal(cls, faces: Iterable, vertex_order=None) -> "SimplicialComplex":
        closed = set()
        for face in faces:
            face = frozenset(face)
            for size in range(1, len(face) + 1):
                closed.update(map(frozenset, combinations(face, size)))
        return cls(closed, vertex_order)

    @property
    def simplices(self) -> frozenset:
        return self._simplices

    @property
    def dim(self) -> int:
        return max(self._by_dim, default=-1)

    def simplices_of_dim(self, q: int) -> tuple:
        return self._by_dim.get(q, ())

    def __len__(self) -> int:
        return len(self._simplices)

    def __contains__(self, simplex) -> bool:
        return frozenset(simplex) in self._simplices

    def full_subcomplex(self, vertices: Iterable) -> "SimplicialComplex":
        keep = set(vertices)
        order = [v for v in self.vertex_order if v in keep]
        return SimplicialComplex((s for s in self._simplices if s <= keep), order)

    def boundary_matrix(self, q: int, ring: RingSpec = ZZ) -> ExactMatrix:
        """Boundary from degree q to q-1 over ``ring``: deleting vertex i
        of a simplex gives its face the sign (-1)**i; vertices have none."""
        return _boundary(self.simplices_of_dim(q - 1), self.simplices_of_dim(q)).cast(ring)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self._simplices == other._simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self._simplices)} simplices, dim {self.dim})"


def _poset_chains(X: LefschetzComplex, subspace: Optional[frozenset], max_simplices: int):
    """The cell ids, the ranks in ``subspace`` (all when None) and, one list
    per dimension, the chains inside it as rank tuples.  The chains starting
    at x are x, then each chain starting at a cell above x, in ascending
    rank: so every list comes out sorted, as ``SimplicialComplex`` sorts."""
    poset = X.face_poset()
    cells = [r for r, x in enumerate(poset._ids) if subspace is None or x in subspace]
    up, keep = poset._up, set(cells)
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
    return poset._ids, cells, [by_dim[q] for q in range(len(by_dim))]  # faces of chains are chains


def order_complex(X: LefschetzComplex,
                  max_simplices: int = DEFAULT_SIMPLEX_CAP,
                  subspace: Optional[frozenset] = None) -> SimplicialComplex:
    """All non-empty chains of the face poset, as a simplicial complex.

    The vertex order lists cells by (dimension, id); on every chain it
    refines the face order, so chain tuples are consistently oriented.
    With ``subspace`` (a set of cell ids) only the chains inside it are
    kept: the order complex of that subspace of the finite space.
    Chain counting is exponential in poset height, hence the cap.
    """
    ids, cells, by_dim = _poset_chains(X, subspace, max_simplices)
    return SimplicialComplex((map(ids.__getitem__, chain) for chains in by_dim for chain in chains),
                             vertex_order=[ids[r] for r in cells])


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
    down, up = poset._down, poset._up
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
    return frozenset([poset._ids[r] for r in live])


def simplicial_homology(K: SimplicialComplex, ring: RingSpec = ZZ) -> HomologyProfile:
    """Homology of the simplicial chain complex with alternating signs."""
    sizes = [len(K.simplices_of_dim(q)) for q in range(K.dim + 1)]
    return profile_from_boundaries(ring, sizes, K.boundary_matrix)


def relative_simplicial_homology(K: SimplicialComplex, L: SimplicialComplex,
                                 ring: RingSpec = ZZ) -> HomologyProfile:
    """Homology of the quotient chain complex C(K)/C(L) for a subcomplex L.

    Unlike the cell-complex side there is no open-complement shortcut here:
    the rows and columns of L are deleted from K's boundary matrices.
    """
    if not L.simplices <= K.simplices:
        raise ValueError("relative homology needs a subcomplex")
    simplices = [K.simplices_of_dim(q) for q in range(K.dim + 1)]
    return ChainSlices(ring, simplices, K.boundary_matrix).profile(
        s for sims in simplices for s in sims if s not in L)


def _rank_slices(by_dim: list, ring: RingSpec, keys: list) -> ChainSlices:
    """The chain complex of the rank chains ``by_dim``, generators named by ``keys``."""
    return ChainSlices(ring, keys, lambda q: _boundary(by_dim[q - 1] if q else (), by_dim[q]))


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
    tried."""
    ids, _, by_dim = _poset_chains(X, None, DEFAULT_SIMPLEX_CAP)
    by_dim = [sorted(chains, key=itemgetter(-1)) for chains in by_dim]
    return _rank_slices(by_dim, ring, [[ids[chain[-1]] for chain in chains] for chains in by_dim])


def finite_space_homology(X: LefschetzComplex, ring: Optional[RingSpec] = None,
                          max_simplices: int = DEFAULT_SIMPLEX_CAP) -> HomologyProfile:
    """Singular homology of the finite space of X, via its order complex.

    Only the chains of :func:`weak_point_core` are enumerated, and their
    boundaries assembled directly: removing a weak point keeps the weak
    homotopy type (Barmak-Minian 2008), hence by McCord the singular
    homology.  ``max_simplices`` caps the core's chains, not the poset's.
    """
    ring = X.ring if ring is None else ring
    _, _, by_dim = _poset_chains(X, weak_point_core(X), max_simplices)
    return profile_from_boundaries(ring, [len(chains) for chains in by_dim],
                                   lambda q: _boundary(by_dim[q - 1], by_dim[q]))


def relative_finite_space_homology(X: LefschetzComplex, subspace: Iterable,
                                   ring: Optional[RingSpec] = None,
                                   max_simplices: int = DEFAULT_SIMPLEX_CAP) -> HomologyProfile:
    """Relative singular homology of (X, A) for an arbitrary subspace A.

    A needs no closure property: its order complex is the full subcomplex
    of the ambient order complex on the cells of A, so the quotient keeps
    the chains with a cell outside A.
    """
    ring = X.ring if ring is None else ring
    subspace = frozenset(subspace)
    unknown = subspace - X.cell_ids
    if unknown:
        raise UnknownCellReference(f"not cells of the complex: {sorted(unknown)}")
    ids, _, by_dim = _poset_chains(X, None, max_simplices)
    outside = {r for r, x in enumerate(ids) if x not in subspace}
    return _rank_slices(by_dim, ring, by_dim).profile(
        chain for chains in by_dim for chain in chains if not outside.isdisjoint(chain))
