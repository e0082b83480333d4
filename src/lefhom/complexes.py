"""Lefschetz complexes: graded cells with incidence coefficients.

A complex is a finite set of cells, each carrying a non-negative
dimension, plus a sparse incidence map ``kappa``.  ``kappa(x, y)`` may be
nonzero only when ``dim x == dim y + 1``, and for every cell pair (x, z)
the products over intermediate cells must cancel:

    sum_y  kappa(x, y) * kappa(y, z)  ==  0

(the matrix statement that the boundary of a boundary vanishes).  Both
conditions are validated eagerly at construction; every downstream module
relies on them.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import (
    DuplicateCellId,
    GradingViolation,
    InvalidCellId,
    KappaConditionViolation,
    UnknownCellReference,
)
from .exact import ExactMatrix, RingSpec, _admit

__all__ = ["Cell", "LefschetzComplex", "build_complex", "is_augmentable"]

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")

# Highest cell dimension a complex may have: a complex keeps one degree start
# per degree and reports list every degree up to the top one, so an absurd
# dimension would otherwise run for ever.
MAX_LEF_DIM = 1000


class Cell(NamedTuple):
    id: str
    dim: int


def _down_sets(order: Iterable[int], lower) -> dict:
    """Rank -> down-set, for each rank x of ``order``, which lists every cell
    after its lower covers ``lower[x]``: x and its covers' down-sets, as a
    frozenset.  The one loop that builds down-sets, of X's face poset and of
    a weak-point core's."""
    down = {}
    for x in order:
        faces = {x}
        for y in lower[x]:
            faces |= down[y]
        down[x] = frozenset(faces)
    return down


def _graded(dims: Mapping[str, int]) -> tuple:
    """The ids in (dim, id) order, which extends the face order, and where each
    degree 0..top starts in it, empty degrees too, then the cell count."""
    ids = tuple(sorted(sorted(dims), key=dims.__getitem__))  # a stable sort: by id in a degree
    top = dims[ids[-1]] if ids else -1
    return ids, [bisect_left(ids, q, key=dims.__getitem__) for q in range(top + 1)] + [len(ids)]


def _checked_dims(cells: list) -> dict:
    """{id: dim} of the (id, dim) pairs, the first bad pair raised, a
    dimension above ``MAX_LEF_DIM`` included.  The pairs are checked all at
    once; only pairs that fail that are walked one by one, which raises the
    first error in their order, or admits what the checks at once leave out:
    no cells, or a subclass of int as a dimension."""
    try:
        dims = dict(cells)
        every_id = "".join(dims)
    except (TypeError, ValueError):  # not pairs, or an id that is not a str
        pass
    else:
        # non-empty ids over the alphabet; dims of type int, so no bool
        if (len(dims) == len(cells) and all(dims) and _ID_RE.match(every_id)
                and set(map(type, dims.values())) == {int}
                and 0 <= min(dims.values()) and max(dims.values()) <= MAX_LEF_DIM):
            return dims
    dims = {}
    valid_id = _ID_RE.match
    for cell in cells:
        cid, dim = cell
        if not isinstance(cid, str) or not valid_id(cid):
            raise InvalidCellId(f"bad cell id {cid!r} (want [A-Za-z0-9_]+)")
        # a bool is an int, but render_lef would write it as True or False
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise InvalidCellId(f"cell {cid!r} has bad dimension {dim!r}")
        if dim > MAX_LEF_DIM:
            raise InvalidCellId(f"cell {cid!r} has dimension {dim}, above the maximum {MAX_LEF_DIM}")
        if cid in dims:
            raise DuplicateCellId(f"cell id {cid!r} declared twice")
        dims[cid] = dim
    return dims


class LefschetzComplex:
    """Validated, immutable Lefschetz complex over a :class:`RingSpec`.

    Construction performs the full validation (id sanity, grading, and the
    incidence-product condition).  ``_of_valid`` takes a store that is valid
    already, such as a locally closed part of a complex's, unchecked.
    ``_adopt`` builds the (dim, id) cell order once (:func:`_graded`);
    boundary matrices and the face poset are memoized, write-once.
    """

    __slots__ = ("ring", "_dims", "_facets", "_ids", "_starts", "_rank", "_poset",
                 "_boundary_cache")

    def __init__(self, cells: Iterable, kappa, ring: RingSpec):
        dims = _checked_dims(list(cells))

        items = kappa.items() if isinstance(kappa, Mapping) else kappa
        # the one store of kappa: cell -> {facet: nonzero value}
        facets = {x: {} for x in dims}
        p, convert, dim_of = ring.p, ring.convert, dims.get
        plain = ring.kind != "Q"  # an int is an element of Z, and of F_p once reduced
        for (x, y), value in items:
            if (dx := dim_of(x)) is None:  # a known cell's dimension is an int
                raise UnknownCellReference(f"kappa references unknown cell {x!r}")
            if (dy := dim_of(y)) is None:
                raise UnknownCellReference(f"kappa references unknown cell {y!r}")
            if plain and type(value) is int:
                if p:
                    value %= p
            else:
                value = convert(value)
            if not value:
                continue
            if dx != dy + 1:
                raise GradingViolation(x, y, dx, dy)
            row = facets[x]
            if y in row:
                raise DuplicateCellId(f"kappa({x}, {y}) given twice")
            row[y] = value

        # boundary of boundary, cell by cell, in plain int/Fraction sums; over
        # F_p only the total is reduced.  facets has dims' key order, and the
        # facets of a cell below dimension 2 are 0-cells, which have no facets.
        for (x, mids), dim in zip(facets.items(), dims.values()):
            if dim < 2:
                continue
            acc = {}
            for y, v in mids.items():
                for z, w in facets[y].items():
                    acc[z] = acc.get(z, 0) + v * w
            for z, total in acc.items():
                total = total % p if p else total
                if total:
                    raise KappaConditionViolation(x, z, total)
        self._adopt(ring, dims, facets)

    @classmethod
    def _of_valid(cls, ring: RingSpec, dims: dict, facets: dict) -> "LefschetzComplex":
        """The complex of a store that is valid already, such as a locally
        closed part of a validated complex's: taken as it is, unchecked."""
        self = cls.__new__(cls)
        self._adopt(ring, dims, facets)
        return self

    def _adopt(self, ring: RingSpec, dims: dict, facets: dict) -> None:
        self.ring, self._dims, self._facets = ring, dims, facets
        self._ids, self._starts = _graded(dims)
        self._rank = dict(zip(self._ids, range(len(dims))))
        self._poset, self._boundary_cache = None, {}

    # -- cell access ---------------------------------------------------

    @property
    def cells(self) -> tuple:
        """All cells sorted by (dim, id), built when read."""
        return tuple(Cell(x, self._dims[x]) for x in self._ids)

    @property
    def cell_ids(self) -> frozenset:
        return frozenset(self._dims)

    def __len__(self) -> int:
        return len(self._dims)

    def __contains__(self, cid: str) -> bool:
        return cid in self._dims

    def dim_of(self, cid: str) -> int:
        """The dimension of a cell; an unknown id is refused by :func:`_cellset`."""
        _cellset(self, (cid,))
        return self._dims[cid]

    @property
    def top_dim(self) -> int:
        return len(self._starts) - 2

    def cells_of_dim(self, q: int) -> tuple:
        starts = self._starts
        return self._ids[starts[q]:starts[q + 1]] if 0 <= q < len(starts) - 1 else ()

    # -- incidence data --------------------------------------------------

    @property
    def kappa_entries(self):
        """Read-only {(x, y): value} of the nonzero incidences, built when read."""
        return MappingProxyType({(x, y): v for x, ys in self._facets.items()
                                 for y, v in ys.items()})

    def kappa(self, x: str, y: str):
        self.dim_of(x)
        self.dim_of(y)
        return self._facets[x].get(y, self.ring.convert(0))

    def facets(self, x: str) -> frozenset:
        self.dim_of(x)
        return frozenset(self._facets[x])

    def boundary_matrix(self, q: int) -> ExactMatrix:
        """Boundary from degree q to q-1; rows/columns in sorted-id order."""
        mat = self._boundary_cache.get(q)
        if mat is None:
            rows, cols = self.cells_of_dim(q - 1), self.cells_of_dim(q)
            start, rank = self._starts[q - 1] if rows else 0, self._rank
            # a row is its cell's rank past degree q - 1's start; facet values
            # were converted and checked nonzero at construction
            mat = ExactMatrix._wrap(len(rows), [
                {rank[y] - start: v for y, v in self._facets[x].items()} for x in cols], self.ring)
            self._boundary_cache[q] = mat
        return mat

    def face_poset(self) -> dict:
        """The face poset as its down-sets (:func:`_down_sets`): rank -> the
        frozenset of the ranks of the cell's faces, itself included.  A
        cell's rank is its place in ``_ids``; ranks are not checked here, so
        callers check ids with :func:`_cellset` first."""
        if self._poset is None:
            rank, facets = self._rank.__getitem__, self._facets
            # each cell's facet ranks are read once, so a lazy map serves
            self._poset = _down_sets(range(len(self._ids)), [map(rank, facets[x]) for x in self._ids])
        return self._poset

    # -- misc --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, LefschetzComplex)
                and self.ring == other.ring
                and self._dims == other._dims
                and self._facets == other._facets)

    def __repr__(self) -> str:
        return (f"LefschetzComplex({len(self._dims)} cells, "
                f"top dim {self.top_dim}, ring {self.ring})")


def _cellset(X: LefschetzComplex, A: Iterable) -> frozenset:
    """A as a frozenset, once each of its ids names a cell of X: the one
    check of a queried id, for every function and ``--closed``."""
    A = frozenset(A)
    unknown = A.difference(X._dims)
    if unknown:
        raise UnknownCellReference(f"not cells of the complex: {sorted(unknown)}")
    return A


def _cofacets(X: LefschetzComplex) -> list:
    """Per rank, the ascending ranks of its cofacets: X's facets read upward."""
    rank = X._rank
    cofacets = [[] for _ in X._ids]
    for r, x in enumerate(X._ids):
        for y in X._facets[x]:
            cofacets[rank[y]].append(r)
    return cofacets


def _admitted(X: LefschetzComplex, ring: Optional[RingSpec]) -> RingSpec:
    """``ring``, X's own when None, once X's κ rows are admitted into it in
    (dim, id) order: the one ring check of every entry point that reads κ."""
    ring = X.ring if ring is None else ring
    _admit(X.ring, ring, map(X._facets.__getitem__, X._ids))
    return ring


def is_augmentable(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> bool:
    """True when every 1-cell's facet coefficients sum to zero.

    That is exactly the condition for the all-ones functional on 0-cells to
    annihilate the degree-1 boundary; vacuously true without 1-cells.
    """
    ring = _admitted(X, ring)
    # _admit refused each value ring cannot hold, so each sum converts as its terms do
    return not any(ring.convert(sum(col.values())) for col in X.boundary_matrix(1)._cols)


def build_complex(cells: Iterable, kappa_entries, ring: RingSpec) -> LefschetzComplex:
    """Validate and build a complex from (id, dim) pairs and a kappa mapping."""
    return LefschetzComplex(cells, kappa_entries, ring)
