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
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import (
    DuplicateCellId,
    GradingViolation,
    InvalidCellId,
    KappaConditionViolation,
    UnknownCellReference,
)
from .exact import ExactMatrix, RingSpec

__all__ = ["Cell", "LefschetzComplex", "FacePoset", "build_complex", "is_augmentable"]

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int


class FacePoset:
    """Reflexive-transitive closure of the facet relation of a complex.

    ``below(x)`` is the set of faces of x (including x itself); ``above(x)``
    the dual: ``y in below(x)`` exactly when ``x in above(y)``.  Antisymmetry
    is automatic because a strict face has strictly smaller dimension.
    Both are stored once, as frozensets of ranks (positions in the (dim, id)
    cell order, which extends the face order): the public methods translate
    to ids, ``topology``, ``simplicial`` and ``theorem`` read the ranks.  ``topology``'s
    closed-set walk also reads ``_cofacets``: each cell's cofacet ranks, ascending.
    """

    __slots__ = ("_ids", "_rank", "_down", "_up", "_cofacets")

    def __init__(self, ids: Iterable[str], facets: Mapping[str, Iterable[str]]):
        self._ids = ids = tuple(ids)
        self._rank = rank = {x: r for r, x in enumerate(ids)}
        down, cofacets = [], [[] for _ in ids]
        for r, x in enumerate(ids):
            faces = {r}
            for y in facets[x]:
                s = rank[y]
                faces |= down[s]
                cofacets[s].append(r)
            down.append(frozenset(faces))
        up = [None] * len(ids)
        for r in reversed(range(len(ids))):
            cofaces = {r}
            for c in cofacets[r]:
                cofaces |= up[c]
            up[r] = frozenset(cofaces)
        self._down, self._up, self._cofacets = down, up, cofacets

    @property
    def elements(self) -> tuple:
        return tuple(sorted(self._ids))

    def _union(self, xs: Iterable[str], sets: list) -> frozenset:
        """The ids in the union of ``sets`` (the down- or up-sets) over the cells xs."""
        rank, ids, out = self._rank, self._ids, set()
        for x in xs:
            if x not in rank:
                raise UnknownCellReference(f"cell {x!r} not in poset")
            out |= sets[rank[x]]
        return frozenset([ids[r] for r in out])

    def below(self, x: str) -> frozenset:
        return self._union((x,), self._down)

    def above(self, x: str) -> frozenset:
        return self._union((x,), self._up)

    def leq(self, a: str, b: str) -> bool:
        """True when a is a face of b."""
        return a in self.below(b)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FacePoset) and set(self._ids) == set(other._ids)
                and all(self.below(x) == other.below(x) for x in self._ids))

    def __repr__(self) -> str:
        return f"FacePoset({len(self._ids)} elements)"


class LefschetzComplex:
    """Validated, immutable Lefschetz complex over a :class:`RingSpec`.

    Construction performs the full validation (id sanity, grading, and the
    incidence-product condition).  Boundary matrices and the face poset are
    memoized per instance, write-once.
    """

    __slots__ = ("ring", "_dims", "_by_dim", "_facets", "_cells", "_poset", "_boundary_cache")

    def __init__(self, cells: Iterable, kappa, ring: RingSpec):
        self.ring = ring
        self._dims = {}
        for cell in cells:
            cid, dim = (cell.id, cell.dim) if isinstance(cell, Cell) else cell
            if not isinstance(cid, str) or not _ID_RE.match(cid):
                raise InvalidCellId(f"bad cell id {cid!r} (want [A-Za-z0-9_]+)")
            if not isinstance(dim, int) or dim < 0:
                raise InvalidCellId(f"cell {cid!r} has bad dimension {dim!r}")
            if cid in self._dims:
                raise DuplicateCellId(f"cell id {cid!r} declared twice")
            self._dims[cid] = dim

        items = kappa.items() if isinstance(kappa, Mapping) else kappa
        # the one store of kappa: cell -> {facet: nonzero value}
        facets = self._facets = {x: {} for x in self._dims}
        p = ring.p
        plain = ring.kind != "Q"  # an int is an element of Z, and of F_p once reduced
        for (x, y), value in items:
            for ref in (x, y):
                if ref not in self._dims:
                    raise UnknownCellReference(f"kappa references unknown cell {ref!r}")
            if plain and type(value) is int:
                if p:
                    value %= p
            else:
                value = ring.convert(value)
            if not value:
                continue
            if self._dims[x] != self._dims[y] + 1:
                raise GradingViolation(x, y, self._dims[x], self._dims[y])
            if y in facets[x]:
                raise DuplicateCellId(f"kappa({x}, {y}) given twice")
            facets[x][y] = value

        self._check_kappa_condition()

        by_dim = {}
        for cid, dim in self._dims.items():
            by_dim.setdefault(dim, []).append(cid)
        self._by_dim = {d: tuple(sorted(ids)) for d, ids in by_dim.items()}
        self._cells = None
        self._poset = None
        self._boundary_cache = {}

    def _check_kappa_condition(self):
        p = self.ring.p  # plain int/Fraction sums; over F_p only the total is reduced
        for x, mids in self._facets.items():
            acc = {}
            for y, v in mids.items():
                for z, w in self._facets[y].items():
                    acc[z] = acc.get(z, 0) + v * w
            for z, total in acc.items():
                total = total % p if p else total
                if total:
                    raise KappaConditionViolation(x, z, total)

    # -- cell access ---------------------------------------------------

    @property
    def cells(self) -> tuple:
        """All cells sorted by (dim, id), built once."""
        if self._cells is None:
            self._cells = tuple(Cell(cid, dim) for dim, cid
                                in sorted((d, c) for c, d in self._dims.items()))
        return self._cells

    @property
    def cell_ids(self) -> frozenset:
        return frozenset(self._dims)

    def __len__(self) -> int:
        return len(self._dims)

    def __contains__(self, cid: str) -> bool:
        return cid in self._dims

    def dim_of(self, cid: str) -> int:
        try:
            return self._dims[cid]
        except KeyError:
            raise UnknownCellReference(f"cell {cid!r} not in complex") from None

    @property
    def top_dim(self) -> int:
        return max(self._dims.values(), default=-1)

    def cells_of_dim(self, q: int) -> tuple:
        return self._by_dim.get(q, ())

    # -- incidence data --------------------------------------------------

    @property
    def kappa_entries(self):
        """Read-only {(x, y): value} of the nonzero incidences, built when read."""
        return MappingProxyType({(x, y): v for x, ys in self._facets.items()
                                 for y, v in ys.items()})

    def kappa(self, x: str, y: str):
        self.dim_of(x)
        self.dim_of(y)
        return self._facets[x].get(y, self.ring.zero())

    def facets(self, x: str) -> frozenset:
        self.dim_of(x)
        return frozenset(self._facets[x])

    def boundary_matrix(self, q: int) -> ExactMatrix:
        """Boundary from degree q to q-1; rows/columns in sorted-id order."""
        mat = self._boundary_cache.get(q)
        if mat is None:
            rows = self.cells_of_dim(q - 1)
            cols = self.cells_of_dim(q)
            rindex = {y: i for i, y in enumerate(rows)}
            # facet values were converted and checked nonzero at construction
            mat = ExactMatrix._wrap(len(rows), [{rindex[y]: v for y, v in self._facets[x].items()}
                                                for x in cols], self.ring)
            self._boundary_cache[q] = mat
        return mat

    def face_poset(self) -> FacePoset:
        if self._poset is None:
            self._poset = FacePoset([c.id for c in self.cells], self._facets)
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


def is_augmentable(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> bool:
    """True when every 1-cell's facet coefficients sum to zero.

    That is exactly the condition for the all-ones functional on 0-cells to
    annihilate the degree-1 boundary; vacuously true without 1-cells.
    """
    ring = X.ring if ring is None else ring
    p = ring.p
    # X's values are ints unless X is over Q; only Fractions need the checks
    # of converting into another ring, and sums are plain until the zero test
    convert = ring.convert if X.ring.kind == "Q" and ring.kind != "Q" else None
    for col in X.boundary_matrix(1)._cols:
        total = sum(col.values() if convert is None else map(convert, col.values()))
        if total % p if p else total:
            return False
    return True


def build_complex(cells: Iterable, kappa_entries, ring: RingSpec) -> LefschetzComplex:
    """Validate and build a complex from (id, dim) pairs and a kappa mapping."""
    return LefschetzComplex(cells, kappa_entries, ring)
