"""Homology of Lefschetz complexes: absolute, relative, excision, exactness.

A profile comes out of one compressed pass up through the degrees of a
chain complex (:func:`profile_from_boundaries`), whose boundaries are
reduced by :mod:`lefhom.exact`, the owner of the ring policy.  Changing
the coefficient ring never rebuilds the complex: matrices are cast
entry-wise, so the cell basis and the face order stay those of the stored
complex.  A :class:`ChainSlices` cuts the complex spanned by any set of
generators out of one chain complex, so closed sets are profiled without
complexes of their own.

Relative homology of a closed subset is *defined* through the open
complement, rebuilt as a complex (the excision route);
:func:`excision_check` recomputes it a second time as a slice of the
ambient chain complex and compares, which keeps the two routes honest
against each other.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .complexes import LefschetzComplex
from .errors import NonFieldRing, NotClosed
from .exact import (
    ExactMatrix,
    RingSpec,
    ZZ,
    _reduce,
    _reduce_column,
    _reduction,
    _unit_form,
    rank_over,
    # kernel_basis, smith_normal_form and solve stay bound here:
    # perfbench/tracing.py patches them in lefhom.homology by name
    kernel_basis,  # noqa: F401
    smith_normal_form,  # noqa: F401
    solve,  # noqa: F401
)
from .topology import closure, is_closed, restrict

__all__ = [
    "HomologyProfile",
    "point_profile",
    "lefschetz_homology",
    "relative_homology",
    "excision_check",
    "ExactSequenceReport",
    "long_exact_sequence",
]


@dataclass(frozen=True)
class HomologyProfile:
    """Per-degree invariants deciding isomorphism of homology.

    ``entries`` holds (degree, free_rank, torsion divisors) triples, sorted
    by degree, with trivial degrees omitted; torsion divisors are > 1 and
    each divides the next.  Over a field the torsion part is always empty
    and ``free_rank`` is the vector-space dimension.
    """

    ring: RingSpec
    entries: tuple

    @classmethod
    def from_degrees(cls, ring: RingSpec, data: Mapping[int, tuple]) -> "HomologyProfile":
        entries = []
        for degree in sorted(data):
            free, torsion = data[degree]
            torsion = tuple(torsion)
            if free or torsion:
                entries.append((degree, free, torsion))
        return cls(ring, tuple(entries))

    def free_rank(self, degree: int) -> int:
        for d, free, _ in self.entries:
            if d == degree:
                return free
        return 0

    def torsion(self, degree: int) -> tuple:
        for d, _, torsion in self.entries:
            if d == degree:
                return torsion
        return ()

    @property
    def degrees(self) -> tuple:
        return tuple(d for d, _, _ in self.entries)

    @property
    def top_degree(self) -> int:
        return self.entries[-1][0] if self.entries else -1

    def is_trivial(self) -> bool:
        return not self.entries

    def is_point(self) -> bool:
        """True for the profile of a one-point space: rank 1 in degree 0 only."""
        return self.entries == ((0, 1, ()),)

    def describe(self, degree: int) -> str:
        """Render one degree, e.g. ``Z^3``, ``Z + Z/2``, ``Q^2`` or ``0``."""
        free, torsion = self.free_rank(degree), self.torsion(degree)
        parts = []
        if free == 1:
            parts.append(self.ring.label)
        elif free > 1:
            parts.append(f"{self.ring.label}^{free}")
        parts.extend(f"Z/{d}" for d in torsion)
        return " + ".join(parts) if parts else "0"

    def lines(self, top_degree: Optional[int] = None) -> list:
        top = self.top_degree if top_degree is None else top_degree
        return [f"H_{n}: {self.describe(n)}" for n in range(top + 1)]

    def __str__(self) -> str:
        return "; ".join(self.lines()) if self.entries else "trivial"


def point_profile(ring: RingSpec) -> HomologyProfile:
    return HomologyProfile(ring, ((0, 1, ()),))


def profile_from_boundaries(ring: RingSpec, sizes: Sequence[int],
                            boundary: Callable[[int], ExactMatrix]) -> HomologyProfile:
    """Homology profile of a chain complex given by its boundary matrices.

    ``sizes[q]`` is the number of degree-q generators for q = 0..D and
    ``boundary(q)`` maps degree q to q-1 (already over ``ring``).  One pass
    goes up through the degrees and asks only for the boundaries between
    two degrees that have generators; any other boundary has rank 0.

    Each boundary is reduced by :func:`~lefhom.exact._reduce`, which holds
    the ring policy: a unit phase, then the Smith divisors of the residue.
    The rank is the number of unit pivots plus the number of residue
    divisors, and over Z the torsion of degree q-1 is the residue divisors
    of ``boundary(q)`` above 1.

    Before it is reduced, ``boundary(q)`` loses the rows of the unit pivot
    columns of ``boundary(q - 1)``: the compression of Bauer-Kerber-
    Reininghaus ("Clear and Compress: Computing Persistent Homology in
    Chunks", 2014), here over Z as well as over fields.  It is exact because
    those columns P meet their pivot rows in a unimodular block.  So a cycle
    of degree q-1 is fixed by its coordinates outside P, and when those are
    all divisible by k, so is the whole cycle.  Projecting away from P thus
    maps the cycles isomorphically onto a saturated sublattice.  The
    boundaries lie in the cycles, so deleting those rows keeps the rank and
    every Smith divisor of ``boundary(q)``.
    """
    populated = [n for n, size in enumerate(sizes) if size]
    ranks, torsion, paired = {}, {}, {}  # paired[q]: unit pivot columns of degree q
    for q in populated:
        if not q or not sizes[q - 1]:
            continue
        pivots, divisors = _reduce(boundary(q), ring, paired.get(q - 1, ()))
        paired[q] = set(pivots)
        ranks[q] = len(pivots) + len(divisors)
        if ring == ZZ:
            torsion[q - 1] = tuple(d for d in divisors if d > 1)
    data = {n: (sizes[n] - ranks.get(n, 0) - ranks.get(n + 1, 0), torsion.get(n, ()))
            for n in populated}
    return HomologyProfile.from_degrees(ring, data)


class ChainSlices:
    """One chain complex over one ring, from which the complex spanned by
    any set of its generators is cut without being rebuilt or re-checked.

    ``keys[q][i]`` names the i-th degree-q generator (keys may repeat) and
    ``boundary(q)`` is the degree-q boundary over ``ring``.  Keeping the keys
    of a subcomplex, or of the complement of one, gives a chain complex; a
    slice costs the nonzeros of its kept columns.

    A subcomplex can also be named by the ranks of its generators, their
    places in the order of degree, then index: for :func:`lefschetz_chains`
    those are the ranks of the face poset.  :meth:`closed_profile` renumbers
    its columns once, into a key of the slice's content, and eliminates only
    when a memo has no profile for that key.
    """

    def __init__(self, ring: RingSpec, keys: Sequence[Sequence],
                 boundary: Callable[[int], ExactMatrix]):
        self.ring = ring
        self._at = {}
        for q, names in enumerate(keys):
            for i, key in enumerate(names):
                self._at.setdefault(key, []).append((q, i))
        self._columns = [boundary(q)._cols for q in range(len(keys))]
        # where each degree starts among the ranks; per rank, filled in rank
        # order as far as a closure has reached, the rows of its boundary
        # column as ranks, ascending, and their values
        self._starts = list(accumulate(map(len, self._columns), initial=0))
        self._rows, self._values = [], []

    def positions(self, kept: Iterable) -> list:
        """Per degree, the ascending ambient indices of the kept generators."""
        positions = [[] for _ in self._columns]
        for key in kept:
            for q, i in self._at[key]:
                positions[q].append(i)
        for pos in positions:
            pos.sort()
        return positions

    def slice(self, kept: Iterable) -> tuple:
        """Sizes and boundary callback of the complex spanned by the kept
        keys, as :func:`profile_from_boundaries` takes them."""
        positions = self.positions(kept)
        renumber = [{i: k for k, i in enumerate(pos)} for pos in positions]

        def boundary(q: int) -> ExactMatrix:
            rows = renumber[q - 1] if 0 < q <= len(renumber) else {}
            cols = positions[q] if q < len(positions) else ()
            return ExactMatrix._wrap(len(rows), [
                {rows[i]: v for i, v in self._columns[q][j].items() if i in rows}
                for j in cols], self.ring)

        return [len(pos) for pos in positions], boundary

    def profile(self, kept: Iterable) -> HomologyProfile:
        return profile_from_boundaries(self.ring, *self.slice(kept))

    def _rank_columns(self, top: int) -> None:
        """Fill the rows and values of the columns up to rank ``top``."""
        starts, rows, values = self._starts, self._rows, self._values
        for r in range(len(rows), top + 1):
            q = bisect_right(starts, r) - 1
            col = self._columns[q][r - starts[q]]
            ascending = sorted(col)
            below = starts[q - 1] if q else 0
            rows.append([below + i for i in ascending])
            values.append(tuple(map(col.__getitem__, ascending)))

    def closed_profile(self, ranks: Iterable[int], memo: dict) -> HomologyProfile:
        """The profile of the generators at ``ranks``, which must hold every
        row of their columns, as the closure of a cell does.

        The sorted ranks are cut where each degree starts, and each generator
        is renumbered by its place among them.  The key is the cuts, the
        renumbered rows of the columns, in rank order, and their values.
        ``memo`` maps keys to profiles over this ring; on a miss the columns
        are copied out of the key, with the rows counted from where their
        degree starts, and eliminated.
        """
        ranks = sorted(ranks)
        if ranks[-1] >= len(self._rows):
            self._rank_columns(ranks[-1])
        starts, rows, values = self._starts, self._rows, self._values
        # the degrees up to the top rank's: each starts at one of the cuts
        cuts = [bisect_left(ranks, start) for start in starts[:bisect_right(starts, ranks[-1])]]
        cuts.append(len(ranks))
        kept = ranks[cuts[1]:]  # degree 0 has no columns
        at = dict(zip(ranks, range(len(ranks))))
        cols = tuple(map(values.__getitem__, kept))
        flat = tuple(map(at.__getitem__, chain.from_iterable(map(rows.__getitem__, kept))))
        key = (tuple(cuts), cols, flat)
        profile = memo.get(key)
        if profile is None:
            sizes = [b - a for a, b in zip(cuts, cuts[1:])]
            columns, end = [[] for _ in sizes], 0
            for q in range(1, len(sizes)):
                for col in cols[cuts[q] - cuts[1]:cuts[q + 1] - cuts[1]]:
                    start, end = end, end + len(col)
                    columns[q].append({i - cuts[q - 1]: v for i, v in zip(flat[start:end], col)})

            def boundary(q: int) -> ExactMatrix:
                return ExactMatrix._wrap(sizes[q - 1], columns[q], self.ring)

            profile = memo[key] = profile_from_boundaries(self.ring, sizes, boundary)
        return profile


class IncrementalReducer:
    """The homology of a growing set of a :class:`ChainSlices`' keys, read
    off a column reduction that grows with it, and can be undone.

    ``include(key)`` appends the key's generators as columns, in ascending
    degree; their boundaries must lie in the generators already in, as for
    a cell joining a closed set after its faces.  Each column is reduced by
    lowest row against a pivot table, as in the persistence algorithm.  A
    column of degree q reduced to zero is a birth, 1 more in ``free[q]``,
    the free rank of H_q; one that takes a pivot is a death, 1 less in
    ``free[q - 1]``.  ``undo()`` takes back the last include, and
    ``profile()`` is the homology of the keys in.

    Which entries are pivots is the ring policy of :mod:`lefhom.exact`:
    :func:`~lefhom.exact._reduce_column` leaves a pivot column with a 1 at
    its lowest row, so the pivots span a unimodular triangle and no
    boundary has a divisor other than 1.  A column whose lowest entry is
    not a unit stops the reduction until its include is undone, and counts
    as a birth so that the undo balances.  While ``stalled`` is set,
    ``profile()`` is the slice profile, which finds the torsion that a
    non-unit pivot may carry; otherwise it reads ``free``.
    """

    def __init__(self, chains: ChainSlices):
        self.chains = chains
        self._p = chains.ring.p
        self._keyed = {key: [(q, _unit_form(chains._columns[q][i], chains.ring)) for q, i in at]
                       for key, at in chains._at.items()}
        self.free = [0] * len(chains._columns)
        self._pivots = [{} for _ in chains._columns]  # [q]: lowest row -> degree-q column
        self._kept = []
        self._undo = []  # per include: (degree, lowest row or None) of each column
        self.stalled = None  # index in _undo of the include that met a non-unit

    def include(self, key) -> None:
        record = []
        if self.stalled is None:
            p, free = self._p, self.free
            for q, column in self._keyed[key]:
                col = dict(column)
                low = _reduce_column(col, self._pivots[q], p)
                if low is None or col[low] != 1:  # a birth, or a stall counted as one
                    free[q] += 1
                    record.append((q, None))
                    if low is not None:
                        self.stalled = len(self._undo)
                        break
                else:  # a death in the degree below
                    self._pivots[q][low] = col
                    free[q - 1] -= 1
                    record.append((q, low))
        self._kept.append(key)
        self._undo.append(record)

    def undo(self) -> None:
        self._kept.pop()
        for q, low in self._undo.pop():
            if low is None:
                self.free[q] -= 1
            else:
                del self._pivots[q][low]
                self.free[q - 1] += 1
        if self.stalled == len(self._undo):
            self.stalled = None

    def profile(self) -> HomologyProfile:
        if self.stalled is not None:
            return self.chains.profile(self._kept)
        return HomologyProfile(self.chains.ring,
                               tuple((n, f, ()) for n, f in enumerate(self.free) if f))


def lefschetz_chains(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> ChainSlices:
    """The cell chain complex of X as slices keyed by cell: ``profile(A)``
    of a closed set A is the homology of A as a subcomplex."""
    ring = X.ring if ring is None else ring
    return ChainSlices(ring, [X.cells_of_dim(q) for q in range(X.top_dim + 1)],
                       lambda q: X.boundary_matrix(q).cast(ring))


def lefschetz_homology(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> HomologyProfile:
    """Homology of the cell chain complex of X over the given ring.

    Defaults to the ring of the complex.
    """
    ring = X.ring if ring is None else ring
    top = X.top_dim
    sizes = [len(X.cells_of_dim(q)) for q in range(top + 1)]
    return profile_from_boundaries(
        ring, sizes, lambda q: X.boundary_matrix(q).cast(ring))


def _require_closed(X: LefschetzComplex, part: Iterable) -> frozenset:
    part = frozenset(part)
    if not is_closed(X, part):
        missing = sorted(closure(X, part) - part)
        raise NotClosed(f"set is not closed; missing faces {missing}")
    return part


def relative_homology(X: LefschetzComplex, closed_part: Iterable,
                      ring: Optional[RingSpec] = None) -> HomologyProfile:
    """Homology of X relative to a closed subset.

    Computed as the absolute homology of the open complement, which carries
    the quotient chain complex verbatim (same matrices, fewer rows/columns).
    """
    ring = X.ring if ring is None else ring
    part = _require_closed(X, closed_part)
    return lefschetz_homology(restrict(X, X.cell_ids - part), ring)


def _quotient_profile(X: LefschetzComplex, part: frozenset,
                      ring: RingSpec) -> HomologyProfile:
    """Relative homology the direct way: slice the closed part's rows/columns out."""
    return lefschetz_chains(X, ring).profile(X.cell_ids - part)


def excision_check(X: LefschetzComplex, closed_part: Iterable,
                   ring: Optional[RingSpec] = None) -> bool:
    """Compare the two routes to relative homology; True when they agree.

    Route one rebuilds the open complement as a complex of its own and
    computes its homology; route two slices the ambient boundary matrices.
    """
    ring = X.ring if ring is None else ring
    part = _require_closed(X, closed_part)
    via_restriction = relative_homology(X, part, ring)
    via_quotient = _quotient_profile(X, part, ring)
    return via_restriction == via_quotient


# ---------------------------------------------------------------------------
# Long exact sequence of a closed pair, over a field.
#
# Each boundary of the closed part, of X and of the pair is reduced once, by
# lowest row in exact._reduction, as in the persistence algorithm (Edelsbrunner-Letscher-
# Zomorodian, DCG 2002; Zomorodian-Carlsson, DCG 2005), and the homology
# bases are read off its pairing.  Degrees go down, so each reduction skips
# the columns paired above (the clearing of Chen-Kerber, EuroCG 2011).
# ---------------------------------------------------------------------------


def _classes(ring: RingSpec, cycles: Mapping, boundaries: Mapping,
             targets: Sequence) -> tuple:
    """The canonical homology basis of one degree, and the classes of
    ``targets`` (sparse cycles of that degree) in it, over a field.

    ``cycles`` comes from the :func:`~lefhom.exact._reduction` of the boundary out of the
    degree, ``boundaries`` from that of the boundary into it.  The cycle of
    column f is a basis cycle exactly when no boundary has lowest row f:
    every cycle is a combination of the cycles up to its lowest row, so
    that is the cycle being independent of the boundaries and of the cycles
    before it, the pivot columns among the cycles of ``[above | cycles]``.
    The boundaries and the basis then have distinct lowest rows, and a
    target reduces to zero against them exactly when it is a cycle.  The
    i-th basis cycle carries a 1 at row ``~i``, so minus that record of
    ``targets[j]`` is its coordinate i, in column j of the returned matrix.
    """
    p = ring.p or 0
    basis, table = [], dict(boundaries)
    for f, z in cycles.items():
        if f not in boundaries:
            table[f] = {**z, ~len(basis): 1}
            basis.append(z)
    classes = {}
    for j, target in enumerate(targets):
        col = dict(target)
        low = _reduce_column(col, table, p)
        if low is not None and low >= 0:
            raise AssertionError("vector is not a cycle of its degree")
        classes.update(((~i, j), -v) for i, v in col.items())
    return basis, ExactMatrix(len(basis), len(targets), classes, ring)


@dataclass(frozen=True)
class ExactSequenceReport:
    """Exactness ledger for the homology sequence of a closed pair.

    ``nodes`` is the sequence of (label, dimension), zero sentinels at both
    ends; ``maps[k]`` is the matrix from node k to node k+1.  ``exact``
    holds when, at every interior node, consecutive maps compose to zero
    and incoming plus outgoing rank equals the node dimension.
    """

    ring: RingSpec
    nodes: tuple
    maps: tuple
    exact: bool
    first_failure: Optional[str] = None

    def dimensions(self) -> tuple:
        return tuple(dim for _, dim in self.nodes)


def long_exact_sequence(X: LefschetzComplex, closed_part: Iterable,
                        ring: RingSpec) -> ExactSequenceReport:
    """Build the homology sequence of (X, closed subset) over a field and
    verify exactness node by node, with all induced maps as explicit matrices.

    The inclusion-induced map includes a cycle of the closed part into X;
    the projection drops coordinates on the closed part; the connecting map
    lifts a relative cycle, applies the ambient boundary and reads the
    result inside the closed part.
    """
    if not ring.is_field:
        raise NonFieldRing("the exact-sequence checker needs field coefficients")
    part = _require_closed(X, closed_part)

    top, p = X.top_dim, ring.p
    chains = lefschetz_chains(X, ring)
    sub_pos, rel_pos = chains.positions(part), chains.positions(X.cell_ids - part)
    sub_at, rel_at = ([{i: k for k, i in enumerate(pos)} for pos in positions]
                      for positions in (sub_pos, rel_pos))
    slices = [chains.slice(kept)[1] for kept in (part, X.cell_ids, X.cell_ids - part)]

    def connect(z: Mapping, n: int) -> dict:
        """The boundary of a relative (n+1)-cycle lifted to X, in the closed part."""
        image = {}
        for k, v in z.items():
            for i, w in chains._columns[n + 1][rel_pos[n + 1][k]].items():
                image[i] = image.get(i, 0) + v * w
        out = {}
        for i, v in image.items():
            if p:
                v %= p
            if v:
                if i in rel_at[n]:
                    raise AssertionError("lifted boundary escaped the closed part")
                out[sub_at[n][i]] = v
        return out

    # nodes[k] --maps[k]--> nodes[k+1], descending through the degrees with
    # zero sentinels at both ends.  Degree n+1's relative basis feeds the
    # connecting map into degree n.
    nodes = [("0", 0)]
    maps = []
    above = [_reduction(boundary(top + 1), ring) for boundary in slices]
    rel_basis = []
    for n in range(top, -1, -1):
        below = [_reduction(boundary(n), ring, paired[1])
                 for boundary, paired in zip(slices, above)]
        sub_basis, connecting = _classes(ring, below[0][0], above[0][1],
                                         [connect(z, n) for z in rel_basis])
        x_basis, include = _classes(ring, below[1][0], above[1][1],
                                    [{sub_pos[n][k]: v for k, v in z.items()}
                                     for z in sub_basis])
        rel_basis, project = _classes(ring, below[2][0], above[2][1],
                                      [{rel_at[n][i]: v for i, v in z.items() if i in rel_at[n]}
                                       for z in x_basis])
        maps += [connecting, include, project]
        nodes += [(f"H_{n}(X')", len(sub_basis)), (f"H_{n}(X)", len(x_basis)),
                  (f"H_{n}(X, X')", len(rel_basis))]
        above = below
    maps.append(ExactMatrix.zeros(0, nodes[-1][1], ring))
    nodes.append(("0", 0))

    # rank each map once: node k's outgoing rank is node k+1's incoming one
    first_failure = None
    rank_in = rank_over(maps[0], ring)
    for k in range(1, len(nodes) - 1):
        rank_out = rank_over(maps[k], ring)
        if not ((maps[k] @ maps[k - 1]).is_zero() and rank_in + rank_out == nodes[k][1]):
            first_failure = nodes[k][0]
            break
        rank_in = rank_out
    return ExactSequenceReport(ring=ring, nodes=tuple(nodes), maps=tuple(maps),
                               exact=first_failure is None, first_failure=first_failure)
