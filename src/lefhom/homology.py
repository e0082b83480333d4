"""Homology of Lefschetz complexes: absolute, relative, excision, exactness.

A profile comes out of one compressed pass up through the degrees of a
chain complex (:func:`profile_from_boundaries`), whose boundaries are
reduced by :mod:`lefhom.exact`, the owner of the ring policy.  Changing
the coefficient ring never rebuilds the complex: exact converts each column
of its own boundaries as it reduces it, so the cell basis and the face order
stay those of the stored complex.  A :class:`ChainSlices` cuts the complex
spanned by any set of generators out of one chain complex, so closed sets
are profiled without complexes of their own; :func:`closure_profiles`
reads the closure of each cell off the complex itself.

Relative homology of a closed subset is *defined* through the open
complement, rebuilt as a complex (the excision route);
:func:`excision_check` recomputes it a second time as a slice of the
ambient chain complex and compares, which keeps the two routes honest
against each other.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .complexes import LefschetzComplex, _admitted
from .errors import NonFieldRing, NotClosed, TooManyClosureCells
from .exact import (
    ExactMatrix,
    RingSpec,
    ZZ,
    _converter,
    _reduce,
    _reduce_column,
    _reduction,
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


class HomologyProfile(NamedTuple):
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
    def top_degree(self) -> int:
        return self.entries[-1][0] if self.entries else -1

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

    ``sizes[q]`` is the number of degree-q generators for q = 0..D, and
    ``boundary(q)`` maps degree q to q-1 in any ring exact reads.  One pass
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
    """One chain complex, from which the complex spanned by any set of its
    generators is cut without being rebuilt or re-checked.

    ``keys[q][i]`` names the i-th degree-q generator (keys may repeat) and
    ``columns[q]`` are the degree-q boundary's columns, over ``source``, as
    the slices are; profiles are over ``ring``, which the caller has admitted
    them into.  Keeping the keys of a subcomplex, or of the complement of
    one, gives a chain complex; a slice costs the nonzeros of its kept columns.
    """

    def __init__(self, ring: RingSpec, keys: Sequence[Sequence],
                 columns: Sequence[Sequence[Mapping]], source: RingSpec):
        self.ring, self.keys, self._columns, self.source = ring, keys, columns, source
        self._at = {}
        for q, names in enumerate(keys):
            for i, key in enumerate(names):
                self._at.setdefault(key, []).append((q, i))

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
                for j in cols], self.source)

        return [len(pos) for pos in positions], boundary

    def profile(self, kept: Iterable) -> HomologyProfile:
        return profile_from_boundaries(self.ring, *self.slice(kept))


def stacked_chains(lower: ChainSlices, upper: ChainSlices) -> ChainSlices:
    """The two chain complexes as one, keyed alike and no boundary crossing:
    upper's degree q is at o + q, o being lower's number of degrees, to which
    upper is padded.  Columns are shared; upper's ints are read over lower's source."""
    pad = [[]] * (len(lower.keys) - len(upper.keys))
    return ChainSlices(lower.ring, lower.keys + upper.keys + pad,
                       lower._columns + upper._columns + pad, lower.source)


# The most entries that the keys of a BoundedMemo hold in all.  A search over
# basis-change draws (budget 1 000) fills its draws' closure memo, which keeps
# their closures and singular homologies, to under 7 000, its re-verification
# memo to under 11 000, and its recipe memo to about 14 000.
CLOSURE_MEMO_BOUND = 50_000


class BoundedMemo(dict):
    """A memo that stores a value only while the entries of its keys, as
    ``size(key)`` counts them, stay within ``CLOSURE_MEMO_BOUND`` in all;
    past that, values are computed but not kept."""

    def __init__(self, size: Callable[[Hashable], int]):
        super().__init__()
        self.size = size
        self.length = 0

    def __setitem__(self, key, value):
        if key not in self:  # a key stored already is counted already
            size = self.size(key)
            if self.length + size > CLOSURE_MEMO_BOUND:
                return
            self.length += size
        super().__setitem__(key, value)


def _closure_key_size(key) -> int:
    return len(key[0]) + 2 * len(key[2])  # the cuts, and one value per row


class ClosureMemo(BoundedMemo):
    """A memo for :func:`closure_profiles` that may serve many
    complexes over one ring, since its keys name a closed set's content.
    The converse search keeps whole complexes' singular homology in it too,
    under ``simplicial.space_key``, and reads a complex's chain homology
    from it where a closure of the same content, :func:`complex_key`, was
    profiled.  A key's entries are its cuts, rows and values; a space key's
    tag is not counted.  Equal profiles are kept as one object.
    """

    def __init__(self):
        super().__init__(_closure_key_size)
        self._profiles = {}  # each distinct profile once: keys are many, profiles few

    def __setitem__(self, key, profile):
        super().__setitem__(key, self._profiles.setdefault(profile, profile))


class IncrementalReducer:
    """The homology of a growing set of a :class:`ChainSlices`' keys, read
    off a column reduction that grows with it, and can be undone.

    ``include(key)`` appends the key's generators as columns; their
    boundaries must lie in the generators already in, as for a cell joining
    a closed set after its faces.  Each column is reduced by lowest row
    against a pivot table, as in the persistence algorithm.  A column of
    degree q reduced to zero is a birth, 1 more in ``free[q]``, the free
    rank of H_q; one that takes a pivot is a death, 1 less in
    ``free[q - 1]``.  ``undo()`` takes back the last include, ``kept``
    lists the keys in, and ``profile()`` is their homology.

    Each key's block of columns is reduced once, when the reducer is built,
    against the pivots of that block alone: the chunk algorithm of
    Bauer-Kerber-Reininghaus ("Clear and Compress: Computing Persistent
    Homology in Chunks", 2014).  A column whose lowest row is the key's own
    is a ready pivot, and the generator there is a cleared birth, one that
    the reduction would zero (Chen-Kerber, "Persistent homology computation
    with a twist", EuroCG 2011); a column reduced to zero is a birth too.
    Only the essential columns, whose own part vanishes, are reduced by
    ``include`` against the shared table, which holds every key's ready
    pivots from the start: a column of the keys in has rows only among
    them, so a pivot of a key that is out is never looked up.  So the
    reduction is exact for any row order.  A join copies only the columns
    that a pivot meets: an essential column whose lowest row has no pivot,
    with a 1 there, goes into the table as the plan holds it, since pivot
    columns are only read and ``undo`` only deletes the table's entry.
    :func:`lefschetz_chains` and ``simplicial.order_complex_chains`` make a
    key's own generators the highest rows of its columns, the order a
    filtration by closed sets needs; in that order no essential column has
    met a ready pivot on any input tried; :func:`stacked_chains` of the two
    gives one reducer both.

    Which entries are pivots is the ring policy of :mod:`lefhom.exact`:
    :func:`~lefhom.exact._reduce_column` leaves a pivot column with a 1 at
    its lowest row, so the pivots span a unimodular triangle and no
    boundary has a divisor other than 1.  Over a field every nonzero entry
    is a unit.  Over Z, a column whose lowest entry is not a unit, in the
    key's own block or among its essential columns, stops the reduction
    until its include is undone.  While ``stalled`` is set, ``profile()``
    is the slice profile, which finds the torsion that a non-unit pivot may
    carry; otherwise it reads ``free``.
    """

    def __init__(self, chains: ChainSlices):
        self.chains = chains
        ring = chains.ring  # p as _reduce_column takes it: None over Z, 0 over Q
        self._p = 0 if ring.kind == "Q" else ring.p
        self._convert = _converter(chains.source, ring, scaled=False)
        self._pivots = [{} for _ in chains._columns]  # [q]: lowest row -> degree-q column
        self._plans = {key: self._plan(at) for key, at in chains._at.items()}
        self.free = [0] * len(chains._columns)
        self.kept = []
        self._undo = []  # per include: its changes of free and its essential records
        self.stalled = None  # index in _undo of the include that met a non-unit

    def _plan(self, at: list) -> Optional[tuple]:
        """The include of the generators ``at`` (degree, index), reduced by
        lowest row against their own pivots, which go into the shared table:
        per degree the change of ``free``, and the essential columns in
        order, each with its lowest row; None when a lowest entry in the
        key's own rows is not a unit."""
        own = {}  # degree -> the indices of the key's generators
        for q, i in at:
            own.setdefault(q, set()).add(i)
        ready, rest = {}, []  # ready[q]: own lowest row -> degree-q column
        for q, i in at:
            col = self._convert(self.chains._columns[q][i])
            table = ready.setdefault(q, {})
            low = _reduce_column(col, table, self._p)
            if low in own.get(q - 1, ()):
                if col[low] != 1:
                    return None
                table[low] = col
            else:
                rest.append((q, i, col, low))
        change = [0] * (max(own) + 1)
        for q, table in ready.items():
            change[q - 1] -= len(table)
            self._pivots[q].update(table)
        essential = []
        for q, i, col, low in rest:
            if low is not None and i not in ready.get(q + 1, ()):
                essential.append((q, col, low))
            else:
                change[q] += 1
        return [(q, d) for q, d in enumerate(change) if d], essential

    def include(self, key) -> None:
        record = (), ()
        if self.stalled is None:
            plan = self._plans[key]
            if plan is None:
                self.stalled = len(self._undo)
            else:
                change, essential = plan
                p, free, pivots = self._p, self.free, self._pivots
                for q, d in change:
                    free[q] += d
                done = []  # (degree, lowest row or None) of each essential column
                for q, column, low in essential:
                    table = pivots[q]
                    if low in table or column[low] != 1:  # a pivot or a non-unit: reduce a copy
                        column = dict(column)
                        low = _reduce_column(column, table, p)
                        if low is None or column[low] != 1:  # a birth, or a stall counted as one
                            free[q] += 1
                            done.append((q, None))
                            if low is not None:
                                self.stalled = len(self._undo)
                                break
                            continue
                    table[low] = column  # a death in the degree below
                    free[q - 1] -= 1
                    done.append((q, low))
                record = change, done
        self.kept.append(key)
        self._undo.append(record)

    def undo(self) -> None:
        self.kept.pop()
        change, done = self._undo.pop()
        free, pivots = self.free, self._pivots
        for q, low in done:
            if low is None:
                free[q] -= 1
            else:
                del pivots[q][low]
                free[q - 1] += 1
        for q, d in change:
            free[q] -= d
        if self.stalled == len(self._undo):
            self.stalled = None

    def profile(self) -> HomologyProfile:
        if self.stalled is not None:
            return self.chains.profile(self.kept)
        return HomologyProfile(self.chains.ring,
                               tuple((n, f, ()) for n, f in enumerate(self.free) if f))


def lefschetz_chains(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> ChainSlices:
    """The cell chain complex of X as slices keyed by cell: ``profile(A)``
    of a closed set A is the homology of A as a subcomplex."""
    ring = _admitted(X, ring)
    degrees = range(X.top_dim + 1)
    return ChainSlices(ring, [X.cells_of_dim(q) for q in degrees],
                       [X.boundary_matrix(q)._cols for q in degrees], X.ring)


def lefschetz_homology(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> HomologyProfile:
    """Homology of the cell chain complex of X over ``ring``, by default X's own."""
    ring = _admitted(X, ring)
    sizes = [len(X.cells_of_dim(q)) for q in range(X.top_dim + 1)]
    return profile_from_boundaries(ring, sizes, X.boundary_matrix)


# Most closure cells in all: 4 766 585 on the 14-vertex simplex, 14 316 139 on 15.
DEFAULT_CLOSURE_CAP = 10_000_000


def _content_key(cuts: Sequence[int], rows: Iterable, values: Iterable,
                 at: Optional[Mapping] = None) -> tuple:
    """The key of a closed set's content: the ``cuts`` where each degree
    starts among its sorted ranks, empty degrees too, then the cells past
    degree 0 in rank order, first their facets' values and then their
    ascending facet ranks, flat, renumbered by ``at`` (rank -> place)
    unless the set is all of X."""
    flat = chain.from_iterable(rows)
    return (tuple(cuts), tuple(values),
            tuple(flat if at is None else map(at.__getitem__, flat)))


@cache
def _units(n: int) -> tuple:
    """n values 1, one tuple per n for every key that holds them."""
    return (1,) * n


def complex_key(X: LefschetzComplex, unit: bool = False) -> tuple:
    """The key under which :func:`closure_profiles` memoizes a closure of
    X's content, so that a memo holding the profile of a closure equal to X
    serves X's chain homology.  With ``unit`` each value is keyed as 1,
    which keeps only the face poset and its grading."""
    rank, ids, facets, starts = X._rank, X._ids, X._facets, X._starts
    cells = ids[starts[1]:] if len(starts) > 1 else ()  # a 0-cell has no facets
    rows = [sorted(map(rank.__getitem__, facets[x])) for x in cells]
    values = (map(_units, map(len, rows)) if unit else
              (tuple(facets[x][ids[s]] for s in row) for x, row in zip(cells, rows)))
    return _content_key(starts, rows, values)


def closure_profiles(X: LefschetzComplex, ring: RingSpec,
                     memo: Optional[dict] = None) -> Iterator[tuple]:
    """(cell id, profile over ``ring`` of its closure) for each cell of X,
    in rank order and lazily, so that a first-failure pass stops at it.

    A closure is a down-set of X's face poset.  Its sorted ranks are cut
    at ``X._starts``, where each degree up to the cell's starts in X's
    order, empty degrees too, and renumbered by their places.  The key is
    the cuts, the renumbered facet ranks of the cells above degree 0, in
    rank order, and their κ values.
    ``memo`` maps keys to profiles over ``ring``, a :class:`ClosureMemo` or
    a dict, fresh by default; only a miss copies the columns out of the key
    and eliminates them.  Each cell's facets are read off X as the walk
    reaches it.  Past ``DEFAULT_CLOSURE_CAP`` closure cells in all, raises
    ``TooManyClosureCells`` before the ring is admitted or any profile taken.
    """
    down = X.face_poset()
    total = sum(map(len, down.values()))
    if total > DEFAULT_CLOSURE_CAP:
        raise TooManyClosureCells(total, DEFAULT_CLOSURE_CAP)
    _admitted(X, ring)
    memo, point = {} if memo is None else memo, point_profile(ring)
    ids, rank, starts = X._ids, X._rank, X._starts
    rows, values = [], []  # per rank: its facets' ranks, ascending, and their values
    for r, x in enumerate(ids):
        facets, dim = X._facets[x], X._dims[x]
        rows.append(sorted(map(rank.__getitem__, facets)))
        values.append(tuple(facets[ids[s]] for s in rows[-1]))
        if not dim:  # the closure of a 0-cell is the cell itself
            yield x, point
            continue
        ranks = sorted(down[r])
        cuts = [bisect_left(ranks, start) for start in starts[:dim + 1]]
        cuts.append(len(ranks))
        kept = ranks[cuts[1]:]  # degree 0 has no columns
        at = dict(zip(ranks, range(len(ranks))))
        _, cols, flat = key = _content_key(cuts, map(rows.__getitem__, kept),
                                           map(values.__getitem__, kept), at)
        profile = memo.get(key)
        if profile is None:
            sizes = [b - a for a, b in zip(cuts, cuts[1:])]
            boundaries, end = [None], 0
            for q in range(1, len(sizes)):
                columns = []
                for col in cols[cuts[q] - cuts[1]:cuts[q + 1] - cuts[1]]:
                    start, end = end, end + len(col)
                    columns.append({i - cuts[q - 1]: v for i, v in zip(flat[start:end], col)})
                boundaries.append(ExactMatrix._wrap(sizes[q - 1], columns, X.ring))
            profile = memo[key] = profile_from_boundaries(ring, sizes, boundaries.__getitem__)
        yield x, profile


def _require_closed(X: LefschetzComplex, part: Iterable) -> frozenset:
    part = frozenset(part)
    if not is_closed(X, part):
        raise NotClosed(f"set is not closed; missing faces {sorted(closure(X, part) - part)}")
    return part


def relative_homology(X: LefschetzComplex, closed_part: Iterable,
                      ring: Optional[RingSpec] = None) -> HomologyProfile:
    """Homology of X relative to a closed subset.

    Computed as the absolute homology of the open complement, which carries
    the quotient chain complex verbatim (same matrices, fewer rows/columns).
    """
    ring = _admitted(X, ring)
    part = _require_closed(X, closed_part)
    return lefschetz_homology(restrict(X, X.cell_ids - part), ring)


def excision_check(X: LefschetzComplex, closed_part: Iterable,
                   ring: Optional[RingSpec] = None) -> bool:
    """Compare the two routes to relative homology; True when they agree.

    Route one, :func:`relative_homology`, checks that the part is closed,
    rebuilds the open complement as a complex of its own and computes its
    homology; route two slices the closed part's rows and columns out of
    the ambient boundary matrices.
    """
    part = frozenset(closed_part)  # both routes default to X's ring
    return relative_homology(X, part, ring) == lefschetz_chains(X, ring).profile(X.cell_ids - part)


# ---------------------------------------------------------------------------
# Long exact sequence of a closed pair, over a field.
#
# Each boundary of the closed part, of X and of the pair is reduced once, by
# lowest row in exact._reduction, as in the persistence algorithm (Edelsbrunner-Letscher-
# Zomorodian, DCG 2002; Zomorodian-Carlsson, DCG 2005), and the homology
# bases are read off its pairing.  Degrees go down, so each reduction skips
# the columns paired above (the clearing of Chen-Kerber, EuroCG 2011).
# ---------------------------------------------------------------------------


def _classes(ring: RingSpec, cycles: Mapping, boundaries: Mapping, width: int,
             targets: Sequence) -> tuple:
    """The canonical homology basis of one degree, and the classes of
    ``targets`` (sparse cycles of that degree) in it, over a field.

    ``cycles`` comes from the :func:`~lefhom.exact._reduction` of the boundary out of the
    degree, ``boundaries`` from that of the boundary into it, with their
    records at rows ``~0`` to ``~(width - 1)``, one per column of that
    boundary.  The cycle of
    column f is a basis cycle exactly when no boundary has lowest row f:
    every cycle is a combination of the cycles up to its lowest row, so
    that is the cycle being independent of the boundaries and of the cycles
    before it, the pivot columns among the cycles of ``[above | cycles]``.
    The boundaries and the basis then have distinct lowest rows, and a
    target reduces to zero against them exactly when it is a cycle.  The
    i-th basis cycle carries a 1 at row ``~(width + i)``, past the
    boundaries' records, so minus that record of ``targets[j]`` is its
    coordinate i, in column j of the returned matrix; a boundary's record is
    never read.
    """
    p = ring.p or 0
    basis, table = [], dict(boundaries)
    for f, z in cycles.items():
        if f not in boundaries:
            table[f] = {**z, ~(width + len(basis)): 1}
            basis.append(z)
    classes = {}
    for j, target in enumerate(targets):
        col = dict(target)
        low = _reduce_column(col, table, p)
        if low is not None and low >= 0:
            raise AssertionError("vector is not a cycle of its degree")
        classes.update(((~i - width, j), -v) for i, v in col.items() if i <= ~width)
    return basis, ExactMatrix(len(basis), len(targets), classes, ring)


class ExactSequenceReport(NamedTuple):
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
    _admitted(X, ring)
    part = _require_closed(X, closed_part)

    top, convert = X.top_dim, _converter(X.ring, ring, scaled=False)
    # per degree, X's indices of the cells in the closed part and out of it;
    # below degree 0, at [-1], there are none
    inside, outside = ([{i for i, x in enumerate(X.cells_of_dim(q)) if (x in part) == side}
                        for q in range(top + 1)] + [set()] for side in (True, False))

    def connect(z: Mapping, columns: list, n: int) -> dict:
        """The boundary of a relative (n+1)-cycle lifted to X, in the closed part."""
        image = {}
        for k, v in z.items():
            for i, w in columns[k].items():
                image[i] = image.get(i, 0) + v * w
        image = convert(image)
        if any(v for i, v in image.items() if i in outside[n]):
            raise AssertionError("lifted boundary escaped the closed part")
        return {i: v for i, v in image.items() if v}

    # nodes[k] --maps[k]--> nodes[k+1], descending through the degrees with
    # zero sentinels at both ends.  Degree n+1's relative basis feeds the
    # connecting map into degree n.  The closed part, X and the pair are
    # reduced in X's indices: the part leaves out the columns outside it,
    # the pair those inside and their rows.
    nodes = [("0", 0)]
    maps = []
    above, columns, rel_basis = [({}, {})] * 3, [], []
    for n in range(top, -1, -1):
        matrix = X.boundary_matrix(n)
        below = [_reduction(matrix, ring, outside[n].union(above[0][1])),
                 _reduction(matrix, ring, above[1][1]),
                 _reduction(matrix, ring, inside[n].union(above[2][1]), inside[n - 1])]
        width = len(columns)  # the columns of the boundary into degree n
        sub_basis, connecting = _classes(ring, below[0][0], above[0][1], width,
                                         [connect(z, columns, n) for z in rel_basis])
        x_basis, include = _classes(ring, below[1][0], above[1][1], width, sub_basis)
        rel_basis, project = _classes(ring, below[2][0], above[2][1], width,
                                      [{i: v for i, v in z.items() if i in outside[n]}
                                       for z in x_basis])
        maps += [connecting, include, project]
        nodes += [(f"H_{n}(X')", len(sub_basis)), (f"H_{n}(X)", len(x_basis)),
                  (f"H_{n}(X, X')", len(rel_basis))]
        above, columns = below, matrix._cols
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
