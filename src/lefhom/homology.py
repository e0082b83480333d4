"""Homology of Lefschetz complexes: absolute, relative, excision, exactness.

Over the integers, homology is read off Smith Normal Forms of the boundary
matrices; over Q or F_p it is plain rank arithmetic.  Changing the
coefficient ring never rebuilds the complex: matrices are cast entry-wise,
so the cell basis and the face order stay those of the stored complex.

Relative homology of a closed subset is *defined* through the open
complement (the excision route); :func:`excision_check` recomputes it a
second time by deleting rows/columns from the full boundary matrices and
compares, which keeps the two routes honest against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .complexes import LefschetzComplex
from .errors import NonFieldRing, NotClosed
from .exact import (
    ExactMatrix,
    RingSpec,
    ZZ,
    _columns,
    kernel_basis,
    pivot_columns,
    rank_over,
    smith_normal_form,
    solve,
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
    ``boundary(q)`` maps degree q to q-1 (already over ``ring``).  Only
    degrees that have generators are visited: degree n needs the ranks of
    ``boundary(n)`` and ``boundary(n + 1)``, and a boundary out of an empty
    degree has rank 0.
    """
    populated = [n for n, size in enumerate(sizes) if size]
    ranks = {}
    torsion_above = {}
    for q in sorted({n + k for n in populated for k in (0, 1)}):
        if ring == ZZ:
            divisors = smith_normal_form(boundary(q)).divisors
            ranks[q] = len(divisors)
            torsion_above[q - 1] = tuple(d for d in divisors if d > 1)
        else:
            ranks[q] = rank_over(boundary(q), ring)
    data = {n: (sizes[n] - ranks[n] - ranks[n + 1], torsion_above.get(n, ()))
            for n in populated}
    return HomologyProfile.from_degrees(ring, data)


class ChainSlices:
    """One chain complex over one ring, from which the complex spanned by
    any set of its generators is cut without being rebuilt or re-checked.

    ``keys[q][i]`` names the i-th degree-q generator (keys may repeat) and
    ``boundary(q)`` is the degree-q boundary over ``ring``.  Keeping the keys
    of a subcomplex, or of the complement of one, gives a chain complex; a
    slice costs the nonzeros of its kept columns.
    """

    def __init__(self, ring: RingSpec, keys: Sequence[Sequence],
                 boundary: Callable[[int], ExactMatrix]):
        self.ring = ring
        self._at = {}
        for q, names in enumerate(keys):
            for i, key in enumerate(names):
                self._at.setdefault(key, []).append((q, i))
        self._columns = [_columns(boundary(q).entries, len(names))
                         for q, names in enumerate(keys)]

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
            entries = {}
            for k, j in enumerate(cols):
                for i, v in self._columns[q][j].items():
                    r = rows.get(i)
                    if r is not None:
                        entries[(r, k)] = v
            return ExactMatrix._wrap(len(rows), len(cols), entries, self.ring)

        return [len(pos) for pos in positions], boundary

    def profile(self, kept: Iterable) -> HomologyProfile:
        return profile_from_boundaries(self.ring, *self.slice(kept))


def lefschetz_chains(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> ChainSlices:
    """The cell chain complex of X as slices keyed by cell: ``profile(A)``
    of a closed set A is the homology of A as a subcomplex."""
    ring = X.ring if ring is None else ring
    return ChainSlices(ring, [X.cells_of_dim(q) for q in range(X.top_dim + 1)],
                       lambda q: X.boundary_matrix(q).cast(ring))


def lefschetz_homology(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> HomologyProfile:
    """Homology of the cell chain complex of X over the given ring.

    Defaults to the ring of the complex.  Results are memoized per
    (complex instance, ring), write-once.
    """
    ring = X.ring if ring is None else ring
    key = ("lefschetz", ring)
    cached = X._homology_cache.get(key)
    if cached is not None:
        return cached
    top = X.top_dim
    sizes = [len(X.cells_of_dim(q)) for q in range(top + 1)]
    profile = profile_from_boundaries(
        ring, sizes, lambda q: X.boundary_matrix(q).cast(ring))
    X._homology_cache[key] = profile
    return profile


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
# ---------------------------------------------------------------------------


class _ChainSystem:
    """Chain-level data of one complex over a field: cycles, boundaries,
    a canonical homology basis per degree, and coordinates in that basis.

    The basis of degree q consists of the kernel-basis cycles that are
    independent of the boundaries and of the cycles before them: the pivot
    columns among the cycles of ``[boundary columns | cycles]``.
    """

    def __init__(self, ring: RingSpec, sizes: Sequence[int],
                 boundary: Callable[[int], ExactMatrix]):
        self.ring = ring
        self.sizes = list(sizes)
        self.top = len(sizes) - 1
        self._boundary = {q: boundary(q) for q in range(self.top + 2)}
        self.reps = {}
        self._systems = {}
        for q in range(self.top + 1):
            cycles = kernel_basis(self._boundary[q], ring)
            above = self._boundary[q + 1]
            entries = dict(above.entries)
            for j, z in enumerate(cycles, start=above.cols):
                entries.update(((i, j), v) for i, v in enumerate(z) if v)
            system = ExactMatrix(self.sizes[q], above.cols + len(cycles), entries, ring)
            pivots = set(pivot_columns(system, ring))
            self.reps[q] = [z for j, z in enumerate(cycles, start=above.cols) if j in pivots]
            # [boundary columns | representatives], where express() solves for a class
            self._systems[q] = system.drop(
                cols=[j for j in range(above.cols, system.cols) if j not in pivots])

    def boundary(self, q: int) -> ExactMatrix:
        return self._boundary[q]

    def hdim(self, q: int) -> int:
        return len(self.reps.get(q, ()))

    def express(self, q: int, cycle: Sequence) -> list:
        """Coordinates of a cycle's class in the degree-q homology basis."""
        reps = self.reps.get(q, [])
        if not reps:
            return []
        solution = solve(self._systems[q], cycle, self.ring)
        if solution is None:
            raise AssertionError("vector is not a cycle of its degree")
        return solution[-len(reps):]


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

    top = X.top_dim
    chains = lefschetz_chains(X, ring)
    sub_pos = chains.positions(part)
    rel_pos = chains.positions(X.cell_ids - part)
    sys_x = _ChainSystem(ring, *chains.slice(X.cell_ids))
    sys_sub = _ChainSystem(ring, *chains.slice(part))
    sys_rel = _ChainSystem(ring, *chains.slice(X.cell_ids - part))

    def include_map(q: int) -> ExactMatrix:
        entries = {}
        for j, rep in enumerate(sys_sub.reps.get(q, [])):
            vec = [ring.zero()] * sys_x.sizes[q]
            for value, i in zip(rep, sub_pos[q]):
                vec[i] = value
            for i, coeff in enumerate(sys_x.express(q, vec)):
                entries[(i, j)] = coeff
        return ExactMatrix(sys_x.hdim(q), sys_sub.hdim(q), entries, ring)

    def project_map(q: int) -> ExactMatrix:
        entries = {}
        for j, rep in enumerate(sys_x.reps.get(q, [])):
            vec = [rep[i] for i in rel_pos[q]]
            for i, coeff in enumerate(sys_rel.express(q, vec)):
                entries[(i, j)] = coeff
        return ExactMatrix(sys_rel.hdim(q), sys_x.hdim(q), entries, ring)

    def connecting_map(q: int) -> ExactMatrix:
        # q >= 1: lift a relative cycle, take its ambient boundary, read it
        # off inside the closed part.
        entries = {}
        for j, rep in enumerate(sys_rel.reps.get(q, [])):
            lift = [ring.zero()] * sys_x.sizes[q]
            for value, i in zip(rep, rel_pos[q]):
                lift[i] = value
            boundary = sys_x.boundary(q).apply(lift)
            for i in rel_pos[q - 1]:
                if not ring.is_zero(boundary[i]):
                    raise AssertionError("lifted boundary escaped the closed part")
            inside = [boundary[i] for i in sub_pos[q - 1]]
            for i, coeff in enumerate(sys_sub.express(q - 1, inside)):
                entries[(i, j)] = coeff
        return ExactMatrix(sys_sub.hdim(q - 1), sys_rel.hdim(q), entries, ring)

    # nodes[k] --maps[k]--> nodes[k+1], descending through the degrees with
    # zero sentinels at both ends.
    nodes = [("0", 0)]
    maps = []
    for n in range(top, -1, -1):
        into_sub = (ExactMatrix.zeros(sys_sub.hdim(n), 0, ring)
                    if n == top else connecting_map(n + 1))
        maps.append(into_sub)
        nodes.append((f"H_{n}(X')", sys_sub.hdim(n)))
        maps.append(include_map(n))
        nodes.append((f"H_{n}(X)", sys_x.hdim(n)))
        maps.append(project_map(n))
        nodes.append((f"H_{n}(X, X')", sys_rel.hdim(n)))
    maps.append(ExactMatrix.zeros(0, nodes[-1][1], ring))
    nodes.append(("0", 0))

    exact = True
    first_failure = None
    for k in range(1, len(nodes) - 1):
        incoming, outgoing = maps[k - 1], maps[k]
        dim = nodes[k][1]
        composed_zero = (outgoing @ incoming).is_zero()
        ranks_ok = rank_over(incoming, ring) + rank_over(outgoing, ring) == dim
        if not (composed_zero and ranks_ok):
            exact = False
            first_failure = nodes[k][0]
            break
    return ExactSequenceReport(ring=ring, nodes=tuple(nodes), maps=tuple(maps),
                               exact=exact, first_failure=first_failure)
