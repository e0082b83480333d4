"""Exact linear algebra over the integers, the rationals and prime fields.

Entries are Python ints over Z, ints in [0, p) over F_p and ``Fraction``
over Q; no floating point is ever involved.  An :class:`ExactMatrix`
stores one ``{row: value}`` dict per column, the form in which boundary
matrices are assembled and sliced, and every reduction runs on copies of
those columns through one of two sparse routines: :func:`_eliminate` for
ranks and Smith forms, :func:`_reduce_column` for reductions by lowest row.

The ring policy of a reduction lives here.  Over Q, columns are scaled to
integers, which keeps their span, so no rank does ``Fraction`` arithmetic
and :func:`_eliminate` sees ints only.  Over Z and Q only ±1 is a pivot,
over F_p every nonzero entry.
:func:`_reduce` runs the unit phase, :func:`_eliminate`, and then the
residue phase, the dense Bezout Smith form of the columns left (none are
left over F_p).  :func:`smith_normal_form` without transforms,
:func:`rank_over` and ``homology.profile_from_boundaries`` call it.  For
a column reduction by lowest row, :func:`_reduce_column` scales each new
pivot column to a 1 at its lowest row when that entry is a unit.  It
serves the reduction that grows in ``homology.IncrementalReducer``, on
columns that :func:`_unit_form` copies into the form above, and, over a
field, :func:`_reduction`, which reduces a whole matrix once, left to
right, with the record of each column's operations at negative rows.
Its cycles are the canonical kernel basis of :func:`kernel_basis` and
:func:`solve` and the homology cycles of ``homology.long_exact_sequence``,
and its pivot table stands for the image.  The dense form with transforms
serves ``with_transforms=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import NonFieldRing, UnsupportedRing

__all__ = [
    "RingSpec",
    "ExactMatrix",
    "SmithForm",
    "smith_normal_form",
    "rank_over",
    "kernel_basis",
    "solve",
    "ZZ",
    "QQ",
    "GF",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RingSpec:
    """A supported coefficient ring: Z, Q, or a prime field F_p.

    Instances are immutable and hashable, so they double as cache keys.
    Elements are plain ``int`` (for Z and F_p, the latter kept canonical
    in [0, p)) or ``Fraction`` (for Q).
    """

    kind: str  # "Z" | "Q" | "Fp"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise UnsupportedRing(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            # the bound keeps trial division under 46 341 steps
            if self.p is not None and self.p >= 1 << 31:
                raise UnsupportedRing("prime field modulus must be below 2**31, "
                                      f"got a {self.p.bit_length()}-bit number")
            if self.p is None or not _is_prime(self.p):
                raise UnsupportedRing(f"prime field modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise UnsupportedRing(f"ring {self.kind} takes no modulus")

    @staticmethod
    def integers() -> "RingSpec":
        return ZZ

    @staticmethod
    def rationals() -> "RingSpec":
        return QQ

    @staticmethod
    def prime_field(p: int) -> "RingSpec":
        return RingSpec("Fp", p)

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "Fp")

    @property
    def label(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind

    def __str__(self) -> str:
        return self.label

    # -- element arithmetic ------------------------------------------------

    def convert(self, value):
        """Coerce an int or Fraction into this ring; reject anything lossy."""
        if self.kind == "Z":
            if isinstance(value, int):
                return value
            if isinstance(value, Fraction):
                if value.denominator == 1:
                    return int(value)
                raise UnsupportedRing(f"{value} is not an integer")
        elif self.kind == "Q":
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, Fraction):
                return value
        else:  # Fp
            if isinstance(value, int):
                return value % self.p
            if isinstance(value, Fraction):
                den = value.denominator % self.p
                if den == 0:
                    raise UnsupportedRing(f"denominator of {value} vanishes mod {self.p}")
                return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise UnsupportedRing(f"cannot interpret {value!r} as an element of {self}")

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a) -> bool:
        return a == 0

    def format_element(self, a) -> str:
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))


ZZ = RingSpec("Z")
QQ = RingSpec("Q")


def GF(p: int) -> RingSpec:
    return RingSpec.prime_field(p)


class ExactMatrix:
    """Immutable sparse matrix with exact entries over a :class:`RingSpec`.

    Stored as one ``{row: value}`` dict per column, the form the elimination
    kernel takes; only nonzero entries are stored.  Matrices built from
    others (slices, appended columns) share those dicts with them and with
    the boundary matrices a complex caches, so a column is never mutated
    once a matrix holds it: every kernel entry point copies the columns
    before it eliminates in place.
    """

    __slots__ = ("rows", "cols", "ring", "_cols")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple, object] | Iterable, ring: RingSpec):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        columns = [{} for _ in range(cols)]
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), v in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
            v = ring.convert(v)
            if not ring.is_zero(v):
                columns[j][i] = v
        self.rows, self.cols, self.ring, self._cols = rows, cols, ring, columns

    # construction helpers

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ring: RingSpec) -> "ExactMatrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(n, m, entries, ring)

    @classmethod
    def _wrap(cls, rows: int, columns: list, ring: RingSpec) -> "ExactMatrix":
        """Adopt ``columns`` unchecked: ``{row: value}`` dicts of nonzero
        elements of ``ring``, all rows in range, e.g. cut from a matrix that
        was validated when it was built."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix.ring, matrix._cols = rows, len(columns), ring, columns
        return matrix

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: RingSpec) -> "ExactMatrix":
        return cls(rows, cols, {}, ring)

    @classmethod
    def identity(cls, n: int, ring: RingSpec) -> "ExactMatrix":
        return cls(n, n, {(i, i): ring.one() for i in range(n)}, ring)

    # access

    @property
    def entries(self):
        """Read-only ``(row, col) -> value`` view of the nonzero entries."""
        return MappingProxyType({(i, j): v for j, col in enumerate(self._cols)
                                 for i, v in col.items()})

    def get(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self._cols[j].get(i, self.ring.zero())

    def dense(self) -> list:
        out = [[self.ring.zero()] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                out[i][j] = v
        return out

    def column(self, j: int) -> list:
        return [self.get(i, j) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self._cols)

    # transformations

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           {(j, i): v for (i, j), v in self.entries.items()}, self.ring)

    def cast(self, ring: RingSpec) -> "ExactMatrix":
        """Reinterpret entries in another ring (entries may vanish, e.g. mod p)."""
        if ring == self.ring:
            return self
        if self.ring.kind == "Fp":
            raise UnsupportedRing(f"cannot lift {self.ring} entries into {ring}")
        convert = ring.convert
        return ExactMatrix._wrap(self.rows, [{i: w for i, v in col.items() if (w := convert(v))}
                                             for col in self._cols], ring)

    def drop(self, rows: Iterable[int] = (), cols: Iterable[int] = ()) -> "ExactMatrix":
        """Delete the given row/column indices, keeping the order of the rest."""
        rset, cset = set(rows), set(cols)
        rmap = {i: k for k, i in enumerate(i for i in range(self.rows) if i not in rset)}
        return ExactMatrix._wrap(len(rmap), [{rmap[i]: v for i, v in col.items() if i in rmap}
                                             for j, col in enumerate(self._cols) if j not in cset],
                                 self.ring)

    def apply(self, vector: Sequence) -> list:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        ring = self.ring
        out = [ring.zero()] * self.rows
        for col, x in zip(self._cols, vector):
            for i, v in col.items():
                out[i] = ring.add(out[i], ring.mul(v, x))
        return out

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise UnsupportedRing("matrix product needs a common ring")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        ring = self.ring
        columns = []
        for col in other._cols:
            acc = {}
            for k, w in col.items():
                for i, v in self._cols[k].items():
                    acc[i] = ring.add(acc.get(i, ring.zero()), ring.mul(v, w))
            columns.append({i: v for i, v in acc.items() if not ring.is_zero(v)})
        return ExactMatrix._wrap(self.rows, columns, ring)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.ring == other.ring and self._cols == other._cols)

    def __repr__(self) -> str:
        nonzero = sum(map(len, self._cols))
        return f"ExactMatrix({self.rows}x{self.cols} over {self.ring}, {nonzero} nonzero)"


@dataclass(frozen=True)
class SmithForm:
    """Diagonal divisors (d_i | d_{i+1}, all positive) of an integer matrix."""

    shape: tuple
    divisors: tuple
    left_transform: Optional[ExactMatrix] = None
    right_transform: Optional[ExactMatrix] = None

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def diagonal(self) -> ExactMatrix:
        n, m = self.shape
        return ExactMatrix(n, m, {(k, k): d for k, d in enumerate(self.divisors)}, ZZ)


def _eliminate(cols: list, p: Optional[int]) -> list:
    """Sparse elimination, in place, on ``cols``: one ``{row: value}`` dict per column.

    ``p`` is None over Z and over Q scaled to integers, where only entries
    ±1 are pivots, and the prime over F_p (ints in [0, p)).  Pivot
    columns go shortest first; within one, the unit whose row has the
    fewest entries.  A pivot clears its row from the other columns by
    column operations and empties its own column.  Returns the pivot
    columns in the order taken; over Z the columns left nonempty are the
    residue without units.
    """
    rows = {}
    order = []
    for j, col in enumerate(cols):
        if col:
            order.append(j)
            for i in col:
                rows.setdefault(i, set()).add(j)
    order.sort(key=lambda j: len(cols[j]))
    pivots = []
    while True:
        taken = len(pivots)
        deferred = []
        for c in order:
            col = cols[c]
            r, fewest = None, None
            for i, v in col.items():
                if ((p is not None or v == 1 or v == -1)
                        and (fewest is None or len(rows[i]) < fewest)):
                    r, fewest = i, len(rows[i])
            if r is None:
                deferred.append(c)
                continue
            u = col.pop(r)
            inv = pow(u, -1, p) if p else u
            items = list(col.items())
            for i, _ in items:
                rows[i].discard(c)
            users = rows.pop(r)
            users.discard(c)
            for k in users:
                colk = cols[k]
                f = colk.pop(r) * inv
                for i, v in items:
                    w = colk.get(i, 0) - f * v
                    if p:
                        w %= p
                    if w:
                        colk[i] = w
                        rows[i].add(k)
                    else:
                        del colk[i]
                        rows[i].discard(k)
            col.clear()
            pivots.append(c)
        if p is not None or len(pivots) == taken:
            return pivots
        order = sorted(deferred, key=lambda j: len(cols[j]))


def _reduce_column(col: dict, pivots: Mapping, p: Optional[int]) -> Optional[int]:
    """Reduce ``col`` in place by lowest row against ``pivots``, which maps
    the lowest row of each pivot column to that column, stored with a 1
    there.  ``p`` is None over Z (integer entries, so every multiple taken
    is an integer), 0 over Q (int or ``Fraction`` values) and the prime
    over F_p, as for :func:`_eliminate`.  Returns the lowest row left, which
    no pivot has, with ``col`` scaled to a 1 there when that entry is a
    unit, or None once ``col`` is empty.  Negative rows are never pivots,
    so entries at rows ``~j`` record the operations, and a lowest row below
    0, left unscaled, means that the rest of ``col`` has reduced to zero."""
    while col:
        low = max(col)
        pivot = pivots.get(low)
        if pivot is None:
            u = col[low]
            if low >= 0 and u != 1 and (p is not None or u == -1):  # a unit: over Z, -1
                inv = pow(u, -1, p) if p else -1 if u == -1 else 1 / Fraction(u)
                for i, v in col.items():
                    col[i] = v * inv % p if p else v * inv
            return low
        f = col[low]
        for i, v in pivot.items():
            w = col.get(i, 0) - f * v
            if p:
                w %= p
            if w:
                col[i] = w
            else:
                del col[i]
    return None


def _integral(col: dict) -> dict:
    """Scale a column of ints and Fractions, in place, to clear its
    denominators; the span and so every rank over Q stay the same."""
    den = math.lcm(*(v.denominator for v in col.values()))
    for i, v in col.items():
        col[i] = v.numerator * (den // v.denominator)
    return col


def _dense_snf(a: list, n: int, m: int, with_transforms: bool):
    """Smith divisors of the dense n x m integer matrix ``a``.

    Pivots are chosen by minimal absolute value and reduced with Bezout-style
    row/column combinations.  Returns ``(divisors, left, right)``.  For the
    unimodular transforms, ``a`` is bordered as ``[[a, I_n], [I_m, 0]]``:
    row operations on the first n rows then carry the left transform along,
    column operations on the first m columns the right one.
    """
    if with_transforms:
        a = ([row + [int(i == k) for k in range(n)] for i, row in enumerate(a)]
             + [[int(j == k) for k in range(m)] + [0] * n for j in range(m)])

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]

    def add_row(src, dst, q):  # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, q):  # column dst += q * column src
        for row in a:
            row[dst] += q * row[src]

    t = 0
    while t < min(n, m):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, m) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[t], a[i] = a[i], a[t]
        swap_cols(t, j)
        while True:
            # clear column t; nonzero remainders become the new, smaller pivot
            progressed = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        progressed = True
            if progressed:
                i_best = min((i for i in range(t, n) if a[i][t] != 0),
                             key=lambda i: abs(a[i][t]))
                a[t], a[i_best] = a[i_best], a[t]
                continue
            progressed = False
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        progressed = True
            if progressed:
                j_best = min((j for j in range(t, m) if a[t][j] != 0),
                             key=lambda j: abs(a[t][j]))
                swap_cols(t, j_best)
                continue
            # pivot row/column clear; force divisibility of the rest
            pivot = a[t][t]
            offender = next((i for i in range(t + 1, n)
                             if any(a[i][j] % pivot for j in range(t + 1, m))), None)
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        t += 1

    divisors = tuple(a[k][k] for k in range(t))
    if not with_transforms:
        return divisors, None, None
    return divisors, [row[m:] for row in a[:n]], [row[:m] for row in a[n:]]


def _reduce(matrix: ExactMatrix, ring: RingSpec, drop=()) -> tuple:
    """The unit pivot columns and the residue divisors of ``matrix`` over
    ``ring``, with the rows in ``drop`` left out; ``matrix`` is not changed."""
    if ring.kind == "Fp" or matrix.ring.kind == "Fp":
        matrix = matrix.cast(ring)
    cols = [{i: v for i, v in col.items() if i not in drop} for col in matrix._cols]
    if ring.kind == "Q":
        cols = [_integral(col) for col in cols]
    pivots = _eliminate(cols, ring.p)
    residue = [col for col in cols if col]
    if not residue:
        return pivots, ()
    rows = sorted({i for col in residue for i in col})
    dense = [[col.get(i, 0) for col in residue] for i in rows]
    return pivots, _dense_snf(dense, len(rows), len(residue), False)[0]


def _unit_form(col: Mapping, ring: RingSpec) -> dict:
    """A copy of ``col`` in the form that :func:`_reduce` eliminates over ``ring``."""
    return _integral(dict(col)) if ring.kind == "Q" else dict(col)


def smith_normal_form(matrix: ExactMatrix, with_transforms: bool = False) -> SmithForm:
    """Smith Normal Form of an integer matrix.

    Unit pivots are eliminated sparsely and only the residue goes through
    the dense Bezout reduction.  When ``with_transforms`` is set, the whole
    matrix takes the dense route and the returned unimodular witnesses
    satisfy ``left @ matrix @ right == diagonal``.
    """
    if matrix.ring != ZZ:
        raise UnsupportedRing("smith_normal_form expects integer entries")
    n, m = matrix.rows, matrix.cols
    if not with_transforms:
        pivots, residue = _reduce(matrix, ZZ)
        return SmithForm(shape=(n, m), divisors=(1,) * len(pivots) + residue)
    divisors, left, right = _dense_snf(matrix.dense(), n, m, True)
    return SmithForm(shape=(n, m), divisors=divisors,
                     left_transform=ExactMatrix.from_rows(left, ZZ),
                     right_transform=ExactMatrix.from_rows(right, ZZ))


def _require_field(ring: RingSpec) -> None:
    if not ring.is_field:
        raise NonFieldRing(f"{ring} is not a field; use smith_normal_form over Z")


def _field_columns(matrix: ExactMatrix, ring: RingSpec) -> list:
    """Copies of the columns of ``matrix`` over a field; over Q integral
    entries become ints."""
    _require_field(ring)
    if ring.kind == "Fp" or matrix.ring.kind == "Fp":
        return [dict(col) for col in matrix.cast(ring)._cols]
    return [{i: v.numerator if v.denominator == 1 else v for i, v in col.items()}
            for col in matrix._cols]


def rank_over(matrix: ExactMatrix, ring: RingSpec) -> int:
    """Rank over Q or F_p: the unit pivots plus the residue divisors of
    :func:`_reduce`, so a rank over Q does no ``Fraction`` arithmetic."""
    _require_field(ring)
    pivots, residue = _reduce(matrix, ring)
    return len(pivots) + len(residue)


def _reduction(matrix: ExactMatrix, ring: RingSpec, cleared=()) -> tuple:
    """``(cycles, boundaries)`` of one reduction of ``matrix`` over a field.

    Column j is reduced by lowest row against the columns before it, with
    the record of its operations at rows ``~j``.  ``cycles`` maps each
    column f that reduces to zero, in ascending order, to its record as a
    sparse ``{column: value}`` dict: the kernel vector with a 1 at f and
    its support on f and the pivot columns before it.  ``boundaries`` maps
    the lowest row of every other column to that column, with a 1 there
    and its record dropped: an echelon basis of the image.

    The columns in ``cleared`` must be lowest rows of the reduction of the
    boundary into the degree of ``matrix``, and are skipped: a boundary
    ending at row j makes column j a combination of the columns before it,
    whose cycle is then no basis cycle.
    """
    p = ring.p or 0
    cycles, pivots = {}, {}
    for j, col in enumerate(_field_columns(matrix, ring)):
        if j in cleared:
            continue
        col[~j] = 1
        low = _reduce_column(col, pivots, p)
        if low < 0:
            cycles[j] = {~i: v for i, v in col.items()}
        else:
            pivots[low] = col
    return cycles, {low: {i: v for i, v in col.items() if i >= 0}
                    for low, col in pivots.items()}


def kernel_basis(matrix: ExactMatrix, ring: RingSpec) -> list:
    """A canonical basis of the right kernel over a field.

    One vector per free column of the reduced echelon form, in ascending
    free-column order; this makes downstream homology bases reproducible.
    The vector of free column f has a 1 at f and zeros at the other free
    columns: the record of the column operations that zeroed column f in
    the :func:`_reduction` of ``matrix``.
    """
    basis = []
    for z in _reduction(matrix, ring)[0].values():
        vec = [ring.zero()] * matrix.cols
        for i, v in z.items():
            vec[i] = ring.convert(v)
        basis.append(vec)
    return basis


def _beside(matrix: ExactMatrix, vectors: Sequence) -> ExactMatrix:
    """``matrix`` with ``vectors`` (elements of its ring) appended as columns."""
    return ExactMatrix._wrap(matrix.rows, matrix._cols + [
        {i: v for i, v in enumerate(vec) if v} for vec in vectors], matrix.ring)


def solve(matrix: ExactMatrix, rhs: Sequence, ring: RingSpec):
    """One exact solution of ``matrix @ x = rhs`` over a field, or None.

    Free variables are set to zero, so the returned solution is canonical:
    minus the kernel vector of ``[matrix | rhs]`` whose free column is the last.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    m = matrix.cols
    basis = kernel_basis(_beside(matrix.cast(ring), [list(map(ring.convert, rhs))]), ring)
    if not basis or not basis[-1][m]:
        return None
    return [ring.neg(v) for v in basis[-1][:m]]
