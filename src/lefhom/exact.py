"""Exact linear algebra over the integers, the rationals and prime fields.

Entries are Python ints over Z, ints in [0, p) over F_p and ``Fraction``
over Q; no floating point is ever involved.  An :class:`ExactMatrix`
stores one ``{row: value}`` dict per column, the form in which boundary
matrices are assembled and sliced, and every reduction runs on copies of
those columns through one of two sparse routines: :func:`_eliminate` for
ranks and Smith forms, :func:`_reduce_column` for reductions by lowest row.

The ring policy lives here: :func:`_admit`, its one check, refuses what a
ring cannot hold, and :func:`_converter` copies each column of a matrix in
its own ring, once, into the ring of the reduction.  Over Q, columns are
scaled to integers, which keeps their span, so no rank does ``Fraction``
arithmetic and :func:`_eliminate` sees ints only.  Over Z and Q only ±1 is a pivot,
over F_p every nonzero entry.
:func:`_reduce` runs the unit phase, :func:`_eliminate`, and then the
residue phase, the dense Bezout Smith form of the columns left (none are
left over F_p).  :func:`smith_normal_form` without transforms,
:func:`rank_over` and ``homology.profile_from_boundaries`` call it.  For
a column reduction by lowest row, :func:`_reduce_column` scales each new
pivot column to a 1 at its lowest row when that entry is a unit.  It
serves the reduction that grows in ``homology.IncrementalReducer`` and,
over a field, :func:`_reduction`, which reduces a whole matrix once, left to
right, with the record of each column's operations at negative rows.
Its cycles are the canonical kernel basis of :func:`kernel_basis` and
:func:`solve` and the homology cycles of ``homology.long_exact_sequence``,
and its pivot table stands for the image.  The dense form with transforms
serves ``with_transforms=True``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

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


class RingSpec(namedtuple("RingSpec", "kind p", defaults=(None,))):
    """A supported coefficient ring: Z, Q, or a prime field F_p.

    ``kind`` is "Z", "Q" or "Fp", and ``p`` the modulus of F_p, else None.
    Instances are immutable named tuples, hashable, so they double as cache
    keys.  Every construction path validates: the constructor, ``_make``,
    ``_replace`` and unpickling.  Elements are plain ``int`` (for Z and F_p,
    the latter kept canonical in [0, p)) or ``Fraction`` (for Q).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        kind, p = self
        if kind not in ("Z", "Q", "Fp"):
            raise UnsupportedRing(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            # the bound keeps trial division under 46 341 steps
            if p is not None and p >= 1 << 31:
                raise UnsupportedRing("prime field modulus must be below 2**31, "
                                      f"got a {p.bit_length()}-bit number")
            if p is None or not _is_prime(p):
                raise UnsupportedRing(f"prime field modulus must be prime, got {p!r}")
        elif p is not None:
            raise UnsupportedRing(f"ring {kind} takes no modulus")
        return self

    @classmethod
    def _make(cls, iterable) -> "RingSpec":
        return cls(*iterable)  # through __new__, so _replace validates too

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
                return int(value)  # a bool too is an int, but not one to store
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

    def format_element(self, a) -> str:
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))


ZZ = RingSpec("Z")
QQ = RingSpec("Q")


def GF(p: int) -> RingSpec:
    return RingSpec("Fp", p)


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
            if v := ring.convert(v):
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

    # access

    @property
    def entries(self):
        """Read-only ``(row, col) -> value`` view of the nonzero entries."""
        return MappingProxyType({(i, j): v for j, col in enumerate(self._cols)
                                 for i, v in col.items()})

    def get(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self._cols[j].get(i, self.ring.convert(0))

    def dense(self) -> list:
        out = [[self.ring.convert(0)] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                out[i][j] = v
        return out

    def is_zero(self) -> bool:
        return not any(self._cols)

    # transformations

    def cast(self, ring: RingSpec) -> "ExactMatrix":
        """Reinterpret entries in another ring (entries may vanish, e.g. mod p)."""
        if ring == self.ring:
            return self
        _admit(self.ring, ring, self._cols)
        return ExactMatrix._wrap(self.rows, [
            {i: w for i, v in col.items() if (w := ring.convert(v))} for col in self._cols], ring)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise UnsupportedRing("matrix product needs a common ring")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        convert = self.ring.convert  # sums in plain int/Fraction, converted once
        columns = []
        for col in other._cols:
            acc = {}
            for k, w in col.items():
                for i, v in self._cols[k].items():
                    acc[i] = acc.get(i, 0) + v * w
            columns.append({i: v for i, total in acc.items() if (v := convert(total))})
        return ExactMatrix._wrap(self.rows, columns, self.ring)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.ring == other.ring and self._cols == other._cols)

    def __repr__(self) -> str:
        nonzero = sum(map(len, self._cols))
        return f"ExactMatrix({self.rows}x{self.cols} over {self.ring}, {nonzero} nonzero)"


class SmithForm(NamedTuple):
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


def _integral(col: Mapping, drop=()) -> dict:
    """The ints and Fractions of ``col`` outside ``drop``, scaled to integers: the span stays."""
    den = math.lcm(*(v.denominator for i, v in col.items() if i not in drop))
    return {i: v.numerator * (den // v.denominator) for i, v in col.items() if i not in drop}


def _admit(source: RingSpec, ring: RingSpec, columns: Iterable[Mapping] = ()) -> None:
    """Refuse F_p entries over any other ring, and each Q value of ``columns``,
    in order, that Z or F_p cannot hold: every entry point's one ring check."""
    if source.kind == "Fp" and source != ring:
        raise UnsupportedRing(f"cannot lift {source} entries into {ring}")
    if source.kind == "Q" and ring.kind != "Q":
        for col in columns:
            for v in col.values():
                ring.convert(v)


@lru_cache(maxsize=32)
def _converter(source: RingSpec, ring: RingSpec, scaled: bool = True) -> Callable[..., dict]:
    """A column over ``source``, rows in an optional ``drop`` left out, as a
    reduction over ``ring`` takes it: ints over Z, nonzero residues over F_p,
    over Q ints scaled to integers or, unless ``scaled``, ints and Fractions.
    It calls :func:`_admit` and otherwise only converts.  Built once per
    (source, ring, scaled): a process meets a few rings."""
    _admit(source, ring)
    if source.kind == "Q":
        if ring.kind == "Q":
            return _integral if scaled else lambda col, drop=(): {
                i: int(v) if v.denominator == 1 else v for i, v in col.items() if i not in drop}
        return lambda col, drop=(): {
            i: w for i, v in col.items() if (w := ring.convert(v)) and i not in drop}
    if ring.kind == "Fp":  # also over its own field: sums of residues come here too
        p = ring.p
        return lambda col, drop=(): {
            i: w for i, v in col.items() if i not in drop and (w := v % p)}
    return lambda col, drop=(): {  # ints over Z or Q
        i: v for i, v in col.items() if i not in drop} if drop else dict(col)


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
    convert = _converter(matrix.ring, ring)
    cols = [convert(col, drop) for col in matrix._cols]
    pivots = _eliminate(cols, ring.p)
    residue = [col for col in cols if col]
    if not residue:
        return pivots, ()
    rows = sorted({i for col in residue for i in col})
    dense = [[col.get(i, 0) for col in residue] for i in rows]
    return pivots, _dense_snf(dense, len(rows), len(residue), False)[0]


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


def rank_over(matrix: ExactMatrix, ring: RingSpec) -> int:
    """Rank over Q or F_p: the unit pivots plus the residue divisors of
    :func:`_reduce`, so a rank over Q does no ``Fraction`` arithmetic."""
    _require_field(ring)
    pivots, residue = _reduce(matrix, ring)
    return len(pivots) + len(residue)


def _reduction(matrix: ExactMatrix, ring: RingSpec, cleared=(), dropped=frozenset()) -> tuple:
    """``(cycles, boundaries)`` of one reduction of ``matrix`` over a field.

    Column j is reduced by lowest row against the columns before it, with
    the record of its operations at rows ``~j``.  ``cycles`` maps each
    column f that reduces to zero, in ascending order, to its record as a
    sparse ``{column: value}`` dict: the kernel vector with a 1 at f and
    its support on f and the pivot columns before it.  ``boundaries`` maps
    the lowest row of every other column to that column as reduced, with a
    1 there and its record kept at the negative rows: an echelon basis of
    the image.

    The columns in ``cleared`` are left out, and the rows in ``dropped``
    are deleted from the others, so that a subcomplex or a quotient of a
    chain complex is reduced in the indices of the whole.  Left out are
    the columns outside the complex reduced, and the lowest rows of the
    reduction of the boundary into the degree of ``matrix``: a boundary
    ending at row j makes column j a combination of the columns before it,
    whose cycle is then no basis cycle.
    """
    _require_field(ring)
    p, convert = ring.p or 0, _converter(matrix.ring, ring, scaled=False)
    cycles, pivots = {}, {}
    for j, col in enumerate(matrix._cols):
        if j in cleared:
            continue
        col = convert(col, dropped)
        col[~j] = 1
        low = _reduce_column(col, pivots, p)
        if low < 0:
            cycles[j] = {~i: v for i, v in col.items()}
        else:
            pivots[low] = col
    return cycles, pivots


def kernel_basis(matrix: ExactMatrix, ring: RingSpec) -> list:
    """A canonical basis of the right kernel over a field.

    One vector per free column of the reduced echelon form, in ascending
    free-column order; this makes downstream homology bases reproducible.
    The vector of free column f has a 1 at f and zeros at the other free
    columns: the record of the column operations that zeroed column f in
    the :func:`_reduction` of ``matrix``.
    """
    return [[ring.convert(z.get(i, 0)) for i in range(matrix.cols)]
            for z in _reduction(matrix, ring)[0].values()]


def solve(matrix: ExactMatrix, rhs: Sequence, ring: RingSpec):
    """One exact solution of ``matrix @ x = rhs`` over a field, or None.

    Free variables are set to zero, so the returned solution is canonical:
    minus the record of the last column in one :func:`_reduction` of
    ``[matrix | rhs]``, or None when that column takes a pivot.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    m = matrix.cols
    # rhs is taken into ring, where the converter into ring leaves each value as it is
    column = {i: w for i, v in enumerate(rhs) if (w := ring.convert(v))}
    cycles = _reduction(ExactMatrix._wrap(matrix.rows, matrix._cols + [column], matrix.ring),
                        ring)[0]
    if m not in cycles:
        return None
    return [ring.convert(-cycles[m].get(i, 0)) for i in range(m)]
