"""Ingestion, generation and export of complexes.

Three text inputs are understood: the native ``.lef`` format (ring, cells,
incidences), lists of maximal simplices, and lists of elementary cubes.
The canonical renderer sorts cells by (dim, id) and incidences by (x, y),
so parse/render round-trips are byte-stable.  A seeded generator supplies
test corpora, each draw a hashable recipe that is built afterwards,
including a basis-change mode that rewrites the cell basis by unimodular
moves: homology is preserved exactly while the face order generally
changes, which is where the comparison theorem gets interesting.
"""

from __future__ import annotations

import random
import re
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Iterable, NamedTuple, Sequence

from .complexes import _ID_RE, MAX_LEF_DIM, LefschetzComplex, _graded, build_complex
from .errors import (
    DimensionMismatch,
    EmptyInput,
    LefSyntaxError,
    MalformedInterval,
    TooManySimplices,
    UnsupportedRing,
)
from .exact import GF, QQ, ZZ, RingSpec
from .simplicial import DEFAULT_SIMPLEX_CAP

__all__ = [
    "GeneratorConfig",
    "GENERATOR_MODES",
    "parse_lef",
    "render_lef",
    "import_simplicial",
    "parse_simplicial",
    "import_cubical",
    "parse_cubical",
    "Recipe",
    "draw_recipe",
    "build_recipe",
    "random_complex",
    "export_dot",
]

GENERATOR_MODES = ("simplicial-random", "cubical-random", "basis-change")


# ---------------------------------------------------------------------------
# .lef format
# ---------------------------------------------------------------------------

def _parse_value(token: str, ring: RingSpec, line_no: int):
    try:
        return int(token)
    except ValueError:
        pass
    if ring.kind == "Q" and "/" in token:
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            pass
    raise LefSyntaxError(line_no, f"bad coefficient {token!r}")


def parse_lef(text: str) -> LefschetzComplex:
    """Parse the line-oriented ``.lef`` format into a validated complex.

    Syntactic problems (malformed lines, unknown cell references, duplicate
    declarations) raise ``LefSyntaxError`` with the line number; algebraic
    validation failures propagate from construction.
    """
    ring = None
    cells = []
    seen = {}
    kappa_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "ring":
            if ring is not None:
                raise LefSyntaxError(line_no, "ring declared twice")
            if parts[1:] == ["Z"]:
                ring = ZZ
            elif parts[1:] == ["Q"]:
                ring = QQ
            elif len(parts) == 3 and parts[1] == "Zp":
                try:
                    ring = GF(int(parts[2]))
                except (ValueError, UnsupportedRing) as exc:
                    raise LefSyntaxError(line_no, f"bad prime field: {exc}") from None
            else:
                raise LefSyntaxError(line_no, f"unsupported ring {' '.join(parts[1:])!r}")
            continue
        if ring is None:
            raise LefSyntaxError(line_no, "the first line must declare the ring")
        if parts[0] == "cell":
            if len(parts) != 3:
                raise LefSyntaxError(line_no, "want: cell <id> <dim>")
            cid = parts[1]
            if not _ID_RE.match(cid):
                raise LefSyntaxError(line_no, f"bad cell id {cid!r}")
            if cid in seen:
                raise LefSyntaxError(line_no, f"cell {cid!r} declared twice")
            try:
                dim = int(parts[2])
            except ValueError:
                raise LefSyntaxError(line_no, f"bad dimension {parts[2]!r}") from None
            if dim < 0:
                raise LefSyntaxError(line_no, "dimension must be non-negative")
            if dim > MAX_LEF_DIM:
                raise LefSyntaxError(line_no, f"dimension {dim} exceeds the maximum {MAX_LEF_DIM}")
            seen[cid] = dim
            cells.append((cid, dim))
        elif parts[0] == "kappa":
            if len(parts) != 4:
                raise LefSyntaxError(line_no, "want: kappa <x> <y> <value>")
            kappa_lines.append((line_no, parts[1], parts[2], parts[3]))
        else:
            raise LefSyntaxError(line_no, f"unknown directive {parts[0]!r}")
    if ring is None:
        raise LefSyntaxError(1, "empty input: missing ring declaration")

    kappa = {}
    for line_no, x, y, token in kappa_lines:
        for ref in (x, y):
            if ref not in seen:
                raise LefSyntaxError(line_no, f"kappa references undeclared cell {ref!r}")
        if (x, y) in kappa:
            raise LefSyntaxError(line_no, f"kappa({x}, {y}) given twice")
        kappa[(x, y)] = _parse_value(token, ring, line_no)
    return build_complex(cells, kappa, ring)


def render_lef(X: LefschetzComplex) -> str:
    """Canonical ``.lef`` serialization; inverse of :func:`parse_lef`."""
    ring = X.ring
    if ring.kind == "Fp":
        lines = [f"ring Zp {ring.p}"]
    else:
        lines = [f"ring {ring.kind}"]
    for cid, dim in X.cells:
        lines.append(f"cell {cid} {dim}")
    for (x, y), value in sorted(X.kappa_entries.items()):  # unique keys: no value compared
        lines.append(f"kappa {x} {y} {ring.format_element(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simplicial import
# ---------------------------------------------------------------------------


def import_simplicial(maximal_simplices: Iterable[Sequence[str]],
                      ring: RingSpec = ZZ) -> LefschetzComplex:
    """All faces of the given maximal simplices, with alternating-sign
    incidences on vertex deletion (vertices sorted ascending).

    Cell ids concatenate the sorted vertex names, with underscores when any
    vertex name has more than one character, and each name written as its
    length, ``_`` and itself (``3_a_b1_c``) when some name holds an
    underscore; each id is built once per face.  Raises
    ``TooManySimplices`` once the distinct faces pass the simplex cap,
    counted as each simplex's faces of each size are added, at most cap + 1
    of them.
    """
    return build_complex(*_face_cells(_faces(maximal_simplices)), ring)


def _faces(maximal_simplices: Iterable[Sequence[str]]) -> set:
    """Every face of the given simplices, as a sorted tuple of vertex names."""
    faces = set()
    for simplex in maximal_simplices:
        simplex = tuple(sorted(set(str(v) for v in simplex)))
        if not simplex:
            raise EmptyInput("empty simplex in input")
        for size in range(1, len(simplex) + 1):
            faces.update(islice(combinations(simplex, size), DEFAULT_SIMPLEX_CAP + 1))
            if len(faces) > DEFAULT_SIMPLEX_CAP:
                raise TooManySimplices(DEFAULT_SIMPLEX_CAP, "simplicial input")
    if not faces:
        raise EmptyInput("no simplices to import")
    return faces


def _face_cells(faces) -> tuple:
    """The (id, dim) cells and the {(x, y): ±1} kappa of a set of sorted
    vertex tuples that holds every face of each of its tuples."""
    vertices = [face[0] for face in faces if len(face) == 1]
    spell = None
    if all(len(v) == 1 for v in vertices):
        joiner = ""
    elif all("_" not in v for v in vertices):
        joiner = "_"
    else:  # a_b c and a b_c would both join to a_b_c
        joiner, spell = "", {v: f"{len(v)}_{v}" for v in vertices}.__getitem__
    ids = {face: joiner.join(face if spell is None else map(spell, face))
           for face in sorted(faces)}
    cells = [(cid, len(face) - 1) for face, cid in ids.items()]
    kappa = {}
    for face in faces:
        if len(face) == 1:
            continue
        x = ids[face]
        for i in range(len(face)):
            kappa[(x, ids[face[:i] + face[i + 1:]])] = 1 if i % 2 == 0 else -1
    return cells, kappa


def parse_simplicial(text: str, ring: RingSpec = ZZ) -> LefschetzComplex:
    """One maximal simplex per line, whitespace-separated vertex ids."""
    faces = [line.split("#", 1)[0].split() for line in text.splitlines()]
    faces = [face for face in faces if face]
    if not faces:
        raise EmptyInput("no simplices in input")
    return import_simplicial(faces, ring)


# ---------------------------------------------------------------------------
# cubical import
# ---------------------------------------------------------------------------

_INTERVAL_RE = re.compile(r"\[\s*(-?\d+)\s*(?:,\s*(-?\d+)\s*)?\]\Z")


def _interval_id(lo: int, hi: int) -> str:
    def enc(k: int) -> str:
        return f"m{-k}" if k < 0 else str(k)

    return enc(lo) if lo == hi else f"{enc(lo)}_{enc(hi)}"


_join_id = "x".join  # a cube's id: its interval ids, axis by axis


def _interval(interval) -> tuple:
    """The ``(lo, hi)`` of an interval given as ``[k]``, ``[k, k+1]`` or ``k``, checked."""
    pair = tuple(interval) if not isinstance(interval, int) else (interval,)
    if len(pair) == 1:
        lo = hi = int(pair[0])
    elif len(pair) == 2:
        lo, hi = int(pair[0]), int(pair[1])
    else:
        raise MalformedInterval(f"bad interval {interval!r}")
    if hi not in (lo, lo + 1):
        raise MalformedInterval(f"interval [{lo}, {hi}] is not [k] or [k, k+1]")
    return lo, hi


def import_cubical(cubes: Iterable[Sequence], ring: RingSpec = ZZ) -> LefschetzComplex:
    """All faces of the given elementary cubes with standard signed incidences.

    Each cube is a product of integer intervals, degenerate ``[k]`` or unit
    ``[k, k+1]``; all cubes must share the embedding dimension.  Collapsing
    the j-th non-degenerate interval contributes the sign ``(-1)**s_j`` to
    the upper face and its negative to the lower face, where ``s_j`` counts
    non-degenerate intervals strictly before position j.  Each distinct
    interval is checked once and its faces' coordinates kept for its later
    occurrences (one given as a list or an int is checked each time).
    Each coordinate is named once and each face id joined once from those
    names, and kappa comes in sorted-face order; the construction validator
    (boundary of boundary is zero) is still the arbiter of this sign
    convention.  Raises ``TooManySimplices`` once the distinct faces pass
    the cap, counted as each cube's faces are added, at most cap + 1 of them.
    """
    # faces in doubled coordinates, [k] as 2k and [k, k+1] as 2k + 1: they sort
    # as the intervals do, and a unit interval's facets are its coordinate ± 1
    faces = set()
    # a tuple interval -> its faces' coordinates: a number equal to an int,
    # such as 1.0, is no interval, and a list cannot be a key
    known = {}
    embedding = None
    for cube in cubes:
        cube = tuple(cube)  # read twice when an interval is new
        try:
            options = list(map(known.__getitem__, cube))
        except (KeyError, TypeError):  # an interval met for the first time, or a list
            options = [(2 * lo,) if lo == hi else (lo + hi, 2 * lo, 2 * hi)
                       for lo, hi in map(_interval, cube)]
            known.update((interval, coordinates) for interval, coordinates in zip(cube, options)
                         if type(interval) is tuple)
        if embedding is None:
            embedding = len(options)
        elif embedding != len(options):
            raise DimensionMismatch(f"cube {tuple(map(_interval, cube))} has embedding "
                                    f"dimension {len(options)}, expected {embedding}")
        if not options:
            raise MalformedInterval("a cube needs at least one interval")
        faces.update(islice(product(*options), DEFAULT_SIMPLEX_CAP + 1))
        if len(faces) > DEFAULT_SIMPLEX_CAP:
            raise TooManySimplices(DEFAULT_SIMPLEX_CAP, "cubical input")
    if embedding is None:
        raise EmptyInput("no cubes to import")
    faces = sorted(faces)
    names = {c: _interval_id(c >> 1, (c + 1) >> 1) for c in set().union(*faces)}
    # each face's names, read off the coordinates axis by axis
    ids = dict(zip(faces, map(_join_id, zip(*[map(names.__getitem__, axis)
                                              for axis in zip(*faces)]))))
    cells, kappa = [], []
    for face, x in ids.items():
        dim, sign, facet = 0, 1, list(face)  # facet: face with one coordinate moved
        for j, c in enumerate(face):
            if c & 1:
                facet[j] = c + 1
                kappa.append(((x, ids[tuple(facet)]), sign))
                facet[j] = c - 1
                kappa.append(((x, ids[tuple(facet)]), -sign))
                facet[j] = c
                dim, sign = dim + 1, -sign
        cells.append((x, dim))
    return build_complex(cells, kappa, ring)


def _cubes(text: str):
    """The cubes of the lines of ``text``, parsed as they are read.

    Each distinct interval token is parsed once per text, at its first line,
    so a bad token is reported there; its later occurrences reuse the same
    ``(lo, hi)`` pair, which :func:`import_cubical` then checks once.
    """
    parsed = {}  # token -> (lo, hi)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        axes = []
        for token in line.split("x"):
            pair = parsed.get(token)
            if pair is None:
                match = _INTERVAL_RE.match(token.strip())
                try:
                    if not match:
                        raise ValueError(token)
                    # [k] is [k, k]
                    pair = parsed[token] = tuple(map(int, match.groups(match.group(1))))
                except ValueError:  # also an integer past int's digit limit
                    raise LefSyntaxError(line_no, f"bad interval {token.strip()!r}") from None
            axes.append(pair)
        yield tuple(axes)


def parse_cubical(text: str, ring: RingSpec = ZZ) -> LefschetzComplex:
    """One cube per line, e.g. ``[0,1]x[3]x[2,3]``.  A line is parsed when
    :func:`import_cubical` takes its cube, so its errors end the read there."""
    try:
        return import_cubical(_cubes(text), ring)
    except EmptyInput:  # import_cubical raises it only when no cube came
        raise EmptyInput("no cubes in input") from None


# ---------------------------------------------------------------------------
# random generator
# ---------------------------------------------------------------------------


# Inclusive bounds of GeneratorConfig's sizes: one draw stays within a few thousand cells.
GENERATOR_BOUNDS = {"max_cells_per_dim": 64, "max_dimension": 5, "transform_steps": 1000}


# GeneratorConfig's fields after ``seed``, with their defaults.
_GENERATOR_DEFAULTS = {"mode": "simplicial-random", "max_dimension": 2, "max_cells_per_dim": 4,
                       "coefficient_bound": 2, "transform_steps": 6}


class GeneratorConfig(namedtuple("GeneratorConfig", ["seed", *_GENERATOR_DEFAULTS],
                                 defaults=_GENERATOR_DEFAULTS.values())):
    """Seeded recipe for one random complex.

    ``max_cells_per_dim`` bounds the number of drawn vertices and maximal
    faces (or cubes); ``max_dimension`` bounds face/cube dimension;
    ``coefficient_bound`` and ``transform_steps`` drive the basis-change
    mode's unimodular moves.  Values above ``GENERATOR_BOUNDS`` are refused.
    An immutable named tuple: the constructor, ``_make``, ``_replace`` and
    unpickling all validate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in GENERATOR_MODES:
            raise ValueError(f"unknown generator mode {self.mode!r}")
        if not (0 <= self.seed < 1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.max_dimension < 1 or self.max_cells_per_dim < 1:
            raise ValueError("size bounds must be positive")
        if self.coefficient_bound < 1 or self.transform_steps < 0:
            raise ValueError("bad basis-change parameters")
        for name, bound in GENERATOR_BOUNDS.items():
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be at most {bound}")
        return self

    @classmethod
    def _make(cls, iterable) -> "GeneratorConfig":
        return cls(*iterable)  # through __new__, so _replace validates too


class Recipe(NamedTuple):
    """What one draw of the generator made, before anything is built: equal
    recipes build equal complexes.

    ``shapes`` holds the faces drawn (``simplicial-random``, each a sorted
    vertex tuple), the cubes drawn (``cubical-random``, each a tuple of
    ``(lo, hi)`` intervals), or every face of the faces drawn
    (``basis-change``); ``moves`` holds basis-change's ``(q, u, v, m)``
    moves, in the order they are made.
    """

    mode: str
    shapes: frozenset
    moves: tuple = ()

    def entries(self) -> int:
        """The length of each shape, and 4 per move."""
        return sum(map(len, self.shapes)) + 4 * len(self.moves)


def _random_faces(rng: random.Random, cfg: GeneratorConfig) -> list:
    nverts = rng.randint(1, cfg.max_cells_per_dim)
    verts = [f"v{i}" for i in range(nverts)]
    nfaces = rng.randint(1, cfg.max_cells_per_dim)
    faces = []
    for _ in range(nfaces):
        size = rng.randint(1, min(cfg.max_dimension + 1, nverts))
        faces.append(rng.sample(verts, size))
    return faces


def _random_cubes(rng: random.Random, cfg: GeneratorConfig) -> list:
    embedding = rng.randint(1, min(cfg.max_dimension, 3))
    ncubes = rng.randint(1, cfg.max_cells_per_dim)
    cubes = []
    for _ in range(ncubes):
        budget = cfg.max_dimension
        axes = []
        for _ in range(embedding):
            k = rng.randint(0, 2)
            if budget > 0 and rng.random() < 0.6:
                axes.append((k, k + 1))
                budget -= 1
            else:
                axes.append((k, k))
        cubes.append(tuple(axes))
    return cubes


def draw_recipe(rng: random.Random, cfg: GeneratorConfig) -> Recipe:
    """The recipe of one draw of ``cfg``'s mode and sizes from ``rng``, which
    stands for ``random.Random(cfg.seed)``: ``cfg.seed`` is not read.

    For basis-change the draw enumerates the face set, since the moves are
    drawn by place within each degree; each move ``(q, u, v, m)`` makes
    basis chain u of degree q into u + m*v.
    """
    if cfg.mode == "cubical-random":
        return Recipe(cfg.mode, frozenset(_random_cubes(rng, cfg)))
    drawn = _random_faces(rng, cfg)
    if cfg.mode == "simplicial-random":
        return Recipe(cfg.mode, frozenset(tuple(sorted(face)) for face in drawn))
    faces = frozenset(_faces(drawn))
    counts = Counter(map(len, faces))  # degree q holds counts[q + 1] cells
    # the sizes never change, so neither does the choice of degrees
    eligible = [q for q in range(1, len(counts)) if counts[q + 1] >= 2]
    moves = []
    for _ in range(cfg.transform_steps if eligible else 0):
        q = rng.choice(eligible)
        u, v = rng.sample(range(counts[q + 1]), 2)
        m = rng.randint(1, cfg.coefficient_bound) * rng.choice((1, -1))
        moves.append((q, u, v, m))
    return Recipe(cfg.mode, faces, tuple(moves))


def _basis_change(faces: frozenset, moves: tuple) -> LefschetzComplex:
    # the face set's cells and kappa, in the columns its complex would have:
    # nothing is built or validated until the moves are made
    cells, signs = _face_cells(faces)
    dims = dict(cells)
    ids, starts = _graded(dims)
    basis = [ids[a:b] for a, b in zip(starts, starts[1:])]  # the ids of each degree
    at = {cid: r - starts[dims[cid]] for r, cid in enumerate(ids)}  # places in their degrees
    # a {row: value} boundary column per cell, degree q's in cols[q]
    cols = {q: [{} for _ in basis[q]] for q in range(1, len(basis))}
    for (x, y), sign in signs.items():
        cols[dims[x]][at[x]][at[y]] = sign

    for q, u, v, m in moves:
        # new basis chain u := u + m*v in degree q: column u of the degree-q
        # boundary gains m * column v, row v of the degree-(q+1) one loses
        # m * row u; degree 0 is never touched, and a degree-1 column move
        # preserves zero column sums.  Entries that cancel stay zeros until
        # kappa is read.
        target = cols[q][u]
        for row, value in cols[q][v].items():
            target[row] = target.get(row, 0) + m * value
        for col in cols.get(q + 1, ()):
            if u in col:
                col[v] = col.get(v, 0) - m * col[u]

    cells = [(cid, dims[cid]) for cid in ids]
    kappa = [((x, basis[q - 1][row]), value) for q in cols
             for x, col in zip(basis[q], cols[q]) for row, value in sorted(col.items()) if value]
    return build_complex(cells, kappa, ZZ)


def build_recipe(recipe: Recipe) -> LefschetzComplex:
    """The validated complex over Z that ``recipe`` describes."""
    if recipe.mode == "simplicial-random":
        return import_simplicial(recipe.shapes)
    if recipe.mode == "cubical-random":
        return import_cubical(recipe.shapes)
    return _basis_change(recipe.shapes, recipe.moves)


def random_complex(cfg: GeneratorConfig) -> LefschetzComplex:
    """Deterministic random complex: equal configs give byte-identical output.
    It is the build of the recipe drawn from ``random.Random(cfg.seed)``."""
    return build_recipe(draw_recipe(random.Random(cfg.seed), cfg))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(X: LefschetzComplex) -> str:
    """Hasse diagram of the face order as a DOT digraph, ranked by dimension.

    Under the grading, the covering pairs are exactly the facet pairs, so
    edges run from each cell to its facets.
    """
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for q in range(X.top_dim + 1):
        ids = X.cells_of_dim(q)
        if ids:
            row = " ".join(f'"{cid}";' for cid in ids)
            lines.append(f"  {{ rank=same; {row} }}")
    for cid, _ in X.cells:
        for y in sorted(X.facets(cid)):
            lines.append(f'  "{cid}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
