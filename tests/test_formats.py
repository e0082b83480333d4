"""Text formats, importers, the seeded generator, DOT export."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from lefhom import (
    ZZ,
    GeneratorConfig,
    build_complex,
    export_dot,
    import_cubical,
    import_simplicial,
    is_augmentable,
    lefschetz_homology,
    parse_cubical,
    parse_lef,
    parse_simplicial,
    point_profile,
    random_complex,
    render_lef,
    smith_normal_form,
)
from lefhom import formats
from lefhom.cli import main
from lefhom.errors import (
    DimensionMismatch,
    EmptyInput,
    LefSyntaxError,
    MalformedInterval,
    TooManySimplices,
)
from lefhom.exact import ExactMatrix
from lefhom.formats import GENERATOR_BOUNDS, MAX_LEF_DIM


STAR_TEXT = """\
ring Z
cell a 0
cell b 0
cell c 0
cell d 0
cell e 1
kappa e a 1
kappa e b 1
kappa e c -1
kappa e d -1
"""


def test_parse_star(star):
    assert parse_lef(STAR_TEXT) == star


def test_parse_tolerates_comments_blanks_and_order():
    text = ("# a complex\n\nring Z\nkappa e a 1  # forward reference\n"
            "cell e 1\ncell a 0\n")
    X = parse_lef(text)
    assert X.kappa("e", "a") == 1


def test_parse_single_facet_is_valid():
    X = parse_lef("ring Z\ncell a 0\ncell e 1\nkappa e a 1\n")
    assert len(X) == 2


def test_parse_unknown_cell_reference_carries_line():
    with pytest.raises(LefSyntaxError) as err:
        parse_lef("ring Z\ncell e 1\nkappa e v 1\n")
    assert err.value.line_no == 3


@pytest.mark.parametrize("text,line", [
    ("cell a 0\n", 1),                              # ring must come first
    ("ring Z\nring Q\n", 2),                        # ring twice
    ("ring Zp 4\n", 1),                             # non-prime modulus
    ("ring X\n", 1),                                # unknown ring
    ("ring Z\ncell a 0\ncell a 1\n", 3),            # duplicate cell
    ("ring Z\ncell a zero\n", 2),                   # bad dimension
    ("ring Z\ncell a 0\ncell e 1\nkappa e a x\n", 4),   # bad coefficient
    ("ring Z\ncell a 0\ncell e 1\nkappa e a 1\nkappa e a 2\n", 5),  # dup kappa
    ("ring Z\nfrobnicate\n", 2),                    # unknown directive
    ("", 1),                                        # empty input
])
def test_parse_syntax_errors(text, line):
    with pytest.raises(LefSyntaxError) as err:
        parse_lef(text)
    assert err.value.line_no == line


def test_parse_prime_field_reduces_values():
    X = parse_lef("ring Zp 3\ncell a 0\ncell e 1\nkappa e a 5\n")
    assert X.kappa("e", "a") == 2
    # a coefficient that vanishes mod p is dropped entirely
    Y = parse_lef("ring Zp 3\ncell a 0\ncell e 1\nkappa e a 6\n")
    assert dict(Y.kappa_entries) == {}


def test_parse_rationals_accept_fractions():
    X = parse_lef("ring Q\ncell a 0\ncell e 1\nkappa e a 1/2\n")
    assert X.kappa("e", "a") == Fraction(1, 2)
    with pytest.raises(LefSyntaxError):
        parse_lef("ring Z\ncell a 0\ncell e 1\nkappa e a 1/2\n")


def test_render_is_canonical_and_roundtrips(corpus):
    for name, X in corpus:
        text = render_lef(X)
        again = parse_lef(text)
        assert again == X, name
        assert render_lef(again) == text, name


def test_render_orders_cells_and_kappa(star):
    lines = render_lef(star).splitlines()
    assert lines[0] == "ring Z"
    assert lines[1:6] == ["cell a 0", "cell b 0", "cell c 0", "cell d 0", "cell e 1"]
    assert lines[6:] == ["kappa e a 1", "kappa e b 1", "kappa e c -1", "kappa e d -1"]


# -- simplicial import --------------------------------------------------------


def test_import_triangle_signs():
    X = import_simplicial([("a", "b", "c")])
    assert len(X) == 7
    assert X.kappa("abc", "bc") == 1
    assert X.kappa("abc", "ac") == -1
    assert X.kappa("abc", "ab") == 1


def test_import_single_vertex():
    X = import_simplicial([("a",)])
    assert len(X) == 1 and X.top_dim == 0


def test_import_hollow_triangle_profile():
    X = import_simplicial([("a", "b"), ("b", "c"), ("a", "c")])
    assert len(X) == 6
    profile = lefschetz_homology(X)
    assert profile.free_rank(0) == 1 and profile.free_rank(1) == 1


def test_import_simplicial_multichar_vertices():
    X = import_simplicial([("v1", "v2")])
    assert sorted(c.id for c in X.cells) == ["v1", "v1_v2", "v2"]


def test_import_simplicial_empty():
    with pytest.raises(EmptyInput):
        import_simplicial([])
    with pytest.raises(EmptyInput):
        import_simplicial([()])


def test_parse_simplicial_lines():
    X = parse_simplicial("a b c\nc d\n")
    assert "abc" in X.cell_ids and "cd" in X.cell_ids
    # comments are stripped before splitting, whole-line or trailing
    Y = parse_simplicial("# two faces\na b c  # a triangle\nc d#an edge\n")
    assert Y == X


# -- cubical import -----------------------------------------------------------


def test_import_cubical_edge():
    X = import_cubical([[(0, 1)]])
    assert sorted(c.id for c in X.cells) == ["0", "0_1", "1"]
    assert X.kappa("0_1", "1") == 1
    assert X.kappa("0_1", "0") == -1


def test_import_cubical_point():
    X = import_cubical([[(0, 0)]])
    assert len(X) == 1 and X.top_dim == 0


def test_import_cubical_square():
    X = import_cubical([[(0, 1), (0, 1)]])
    assert len(X) == 9
    assert lefschetz_homology(X) == point_profile(ZZ)


def test_import_cubical_negative_coordinates():
    X = import_cubical([[(-1, 0)]])
    assert sorted(c.id for c in X.cells) == ["0", "m1", "m1_0"]


def test_import_cubical_errors():
    with pytest.raises(DimensionMismatch):
        import_cubical([[(0, 1)], [(0, 1), (2, 2)]])
    with pytest.raises(MalformedInterval):
        import_cubical([[(0, 2)]])
    with pytest.raises(EmptyInput):
        import_cubical([])


def test_parse_cubical_lines():
    X = parse_cubical("[0,1]x[3]\n[1,2]x[3]\n")
    assert X.top_dim == 1
    assert lefschetz_homology(X) == point_profile(ZZ)
    with pytest.raises(LefSyntaxError):
        parse_cubical("[0..1]\n")


# -- importers against a per-incidence reference --------------------------------


def _reference_simplicial(simplices):
    """Slow reference: each face's id is rebuilt for every incidence naming it."""
    faces = set()
    for simplex in simplices:
        simplex = tuple(sorted(set(simplex)))
        for size in range(1, len(simplex) + 1):
            faces.update(combinations(simplex, size))
    names = {v for face in faces for v in face}
    plain = all(len(v) == 1 for v in names)
    prefixed = not plain and any("_" in v for v in names)  # each name led by its length
    joiner = "" if plain or prefixed else "_"

    def name(face):
        return joiner.join(f"{len(v)}_{v}" if prefixed else v for v in face)

    cells = [(name(face), len(face) - 1) for face in sorted(faces)]
    kappa = {}
    for face in faces:
        if len(face) == 1:
            continue
        for i in range(len(face)):
            sub = face[:i] + face[i + 1:]
            kappa[(name(face), name(sub))] = 1 if i % 2 == 0 else -1
    return build_complex(cells, kappa, ZZ)


def _reference_cubical(cubes):
    """Slow reference: faces as tuples of intervals, each id the names of its
    intervals joined by "x"."""
    faces = set()
    for cube in cubes:
        options = [((lo, hi),) if lo == hi else ((lo, hi), (lo, lo), (hi, hi))
                   for lo, hi in cube]
        faces.update(product(*options))
    ids = {c: "x".join(formats._interval_id(lo, hi) for lo, hi in c) for c in faces}
    cells = [(ids[c], sum(1 for lo, hi in c if lo != hi)) for c in sorted(faces)]
    kappa = {}
    for cube in faces:
        seen_nondeg = 0
        for j, (lo, hi) in enumerate(cube):
            if lo == hi:
                continue
            sign = 1 if seen_nondeg % 2 == 0 else -1
            upper = cube[:j] + ((hi, hi),) + cube[j + 1:]
            lower = cube[:j] + ((lo, lo),) + cube[j + 1:]
            kappa[(ids[cube], ids[upper])] = sign
            kappa[(ids[cube], ids[lower])] = -sign
            seen_nondeg += 1
    return build_complex(cells, kappa, ZZ)


def test_import_cubical_matches_the_reference():
    rng = random.Random(8)
    for _ in range(150):
        embedding = rng.randint(1, 3)
        cubes = []
        for _ in range(rng.randint(1, 6)):
            axes = []
            for _ in range(embedding):
                k = rng.randint(-3, 2)
                axes.append((k, k + 1) if rng.random() < 0.6 else (k, k))
            cubes.append(tuple(axes))
        # a repeated cube and shared faces must not change the result
        cubes.append(rng.choice(cubes))
        assert render_lef(import_cubical(cubes)) == render_lef(_reference_cubical(cubes)), cubes


def test_import_simplicial_matches_the_reference():
    rng = random.Random(9)
    pools = ("abcdefg", ("a", "b", "v1", "v2", "v10", "x_1"), ("a", "b", "c", "a_b", "b_c"),
             ("a", "b", "v1", "v10"))
    for trial in range(200):
        pool = pools[trial % 4]
        simplices = [rng.sample(pool, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        assert (render_lef(import_simplicial(simplices))
                == render_lef(_reference_simplicial(simplices))), simplices
    # {a_b, c} and {a, b_c} joined by "_" would both be a_b_c
    X = parse_simplicial("a_b c\na b_c\n")
    assert X.cells_of_dim(1) == ("1_a3_b_c", "3_a_b1_c")
    assert lefschetz_homology(X).entries == ((0, 2, ()),)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(formats, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(formats, name, counted)
    return calls


def test_import_cubical_names_each_interval_once(monkeypatch):
    named = _count_calls(monkeypatch, "_interval_id")
    joined, join = [], formats._join_id

    def counted(names):
        joined.append(join(names))
        return joined[-1]

    monkeypatch.setattr(formats, "_join_id", counted)
    X = parse_cubical("\n".join(f"[{i},{i + 1}]x[{j},{j + 1}]"
                                for i in range(8) for j in range(8)))
    assert len(X) == 289
    # [k] for k = 0..8 and [k, k+1] for k = 0..7, each named once for both axes
    assert sorted(named) == sorted([(k, k) for k in range(9)] + [(k, k + 1) for k in range(8)])
    # each of the 289 ids joined once
    assert sorted(joined) == sorted(X.cell_ids)


def test_the_cubical_reader_checks_each_interval_once_and_keeps_every_edge_case():
    # a bad token that repeats is reported at the line where it first appears
    with pytest.raises(LefSyntaxError, match=r"^line 2: bad interval '\[0\.\.1\]'$"):
        parse_cubical("[0,1]x[0]\n[0,1]x[0..1]\n[0..1]x[0]\n")
    with pytest.raises(MalformedInterval, match=r"^interval \[0, 2\] is not \[k\] or \[k, k\+1\]$"):
        parse_cubical("[0,1]x[0]\n[0,1]x[0,2]\n[0,2]x[0]\n")
    # a change of embedding dimension prints the cube's (lo, hi) intervals,
    # whether its intervals were met before or not
    for cubes in ([[(0, 1)], [(0, 1), (2, 2)]], [[[0, 1]], [[0, 1], 2]], [[(0, 1)], [(0, 1), 2]]):
        with pytest.raises(DimensionMismatch, match=r"^cube \(\(0, 1\), \(2, 2\)\) has "
                                                    r"embedding dimension 2, expected 1$"):
            import_cubical(cubes)
    with pytest.raises(DimensionMismatch, match=r"^cube \(\(0, 1\), \(2, 2\)\) "):
        parse_cubical("[0,1]\n[0,1]x[2]\n")
    # spacing, a degenerate interval written twice over, and comments give one cube
    assert list(formats._cubes("[0,1]x[2]\n # note\n  [0, 1] x [2]  # cube\n[0,1]x[2,2]\n")) == [
        ((0, 1), (2, 2))] * 3
    square = render_lef(import_cubical([[(0, 1), (0, 1)]]))
    assert render_lef(parse_cubical("[0,1]x[0,1]\n")) == square
    assert render_lef(parse_cubical(" [0, 1] x[0,1]  # a square\n# nothing\n\n")) == square
    # through the API an interval may be a list or an int, also after its tuple was met
    edge = render_lef(import_cubical([[(0, 1), (3, 3)]]))
    assert render_lef(import_cubical([[[0, 1], 3]])) == edge
    assert render_lef(import_cubical([[(0, 1), (3,)], [[0, 1], 3], [(0, 1), 3]])) == edge
    # a number equal to a known interval is still no interval
    with pytest.raises(TypeError):
        import_cubical([[3], [3.0]])


def test_import_cubical_keeps_the_cell_and_incidence_order():
    # the order the store was built in: cells in sorted-face order, and each
    # cell's facets axis by axis, the upper face first
    X = import_cubical([[(0, 1), (0, 1)]])
    assert list(X._dims.items()) == [
        ("0x0", 0), ("0x0_1", 1), ("0x1", 0), ("0_1x0", 1), ("0_1x0_1", 2), ("0_1x1", 1),
        ("1x0", 0), ("1x0_1", 1), ("1x1", 0)]
    assert [(x, list(row.items())) for x, row in X._facets.items()] == [
        ("0x0", []), ("0x0_1", [("0x1", 1), ("0x0", -1)]), ("0x1", []),
        ("0_1x0", [("1x0", 1), ("0x0", -1)]),
        ("0_1x0_1", [("1x0_1", 1), ("0x0_1", -1), ("0_1x1", -1), ("0_1x0", 1)]),
        ("0_1x1", [("1x1", 1), ("0x1", -1)]), ("1x0", []), ("1x0_1", [("1x1", 1), ("1x0", -1)]),
        ("1x1", [])]
    box = parse_cubical("[0,1]x[0,1]x[0,1]\n[1,2]x[0,1]x[0,1]\n")
    order = repr((list(box._dims.items()),
                  [(x, list(row.items())) for x, row in box._facets.items()]))
    assert len(box) == 45
    assert hashlib.sha256(order.encode()).hexdigest() == (
        "a2139f9bdb01f623181f896b0a675a0215d5d80affa5f253dc9a1fed01164341")


def test_cubical_cap_bounds_the_distinct_faces(monkeypatch):
    monkeypatch.setattr(formats, "DEFAULT_SIMPLEX_CAP", 100)

    def grid(n):
        return [[(i, i + 1), (j, j + 1)] for i in range(n) for j in range(n)]

    # 16 squares have 144 faces counted square by square, 81 distinct ones
    assert len(import_cubical(grid(4))) == 81
    with pytest.raises(TooManySimplices):
        import_cubical(grid(5))  # 121 distinct faces
    assert len(import_cubical([[(0, 1), (0, 1)], [(1000, 1001), (0, 1)]])) == 18


def test_importer_caps_count_distinct_faces(monkeypatch):
    # each input has exactly cap distinct faces, and more by the estimates
    # that 2**k - 1 per simplex, 3**k per cube and the bounding box give
    monkeypatch.setattr(formats, "DEFAULT_SIMPLEX_CAP", 15)
    strip = [(f"v{i}", f"v{i + 1}", f"v{i + 2}") for i in range(3)]  # 5 + 7 + 3 faces, not 21
    assert len(import_simplicial(strip)) == 15
    with pytest.raises(TooManySimplices, match="simplicial input exceeds 15 simplices"):
        import_simplicial(strip + [("w",)])
    monkeypatch.setattr(formats, "DEFAULT_SIMPLEX_CAP", 97)
    diagonal = [[(i, i + 1), (i, i + 1)] for i in range(12)]  # 8 * 12 + 1 faces, not 108 or 625
    assert len(import_cubical(diagonal)) == 97
    with pytest.raises(TooManySimplices, match="cubical input exceeds 97 simplices"):
        import_cubical(diagonal + [[(100,), (100,)]])
    # a simplex far past the cap is refused after cap + 1 faces, not 2**1000 - 1
    with pytest.raises(TooManySimplices):
        import_simplicial([[f"v{i}" for i in range(1000)]])


def test_a_large_cubical_grid_is_refused_while_it_is_read():
    read = []

    def cubes():
        for i in range(1000):
            for j in range(1000):
                read.append((i, j))
                yield ((i, i + 1), (j, j + 1))

    with pytest.raises(TooManySimplices, match="cubical input exceeds 200000 simplices"):
        import_cubical(cubes())
    # refused once the distinct faces of the cubes read pass the cap: 49 475 cubes
    assert len(read) < 51_000


def test_the_cubical_cap_ends_the_read_before_a_later_bad_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(formats, "DEFAULT_SIMPLEX_CAP", 100)
    grid = [f"[{i},{i + 1}]x[{j},{j + 1}]" for i in range(20) for j in range(20)]
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(grid + ["[0,1]x[oops]"]) + "\n")
    with pytest.raises(TooManySimplices):
        parse_cubical(path.read_text())
    assert main(["validate", "--format", "cubical", str(path)]) == 1
    assert capsys.readouterr().out == (
        "valid: false\nerror: cubical input exceeds 100 simplices; raise the cap\n")
    # before the cap, the line is a syntax error numbered as str.splitlines counts
    path.write_text("\n".join(grid[:3] + ["[0,1]x[oops]"]) + "\n")
    assert main(["validate", "--format", "cubical", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 4: bad interval '[oops]'\n"
    with pytest.raises(LefSyntaxError, match=r"line 3: bad interval '\[oops\]'"):
        parse_cubical("[0,1]x[0,1]\r\n\x0c[0,1]x[oops]\n")
    with pytest.raises(EmptyInput, match="no cubes in input"):
        parse_cubical("# nothing\n\n")


def test_import_simplicial_builds_each_id_once():
    X = import_simplicial([[f"v{i}" for i in range(8)], ["v7", "w"]])
    assert len(X) == 255 + 2
    # an id is joined once per face: every incidence names the cell's own id object
    ids = {x: x for x in X._dims}
    assert sum(map(len, X._facets.values())) == 8 * 2 ** 7 - 8 + 2
    assert all(y is ids[y] for row in X._facets.values() for y in row)


# -- generator ----------------------------------------------------------------


def test_generator_determinism():
    for mode in ("simplicial-random", "cubical-random", "basis-change"):
        for seed in (0, 1, 42):
            cfg = GeneratorConfig(seed=seed, mode=mode)
            assert render_lef(random_complex(cfg)) == render_lef(random_complex(cfg))


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, mode="nope")
    with pytest.raises(ValueError):
        GeneratorConfig(seed=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, max_dimension=0)
    # the upper bounds are inclusive
    assert GENERATOR_BOUNDS == {"max_cells_per_dim": 64, "max_dimension": 5,
                                "transform_steps": 1000}
    GeneratorConfig(seed=0, **GENERATOR_BOUNDS)
    for name, bound in GENERATOR_BOUNDS.items():
        for too_big in (bound + 1, 1_000_000_000):
            with pytest.raises(ValueError, match=f"^{name} must be at most {bound}$"):
                GeneratorConfig(seed=0, **{name: too_big})


def test_basis_change_zero_steps_is_identity():
    for seed in range(6):
        plain = random_complex(GeneratorConfig(seed=seed, mode="simplicial-random"))
        frozen = random_complex(GeneratorConfig(seed=seed, mode="basis-change",
                                                transform_steps=0))
        assert plain == frozen


def test_basis_change_preserves_profile_and_augmentability():
    for seed in range(80):
        cfg = GeneratorConfig(seed=seed, mode="basis-change")
        X = random_complex(cfg)
        base = random_complex(GeneratorConfig(seed=seed, mode="simplicial-random"))
        assert lefschetz_homology(X) == lefschetz_homology(base), seed
        assert is_augmentable(X), seed  # simplicial seeds are always augmentable


def _dense_basis_change(cfg):
    """The basis-change draw with the moves made on dense matrices: the reference."""
    rng = random.Random(cfg.seed)
    X = import_simplicial(formats._random_faces(rng, cfg))
    top = X.top_dim
    basis = {q: X.cells_of_dim(q) for q in range(top + 1)}
    mats = {q: X.boundary_matrix(q).dense() for q in range(1, top + 1)}
    for _ in range(cfg.transform_steps):
        eligible = [q for q in range(1, top + 1) if len(basis[q]) >= 2]
        if not eligible:
            break
        q = rng.choice(eligible)
        u, v = rng.sample(range(len(basis[q])), 2)
        m = rng.randint(1, cfg.coefficient_bound) * rng.choice((1, -1))
        for row in mats[q]:
            row[u] += m * row[v]
        if q + 1 <= top:
            upper = mats[q + 1]
            for j in range(len(basis[q + 1])):
                upper[v][j] -= m * upper[u][j]
    cells = [(cid, q) for q in range(top + 1) for cid in basis[q]]
    kappa = {(x, y): mats[q][i][j] for q in mats for j, x in enumerate(basis[q])
             for i, y in enumerate(basis[q - 1]) if mats[q][i][j]}
    return build_complex(cells, kappa, X.ring)


def test_sparse_basis_change_matches_the_dense_moves():
    configs = [GeneratorConfig(seed=seed, mode="basis-change", max_dimension=1 + seed % 3,
                               max_cells_per_dim=4 + seed % 5, transform_steps=6 * (1 + seed % 7))
               for seed in range(150)]
    # from v10 on, a degree's ids sort otherwise than its vertex tuples
    # (v10_v11 before v1_v2), and the moves pick cells by place in id order
    configs += [GeneratorConfig(seed=seed, mode="basis-change", max_dimension=2,
                                max_cells_per_dim=12 + seed % 8, transform_steps=30)
                for seed in range(20)]
    for cfg in configs:
        X, reference = random_complex(cfg), _dense_basis_change(cfg)
        assert render_lef(X) == render_lef(reference), cfg
        assert is_augmentable(X), cfg  # the draw was simplicial, and the moves keep it so
        for q in range(1, X.top_dim + 1):
            # the same rows in the same order in every column, so elimination
            # takes the same pivots
            assert ([list(col.items()) for col in X.boundary_matrix(q)._cols]
                    == [list(col.items()) for col in reference.boundary_matrix(q)._cols]), cfg


def test_basis_change_builds_one_complex_per_draw(monkeypatch):
    # the simplicial draw is moved as columns: only the moved complex is
    # built, with the full validation
    built = _count_calls(monkeypatch, "build_complex")
    for seed in range(30):
        cfg = GeneratorConfig(seed=seed, mode="basis-change", max_dimension=1 + seed % 3,
                              max_cells_per_dim=3 + seed % 6, transform_steps=4 * (seed % 8))
        built.clear()
        X = random_complex(cfg)
        assert len(built) == 1, seed
        assert render_lef(X) == render_lef(_dense_basis_change(cfg)), seed


def test_generator_draws_are_pinned():
    # digests of 200 renders per mode: any change to a mode's RNG calls or
    # to what it builds from them changes its digest
    pinned = {"simplicial-random": "5ab0524290a6760bebcbcf5f46c5fa70",
              "cubical-random": "5a64c564ddbabd514d14acc699624263",
              "basis-change": "1b2d27b51b1ae55c04b8d3ebf551a935"}
    for mode, digest in pinned.items():
        h = hashlib.sha256()
        for seed in range(200):
            cfg = GeneratorConfig(seed=seed, mode=mode, max_dimension=1 + seed % 3,
                                  max_cells_per_dim=3 + seed % 6, transform_steps=4 * (seed % 8))
            h.update(render_lef(random_complex(cfg)).encode())
        assert h.hexdigest()[:32] == digest, mode


def _generator_configs():
    """Configs of every mode over many seeds and sizes, and at both ends of
    GENERATOR_BOUNDS."""
    least = {"max_cells_per_dim": 1, "max_dimension": 1, "transform_steps": 0}
    for mode in formats.GENERATOR_MODES:
        for seed in range(150):
            yield GeneratorConfig(seed=seed, mode=mode, max_dimension=1 + seed % 5,
                                  max_cells_per_dim=1 + seed % 13, transform_steps=5 * (seed % 9))
        for seed in (0, 1, 2**64 - 1):
            yield GeneratorConfig(seed=seed, mode=mode, **least)
            yield GeneratorConfig(seed=seed, mode=mode, **GENERATOR_BOUNDS)


def test_random_complex_is_the_build_of_its_recipe():
    for cfg in _generator_configs():
        recipe = formats.draw_recipe(random.Random(cfg.seed), cfg)
        # the draw reads its randomness from the generator alone, not cfg.seed
        assert formats.draw_recipe(random.Random(cfg.seed), cfg._replace(seed=0)) == recipe
        hash(recipe)  # recipes key the search's memo
        X, Y = formats.build_recipe(recipe), random_complex(cfg)
        assert X == Y and render_lef(X) == render_lef(Y), cfg
        assert recipe.mode == cfg.mode and (recipe.moves == () or cfg.mode == "basis-change")


def test_the_basis_change_build_enumerates_no_face(monkeypatch):
    # the draw enumerates the face set to draw its moves; the build reads it
    for seed in range(20):
        cfg = GeneratorConfig(seed=seed, mode="basis-change", max_dimension=1 + seed % 3,
                              max_cells_per_dim=3 + seed % 6, transform_steps=4 * (seed % 8))
        recipe = formats.draw_recipe(random.Random(cfg.seed), cfg)
        assert len(recipe.moves) in (0, cfg.transform_steps)
        expected = render_lef(random_complex(cfg))
        enumerated = _count_calls(monkeypatch, "_faces")
        assert render_lef(formats.build_recipe(recipe)) == expected
        assert enumerated == [], seed
        monkeypatch.undo()


def test_column_operation_preserves_smith_divisors():
    # the elementary move used by the basis-change mode, in isolation:
    # adding a multiple of one column to another is unimodular
    rng = random.Random(4)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        before = smith_normal_form(ExactMatrix.from_rows(rows, ZZ)).divisors
        m = rng.randint(1, 3)
        for row in rows:
            row[0] += m * row[1]
        after = smith_normal_form(ExactMatrix.from_rows(rows, ZZ)).divisors
        assert before == after


# -- DOT export ---------------------------------------------------------------


def test_export_dot_star(star):
    dot = export_dot(star)
    assert dot.count("->") == 4
    assert '"e" -> "a";' in dot
    assert "rank=same" in dot


def test_export_dot_single_cell():
    from lefhom import build_complex

    X = build_complex([("v", 0)], {}, ZZ)
    dot = export_dot(X)
    assert '"v";' in dot and "->" not in dot


def test_export_dot_triangle_edge_count():
    # facet pairs by hand: 3 edges x 2 vertices + 1 triangle x 3 edges = 9
    X = import_simplicial([("a", "b", "c")])
    assert export_dot(X).count("->") == 9


def test_parse_lef_bounds_dimensions():
    X = parse_lef(f"ring Z\ncell v 0\ncell w {MAX_LEF_DIM}\n")
    assert X.top_dim == MAX_LEF_DIM
    with pytest.raises(LefSyntaxError, match="line 3"):
        parse_lef(f"ring Z\ncell v 0\ncell w {MAX_LEF_DIM + 1}\n")
    with pytest.raises(LefSyntaxError, match="line 2"):
        parse_lef("ring Z\ncell a 99999999999999999999\n")
