"""Homology profiles, relative homology, excision, exact sequences."""

import copy
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from lefhom import (
    ExactMatrix,
    GF,
    QQ,
    ZZ,
    build_complex,
    check_corollary,
    check_theorem,
    enumerate_closed_sets,
    excision_check,
    import_cubical,
    import_simplicial,
    is_augmentable,
    lefschetz_homology,
    local_condition,
    long_exact_sequence,
    parse_lef,
    parse_simplicial,
    point_profile,
    relative_homology,
    render_lef,
    restrict,
    smith_normal_form,
)
from lefhom import exact, homology, simplicial
from lefhom.cli import main
from lefhom.complexes import LefschetzComplex
from lefhom.errors import (LefhomError, NonFieldRing, NotClosed, TooManyClosedSets, TooManySimplices,
                           UnsupportedRing)
from lefhom.exact import _reduction, kernel_basis, rank_over, solve
from lefhom.homology import (
    HomologyProfile,
    IncrementalReducer,
    _classes,
    lefschetz_chains,
    profile_from_boundaries,
)
from lefhom.simplicial import (
    finite_space_homology,
    order_complex,
    order_complex_chains,
    weak_point_core,
)
from lefhom.topology import closed_set_walk, closure
from tests.conftest import random_closed_set
from tests.test_exact import _column
from tests.test_simplicial import _oracle_inputs
from tests.test_theorem import _split_profile, _torsion_witness, _tower

RINGS = (ZZ, QQ, GF(2), GF(3))


def test_star_homology(star):
    profile = lefschetz_homology(star)
    assert profile.entries == ((0, 3, ()),)
    assert profile.free_rank(0) == 3 and profile.torsion(0) == ()
    assert profile.free_rank(1) == 0


def test_twisted_homology_matches_its_smith_form(twisted):
    # derive the expected degree-0 group from the divisors themselves
    divisors = smith_normal_form(twisted.boundary_matrix(1)).divisors
    assert divisors == (1, 2)
    free = 2 - len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    profile = lefschetz_homology(twisted)
    assert profile.free_rank(0) == free == 0
    assert profile.torsion(0) == torsion == (2,)
    assert profile.free_rank(1) == 0 and profile.torsion(1) == ()


def test_empty_complex_trivial_homology():
    X = build_complex([], {}, ZZ)
    assert not lefschetz_homology(X).entries


def test_field_coefficients(star, twisted):
    assert lefschetz_homology(star, QQ).entries == ((0, 3, ()),)
    assert not lefschetz_homology(twisted, QQ).entries
    over_f2 = lefschetz_homology(twisted, GF(2))
    assert over_f2.free_rank(0) == 1 and over_f2.free_rank(1) == 1


def test_profile_rendering(star, twisted):
    assert lefschetz_homology(star).describe(0) == "Z^3"
    assert lefschetz_homology(star).describe(1) == "0"
    assert lefschetz_homology(twisted).describe(0) == "Z/2"
    assert lefschetz_homology(twisted, GF(2)).describe(1) == "F2"
    mixed = HomologyProfile(ZZ, ((0, 1, (2, 4)),))
    assert mixed.describe(0) == "Z + Z/2 + Z/4"
    assert point_profile(QQ).entries == ((0, 1, ()),)


def test_relative_homology_examples(star, twisted):
    rel = relative_homology(star, {"a", "b", "c", "d"})
    assert rel.entries == ((1, 1, ()),)
    assert not relative_homology(star, star.cell_ids).entries
    rel2 = relative_homology(twisted, {"a", "b"})
    assert rel2.entries == ((1, 2, ()),)


def test_relative_homology_requires_closed(star):
    with pytest.raises(NotClosed):
        relative_homology(star, {"e"})


def test_excision_examples(star):
    assert excision_check(star, {"a", "b", "c", "d"})
    assert excision_check(star, frozenset())
    triangle = import_simplicial([("a", "b"), ("b", "c"), ("a", "c")])
    from lefhom import closure

    assert excision_check(triangle, closure(triangle, {"a"}))


def test_excision_over_corpus(corpus):
    rng = random.Random(99)
    for name, X in corpus:
        for ring in (ZZ, QQ, GF(2)):
            for _ in range(3):
                closed = random_closed_set(X, rng)
                assert excision_check(X, closed, ring), (name, ring.label)


def test_les_star_dimensions(star):
    report = long_exact_sequence(star, {"a", "b", "c", "d"}, QQ)
    assert report.exact and report.first_failure is None
    assert report.dimensions() == (0, 0, 0, 1, 4, 3, 0, 0)
    labels = [label for label, _ in report.nodes]
    assert labels == ["0", "H_1(X')", "H_1(X)", "H_1(X, X')",
                      "H_0(X')", "H_0(X)", "H_0(X, X')", "0"]
    # the connecting map out of the relative class has rank one
    connecting = report.maps[3]
    assert rank_over(connecting, QQ) == 1
    assert connecting == ExactMatrix.from_rows([[1], [1], [-1], [-1]], QQ)
    assert report.maps[4] == ExactMatrix.from_rows(
        [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]], QQ)
    assert all(type(v) is Fraction for m in report.maps for v in m.entries.values())


def test_les_empty_closed_part(star):
    report = long_exact_sequence(star, frozenset(), QQ)
    assert report.exact
    # all X' and relative-vs-absolute bookkeeping collapses as expected
    assert report.dimensions() == (0, 0, 0, 0, 0, 3, 3, 0)


def test_les_twisted_over_f2(twisted):
    report = long_exact_sequence(twisted, {"a", "b"}, GF(2))
    assert report.exact
    assert report.dimensions() == (0, 0, 1, 2, 2, 1, 0, 0)
    assert report.maps[2:5] == (ExactMatrix.from_rows([[1], [1]], GF(2)),
                                ExactMatrix.from_rows([[1, 1], [1, 1]], GF(2)),
                                ExactMatrix.from_rows([[1, 1]], GF(2)))


def test_les_needs_field(star):
    with pytest.raises(NonFieldRing):
        long_exact_sequence(star, {"a"}, ZZ)


def test_les_over_corpus(corpus):
    rng = random.Random(5)
    for name, X in corpus:
        for ring in (QQ, GF(2)):
            closed = random_closed_set(X, rng)
            report = long_exact_sequence(X, closed, ring)
            assert report.exact, (name, ring.label, report.first_failure)


def test_les_ranks_each_map_once(monkeypatch):
    # 3x3 grid, one closed vertex: 9 interior nodes and 10 maps
    X = import_cubical([[(i, i + 1), (j, j + 1)] for i in range(3) for j in range(3)])
    ranked = []

    def counting(matrix, ring):
        ranked.append(matrix)
        return rank_over(matrix, ring)

    monkeypatch.setattr("lefhom.homology.rank_over", counting)
    report = long_exact_sequence(X, {"0x0"}, QQ)
    assert report.exact
    assert len(report.nodes) == 11
    assert ranked == list(report.maps)


def test_closed_pairs_never_build_the_face_poset(monkeypatch, tmp_path, capsys):
    # closedness is read off the facets: les, excision, relative homology and
    # restriction of a 4x4 grid with a closed column build no face poset
    cubes = [[(i, i + 1), (j, j + 1)] for i in range(4) for j in range(4)]
    X = import_cubical(cubes)
    column = closure(X, [f"2_3x{j}_{j + 1}" for j in range(4)])

    def refuse(*args):
        raise AssertionError("a face poset was built")

    monkeypatch.setattr(LefschetzComplex, "face_poset", refuse)
    assert long_exact_sequence(X, column, QQ).exact
    assert excision_check(X, column)
    assert relative_homology(X, column).entries == ()  # the pair is acyclic
    assert len(restrict(X, X.cell_ids - column)) == len(X) - len(column)
    with pytest.raises(NotClosed, match="missing faces"):
        relative_homology(X, column - {"2x0"})
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"[{a},{b}]x[{c},{d}]\n" for (a, b), (c, d) in cubes))
    for command, ring in (("les", "F3"), ("excision", "Z")):
        argv = [command, "--format", "cubical", "--ring", ring, "--closed", ",".join(column)]
        assert main(argv + [str(path)]) == 0, command
    capsys.readouterr()


def test_les_exactness_matches_ranking_both_ends(corpus):
    # oracle: every interior node checked on its own, both maps ranked there
    rng = random.Random(8)
    for name, X in corpus:
        for ring in (QQ, GF(2), GF(3)):
            report = long_exact_sequence(X, random_closed_set(X, rng), ring)
            maps = report.maps
            failure = next((label for k, (label, dim) in enumerate(report.nodes[1:-1], 1)
                            if not ((maps[k] @ maps[k - 1]).is_zero()
                                    and rank_over(maps[k - 1], ring) + rank_over(maps[k], ring)
                                    == dim)), None)
            assert (report.exact, report.first_failure) == (failure is None, failure), name


def _element(ring, rng):
    return Fraction(rng.randint(-3, 3)) if ring == QQ else rng.randrange(ring.p)


def _sparse(vector):
    return {i: v for i, v in enumerate(vector) if v}


def test_classes_match_solve_on_the_corpus(corpus):
    # oracle: each class's coordinates solve [above | basis] x = target
    rng = random.Random(11)
    for name, X in corpus:
        for ring in (QQ, GF(2), GF(3)):
            profile = lefschetz_homology(X, ring)
            _, boundary = lefschetz_chains(X, ring).slice(X.cell_ids)
            for n in range(X.top_dim + 1):
                below, above = boundary(n), boundary(n + 1)
                cycles = kernel_basis(below, ring)
                targets = list(cycles)
                for _ in range(3):  # random cycle plus a random boundary
                    chain = [row[0] for row in (above.cast(ring) @ _column(
                        [_element(ring, rng) for _ in range(above.cols)], ring)).dense()]
                    for z in cycles:
                        c = _element(ring, rng)
                        chain = [ring.convert(v + c * w) for v, w in zip(chain, z)]
                    targets.append(chain)
                basis, classes = _classes(ring, _reduction(below, ring)[0],
                                          _reduction(above, ring)[1], above.cols,
                                          list(map(_sparse, targets)))
                assert len(basis) == profile.free_rank(n), (name, ring, n)
                assert (classes.rows, classes.cols) == (len(basis), len(targets))
                if not basis:
                    continue
                entries = dict(above.entries)
                for j, z in enumerate(basis, start=above.cols):
                    entries.update(((i, j), v) for i, v in z.items())
                system = ExactMatrix(above.rows, above.cols + len(basis), entries, ring)
                for j, target in enumerate(targets):
                    expected = solve(system, target, ring)[above.cols:]
                    assert [row[j] for row in classes.dense()] == expected, (name, ring, n, j)


def test_classes_reject_a_non_cycle(twisted):
    _, boundary = lefschetz_chains(twisted, GF(2)).slice(twisted.cell_ids)
    with pytest.raises(AssertionError, match="not a cycle"):
        _classes(GF(2), _reduction(boundary(1), GF(2))[0], _reduction(boundary(2), GF(2))[1],
                 boundary(2).cols, [{0: 1}])


def test_classes_reject_a_non_cycle_in_a_degree_without_homology():
    # the edge of a segment is no cycle, and H_1 of the segment is 0
    X = parse_simplicial("a b\n")
    _, boundary = lefschetz_chains(X, GF(2)).slice(X.cell_ids)
    cycles, boundaries = _reduction(boundary(1), GF(2))[0], _reduction(boundary(2), GF(2))[1]
    width = boundary(2).cols
    assert _classes(GF(2), cycles, boundaries, width, [])[0] == []
    with pytest.raises(AssertionError, match="not a cycle"):
        _classes(GF(2), cycles, boundaries, width, [{0: 1}])


def test_reduction_gives_the_kernel_basis_and_an_echelon_image(corpus):
    # with or without clearing the columns paired in the degree above
    for name, X in corpus:
        for ring in (QQ, GF(2), GF(3)):
            _, boundary = lefschetz_chains(X, ring).slice(X.cell_ids)
            paired = {}
            for n in range(X.top_dim + 1, -1, -1):
                matrix = boundary(n)
                cycles, boundaries = _reduction(matrix, ring)
                assert [[z.get(i, ring.convert(0)) for i in range(matrix.cols)]
                        for z in cycles.values()] == kernel_basis(matrix, ring), (name, ring, n)
                assert len(boundaries) == rank_over(matrix, ring)
                assert all(max(col) == low and col[low] == 1 for low, col in boundaries.items())
                cleared = _reduction(matrix, ring, paired)
                assert cleared == ({f: z for f, z in cycles.items() if f not in paired},
                                   boundaries), (name, ring, n)
                paired = boundaries


def _pivot_columns(matrix, ring):
    """Ascending indices of the columns independent of those to their left:
    every column but the free ones, each the last nonzero entry of its
    canonical kernel vector."""
    free = {max(i for i, v in enumerate(vec) if v) for vec in kernel_basis(matrix, ring)}
    return [j for j in range(matrix.cols) if j not in free]


def _beside(matrix, vectors):
    """``matrix`` with ``vectors`` (elements of its ring) appended as columns."""
    return ExactMatrix._wrap(matrix.rows, matrix._cols + list(map(_sparse, vectors)), matrix.ring)


def _reference_classes(ring, below, above, targets):
    """Basis and classes by three eliminations: the kernel basis of ``below``,
    the pivot columns among the cycles of ``[above | cycles]``, and one
    kernel basis of ``[above | basis | targets]``."""
    cycles = kernel_basis(below, ring)
    pivots = set(_pivot_columns(_beside(above, cycles), ring))
    basis = [z for j, z in enumerate(cycles, start=above.cols) if j in pivots]
    classes = {}
    if targets:
        first = above.cols + len(basis)
        vectors = kernel_basis(_beside(above, basis + targets), ring)[-len(targets):]
        assert len(vectors) == len(targets)
        assert all(vec[first + j] for j, vec in enumerate(vectors))
        classes = {(i, j): ring.convert(-vec[above.cols + i])
                   for j, vec in enumerate(vectors) for i in range(len(basis))}
    return basis, ExactMatrix(len(basis), len(targets), classes, ring)


def _reference_les(X, part, ring):
    """Nodes and maps of the homology sequence of (X, part), every degree's
    basis and classes taken by :func:`_reference_classes` on dense vectors."""
    top = X.top_dim
    chains = lefschetz_chains(X, ring)
    sub_pos, rel_pos = chains.positions(part), chains.positions(X.cell_ids - part)
    slices = [chains.slice(kept)[1] for kept in (part, X.cell_ids, X.cell_ids - part)]

    def lift(vector, positions, q):
        out = [ring.convert(0)] * len(X.cells_of_dim(q))
        for value, i in zip(vector, positions):
            out[i] = value
        return out

    nodes, maps = [("0", 0)], []
    above = [boundary(top + 1).cast(ring) for boundary in slices]  # slices are over X's ring
    rel_basis = []
    for n in range(top, -1, -1):
        below = [boundary(n).cast(ring) for boundary in slices]
        boundaries = []
        for z in rel_basis:
            image = [row[0] for row in
                     (above[1] @ _column(lift(z, rel_pos[n + 1], n + 1), ring)).dense()]
            assert not any(image[i] for i in rel_pos[n])
            boundaries.append([image[i] for i in sub_pos[n]])
        sub_basis, connecting = _reference_classes(ring, below[0], above[0], boundaries)
        x_basis, include = _reference_classes(ring, below[1], above[1],
                                              [lift(z, sub_pos[n], n) for z in sub_basis])
        rel_basis, project = _reference_classes(ring, below[2], above[2],
                                                [[z[i] for i in rel_pos[n]] for z in x_basis])
        maps += [connecting, include, project]
        nodes += [(f"H_{n}(X')", len(sub_basis)), (f"H_{n}(X)", len(x_basis)),
                  (f"H_{n}(X, X')", len(rel_basis))]
        above = below
    maps.append(ExactMatrix.zeros(0, nodes[-1][1], ring))
    nodes.append(("0", 0))
    return tuple(nodes), tuple(maps)


def test_les_matches_the_three_elimination_route(corpus, data_dir):
    # oracle: the route that eliminated every boundary three times per degree
    grids = [(f"grid{n}x{n}", import_cubical([[(i, i + 1), (j, j + 1)]
                                               for i in range(n) for j in range(n)]))
             for n in range(1, 9)]
    files = [(path.name, parse_lef(path.read_text())) for path in sorted(data_dir.glob("*.lef"))]
    rng = random.Random(15)
    for name, X in files + grids + corpus:
        closed_sets = [random_closed_set(X, rng) for _ in range(2)]
        if name.startswith("grid"):  # the middle column of squares, as in the benchmark
            n = int(name.split("x")[1])
            closed_sets.append(closure(X, [f"{n // 2}_{n // 2 + 1}x{j}_{j + 1}" for j in range(n)]))
        for closed in closed_sets:
            for ring in (QQ, GF(2), GF(3), GF(5)):
                report = long_exact_sequence(X, closed, ring)
                assert (report.nodes, report.maps) == _reference_les(X, closed, ring), (name, ring)


def test_les_reads_the_three_complexes_in_the_indices_of_x(corpus, data_dir, monkeypatch):
    # the closed part, X and the pair are reduced in X's own cell indices:
    # no chain complex is sliced out and renumbered
    def refuse(*args):
        raise AssertionError("a chain complex was sliced")

    monkeypatch.setattr(homology.ChainSlices, "slice", refuse)
    grids = [import_cubical([[(i, i + 1), (j, j + 1)] for i in range(n) for j in range(n)])
             for n in range(1, 9)]
    pairs = [(X, closure(X, [f"{n // 2}_{n // 2 + 1}x{j}_{j + 1}" for j in range(n)]))
             for n, X in enumerate(grids, start=1)]
    rng = random.Random(23)
    files = [parse_lef(path.read_text()) for path in sorted(data_dir.glob("*.lef"))]
    pairs += [(X, random_closed_set(X, rng)) for X in files + grids + [X for _, X in corpus]]
    pairs += [(X, frozenset()) for X in files] + [(X, X.cell_ids) for X in files]
    for X, closed in pairs:
        for ring in (QQ, GF(2), GF(3)):
            assert long_exact_sequence(X, closed, ring).exact


def test_excision_checks_closedness_once(star, monkeypatch):
    calls = []

    def counting(X, part):
        calls.append(part)
        return homology.closure(X, part) == part

    monkeypatch.setattr("lefhom.homology.is_closed", counting)
    assert excision_check(star, {"a", "b", "c", "d"})
    assert len(calls) == 1
    with pytest.raises(NotClosed, match="missing faces"):
        excision_check(star, {"e"})
    assert len(calls) == 2


def test_euler_characteristic_identity(corpus):
    for name, X in corpus:
        combinatorial = sum((-1) ** c.dim for c in X.cells)
        profile = lefschetz_homology(X, QQ)
        homological = sum((-1) ** n * profile.free_rank(n)
                          for n in range(X.top_dim + 1))
        assert combinatorial == homological, name


def test_universal_coefficients(corpus):
    for name, X in corpus:
        integral = lefschetz_homology(X, ZZ)
        for p in (2, 3, 5):
            modular = lefschetz_homology(X, GF(p))
            for n in range(X.top_dim + 1):
                expected = (integral.free_rank(n)
                            + sum(1 for d in integral.torsion(n) if d % p == 0)
                            + sum(1 for d in integral.torsion(n - 1) if d % p == 0))
                assert modular.free_rank(n) == expected, (name, p, n)


def test_quotient_matrices_match_restriction(star):
    # the direct quotient path used by excision_check, exercised explicitly
    part = frozenset({"a", "b", "c", "d"})
    assert lefschetz_chains(star, ZZ).profile(star.cell_ids - part) == relative_homology(star, part)


def test_slices_match_rebuilt_closed_subcomplexes(corpus):
    # oracle for the sweep's fast path: each closed set's slice profiles
    # against the closed subcomplex rebuilt by restrict
    rng = random.Random(3)
    for name, X in corpus:
        try:
            closed_sets = enumerate_closed_sets(X, cap=200)
        except TooManyClosedSets:
            closed_sets = [random_closed_set(X, rng) for _ in range(20)]
        for ring in (ZZ, QQ, GF(2), GF(3)):
            cells, chains = lefschetz_chains(X, ring), order_complex_chains(X, ring)
            for closed in closed_sets:
                sub = restrict(X, closed)
                assert cells.profile(closed) == lefschetz_homology(sub, ring), (name, ring)
                assert chains.profile(closed) == finite_space_homology(sub, ring), (name, ring)


def test_order_complex_chains_are_the_order_complex_keyed_by_top_cell(data_dir):
    # column for column, in order: a comparison of sets would miss the order.
    # Each degree lists K's cells sorted by their reversed rank tuples, so by
    # the rank of their top cell, the last rank that a cell's id lists
    for name, X in _oracle_inputs(data_dir):
        K = order_complex(X)
        ids = [cell.id for cell in X.cells]
        rank = {x: r for r, x in enumerate(ids)}
        reversed_ranks = [[tuple(map(int, x.split("_")))[::-1] for x in K.cells_of_dim(q)]
                          for q in range(K.top_dim + 1)]
        top_rank = [[ranks[0] for ranks in degree] for degree in reversed_ranks]
        order = [sorted(range(len(degree)), key=degree.__getitem__) for degree in reversed_ranks]
        keys = {(q, i): ids[top_rank[q][j]] for q in range(K.top_dim + 1)
                for i, j in enumerate(order[q])}
        at = [{j: i for i, j in enumerate(js)} for js in order]
        for ring in RINGS:
            chains = order_complex_chains(X, ring)
            places = {place: key for key, spots in chains._at.items() for place in spots}
            assert places == keys, name
            expected = []
            for q in range(K.top_dim + 1):
                tops = [rank[places[q, i]] for i in range(len(top_rank[q]))]
                assert tops == sorted(tops), (name, q)  # top-cell ranks never fall along a degree
                cols = K.boundary_matrix(q)._cols  # over Z, whatever ring the chains profile over
                expected.append([{at[q - 1][r]: v for r, v in cols[j].items()} for j in order[q]])
            assert chains.source == ZZ and chains._columns == expected, (name, ring.label)
    with pytest.raises(TooManySimplices):  # the cap of order_complex(X)
        order_complex_chains(_tower(12), ZZ)


def _as_validated(m):
    """``m`` as the validating constructor builds it from its entries."""
    kind = type(m.ring.convert(1))
    assert all(type(v) is kind for v in m.entries.values()), m
    return ExactMatrix(m.rows, m.cols, m.entries, m.ring)


def test_trusted_producers_match_validated_rebuild(corpus):
    # every matrix built from adopted columns holds exactly what the
    # validating constructor would: no stored zero, every value in the ring
    rng = random.Random(11)
    for name, X in corpus:
        K = order_complex(X)
        for ring in (ZZ, QQ, GF(2), GF(3)):
            closed = random_closed_set(X, rng)
            slices = [chains.slice(kept)[1]
                      for chains in (lefschetz_chains(X, ring), order_complex_chains(X, ring))
                      for kept in (closed, X.cell_ids - closed)]
            for q in range(X.top_dim + 2):
                below, above = X.boundary_matrix(q).cast(ring), X.boundary_matrix(q + 1).cast(ring)
                flipped = ExactMatrix(below.cols, below.rows,
                                      {(j, i): v for (i, j), v in below.entries.items()}, ring)
                produced = [X.boundary_matrix(q), below, K.boundary_matrix(q),
                            below @ above, flipped @ below]
                produced += [boundary(q) for boundary in slices]
                for m in produced:
                    assert m == _as_validated(m), (name, ring, q, m)


def test_kernel_entry_points_leave_their_input_alone(corpus):
    # matrices share their columns, so the kernel must work on copies
    for name, X in corpus:
        for q in range(X.top_dim + 2):
            cached = X.boundary_matrix(q)
            rhs = [1] * cached.rows
            for m in [cached] + [cached.cast(ring) for ring in (QQ, GF(2), GF(3))]:
                before = dict(m.entries)
                if m.ring == ZZ:
                    smith_normal_form(m)
                for ring in ((QQ, GF(2), GF(3)) if m.ring == ZZ else (m.ring,)):
                    rank_over(m, ring)
                    kernel_basis(m, ring)
                    _reduction(m, ring)
                    solve(m, rhs, ring)
                assert dict(m.entries) == before, (name, q, m.ring)
            assert X.boundary_matrix(q) is cached


def test_degenerate_les_on_empty_complex():
    X = build_complex([], {}, ZZ)
    report = long_exact_sequence(X, frozenset(), QQ)
    assert report.exact and report.dimensions() == (0, 0)


def test_profile_equality_includes_ring(star):
    assert lefschetz_homology(star, QQ) != lefschetz_homology(star, GF(2))
    assert lefschetz_homology(star, QQ) == HomologyProfile(QQ, ((0, 3, ()),))


def test_boundary_cast_shape_mismatch_guard():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2]], ZZ) @ ExactMatrix.from_rows([[1]], ZZ)


def _predicted(profile_z, ring):
    """Universal coefficients: the profile over ``ring`` from the one over Z.

    Over F_p, dim H_n = free_n + the torsion divisors of H_n divisible by p
    + those of H_{n-1}; over Q only the free rank survives.
    """
    data = {}
    for n in range(profile_z.top_degree + 2):  # Tor of the top degree lands one above
        dim = profile_z.free_rank(n)
        if ring.p:
            dim += sum(1 for d in profile_z.torsion(n) + profile_z.torsion(n - 1)
                       if d % ring.p == 0)
        data[n] = (dim, ())
    return HomologyProfile.from_degrees(ring, data)


def test_universal_coefficients_on_the_corpus(corpus):
    torsion_seen = 0
    for name, X in corpus:
        for homology in (lefschetz_homology, finite_space_homology):
            over_z = homology(X, ZZ)
            torsion_seen += any(torsion for _, _, torsion in over_z.entries)
            for ring in (QQ, GF(2), GF(3)):
                assert homology(X, ring) == _predicted(over_z, ring), (name, homology, ring)
    assert torsion_seen  # the prediction is exercised beyond the free part


def _asked_degrees(X, ring):
    """The profile of X over ``ring`` and the degrees whose boundary it read."""
    sizes = [len(X.cells_of_dim(q)) for q in range(X.top_dim + 1)]
    asked = []

    def boundary(q):
        asked.append(q)
        return X.boundary_matrix(q).cast(ring)

    return profile_from_boundaries(ring, sizes, boundary), asked


def test_profile_visits_only_populated_degrees():
    # only a boundary between two populated degrees is read; 1000 is the
    # highest dimension a complex may have
    X = build_complex([("v", 0), ("w", 1000)], {}, ZZ)
    for ring in (ZZ, GF(2)):
        profile, asked = _asked_degrees(X, ring)
        assert asked == []
        assert profile.entries == ((0, 1, ()), (1000, 1, ()))
    assert lefschetz_homology(X).entries == ((0, 1, ()), (1000, 1, ()))

    X = build_complex([("v", 0), ("w", 0), ("e", 1), ("t", 3), ("f", 4)],
                      {("e", "v"): 1, ("e", "w"): 1, ("f", "t"): 2}, ZZ)
    expected = {ZZ: ((0, 1, ()), (3, 0, (2,))),
                QQ: ((0, 1, ()),),
                GF(2): ((0, 1, ()), (3, 1, ()), (4, 1, ())),
                GF(3): ((0, 1, ()),)}
    for ring, entries in expected.items():
        profile, asked = _asked_degrees(X, ring)
        assert asked == [1, 4]
        assert profile.entries == entries


def _per_degree_profile(ring, sizes, boundary):
    """The per-degree route that the one-pass profile replaced: a whole Smith
    form (Z) or rank (Q, F_p) of every boundary out of or into a populated
    degree, with no compression."""
    populated = [n for n, size in enumerate(sizes) if size]
    ranks, torsion = {}, {}
    for q in sorted({n + k for n in populated for k in (0, 1)}):
        if ring == ZZ:
            divisors = smith_normal_form(boundary(q)).divisors
            ranks[q] = len(divisors)
            torsion[q - 1] = tuple(d for d in divisors if d > 1)
        else:
            ranks[q] = rank_over(boundary(q), ring)
    return HomologyProfile.from_degrees(ring, {
        n: (sizes[n] - ranks[n] - ranks[n + 1], torsion.get(n, ())) for n in populated})


def _chain_complexes(X, ring):
    """(sizes, boundary) of X's cells, of each cell's closure and of the order
    complex of X's weak-point core, all over ``ring``."""
    yield ([len(X.cells_of_dim(q)) for q in range(X.top_dim + 1)],
           lambda q: X.boundary_matrix(q).cast(ring))
    cells = lefschetz_chains(X, ring)
    for cell in X.cells:
        yield cells.slice(closure(X, {cell.id}))
    K = order_complex(X, subspace=weak_point_core(X))
    yield ([len(K.cells_of_dim(q)) for q in range(K.top_dim + 1)],
           lambda q: K.boundary_matrix(q).cast(ring))


def test_one_pass_profile_matches_the_per_degree_oracle(corpus, sweep_corpus, monkeypatch):
    eliminate = exact._eliminate
    calls = []  # (nonzeros handed to the unit phase, residue left) per degree

    def recorded(cols, p):
        nnz = sum(map(len, cols))
        pivots = eliminate(cols, p)
        calls.append((nnz, any(cols)))
        return pivots

    monkeypatch.setattr(exact, "_eliminate", recorded)
    complexes = [X for _, X in corpus] + [X for _, X in sweep_corpus]
    compressed_with_residue = 0
    for X in complexes:
        for ring in RINGS:
            for sizes, boundary in _chain_complexes(X, ring):
                given_nnz = []

                def counted(q):
                    m = boundary(q)
                    given_nnz.append(sum(map(len, m._cols)))
                    return m

                calls.clear()
                profile = profile_from_boundaries(ring, sizes, counted)
                # read the calls first: the oracle runs through the same kernel
                assert len(calls) == len(given_nnz)
                if ring == ZZ:
                    compressed_with_residue += sum(
                        nnz < full and residue
                        for full, (nnz, residue) in zip(given_nnz, calls))
                assert profile == _per_degree_profile(ring, sizes, boundary)
    # the torsion-carrying path: rows dropped, then a residue Smith form
    assert compressed_with_residue > 0


@st.composite
def _small_chain_complexes(draw):
    """Sizes and integer boundary columns of a chain complex of at most four
    degrees of at most four generators, every entry in -3..3.  Degree 1's
    columns are arbitrary; each higher degree's are drawn from the cycles
    of the boundary below that have entries in that range."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    entries = st.integers(-3, 3)
    columns = [[]]
    for q in range(1, len(sizes)):
        if q == 1:
            cols = draw(st.lists(st.lists(entries, min_size=sizes[0], max_size=sizes[0]),
                                 min_size=sizes[1], max_size=sizes[1]))
        else:
            below = columns[q - 1]
            cycles = [v for v in product(range(-3, 4), repeat=sizes[q - 1])
                      if not any(sum(v[j] * col[i] for j, col in enumerate(below))
                                 for i in range(sizes[q - 2]))]
            cols = [draw(st.sampled_from(cycles)) for _ in range(sizes[q])]
        columns.append(cols)
    return sizes, columns


@given(_small_chain_complexes())
def test_one_pass_profile_matches_the_oracle_on_small_chain_complexes(complex_):
    sizes, columns = complex_
    # the oracle also asks for the boundary out of the top degree: no columns
    integral = [ExactMatrix(sizes[q - 1] if q else 0, len(cols),
                            {(i, j): v for j, col in enumerate(cols) for i, v in enumerate(col)},
                            ZZ)
                for q, cols in enumerate(columns + [[]])]
    for ring in RINGS:
        def boundary(q):
            return integral[q].cast(ring)

        assert (profile_from_boundaries(ring, sizes, boundary)
                == _per_degree_profile(ring, sizes, boundary))


def test_incremental_profiles_match_slices(corpus):
    # every closed set the walk reaches up to its 200th, on both sides
    for name, X in corpus:
        steps = closed_set_walk(X)
        expected = min(200, len(enumerate_closed_sets(X)))
        for ring in (ZZ, QQ, GF(2), GF(3)):
            sides = [(c, IncrementalReducer(c))
                     for c in (lefschetz_chains(X, ring), order_complex_chains(X, ring))]
            kept = []

            def visit():
                for chains, reducer in sides:
                    assert reducer.profile() == chains.profile(kept), (name, ring, sorted(kept))

            visit()  # the empty set
            visited = 1
            for x in steps:
                if visited == 200:
                    break
                if x is None:
                    kept.pop()
                    for _, reducer in sides:
                        reducer.undo()
                    continue
                kept.append(x)
                for _, reducer in sides:
                    reducer.include(x)
                visit()
                visited += 1
            assert visited == expected, (name, ring)


def test_stacked_slices_split_into_both_homologies(corpus, data_dir):
    # each closed set's slice of the stacked complex is X's profile below
    # degree o and its order complex's from degree o: no boundary crosses
    halves = build_complex([("a", 0), ("b", 0), ("e", 1)],
                           {("e", "a"): Fraction(-1, 2), ("e", "b"): Fraction(1, 2)}, QQ)
    inputs = ([(X, RINGS) for _, X in corpus]
              + [(parse_lef(path.read_text()), RINGS) for path in sorted(data_dir.glob("*.lef"))]
              + [(_torsion_witness(), RINGS), (halves, (QQ,)),
                 # a 2-cell over a facetless edge: the order complex has 2 degrees, X has 3
                 (build_complex([("v", 0), ("e", 1), ("t", 2)], {("t", "e"): 1}, ZZ), RINGS)])
    checked = 0
    for X, rings in inputs:
        try:
            sets = enumerate_closed_sets(X, 300)
        except TooManyClosedSets:
            continue
        for ring in rings:
            cells, space = lefschetz_chains(X, ring), order_complex_chains(X, ring)
            stacked = homology.stacked_chains(cells, space)
            o = X.top_dim + 1
            assert len(stacked._columns) == 2 * o
            # the constructor's table: X's places, then the order complex's at o + q
            assert list(stacked._at.items()) == [
                (key, at + [(o + q, i) for q, i in space._at[key]]) for key, at in cells._at.items()]
            for A in sets:
                expected = cells.profile(A), space.profile(A)
                assert _split_profile(stacked.profile(A), o) == expected, (
                    render_lef(X), ring, sorted(A))
                checked += 1
    assert checked > 3000


def test_a_square_joins_with_one_reduction_against_the_shared_table(monkeypatch):
    # the square's 17 chains pair among themselves the same way at every
    # join: 8 ready pivots, 8 cleared births and one essential column, the
    # only one that include checks against the pivots of the cells already in;
    # no pivot meets its lowest row, so it joins the table as it is, with no
    # copy and no reduction
    X = import_cubical([[(0, 1), (0, 1)]])
    faces = [c.id for c in X.cells if c.dim < 2]
    square = X.cells_of_dim(2)[0]
    for ring in RINGS:
        chains = order_complex_chains(X, ring)
        reducer = IncrementalReducer(chains)
        for x in faces:
            reducer.include(x)
        calls = []

        def counted(col, pivots, p):
            calls.append(pivots)
            return exact._reduce_column(col, pivots, p)

        monkeypatch.setattr(homology, "_reduce_column", counted)
        reducer.include(square)
        monkeypatch.undo()
        [(q, column, low)] = reducer._plans[square][1]
        assert calls == [] and q == 2 and reducer._pivots[2][low] is column, ring
        assert reducer.stalled is None and reducer.profile() == point_profile(ring), ring
        # the table holds every cell's ready pivots; those whose lowest row
        # is a generator of a cell in make one pivot per death there
        owner = {spot: key for key, spots in chains._at.items() for spot in spots}

        def pivots_in(kept):
            return [sum(owner[q - 1, low] in kept for low in table)
                    for q, table in enumerate(reducer._pivots)]

        sizes, boundary = chains.slice(faces + [square])
        field = QQ if ring == ZZ else ring
        assert pivots_in(faces + [square]) == [0] + [
            rank_over(boundary(q).cast(field), field) for q in range(1, len(sizes))], ring
        reducer.undo()
        assert reducer.profile() == chains.profile(faces), ring
        assert pivots_in(faces) == [0, 7, 0], ring


def test_shared_columns_are_never_written(monkeypatch, sweep_corpus):
    # an essential column that no pivot meets joins the table as the plan
    # holds it: after every walk, the plans and the chain columns are as
    # built and the table holds its ready pivots, the same objects, alone
    grids = [import_cubical([[(i, i + 1), (j, j + 1)] for i in range(m) for j in range(n)])
             for m, n in ((1, 2), (2, 2))]
    calls = []

    def counted(col, pivots, p):
        calls.append(None)
        return exact._reduce_column(col, pivots, p)

    replayed = 0
    for X, cap in [(X, 30_000) for X in grids] + [(X, 2_000) for _, X in sweep_corpus]:
        try:
            steps = closed_set_walk(X, cap)
        except TooManyClosedSets:
            continue
        for ring in RINGS:
            chains = homology.stacked_chains(lefschetz_chains(X, ring), order_complex_chains(X, ring))
            reducer = IncrementalReducer(chains)
            plans, columns = copy.deepcopy(reducer._plans), copy.deepcopy(chains._columns)
            ready = [{low: id(col) for low, col in table.items()} for table in reducer._pivots]
            calls.clear()
            monkeypatch.setattr(homology, "_reduce_column", counted)
            for x in steps:
                if x is None:
                    reducer.undo()
                else:
                    reducer.include(x)
            monkeypatch.undo()
            assert reducer._plans == plans and chains._columns == columns, (render_lef(X), ring)
            assert [{low: id(col) for low, col in table.items()}
                    for table in reducer._pivots] == ready, (render_lef(X), ring)
            if X is grids[0] and ring == ZZ:
                assert len(calls) == 200  # of 908 joins' reductions when each copied its columns
            replayed += 1
    assert replayed > 1000


class _Consulted(dict):
    """A pivot table that counts its lookups, and those that find one of its
    first pivots."""

    def __init__(self, table):
        super().__init__(table)
        self.ready, self.hits, self.lookups = set(table), 0, 0

    def get(self, low, default=None):
        self.hits += low in self.ready
        self.lookups += 1
        return super().get(low, default)


def test_top_cell_order_meets_no_ready_pivot(data_dir, sweep_corpus):
    # order_complex_chains' claim: its essential columns, reduced as closed
    # sets grow, never look up a ready pivot.  Each input replays its
    # closed-set walk, or past 2 000 sets its cells in rank order and back
    inputs = _oracle_inputs(data_dir) + [(cfg.seed, X) for cfg, X in sweep_corpus[:60]]
    lookups = 0
    for name, X in inputs:
        try:
            steps = closed_set_walk(X, 2000)
        except TooManyClosedSets:
            steps = list(X._ids) + [None] * len(X)
        for ring in (ZZ, GF(2)):
            chains = order_complex_chains(X, ring)
            reducer = IncrementalReducer(chains)
            reducer._pivots = [_Consulted(table) for table in reducer._pivots]
            for x in steps:
                if x is None:
                    reducer.undo()
                else:
                    reducer.include(x)
            assert reducer.kept == []
            assert sum(table.hits for table in reducer._pivots) == 0, (name, ring.label)
            lookups += sum(table.lookups for table in reducer._pivots)
    assert lookups > 1000


def test_incremental_profiles_match_slices_in_bottom_cell_order():
    # rows by bottom cell, not by top cell: an essential column then reduces
    # against the ready pivots of cells already in, which sit in the table
    # from the start, and every free rank stays exact
    for X in (import_simplicial([("a", "b", "c", "d")]),
              import_simplicial([("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")])):
        by_dim = [sorted(chains) for chains in simplicial._poset_chains(  # lexicographic
            range(len(X)), X.face_poset(), simplicial.DEFAULT_SIMPLEX_CAP)]
        keys = [[X._ids[chain[-1]] for chain in chains] for chains in by_dim]
        columns = [simplicial._boundary(by_dim[q - 1] if q else (), chains)._cols
                   for q, chains in enumerate(by_dim)]
        for ring in RINGS:
            chains = homology.ChainSlices(ring, keys, columns, ZZ)
            reducer = IncrementalReducer(chains)
            reducer._pivots = [_Consulted(table) for table in reducer._pivots]
            kept = []
            for x in closed_set_walk(X):
                if x is None:
                    kept.pop()
                    reducer.undo()
                else:
                    kept.append(x)
                    reducer.include(x)
                assert reducer.profile() == chains.profile(kept), (ring, sorted(kept))
            assert sum(table.hits for table in reducer._pivots) > 0, ring


def test_incremental_undo_restores_each_profile():
    # the square's cells in order, then back out to the root and down a
    # second branch without the first edge: every profile must be the one
    # before the include, and no pivot of the first branch may survive
    X = import_cubical([[(0, 1), (0, 1)]])
    order = [c.id for c in X.cells]
    branch = order[:4] + order[5:8]
    for ring in (ZZ, QQ, GF(2), GF(3)):
        for chains in (lefschetz_chains(X, ring), order_complex_chains(X, ring)):
            reducer = IncrementalReducer(chains)
            seen = [reducer.profile()]
            for k, x in enumerate(order, start=1):
                reducer.include(x)
                seen.append(reducer.profile())
                assert seen[-1] == chains.profile(order[:k]), (ring, x)
            assert seen[-1] == point_profile(ring)
            for k in range(len(order), 0, -1):
                reducer.undo()
                assert reducer.profile() == seen[k - 1], (ring, k)
            for k, x in enumerate(branch, start=1):
                reducer.include(x)
                assert reducer.profile() == chains.profile(branch[:k]), (ring, x)
            assert reducer.profile() == point_profile(ring)  # a path through all four vertices


def test_incremental_unit_pivots_are_scaled_not_deferred():
    # every lowest entry is -1: negated over Z and Q, scaled by 2 over F3
    X = build_complex([("a", 0), ("b", 0), ("e", 1), ("f", 1), ("t", 2)],
                      {("e", "a"): 1, ("e", "b"): -1, ("f", "a"): -1, ("f", "b"): 1,
                       ("t", "e"): -1, ("t", "f"): -1}, ZZ)
    for ring in RINGS:
        chains = lefschetz_chains(X, ring)
        reducer = IncrementalReducer(chains)
        chains.profile = lambda kept: pytest.fail("a unit pivot stalled the reducer")
        for x in ("a", "b", "e", "f", "t"):
            reducer.include(x)
        assert reducer.profile() == point_profile(ring), ring


def test_incremental_non_unit_pivot_falls_back_to_slices():
    # an edge with kappa -2, 2: over Z its column's only pivot candidate is 2
    X = build_complex([("a", 0), ("b", 0), ("e", 1)], {("e", "a"): -2, ("e", "b"): 2}, ZZ)
    for ring, expected in ((ZZ, ((0, 1, (2,)),)), (QQ, ((0, 1, ()),)), (GF(2), ((0, 2, ()), (1, 1, ()))),
                           (GF(3), ((0, 1, ()),))):
        chains = lefschetz_chains(X, ring)
        reducer = IncrementalReducer(chains)
        for x in ("a", "b", "e"):
            reducer.include(x)
        profiled = []
        chains.profile = lambda kept, original=chains.profile: profiled.append(kept) or original(kept)
        assert reducer.profile().entries == expected, ring
        assert bool(profiled) == (ring == ZZ), ring
        reducer.undo()
        profiled.clear()
        assert reducer.profile().entries == ((0, 2, ()),)
        assert profiled == [], ring  # the undo lifted the fallback


def _chain_side(X, closed, ring):
    """Every chain-side result on X over a field, with an error as its value;
    the sweeps past 2 000 closed sets, a few large draws, stop at the cap."""
    out = []
    for compute in (lambda: lefschetz_homology(X, ring), lambda: check_theorem(X, ring),
                    lambda: check_corollary(X, ring, cap=2_000),
                    lambda: long_exact_sequence(X, closed, ring),
                    lambda: excision_check(X, closed, ring),
                    lambda: finite_space_homology(X, ring)):
        try:
            out.append(compute())
        except LefhomError as exc:
            out.append((type(exc), str(exc)))
    return out


def test_the_chain_side_never_casts(monkeypatch, data_dir, sweep_corpus):
    # boundaries reach exact in the complex's own ring, and exact converts
    # each column: ExactMatrix.cast is left for the tests
    grids = [import_cubical([[(i, i + 1), (j, j + 1)] for i in range(n) for j in range(n)])
             for n in range(1, 7)]
    files = [parse_lef(path.read_text()) for path in sorted(data_dir.glob("*.lef"))]
    rng = random.Random(24)
    runs = []
    for X in files + grids + [X for _, X in sweep_corpus]:
        closed = random_closed_set(X, rng)
        runs += [(X, closed, ring) for ring in (QQ, GF(2), GF(3))]
    expected = [_chain_side(*run) for run in runs]

    def refuse(matrix, ring):
        raise AssertionError(f"cast of {matrix} into {ring}")

    monkeypatch.setattr(ExactMatrix, "cast", refuse)
    for run, before in zip(runs, expected):
        assert _chain_side(*run) == before, run[1:]


def test_fp_entries_are_refused_over_another_ring_with_an_edge_or_without():
    # every chain-side entry point refuses F3 entries over another ring, also
    # when no boundary is read; is_augmentable does not read 2 and 1 as integers
    vertices = [("a", 0), ("b", 0)]
    complexes = [build_complex([], {}, GF(3)), build_complex(vertices, {}, GF(3)),
                 build_complex(vertices + [("e", 1)], {("e", "a"): 2, ("e", "b"): 1}, GF(3))]
    for X in complexes:
        closed = frozenset("a") if X.cell_ids else frozenset()
        for ring in (ZZ, QQ, GF(2), GF(5)):
            calls = [lambda: lefschetz_homology(X, ring), lambda: is_augmentable(X, ring),
                     lambda: check_theorem(X, ring), lambda: check_corollary(X, ring),
                     lambda: local_condition(X, ring), lambda: excision_check(X, closed, ring),
                     lambda: relative_homology(X, closed, ring)]
            if ring.is_field:
                calls.append(lambda: long_exact_sequence(X, closed, ring))
            for call in calls:
                with pytest.raises(UnsupportedRing, match=f"^cannot lift F3 entries into {ring}$"):
                    call()
            assert finite_space_homology(X, ring).ring == ring  # the space never reads kappa
        assert check_theorem(X).ring == GF(3) and long_exact_sequence(X, closed, GF(3)).exact


def test_les_of_fp_complexes_over_their_own_field_reduces_the_connecting_map():
    # the lifted boundary of the relative cycle e + f is 3a + 3b, zero over F3
    # only once the sum is reduced mod 3
    cells = [("a", 0), ("b", 0), ("e", 1), ("f", 1)]
    kappa = {("e", "a"): 1, ("e", "b"): 2, ("f", "a"): 2, ("f", "b"): 1}
    X = build_complex(cells, kappa, GF(3))
    report = long_exact_sequence(X, {"a"}, GF(3))
    assert report.exact and report.dimensions() == (0, 0, 1, 1, 1, 1, 0, 0)
    assert (report.nodes, report.maps) == _reference_les(X, {"a"}, GF(3))
    rng = random.Random(24)
    for _ in range(60):  # edges with random F5 coefficients between three vertices
        edges = [(f"e{k}", *rng.sample("abc", 2), rng.randrange(1, 5), rng.randrange(1, 5))
                 for k in range(rng.randint(1, 5))]
        Y = build_complex([(v, 0) for v in "abc"] + [(e, 1) for e, *_ in edges],
                          {key: value for e, u, v, x, y in edges
                           for key, value in (((e, u), x), ((e, v), y))}, GF(5))
        closed = random_closed_set(Y, rng)
        report = long_exact_sequence(Y, closed, GF(5))
        assert report.exact and (report.nodes, report.maps) == _reference_les(Y, closed, GF(5))


def test_fractions_in_a_closed_part_are_refused_as_the_homology_refuses_them():
    # a triangle over Q whose 2-cell t has kappa 1/2, 1/2, -1/2: Z and F2
    # cannot hold the halves, wherever they sit, so relative homology to the
    # boundary of t and augmentability refuse them as lefschetz_homology does
    half = Fraction(1, 2)
    cells = [("a", 0), ("b", 0), ("c", 0), ("ab", 1), ("ac", 1), ("bc", 1), ("t", 2)]
    kappa = {("ab", "a"): -1, ("ab", "b"): 1, ("bc", "b"): -1, ("bc", "c"): 1,
             ("ac", "a"): -1, ("ac", "c"): 1,
             ("t", "ab"): half, ("t", "bc"): half, ("t", "ac"): -half}
    X = build_complex(cells, kappa, QQ)
    boundary = X.cell_ids - {"t"}
    for ring, message in ((ZZ, "1/2 is not an integer"),
                          (GF(2), "denominator of 1/2 vanishes mod 2")):
        for call in (lefschetz_homology, is_augmentable,
                     lambda X, ring: relative_homology(X, boundary, ring)):
            with pytest.raises(UnsupportedRing) as err:
                call(X, ring)
            assert str(err.value) == message
    assert is_augmentable(X) and str(relative_homology(X, boundary)) == "H_0: 0; H_1: 0; H_2: Q"


def test_every_entry_point_names_the_first_fraction_in_dim_id_order():
    # halves on the edges, quarters on t: whatever each reads first, every
    # entry point names the value lefschetz_homology meets first, -1/2 on ab
    cells = [("a", 0), ("b", 0), ("c", 0), ("ab", 1), ("ac", 1), ("bc", 1), ("t", 2)]
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    kappa = {("t", "ab"): quarter, ("t", "bc"): quarter, ("t", "ac"): -quarter,
             ("ab", "a"): -half, ("ab", "b"): half, ("bc", "b"): -half, ("bc", "c"): half,
             ("ac", "a"): -half, ("ac", "c"): half}
    X = build_complex(cells, kappa, QQ)
    for ring, message in ((ZZ, "-1/2 is not an integer"),
                          (GF(2), "denominator of -1/2 vanishes mod 2")):
        calls = [lefschetz_homology, is_augmentable, lefschetz_chains, check_theorem,
                 lambda X, ring: relative_homology(X, {"a"}, ring),
                 lambda X, ring: excision_check(X, {"a"}, ring)]
        if ring.is_field:  # the LES reads the top degree first
            calls.append(lambda X, ring: long_exact_sequence(X, {"a"}, ring))
        for call in calls:
            with pytest.raises(UnsupportedRing) as err:
                call(X, ring)
            assert str(err.value) == message


def test_fractions_that_no_slice_reads_are_refused():
    # a triangle of edges with kappa 1/3 and the 2-cell they bound: with every
    # cell closed, excision slices no column of the pair; it still refuses
    # 1/3 as a cast would, and so do the chains and the LES
    cells = [("a", 0), ("b", 0), ("c", 0), ("f", 1), ("g", 1), ("h", 1), ("s", 2)]
    third = Fraction(1, 3)
    kappa = {("f", "a"): -third, ("f", "b"): third, ("g", "b"): -third, ("g", "c"): third,
             ("h", "c"): -third, ("h", "a"): third, ("s", "f"): 1, ("s", "g"): 1, ("s", "h"): 1}
    X = build_complex(cells, kappa, QQ)
    everything = set(X.cell_ids)
    for ring, message in ((ZZ, "is not an integer"), (GF(3), "vanishes mod 3")):
        calls = [lambda: excision_check(X, everything, ring), lambda: lefschetz_chains(X, ring)]
        if ring.is_field:
            calls.append(lambda: long_exact_sequence(X, everything, ring))
        for call in calls:
            with pytest.raises(UnsupportedRing, match=message):
                call()
    for ring in (QQ, GF(2)):
        assert excision_check(X, everything, ring)
        assert long_exact_sequence(X, everything, ring).exact


def test_a_bounded_memo_counts_a_key_stored_twice_once(monkeypatch):
    monkeypatch.setattr(homology, "CLOSURE_MEMO_BOUND", 10)
    memo = homology.BoundedMemo(len)
    memo["abcd"] = 1
    memo["abcd"] = 2  # stored again: the new value, and no second count
    assert (dict(memo), memo.length) == ({"abcd": 2}, 4)
    memo["efgh"] = 3
    memo["ij"] = 4
    assert memo.length == 10 and len(memo) == 3
    memo["abcd"] = 5  # at the bound, a key that is in still takes its new value
    memo["k"] = 6  # and a new one is not kept
    assert dict(memo) == {"abcd": 5, "efgh": 3, "ij": 4} and memo.length == 10


def test_a_complex_keys_as_a_closure_of_its_content():
    # the square is the closure of its 2-cell, so closure_profiles keys that
    # closure as complex_key keys the square; the L's top cells each close
    # on part of it only
    square = import_cubical([[(0, 1), (0, 1)]])
    memo = homology.ClosureMemo()
    profiles = dict(homology.closure_profiles(square, ZZ, memo))
    top = square.cells_of_dim(2)[0]
    assert memo[homology.complex_key(square)] == profiles[top] == lefschetz_homology(square)
    ell = import_cubical([[(0, 1), (0, 0)], [(1, 1), (0, 1)]])
    memo = homology.ClosureMemo()
    list(homology.closure_profiles(ell, ZZ, memo))
    assert homology.complex_key(ell) not in memo
    # keyed with unit values, only the poset and the grading are left
    ones = build_complex([("a", 0), ("b", 0), ("e", 1)], {("e", "a"): 1, ("e", "b"): 1}, ZZ)
    signs = build_complex([("a", 0), ("b", 0), ("e", 1)], {("e", "a"): -1, ("e", "b"): 1}, ZZ)
    assert homology.complex_key(ones) == homology.complex_key(ones, unit=True)
    assert homology.complex_key(signs) != homology.complex_key(signs, unit=True)
    assert homology.complex_key(signs, unit=True) == homology.complex_key(ones, unit=True)


def test_a_closure_memo_keeps_each_distinct_profile_once():
    X = import_cubical([[(i, i + 1), (j, j + 1)] for i in range(4) for j in range(4)])
    memo = homology.ClosureMemo()
    profiles = dict(homology.closure_profiles(X, ZZ, memo))
    assert len(memo) > 1 and set(memo.values()) == {point_profile(ZZ)}
    assert len({id(profile) for profile in memo.values()}) == 1
    assert all(profile == point_profile(ZZ) for profile in profiles.values())
