"""Homology profiles, relative homology, excision, exact sequences."""

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
    enumerate_closed_sets,
    excision_check,
    import_cubical,
    import_simplicial,
    lefschetz_homology,
    long_exact_sequence,
    parse_lef,
    parse_simplicial,
    point_profile,
    relative_homology,
    restrict,
    smith_normal_form,
)
from lefhom import exact
from lefhom.cli import main
from lefhom.complexes import FacePoset
from lefhom.errors import NonFieldRing, NotClosed, TooManyClosedSets, TooManySimplices
from lefhom.exact import _beside, _reduction, kernel_basis, rank_over, solve
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
from tests.test_simplicial import _oracle_inputs
from tests.test_theorem import _tower

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
    assert lefschetz_homology(X).is_trivial()


def test_field_coefficients(star, twisted):
    assert lefschetz_homology(star, QQ).entries == ((0, 3, ()),)
    assert lefschetz_homology(twisted, QQ).is_trivial()
    over_f2 = lefschetz_homology(twisted, GF(2))
    assert over_f2.free_rank(0) == 1 and over_f2.free_rank(1) == 1


def test_profile_rendering(star, twisted):
    assert lefschetz_homology(star).describe(0) == "Z^3"
    assert lefschetz_homology(star).describe(1) == "0"
    assert lefschetz_homology(twisted).describe(0) == "Z/2"
    assert lefschetz_homology(twisted, GF(2)).describe(1) == "F2"
    mixed = HomologyProfile(ZZ, ((0, 1, (2, 4)),))
    assert mixed.describe(0) == "Z + Z/2 + Z/4"
    assert point_profile(QQ).is_point()


def test_relative_homology_examples(star, twisted):
    rel = relative_homology(star, {"a", "b", "c", "d"})
    assert rel.entries == ((1, 1, ()),)
    assert relative_homology(star, star.cell_ids).is_trivial()
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

    monkeypatch.setattr(FacePoset, "__init__", refuse)
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
                    chain = above.apply([_element(ring, rng) for _ in range(above.cols)])
                    for z in cycles:
                        c = _element(ring, rng)
                        chain = [ring.add(v, ring.mul(c, w)) for v, w in zip(chain, z)]
                    targets.append(chain)
                basis, classes = _classes(ring, _reduction(below, ring)[0],
                                          _reduction(above, ring)[1], list(map(_sparse, targets)))
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
                    assert classes.column(j) == expected, (name, ring, n, j)


def test_classes_reject_a_non_cycle(twisted):
    _, boundary = lefschetz_chains(twisted, GF(2)).slice(twisted.cell_ids)
    with pytest.raises(AssertionError, match="not a cycle"):
        _classes(GF(2), _reduction(boundary(1), GF(2))[0], _reduction(boundary(2), GF(2))[1],
                 [{0: 1}])


def test_classes_reject_a_non_cycle_in_a_degree_without_homology():
    # the edge of a segment is no cycle, and H_1 of the segment is 0
    X = parse_simplicial("a b\n")
    _, boundary = lefschetz_chains(X, GF(2)).slice(X.cell_ids)
    cycles, boundaries = _reduction(boundary(1), GF(2))[0], _reduction(boundary(2), GF(2))[1]
    assert _classes(GF(2), cycles, boundaries, [])[0] == []
    with pytest.raises(AssertionError, match="not a cycle"):
        _classes(GF(2), cycles, boundaries, [{0: 1}])


def test_reduction_gives_the_kernel_basis_and_an_echelon_image(corpus):
    # with or without clearing the columns paired in the degree above
    for name, X in corpus:
        for ring in (QQ, GF(2), GF(3)):
            _, boundary = lefschetz_chains(X, ring).slice(X.cell_ids)
            paired = {}
            for n in range(X.top_dim + 1, -1, -1):
                matrix = boundary(n)
                cycles, boundaries = _reduction(matrix, ring)
                assert [[z.get(i, ring.zero()) for i in range(matrix.cols)]
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
        classes = {(i, j): ring.neg(vec[above.cols + i])
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
        out = [ring.zero()] * len(X.cells_of_dim(q))
        for value, i in zip(vector, positions):
            out[i] = value
        return out

    nodes, maps = [("0", 0)], []
    above = [boundary(top + 1) for boundary in slices]
    rel_basis = []
    for n in range(top, -1, -1):
        below = [boundary(n) for boundary in slices]
        boundaries = []
        for z in rel_basis:
            image = above[1].apply(lift(z, rel_pos[n + 1], n + 1))
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
    from lefhom.homology import _quotient_profile

    part = frozenset({"a", "b", "c", "d"})
    assert _quotient_profile(star, part, ZZ) == relative_homology(star, part)


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
    # column for column, in order: a comparison of sets would miss the order
    for name, X in _oracle_inputs(data_dir):
        K = order_complex(X)
        keys = {(q, i): s[-1] for q in range(K.dim + 1) for i, s in enumerate(K.simplices_of_dim(q))}
        for ring in RINGS:
            chains = order_complex_chains(X, ring)
            assert {place: key for key, places in chains._at.items()
                    for place in places} == keys, name
            assert chains._columns == [K.boundary_matrix(q, ring)._cols
                                       for q in range(K.dim + 1)], (name, ring.label)
    with pytest.raises(TooManySimplices):  # the cap of order_complex(X)
        order_complex_chains(_tower(12), ZZ)


def _as_validated(m):
    """``m`` as the validating constructor builds it from its entries."""
    kind = type(m.ring.one())
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
                vectors = [[ring.convert(rng.randint(-2, 2)) for _ in range(below.rows)]
                           for _ in range(3)]
                produced = [X.boundary_matrix(q), below, K.boundary_matrix(q, ring),
                            _beside(below, vectors), below @ above, below.transpose() @ below,
                            below.drop(rng.sample(range(below.rows), below.rows // 2),
                                       rng.sample(range(below.cols), below.cols // 3))]
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
        ExactMatrix.from_rows([[1, 2]], ZZ).apply([1])


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
            torsion_seen += any(over_z.torsion(n) for n in over_z.degrees)
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
    # only a boundary between two populated degrees is read
    X = build_complex([("v", 0), ("w", 5000)], {}, ZZ)
    for ring in (ZZ, GF(2)):
        profile, asked = _asked_degrees(X, ring)
        assert asked == []
        assert profile.entries == ((0, 1, ()), (5000, 1, ()))
    assert lefschetz_homology(X).entries == ((0, 1, ()), (5000, 1, ()))

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
    yield ([len(K.simplices_of_dim(q)) for q in range(K.dim + 1)],
           lambda q: K.boundary_matrix(q, ring))


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
        assert bool(profiled) == (ring in (ZZ, QQ)), ring
        reducer.undo()
        profiled.clear()
        assert reducer.profile().entries == ((0, 2, ()),)
        assert profiled == [], ring  # the undo lifted the fallback
