"""Homology profiles, relative homology, excision, exact sequences."""

import random
from fractions import Fraction

import pytest

from lefhom import (
    ExactMatrix,
    GF,
    QQ,
    ZZ,
    build_complex,
    enumerate_closed_sets,
    excision_check,
    import_simplicial,
    lefschetz_homology,
    long_exact_sequence,
    point_profile,
    relative_homology,
    restrict,
    smith_normal_form,
)
from lefhom.errors import NonFieldRing, NotClosed, TooManyClosedSets
from lefhom.exact import kernel_basis, rank_over, solve
from lefhom.homology import (
    HomologyProfile,
    _classes,
    lefschetz_chains,
    profile_from_boundaries,
)
from lefhom.simplicial import finite_space_homology, order_complex_chains
from tests.conftest import random_closed_set


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


def _element(ring, rng):
    return Fraction(rng.randint(-3, 3)) if ring == QQ else rng.randrange(ring.p)


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
                basis, classes = _classes(ring, below, above, targets)
                assert len(basis) == profile.free_rank(n), (name, ring, n)
                assert (classes.rows, classes.cols) == (len(basis), len(targets))
                if not basis:
                    continue
                entries = dict(above.entries)
                for j, z in enumerate(basis, start=above.cols):
                    entries.update(((i, j), v) for i, v in enumerate(z))
                system = ExactMatrix(above.rows, above.cols + len(basis), entries, ring)
                for j, target in enumerate(targets):
                    expected = solve(system, target, ring)[above.cols:]
                    assert classes.column(j) == expected, (name, ring, n, j)


def test_classes_reject_a_non_cycle(twisted):
    _, boundary = lefschetz_chains(twisted, GF(2)).slice(twisted.cell_ids)
    with pytest.raises(AssertionError, match="not a cycle"):
        _classes(GF(2), boundary(1), boundary(2), [[1, 0]])


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


def test_profile_visits_only_populated_degrees():
    X = build_complex([("v", 0), ("w", 5000)], {}, ZZ)
    sizes = [len(X.cells_of_dim(q)) for q in range(X.top_dim + 1)]
    for ring in (ZZ, GF(2)):
        asked = []

        def boundary(q):
            asked.append(q)
            return X.boundary_matrix(q).cast(ring)

        profile = profile_from_boundaries(ring, sizes, boundary)
        assert asked == [0, 1, 5000, 5001]
        assert profile.entries == ((0, 1, ()), (5000, 1, ()))
    assert lefschetz_homology(X).entries == ((0, 1, ()), (5000, 1, ()))
