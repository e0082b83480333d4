"""Complex construction, validation, boundary matrices, face order."""

import time
from fractions import Fraction

import pytest

from lefhom import (
    GF,
    QQ,
    Cell,
    ExactMatrix,
    ZZ,
    build_complex,
    closure,
    import_cubical,
    import_simplicial,
    is_closed,
    mouth,
    open_hull,
    order_complex,
    parse_lef,
    relative_finite_space_homology,
    render_lef,
    restrict,
)
from lefhom.errors import (
    DuplicateCellId,
    GradingViolation,
    InvalidCellId,
    KappaConditionViolation,
    LefSyntaxError,
    UnknownCellReference,
)
from lefhom.complexes import MAX_LEF_DIM, _cofacets
from tests.conftest import poset_above, poset_below


def test_star_is_valid(star):
    assert len(star) == 5
    assert star.top_dim == 1
    assert star.cells_of_dim(0) == ("a", "b", "c", "d")
    assert star.kappa("e", "c") == -1
    assert star.kappa("e", "e") == 0  # absent entry reads as zero


def test_single_cell_complex():
    X = build_complex([Cell("v", 0)], {}, ZZ)
    assert len(X) == 1
    assert X.facets("v") == frozenset()


def test_grading_violation_names_the_pair():
    with pytest.raises(GradingViolation) as err:
        build_complex([("v", 0), ("w", 2)], {("w", "v"): 1}, ZZ)
    assert err.value.pair == ("w", "v")


# c -> b, e -> a with products 1*1 + 1*2: the plain sum is 3
_SUM_THREE = ([("a", 0), ("b", 1), ("e", 1), ("c", 2)],
              {("b", "a"): 1, ("e", "a"): 2, ("c", "b"): 1, ("c", "e"): 1})


def test_kappa_condition_violation_names_the_pair():
    chain = [("a", 0), ("b", 1), ("c", 2)]
    cases = [
        (chain, {("b", "a"): 1, ("c", "b"): 1}, ZZ, 1),
        (chain, {("b", "a"): Fraction(1, 2), ("c", "b"): 1}, QQ, Fraction(1, 2)),
        (*_SUM_THREE, ZZ, 3),
        # the entry 2 vanishes over F2 and leaves 1
        (*_SUM_THREE, GF(2), 1),
        # 1*1 + 4*1 = 5 is 2 in F3: the total is reported in the ring
        (_SUM_THREE[0], {**_SUM_THREE[1], ("e", "a"): 4}, GF(3), 2),
    ]
    for cells, kappa, ring, total in cases:
        with pytest.raises(KappaConditionViolation) as err:
            build_complex(cells, kappa, ring)
        assert err.value.pair == ("c", "a")
        assert err.value.total == total
        assert type(err.value.total) is type(total)
    assert str(err.value) == "kappa condition fails at (c, a): sum = 2"
    # the sum 3 vanishes over F3
    assert len(build_complex(*_SUM_THREE, GF(3))) == 4


def test_kappa_total_past_the_digit_limit_is_kept_exact():
    # the total has about 6 000 digits, past what str() of an int will print
    big = 10 ** 3000 - 1
    cells = [("a", 0), ("b", 0), ("e", 1), ("f", 2)]
    kappa = {("e", "a"): big, ("e", "b"): 1, ("f", "e"): big}
    for ring, total in ((ZZ, big * big), (QQ, Fraction(big * big))):
        with pytest.raises(KappaConditionViolation) as err:
            build_complex(cells, kappa, ring)
        assert err.value.pair == ("f", "a") and err.value.total == total
        assert str(err.value) == "kappa condition fails at (f, a): sum = a 19932-bit number"


def test_duplicate_and_unknown_and_bad_ids():
    with pytest.raises(DuplicateCellId):
        build_complex([("v", 0), ("v", 1)], {}, ZZ)
    with pytest.raises(DuplicateCellId, match=r"kappa\(e, v\) given twice"):
        build_complex([("v", 0), ("e", 1)], [(("e", "v"), 1), (("e", "v"), 2)], ZZ)
    with pytest.raises(UnknownCellReference):
        build_complex([("v", 0)], {("w", "v"): 1}, ZZ)
    with pytest.raises(InvalidCellId):
        build_complex([("bad id", 0)], {}, ZZ)
    with pytest.raises(InvalidCellId):
        build_complex([("v", -1)], {}, ZZ)


_TRIANGLE = [("a", 0), ("b", 0), ("c", 0), ("e", 1), ("f", 1), ("g", 1), ("t", 2)]

# (cells, kappa, ring, error class, message): each input has two faults, and
# the one that construction meets first decides the error
_TWO_FAULTS = [
    # a bad id after a duplicate, and before it
    ([("a", 0), ("a", 0), ("b-", 0)], {}, ZZ,
     DuplicateCellId, "cell id 'a' declared twice"),
    ([("b-", 0), ("a", 0), ("a", 0)], {}, ZZ,
     InvalidCellId, "bad cell id 'b-' (want [A-Za-z0-9_]+)"),
    # a bad dimension beside a duplicate, and a bad id beside a bad dimension
    ([("a", 0), ("b", -1), ("a", 0)], {}, ZZ,
     InvalidCellId, "cell 'b' has bad dimension -1"),
    ([("a b", 1.5)], {}, ZZ,
     InvalidCellId, "bad cell id 'a b' (want [A-Za-z0-9_]+)"),
    # an unknown reference before a grading error, and after it
    ([("a", 0), ("b", 0), ("e", 1)], [(("e", "zz"), 1), (("a", "b"), 1)], ZZ,
     UnknownCellReference, "kappa references unknown cell 'zz'"),
    ([("a", 0), ("b", 0), ("e", 1)], [(("a", "b"), 1), (("zz", "e"), 1)], ZZ,
     GradingViolation, "kappa(a, b) nonzero but dim a = 0, dim b = 0"),
    # both ends unknown: the first is named
    ([("a", 0)], [(("yy", "zz"), 1)], ZZ,
     UnknownCellReference, "kappa references unknown cell 'yy'"),
    # a zero value on a misgraded pair is dropped, so the other pair is the error
    ([("a", 0), ("b", 0), ("e", 1), ("f", 1)], [(("a", "b"), 0), (("e", "f"), 1)], ZZ,
     GradingViolation, "kappa(e, f) nonzero but dim e = 1, dim f = 1"),
    ([("a", 0), ("b", 0), ("e", 1), ("f", 1)], [(("a", "b"), 3), (("f", "e"), -2)], GF(3),
     GradingViolation, "kappa(f, e) nonzero but dim f = 1, dim e = 1"),
    ([("a", 0), ("b", 0), ("e", 1), ("f", 1)], [(("a", "b"), Fraction(0)), (("e", "f"), 1)], QQ,
     GradingViolation, "kappa(e, f) nonzero but dim e = 1, dim f = 1"),
    # a duplicate incidence beside a boundary-of-boundary violation
    (_TRIANGLE, [(("e", "a"), 1), (("e", "b"), -1), (("t", "e"), 1), (("e", "a"), 1)], ZZ,
     DuplicateCellId, "kappa(e, a) given twice"),
    (_TRIANGLE, [(("e", "a"), 1), (("e", "b"), -1), (("t", "e"), 1)], ZZ,
     KappaConditionViolation, "kappa condition fails at (t, a): sum = 1"),
]


@pytest.mark.parametrize("cells, kappa, ring, error, message", _TWO_FAULTS)
def test_construction_meets_faults_in_a_fixed_order(cells, kappa, ring, error, message):
    with pytest.raises(error) as err:
        build_complex(cells, kappa, ring)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("cells, error, message", [
    ([("a", 0), ("", 0)], InvalidCellId, "bad cell id '' (want [A-Za-z0-9_]+)"),
    ([("a", 0), ("b\n", 0)], InvalidCellId, "bad cell id 'b\\n' (want [A-Za-z0-9_]+)"),
    ([("a", 0), (7, 0)], InvalidCellId, "bad cell id 7 (want [A-Za-z0-9_]+)"),
    ([("a", 0), ("b", 1.0)], InvalidCellId, "cell 'b' has bad dimension 1.0"),
    ([("a", 0), "b0"], InvalidCellId, "cell 'b' has bad dimension '0'"),
    ([("a", 0), ("b", 0, 1)], ValueError, "too many values to unpack (expected 2)"),
])
def test_cells_that_fail_the_checks_at_once_are_walked_to_their_first_fault(cells, error, message):
    # the joined ids pass one regex match only when no id is empty, so an
    # empty id, a newline (which $ would let through) or a non-str id falls
    # back to the pair-by-pair walk and its own error
    with pytest.raises(error) as err:
        build_complex(cells, {}, ZZ)
    assert type(err.value) is error and str(err.value) == message


def test_cells_the_checks_at_once_leave_out_are_admitted():
    class Dim(int):
        pass

    X = build_complex([("a", Dim(0)), ("e", Dim(1))], {("e", "a"): 1}, ZZ)
    assert list(X._dims.items()) == [("a", 0), ("e", 1)] and type(X.dim_of("e")) is Dim
    assert len(build_complex([], {}, ZZ)) == 0


def test_a_bool_dimension_is_refused():
    # a bool is an int, but render_lef would write "cell e True", which
    # parse_lef refuses
    for cells in ([("a", False), ("b", False), ("e", True)], [Cell("a", False)]):
        with pytest.raises(InvalidCellId) as err:
            build_complex(cells, {}, ZZ)
        assert str(err.value) == "cell 'a' has bad dimension False"
    X = build_complex([("a", 0), ("b", 0), ("e", 1)], {("e", "a"): 1, ("e", "b"): -1}, ZZ)
    text = render_lef(X)
    assert "cell e 1\n" in text and parse_lef(text) == X
    with pytest.raises(LefSyntaxError, match="^line 2: bad dimension 'False'$"):
        parse_lef(text.replace("cell a 0", "cell a False"))


def test_a_dimension_above_the_maximum_is_refused_at_once():
    # a complex keeps one degree start per degree, so 10**9 would cost
    # minutes and gigabytes; the all-at-once check and the walk both refuse
    # the first pair above the maximum
    class Dim(int):
        pass

    assert MAX_LEF_DIM == 1000
    assert build_complex([("v", 0), ("w", 1000)], {}, ZZ).top_dim == 1000
    assert build_complex([("w", Dim(1000))], {}, ZZ).top_dim == 1000
    for cells, dim in (([("v", 0), ("w", 1001)], 1001), ([("w", 10**9)], 10**9),
                       ([("w", Dim(1001))], 1001),  # walked: a subclass of int
                       ([("w", 10**9), ("v", -1), ("w", 0)], 10**9)):  # walked: the first fault
        start = time.perf_counter()
        with pytest.raises(InvalidCellId) as err:
            build_complex(cells, {}, ZZ)
        assert time.perf_counter() - start < 1, cells
        assert str(err.value) == f"cell 'w' has dimension {dim}, above the maximum 1000"


def test_zero_kappa_entries_are_dropped():
    X = build_complex([("a", 0), ("e", 1)], {("e", "a"): 0}, ZZ)
    assert dict(X.kappa_entries) == {}


def test_boundary_matrix_star(star):
    mat = star.boundary_matrix(1)
    assert (mat.rows, mat.cols) == (4, 1)
    assert [row[0] for row in mat.dense()] == [1, 1, -1, -1]  # rows a, b, c, d


def test_boundary_matrix_twisted(twisted):
    assert twisted.boundary_matrix(1).dense() == [[1, 1], [-1, 1]]


def test_boundary_matrix_empty_degrees(star):
    assert star.boundary_matrix(2).cols == 0
    assert star.boundary_matrix(0).rows == 0


def test_boundary_composition_vanishes(corpus):
    for name, X in corpus:
        for q in range(1, X.top_dim + 1):
            product = X.boundary_matrix(q) @ X.boundary_matrix(q + 1)
            assert product.is_zero(), name


def test_face_poset_star(star):
    assert poset_below(star, "e") == frozenset({"a", "b", "c", "d", "e"}) == closure(star, {"e"})
    for v in "abcd":
        assert poset_below(star, v) == frozenset({v}) == closure(star, {v})
        assert v in poset_below(star, "e")
    assert "e" not in poset_below(star, "a")


def test_face_poset_triangle_chains():
    X = import_simplicial([("a", "b", "c")])
    assert "a" in poset_below(X, "ab")
    assert "ab" in poset_below(X, "abc")
    assert "a" in poset_below(X, "abc")  # transitivity
    assert "ab" not in poset_below(X, "bc")
    for x in X.cell_ids:
        assert poset_below(X, x) == closure(X, {x}), x


def test_face_poset_up_sets_are_dual_to_down_sets(corpus):
    # the down-sets against the facet walk, the up-sets read off them against
    # the cofacet walk and the brute force over the facet walk: neither walk
    # shares code with the poset
    for name, X in corpus:
        closures = {x: closure(X, {x}) for x in X.cell_ids}
        for y in X.cell_ids:
            assert poset_below(X, y) == closures[y], (name, y)
            assert poset_above(X, y) == open_hull(X, {y}), (name, y)
            assert poset_above(X, y) == {x for x, cx in closures.items() if y in cx}, (name, y)


def test_face_poset_closure_is_idempotent(corpus):
    for name, X in corpus:
        for x in X.cell_ids:
            closed_again = frozenset().union(*(poset_below(X, y) for y in poset_below(X, x)))
            assert closed_again == poset_below(X, x), name


def test_facets_examples(star, twisted):
    assert star.facets("e") == frozenset({"a", "b", "c", "d"})
    assert star.facets("a") == frozenset()
    assert twisted.facets("c") == frozenset({"a", "b"})
    with pytest.raises(UnknownCellReference):
        star.facets("nope")


@pytest.mark.parametrize("query", [
    lambda X: X.dim_of("zz"),
    lambda X: X.kappa("zz", "a"),
    lambda X: X.facets("zz"),
    lambda X: open_hull(X, {"zz"}),
    lambda X: closure(X, {"zz"}),
    lambda X: mouth(X, {"zz"}),
    lambda X: is_closed(X, {"zz"}),
    lambda X: restrict(X, {"zz"}),
    lambda X: order_complex(X, subspace={"zz"}),
    lambda X: relative_finite_space_homology(X, {"zz"}),
], ids=["dim_of", "kappa", "facets", "open_hull", "closure", "mouth", "is_closed", "restrict",
        "order_complex", "relative_finite_space_homology"])
def test_every_query_names_an_unknown_cell_with_one_text(star, query):
    with pytest.raises(UnknownCellReference) as err:
        query(star)
    assert str(err.value) == "not cells of the complex: ['zz']"


def test_facets_are_codimension_one_faces(corpus):
    for name, X in corpus:
        for cell in X.cells:
            for y in X.facets(cell.id):
                assert X.dim_of(y) == cell.dim - 1, name
                assert y in poset_below(X, cell.id), name


def test_complex_equality(star):
    clone = build_complex(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0), ("e", 1)],
        {("e", "a"): 1, ("e", "b"): 1, ("e", "c"): -1, ("e", "d"): -1}, ZZ)
    assert clone == star
    other = build_complex([("a", 0)], {}, ZZ)
    assert other != star


def _boundary_oracle(X, q):
    """Boundary q as built with a per-degree row index, from the public queries."""
    rows, cols = (sorted(x for x in X.cell_ids if X.dim_of(x) == d) for d in (q - 1, q))
    rindex = {y: i for i, y in enumerate(rows)}
    return ExactMatrix(len(rows), len(cols), {(rindex[y], j): X.kappa(x, y) for j, x in
                                              enumerate(cols) for y in X.facets(x)}, X.ring)


def test_the_complex_owns_one_cell_order(corpus):
    grid = import_cubical([[(i, i + 1), (j, j + 1)] for i in range(4) for j in range(4)])
    open_grid = restrict(grid, open_hull(grid, grid.cells_of_dim(1)))
    assert len(open_grid.cells_of_dim(0)) == 0 < len(open_grid)  # edges and squares only
    inputs = corpus + [
        ("vertex_and_square", build_complex([("v", 0), ("s", 2)], {}, ZZ)),
        ("vertex_and_edge", build_complex([("v", 0), ("e", 1)], {}, ZZ)),
        ("empty", build_complex([], {}, ZZ)),
        ("open_grid", open_grid),
    ]
    for name, X in inputs:
        dim = {x: X.dim_of(x) for x in X.cell_ids}
        top = max(dim.values(), default=-1)
        assert X._ids == tuple(sorted(dim, key=lambda x: (dim[x], x))), name
        assert X._rank == {x: r for r, x in enumerate(X._ids)}, name
        starts = [sum(d < q for d in dim.values()) for q in range(top + 1)] + [len(X)]
        assert X._starts == starts, name  # empty degrees too
        assert X.top_dim == top, name
        for q in range(-1, top + 2):
            assert X.cells_of_dim(q) == tuple(sorted(x for x in dim if dim[x] == q)), (name, q)
        for q in range(-1, top + 3):
            assert X.boundary_matrix(q) == _boundary_oracle(X, q), (name, q)
        cofacets = _cofacets(X)
        assert len(cofacets) == len(X), name
        for r, above in enumerate(cofacets):
            assert above == sorted(above), (name, r)
            assert above == [s for s, x in enumerate(X._ids) if X._ids[r] in X.facets(x)], (name, r)


def test_cells_property_sorted(star):
    assert [c.id for c in star.cells] == ["a", "b", "c", "d", "e"]
    assert [c.dim for c in star.cells] == [0, 0, 0, 0, 1]


def test_empty_complex_is_legal():
    X = build_complex([], {}, ZZ)
    assert len(X) == 0
    assert X.top_dim == -1
    assert X.boundary_matrix(0) == ExactMatrix.zeros(0, 0, ZZ)


def test_a_bool_kappa_is_stored_as_a_ring_element():
    # a bool is an int, but κ True is stored as the ring's 1, and κ False not at all
    cells = [("a", 0), ("b", 0), ("e", 1)]
    for ring, kind in ((ZZ, int), (QQ, Fraction), (GF(2), int)):
        X = build_complex(cells, {("e", "a"): True, ("e", "b"): -1}, ring)
        stored = (X.kappa("e", "a"), X.kappa_entries[("e", "a")], X.boundary_matrix(1).get(0, 0),
                  ExactMatrix(1, 1, {(0, 0): True}, ring).get(0, 0), ring.convert(True))
        assert [(type(v), v) for v in stored] == [(kind, 1)] * 5, ring
        Y = build_complex(cells, {("e", "a"): False, ("e", "b"): -1}, ring)
        assert Y.facets("e") == {"b"} and ("e", "a") not in Y.kappa_entries, ring
        assert (type(Y.kappa("e", "a")), Y.kappa("e", "a")) == (kind, 0), ring
        assert Y.boundary_matrix(1)._cols == [{1: ring.convert(-1)}], ring
        assert ExactMatrix(1, 1, {(0, 0): False}, ring).is_zero(), ring
