"""Order complexes, simplicial homology, the finite-space pipeline."""

import heapq
import random
from itertools import combinations

import pytest

from lefhom import (
    GF,
    QQ,
    ZZ,
    SimplicialComplex,
    build_complex,
    finite_space_homology,
    import_cubical,
    import_simplicial,
    lefschetz_homology,
    order_complex,
    point_profile,
    relative_finite_space_homology,
    relative_simplicial_homology,
    restrict,
    simplicial_homology,
    weak_point_core,
)
from lefhom import check_corollary, closure, is_closed, open_hull, simplicial
from lefhom.errors import TooManySimplices, UnknownCellReference
from lefhom.exact import ExactMatrix
from lefhom.formats import GeneratorConfig, parse_lef, parse_simplicial, random_complex
from lefhom.homology import profile_from_boundaries
from lefhom.simplicial import order_complex_chains
from tests.test_theorem import _tower

RP2_FACES = ("abc", "acd", "ade", "aef", "afb", "bce", "cdf", "deb", "efc", "fbd")


def _grid(n):
    return import_cubical([[(i, i + 1), (j, j + 1)] for i in range(n) for j in range(n)])


def test_order_complex_star(star):
    K = order_complex(star)
    assert set(K.simplices_of_dim(1)) == {("a", "e"), ("b", "e"), ("c", "e"), ("d", "e")}
    assert K.dim == 1 and len(K) == 9


def test_order_complex_twisted(twisted):
    K = order_complex(twisted)
    assert set(K.simplices_of_dim(1)) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}


def test_order_complex_single_cell():
    X = build_complex([("v", 0)], {}, ZZ)
    K = order_complex(X)
    assert len(K) == 1 and K.dim == 0


def test_order_complex_chain_order_refines_dimension():
    X = import_simplicial([("a", "b", "c")])
    K = order_complex(X)
    for simplex in K.simplices_of_dim(2):
        dims = [X.dim_of(v) for v in simplex]
        assert dims == sorted(dims)
        assert len(set(dims)) == len(dims)  # chains are strictly graded


def test_order_complex_cap():
    X = import_simplicial([("a", "b", "c")])
    with pytest.raises(TooManySimplices):
        order_complex(X, max_simplices=5)


def test_simplicial_homology_examples(twisted):
    four_cycle = order_complex(twisted)
    profile = simplicial_homology(four_cycle)
    assert profile.free_rank(0) == 1 and profile.free_rank(1) == 1
    cone = SimplicialComplex.from_maximal([("a", "b", "c")])
    assert simplicial_homology(cone).entries == ((0, 1, ()),)
    hollow = SimplicialComplex.from_maximal([("a", "b"), ("b", "c"), ("a", "c")])
    assert simplicial_homology(hollow).entries == ((0, 1, ()), (1, 1, ()))


def test_from_maximal_closes_under_nonempty_subsets():
    rng = random.Random(3)
    for _ in range(40):
        verts = [f"v{i}" for i in range(rng.randint(1, 7))]
        faces = [rng.sample(verts, rng.randint(1, len(verts))) for _ in range(rng.randint(1, 4))]
        expected = {frozenset(sub) for face in faces for size in range(1, len(face) + 1)
                    for sub in combinations(face, size)}
        K = SimplicialComplex.from_maximal(faces + [()])  # an empty face adds nothing
        assert K.simplices == expected
        assert K.vertex_order == tuple(sorted(set().union(*faces)))
        order = list(reversed(verts))
        assert SimplicialComplex.from_maximal(faces, order).vertex_order == tuple(order)


def test_simplicial_complex_must_be_subset_closed():
    with pytest.raises(ValueError):
        SimplicialComplex([("a", "b")])  # vertices of the edge missing


def test_finite_space_homology_examples(star, twisted):
    assert finite_space_homology(star).entries == ((0, 1, ()),)
    sing = finite_space_homology(twisted)
    assert sing.free_rank(0) == 1 and sing.free_rank(1) == 1
    X = build_complex([("v", 0)], {}, ZZ)
    assert finite_space_homology(X) == point_profile(ZZ)


def test_relative_finite_space_examples(star):
    rel = relative_finite_space_homology(star, {"a", "b", "c", "d"})
    assert rel.entries == ((1, 3, ()),)
    assert not relative_finite_space_homology(star, star.cell_ids).entries
    assert relative_finite_space_homology(star, ()) == finite_space_homology(star)
    with pytest.raises(UnknownCellReference):
        relative_finite_space_homology(star, {"zz"})


def test_relative_simplicial_requires_subcomplex():
    K = SimplicialComplex.from_maximal([("a", "b")])
    L = SimplicialComplex.from_maximal([("c",)])
    with pytest.raises(ValueError):
        relative_simplicial_homology(K, L)


def test_subdivision_oracle_explicit_shapes():
    shapes = [
        [("a",)],
        [("a", "b")],
        [("a", "b", "c")],
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")],
        [("a", "b", "c"), ("c", "d")],
    ]
    for maximal in shapes:
        X = import_simplicial(maximal)
        assert lefschetz_homology(X) == finite_space_homology(X), maximal


def test_subdivision_oracle_random():
    for seed in range(40):
        cfg = GeneratorConfig(seed=seed, mode="simplicial-random",
                              max_cells_per_dim=5, max_dimension=3)
        X = random_complex(cfg)
        assert lefschetz_homology(X) == finite_space_homology(X), seed


def test_point_closure_acyclicity(corpus):
    for name, X in corpus:
        for cell in X.cells:
            sub = restrict(X, closure(X, {cell.id}))
            assert finite_space_homology(sub) == point_profile(ZZ), (name, cell.id)


def test_vertex_order_validation():
    with pytest.raises(ValueError):
        SimplicialComplex([("a",)], vertex_order=["a", "a"])
    with pytest.raises(ValueError):
        SimplicialComplex([("a",), ("b",)], vertex_order=["a"])
    with pytest.raises(ValueError, match="misses some vertices"):
        SimplicialComplex([("a",), ("c",)], vertex_order=["a", "b"])


def test_full_subcomplex_vertices_only(star):
    K = order_complex(star)
    L = K.full_subcomplex({"a", "e"})
    assert set(L.simplices) == {frozenset({"a"}), frozenset({"e"}), frozenset({"a", "e"})}


def test_boundary_matrix_signs():
    K = SimplicialComplex.from_maximal([("a", "b", "c")])
    mat = K.boundary_matrix(2)
    # rows: ab, ac, bc; single column abc with signs +, -, +
    assert mat.dense() == [[1], [-1], [1]]


def test_order_complex_of_a_subspace_is_the_full_subcomplex(corpus):
    for name, X in corpus[:20]:
        K = order_complex(X)
        ids = sorted(X.cell_ids)
        for subspace in (frozenset(), frozenset(ids[::2]), frozenset(ids[1:])):
            L = order_complex(X, subspace=subspace)
            assert L == K.full_subcomplex(subspace), name
            assert L.vertex_order == tuple(v for v in K.vertex_order if v in subspace), name


# -- weak-point reduction ------------------------------------------------------


def _reduction_matches_full_poset(X, ring):
    return finite_space_homology(X, ring) == simplicial_homology(order_complex(X), ring)


def test_weak_point_reduction_oracle_on_the_corpus(corpus):
    for name, X in corpus:
        for ring in (ZZ, QQ, GF(2), GF(3)):
            assert _reduction_matches_full_poset(X, ring), (name, ring.label)


def test_weak_point_reduction_oracle_on_the_sweep_corpus(sweep_corpus):
    for cfg, X in sweep_corpus:
        for ring in (ZZ, QQ, GF(2), GF(3)):
            assert _reduction_matches_full_poset(X, ring), (cfg.seed, cfg.mode, ring.label)


def test_minimal_finite_models_keep_every_cell(twisted):
    # no cell of these has a strict down- or up-set with a maximum or minimum
    rp2 = import_simplicial([tuple(face) for face in RP2_FACES])
    assert len(rp2) == 31
    for X in (twisted, rp2, _tower(2), _tower(3), _tower(5)):
        assert weak_point_core(X) == X.cell_ids, X


def test_contractible_complexes_shrink_to_one_cell(star):
    assert weak_point_core(star) == {"e"}
    grid = _grid(4)
    assert len(grid) == 81 and len(weak_point_core(grid)) == 1


def test_removal_is_one_point_at_a_time():
    # in a < e each point is weak while the other is there; removing both
    # at once would leave the empty space
    X = build_complex([("a", 0), ("e", 1)], {("e", "a"): 1}, ZZ)
    assert weak_point_core(X) == {"e"}
    assert finite_space_homology(X) == point_profile(ZZ)
    # the empty strict down- and up-sets of a lone point are not cones
    point = build_complex([("v", 0)], {}, ZZ)
    assert weak_point_core(point) == {"v"}
    assert weak_point_core(build_complex([], {}, ZZ)) == frozenset()


def test_simplex_cap_counts_the_reduced_order_complex():
    grid = _grid(3)
    full = len(order_complex(grid))
    assert finite_space_homology(grid, max_simplices=full - 1) == point_profile(ZZ)
    with pytest.raises(TooManySimplices):
        order_complex(grid, max_simplices=full - 1)
    # the tower is its own core, with 3**12 - 1 chains
    with pytest.raises(TooManySimplices):
        finite_space_homology(_tower(12))
    # an uncapped profile of the same complex does not answer a capped call
    X = parse_simplicial("a b c\nc d\nb d e\n")
    assert str(finite_space_homology(X)) == "H_0: Z; H_1: Z"
    with pytest.raises(TooManySimplices):
        finite_space_homology(X, max_simplices=5)


# -- rank-indexed pipeline against id-keyed references -------------------------


def _reference_order_complex(X):
    """Every chain of the face order, enumerated by ids from the facets alone."""
    faces = {}
    for cell in X.cells:  # (dim, id) order: facets come first
        faces[cell.id] = set().union(*(faces[y] | {y} for y in X.facets(cell.id)))
    chains = []

    def extend(chain):
        chains.append(chain)
        for y in faces[chain[0]]:
            extend((y,) + chain)

    for cell in X.cells:
        extend((cell.id,))
    return SimplicialComplex(chains, vertex_order=[cell.id for cell in X.cells])


def _reference_homology(K, ring):
    """Simplicial homology of K with each boundary entry written out here."""
    def boundary(q):
        rows = {s: i for i, s in enumerate(K.simplices_of_dim(q - 1))}
        cols = K.simplices_of_dim(q)
        return ExactMatrix(len(rows), len(cols), {
            (rows[s[:i] + s[i + 1:]], j): (-1) ** i
            for j, s in enumerate(cols) for i in range(len(s))}, ring)

    return profile_from_boundaries(ring, [len(K.simplices_of_dim(q)) for q in range(K.dim + 1)],
                                   boundary)


def _reference_weak_point_core(X):
    """The id-keyed weak-point pass, as it stood before ranks indexed the poset."""
    poset = X.face_poset()
    order = [c.id for c in X.cells]
    rank = {x: i for i, x in enumerate(order)}.__getitem__
    live = set(order)
    kept = set()
    heap = list(range(len(order)))
    while heap:
        x = order[heapq.heappop(heap)]
        for strict in (poset.below(x), poset.above(x)):
            rest = live & strict
            rest.discard(x)
            if rest and (rest <= poset.below(max(rest, key=rank))
                         or rest <= poset.above(min(rest, key=rank))):
                live.discard(x)
                for comparable in (poset.below(x), poset.above(x)):
                    woken = kept & comparable
                    kept -= woken
                    for y in woken:
                        heapq.heappush(heap, rank(y))
                break
        else:
            kept.add(x)
    return frozenset(live)


def _oracle_inputs(data_dir, side=4, seeds=range(5000, 5200)):
    """data/*.lef, grids 1x1 to side x side, a cube pair, RP2 and one draw
    of basis-change and of cubical-random per seed."""
    out = [(path.name, parse_lef(path.read_text())) for path in sorted(data_dir.glob("*.lef"))]
    out += [(f"grid{n}x{m}", import_cubical([[(i, i + 1), (j, j + 1)]
                                               for i in range(n) for j in range(m)]))
            for n in range(1, side + 1) for m in range(1, side + 1)]
    out.append(("cube2x1x1", import_cubical([[(0, 1), (0, 1), (0, 1)], [(1, 2), (0, 1), (0, 1)]])))
    out.append(("rp2", import_simplicial([tuple(face) for face in RP2_FACES])))
    for seed in seeds:
        for mode in ("basis-change", "cubical-random"):
            out.append((f"{mode}-{seed}", random_complex(GeneratorConfig(seed=seed, mode=mode))))
    return out


def test_rank_pipeline_matches_the_full_order_complex(data_dir):
    for name, X in _oracle_inputs(data_dir):
        K = _reference_order_complex(X)
        assert order_complex(X) == K, name
        assert order_complex(X).vertex_order == K.vertex_order, name
        for q in range(1, K.dim):  # the signs make a chain complex
            assert (K.boundary_matrix(q) @ K.boundary_matrix(q + 1)).is_zero(), (name, q)
        for ring in (ZZ, QQ, GF(2), GF(3)):
            expected = _reference_homology(K, ring)
            assert simplicial_homology(K, ring) == expected, (name, ring.label)
            assert finite_space_homology(X, ring) == expected, (name, ring.label)


def test_rank_weak_point_core_matches_the_id_keyed_pass(data_dir, corpus, sweep_corpus):
    inputs = _oracle_inputs(data_dir) + corpus + [(cfg.seed, X) for cfg, X in sweep_corpus]
    for name, X in inputs:
        assert weak_point_core(X) == _reference_weak_point_core(X), name


def test_core_boundaries_are_those_of_the_core_order_complex(monkeypatch, data_dir):
    # the same matrices, rows and columns in the same order, reach elimination
    seen = []

    def spy(ring, sizes, boundary):
        seen.append((list(sizes), [boundary(q).dense() for q in range(1, len(sizes))]))
        return profile_from_boundaries(ring, sizes, boundary)

    monkeypatch.setattr(simplicial, "profile_from_boundaries", spy)
    for name, X in _oracle_inputs(data_dir):
        seen.clear()
        finite_space_homology(X)
        K = order_complex(X, subspace=weak_point_core(X))
        assert seen == [([len(K.simplices_of_dim(q)) for q in range(K.dim + 1)],
                         [K.boundary_matrix(q).dense() for q in range(1, K.dim + 1)])], name


# -- relative homology and the sweep on the rank chains ------------------------


def test_relative_finite_space_homology_matches_the_simplicial_route(data_dir, corpus):
    # the route it replaced: the quotient of the order complex by the full
    # subcomplex on A; for a closed A, also the sweep's slice of the chains
    # whose top cell is outside A
    rng = random.Random(13)
    for name, X in _oracle_inputs(data_dir, 3, range(5000, 5060)) + corpus:
        K = order_complex(X)
        ids = sorted(X.cell_ids)
        subspaces = [frozenset(), X.cell_ids,
                     closure(X, rng.sample(ids, rng.randint(0, len(ids)))),
                     open_hull(X, rng.sample(ids, rng.randint(0, len(ids)))),
                     frozenset(rng.sample(ids, rng.randint(0, len(ids))))]
        for ring in (ZZ, QQ, GF(2), GF(3)):
            chains = order_complex_chains(X, ring)
            for A in subspaces:
                expected = relative_simplicial_homology(K, K.full_subcomplex(A), ring)
                assert relative_finite_space_homology(X, A, ring) == expected, (name, ring.label)
                if is_closed(X, A):
                    assert chains.profile(X.cell_ids - A) == expected, (name, ring.label)


def test_relative_finite_space_homology_keeps_the_cap():
    grid = _grid(3)
    full = len(order_complex(grid))
    assert relative_finite_space_homology(grid, (), max_simplices=full) == point_profile(ZZ)
    with pytest.raises(TooManySimplices):
        relative_finite_space_homology(grid, (), max_simplices=full - 1)


def test_rank_routes_build_no_simplicial_complex(monkeypatch, twisted):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a SimplicialComplex was built")

    monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
    for X in (twisted, _grid(1), import_simplicial([("a", "b", "c")])):
        order_complex_chains(X, ZZ)
        relative_finite_space_homology(X, closure(X, {X.cells[0].id}))
        assert check_corollary(X).consistent_with_corollary
    with pytest.raises(AssertionError, match="was built"):
        order_complex(twisted)  # the patch is live
