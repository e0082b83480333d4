"""Order complexes, the singular homology of finite spaces, the finite-space pipeline."""

import heapq
import random
from functools import partial

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
    relative_homology,
    restrict,
    weak_point_core,
)
from lefhom import check_corollary, closure, is_closed, open_hull, simplicial
from lefhom.cli import main
from lefhom.complexes import LefschetzComplex, _down_sets
from lefhom.errors import NotClosed, TooManySimplices, UnknownCellReference
from lefhom.exact import ExactMatrix
from lefhom.formats import GeneratorConfig, parse_lef, parse_simplicial, random_complex, render_lef
from lefhom.homology import profile_from_boundaries
from lefhom.simplicial import order_complex_chains
from tests.conftest import poset_above, poset_below
from tests.test_theorem import _tower

RP2_FACES = ("abc", "acd", "ade", "aef", "afb", "bce", "cdf", "deb", "efc", "fbd")


def _grid(n):
    return import_cubical([[(i, i + 1), (j, j + 1)] for i in range(n) for j in range(n)])


def _chains(X, K, q):
    """The q-cells of K, an order complex of X, as tuples of X's cell ids:
    each id lists the ranks of its chain's cells in X.cells."""
    return {tuple(X.cells[int(r)].id for r in x.split("_")) for x in K.cells_of_dim(q)}


def test_order_complex_star(star):
    K = order_complex(star)
    assert _chains(star, K, 1) == {("a", "e"), ("b", "e"), ("c", "e"), ("d", "e")}
    assert K.top_dim == 1 and len(K) == 9


def test_order_complex_twisted(twisted):
    K = order_complex(twisted)
    assert _chains(twisted, K, 1) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}


def test_order_complex_single_cell():
    X = build_complex([("v", 0)], {}, ZZ)
    K = order_complex(X)
    assert len(K) == 1 and K.top_dim == 0


def test_order_complex_chain_order_refines_dimension():
    X = import_simplicial([("a", "b", "c")])
    K = order_complex(X)
    for simplex in _chains(X, K, 2):
        dims = [X.dim_of(v) for v in simplex]
        assert dims == sorted(dims)
        assert len(set(dims)) == len(dims)  # chains are strictly graded


def test_order_complex_cap():
    X = import_simplicial([("a", "b", "c")])
    with pytest.raises(TooManySimplices):
        order_complex(X, max_simplices=5)


def test_simplicial_homology_examples(twisted):
    four_cycle = order_complex(twisted)
    profile = lefschetz_homology(four_cycle)
    assert profile.free_rank(0) == 1 and profile.free_rank(1) == 1
    cone = order_complex(import_simplicial([("a", "b", "c")]))
    assert lefschetz_homology(cone).entries == ((0, 1, ()),)
    hollow = order_complex(import_simplicial([("a", "b"), ("b", "c"), ("a", "c")]))
    assert lefschetz_homology(hollow).entries == ((0, 1, ()), (1, 1, ()))


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


def test_order_complex_of_a_subspace_refuses_unknown_cells(star):
    # the one check of a cell set, with its text; an unknown id is not dropped
    for build in (order_complex, relative_finite_space_homology):
        with pytest.raises(UnknownCellReference) as err:
            build(star, subspace={"a", "nope"})
        assert str(err.value) == "not cells of the complex: ['nope']"
    assert len(order_complex(star, subspace={"a", "e"})) == 3


def test_relative_simplicial_requires_subcomplex():
    # the relative oracle quotients an order complex by a subcomplex only
    K = order_complex(import_simplicial([("a", "b")]))
    with pytest.raises(NotClosed):
        relative_homology(K, K.cells_of_dim(1))  # edges without their vertices


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


def test_full_subcomplex_vertices_only(star):
    L = order_complex(star, subspace={"a", "e"})
    assert _chains(star, L, 0) | _chains(star, L, 1) == {("a",), ("e",), ("a", "e")}


def test_boundary_matrix_signs():
    X = import_simplicial([("a", "b", "c")])
    K = order_complex(X)
    rank = {cell.id: str(r) for r, cell in enumerate(X.cells)}  # 7 cells: one digit

    def name(*chain):
        return "_".join(map(rank.__getitem__, chain))

    rows, cols = K.cells_of_dim(1), K.cells_of_dim(2)
    column = K.boundary_matrix(2)._cols[cols.index(name("a", "ab", "abc"))]
    # deleting the i-th vertex gives the sign (-1)**i
    assert {rows[i]: v for i, v in column.items()} == {
        name("ab", "abc"): 1, name("a", "abc"): -1, name("a", "ab"): 1}
    # 15 cells: ranks take two digits, so ids sort as the rank tuples do
    tetra = order_complex(import_simplicial([("a", "b", "c", "d")]))
    assert tetra.cells_of_dim(0)[:3] == ("00", "01", "02")
    assert tetra.cells_of_dim(1)[:2] == ("00_04", "00_05")


def test_order_complex_of_a_subspace_is_the_full_subcomplex(corpus):
    for name, X in corpus[:20]:
        K = order_complex(X)
        ids = sorted(X.cell_ids)
        for subspace in (frozenset(), frozenset(ids[::2]), frozenset(ids[1:])):
            ranks = {r for r, cell in enumerate(X.cells) if cell.id in subspace}
            full = {x for x in K.cell_ids if {int(r) for r in x.split("_")} <= ranks}
            assert order_complex(X, subspace=subspace) == restrict(K, full), name


def test_order_complex_boundaries_are_the_rank_routes_boundaries(data_dir, corpus):
    # column for column once both are sorted: the ids of a degree sort as
    # their rank tuples do, and the rank routes list them by reversed tuple
    files = [(path.name, parse_lef(path.read_text())) for path in sorted(data_dir.glob("*.lef"))]
    for name, X in files + corpus:
        ids = sorted(X.cell_ids)
        for subspace in (None, frozenset(ids[::2]), weak_point_core(X)):
            K = order_complex(X, subspace=subspace)
            cells = [r for r, x in enumerate(X._ids) if subspace is None or x in subspace]
            down = {r: X.face_poset()[r] & set(cells) for r in cells}
            by_dim = simplicial._poset_chains(cells, down, simplicial.DEFAULT_SIMPLEX_CAP)
            assert [len(K.cells_of_dim(q)) for q in range(K.top_dim + 1)] == list(map(len, by_dim))
            for q in range(len(by_dim) + 1):
                rows, cols = by_dim[q - 1] if q else (), by_dim[q] if q < len(by_dim) else ()
                assert list(cols) == sorted(cols, key=lambda chain: chain[::-1]), (name, q)
                assert K.boundary_matrix(q) == simplicial._boundary(sorted(rows), sorted(cols)), (name, q)


def _brute_force_chains(X, cells):
    """Per dimension, the set of the rank tuples of the chains among
    ``cells``: ascending ranks, any two of them comparable, the order read off
    the facet walk's closures and the chains grown one cell at a time."""
    below = {r: {X._rank[y] for y in closure(X, {X._ids[r]})} for r in cells}
    level, by_dim = {(r,) for r in cells}, []
    while level:
        by_dim.append(level)
        level = {chain + (r,) for chain in level for r in cells
                 if r > chain[-1] and all(s in below[r] for s in chain)}
    return by_dim


def test_poset_chains_are_the_brute_force_chains(data_dir, corpus):
    # X's chains, those of a random subspace as order_complex cuts them, and
    # those of the weak-point core as the singular side builds them: each
    # degree holds each chain once, and its top-cell ranks never fall
    rng = random.Random(17)
    for name, X in _oracle_inputs(data_dir) + corpus:
        down = X.face_poset()
        keep = set(rng.sample(range(len(X)), rng.randint(0, len(X))))
        core, lower = simplicial._beat_core(X)
        routes = [(range(len(X)), down),
                  (sorted(keep), {r: down[r] & keep for r in keep}),
                  (core, _down_sets(core, lower))]
        for cells, below in routes:
            by_dim = simplicial._poset_chains(cells, below, simplicial.DEFAULT_SIMPLEX_CAP)
            expected = _brute_force_chains(X, cells)
            assert [set(chains) for chains in by_dim] == expected, name
            for chains in by_dim:
                assert len(set(chains)) == len(chains), name
                tops = [chain[-1] for chain in chains]
                assert tops == sorted(tops), name


# -- weak-point reduction ------------------------------------------------------


def _reduction_matches_full_poset(X, ring):
    return finite_space_homology(X, ring) == lefschetz_homology(order_complex(X), ring)


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
    """Every chain of the face order, enumerated by ids from the facets alone,
    as a complex with a cell per chain: its id the ranks of the chain's cells
    in X.cells, zero-padded to one width and joined by ``_``, and kappa
    (-1)**i on the face without the i-th cell."""
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
    width = len(str(len(X) - 1))
    rank = {cell.id: str(r).zfill(width) for r, cell in enumerate(X.cells)}

    def name(chain):
        return "_".join(rank[x] for x in chain)

    return build_complex([(name(chain), len(chain) - 1) for chain in chains],
                         {(name(chain), name(chain[:i] + chain[i + 1:])): (-1) ** i
                          for chain in chains if len(chain) > 1 for i in range(len(chain))}, ZZ)


def _reference_homology(K, ring):
    """Simplicial homology of the order complex K with each boundary entry
    written out here from the vertices its cell ids list."""
    def boundary(q):
        rows = {x: i for i, x in enumerate(K.cells_of_dim(q - 1))}
        cols = [x.split("_") for x in K.cells_of_dim(q)]
        return ExactMatrix(len(rows), len(cols), {
            (rows["_".join(s[:i] + s[i + 1:])], j): (-1) ** i
            for j, s in enumerate(cols) for i in range(len(s))}, ring)

    return profile_from_boundaries(ring, [len(K.cells_of_dim(q)) for q in range(K.top_dim + 1)],
                                   boundary)


def _reference_weak_point_core(X):
    """The id-keyed weak-point pass, as it stood before ranks indexed the
    poset, on the id-level down- and up-sets."""
    below, above = partial(poset_below, X), partial(poset_above, X)
    order = [c.id for c in X.cells]
    rank = {x: i for i, x in enumerate(order)}.__getitem__
    live = set(order)
    kept = set()
    heap = list(range(len(order)))
    while heap:
        x = order[heapq.heappop(heap)]
        for strict in (below(x), above(x)):
            rest = live & strict
            rest.discard(x)
            if rest and (rest <= below(max(rest, key=rank))
                         or rest <= above(min(rest, key=rank))):
                live.discard(x)
                for comparable in (below(x), above(x)):
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
        for q in range(1, K.top_dim):  # the signs make a chain complex
            assert (K.boundary_matrix(q) @ K.boundary_matrix(q + 1)).is_zero(), (name, q)
        for ring in (ZZ, QQ, GF(2), GF(3)):
            expected = _reference_homology(K, ring)
            assert lefschetz_homology(K, ring) == expected, (name, ring.label)
            assert finite_space_homology(X, ring) == expected, (name, ring.label)


def test_rank_weak_point_core_matches_the_id_keyed_pass(data_dir, corpus, sweep_corpus):
    inputs = _oracle_inputs(data_dir) + corpus + [(cfg.seed, X) for cfg, X in sweep_corpus]
    for name, X in inputs:
        assert weak_point_core(X) == _reference_weak_point_core(X), name


def _hasse(X, live, below):
    """Per live rank, its lower and its upper covers in the subposet on the
    live ranks, from ``below``: each rank's strict down-set in the face poset."""
    under = {r: below[r] & live for r in live}
    lower = {r: {s for s in under[r] if not any(s in under[t] for t in under[r])} for r in live}
    upper = {r: {s for s in live if r in lower[s]} for r in live}
    return lower, upper


def test_live_covers_are_the_hasse_diagram_of_the_live_cells(monkeypatch, data_dir):
    # after each removal every live cell's covers are those of the subposet
    # on the live cells, and only cells named as changed have new covers
    bypass, state, events = simplicial._bypass, {}, []

    def spy(x, one, other):
        X, live, below = state["X"], state["live"], state["below"]
        lower, upper = (one, other) if min(one[x]) < x else (other, one)
        before = {r: (set(lower[r]), set(upper[r])) for r in live}
        (y,) = one[x]
        sides = sorted(other[x])
        changed = bypass(x, one, other)
        live.discard(x)
        events.append((state["name"], X._ids[x], X._ids[y],
                       tuple((X._ids[z], y in one[z]) for z in sides)))
        expected_lower, expected_upper = _hasse(X, live, below)
        assert {r: lower[r] for r in live} == expected_lower, (state["name"], X._ids[x])
        assert {r: upper[r] for r in live} == expected_upper, (state["name"], X._ids[x])
        assert {r for r in live if before[r] != (lower[r], upper[r])} <= changed
        return changed

    monkeypatch.setattr(simplicial, "_bypass", spy)
    for name, X in _oracle_inputs(data_dir):
        below = {r: {X._rank[y] for y in poset_below(X, x)} - {r} for r, x in enumerate(X._ids)}
        state.update(name=name, X=X, live=set(range(len(X))), below=below)
        assert weak_point_core(X) == {X._ids[r] for r in state["live"]}, name
    # skipped: the square's first edge goes, covered only by the square, and
    # each of its two vertices lies under another edge of the square
    assert ("grid1x1", "0_1x0", "0_1x0_1", (("0x0", False), ("1x0", False))) in events
    # added: on the 1x2 grid, edge 1x0_1 goes once it covers only vertex
    # 1x1, and the left square, its other edges through 1x1 gone, covers 1x1
    assert ("grid1x2", "1x0_1", "1x1", (("0_1x0_1", True),)) in events
    outcomes = [added for *_, sides in events for _, added in sides]
    assert outcomes.count(True) > 0 and outcomes.count(False) > 0


def test_no_cell_of_a_core_has_a_cone_for_a_strict_down_or_up_set(data_dir, corpus, sweep_corpus):
    inputs = _oracle_inputs(data_dir) + corpus + [(cfg.seed, X) for cfg, X in sweep_corpus]
    for name, X in inputs:
        core = weak_point_core(X)
        for x in core:
            for strict in (poset_below(X, x) & core - {x}, poset_above(X, x) & core - {x}):
                assert not any(strict <= poset_below(X, m) or strict <= poset_above(X, m)
                               for m in strict), (name, x)


def test_the_singular_side_never_builds_the_face_poset(monkeypatch, tmp_path, capsys, data_dir,
                                                        star):
    # the core and its chains are read off the facets: grids 1x1 to 4x4, a
    # cube pair, RP2, the towers, the star and 200 generator draws
    inputs = _oracle_inputs(data_dir, 4, range(5000, 5100))
    inputs += [(f"tower{k}", _tower(k)) for k in (2, 3, 5)] + [("star", star)]
    assert sum(name.startswith(("basis-change", "cubical-random")) for name, _ in inputs) == 200
    expected = []
    for name, X in inputs:
        path = tmp_path / f"{name}.lef"
        path.write_text(render_lef(X))
        assert main(["singular", str(path)]) == 0, name
        expected.append((path, finite_space_homology(X), capsys.readouterr().out))

    def refuse(*args):
        raise AssertionError("a face poset was built")

    monkeypatch.setattr(LefschetzComplex, "face_poset", refuse)
    for (name, X), (path, profile, out) in zip(inputs, expected):
        assert finite_space_homology(X) == profile, name
        assert weak_point_core(X) <= X.cell_ids, name
        assert main(["singular", str(path)]) == 0, name
        assert capsys.readouterr().out == out, name


def _by_reversed_tuple(K, q):
    """The places of K's degree-q cells sorted by their reversed rank tuples:
    the order in which the rank routes list the same chains."""
    tuples = [x.split("_")[::-1] for x in K.cells_of_dim(q)]  # zero-padded: strings sort as ints
    return sorted(range(len(tuples)), key=tuples.__getitem__)


def test_core_boundaries_are_those_of_the_core_order_complex(monkeypatch, data_dir):
    # the same matrices reach elimination, rows and columns in the core order
    # complex's order once each degree is listed by reversed rank tuple
    seen = []

    def spy(ring, sizes, boundary):
        seen.append((list(sizes), [boundary(q).dense() for q in range(1, len(sizes))]))
        return profile_from_boundaries(ring, sizes, boundary)

    monkeypatch.setattr(simplicial, "profile_from_boundaries", spy)
    for name, X in _oracle_inputs(data_dir):
        seen.clear()
        finite_space_homology(X)
        K = order_complex(X, subspace=weak_point_core(X))
        order = [_by_reversed_tuple(K, q) for q in range(K.top_dim + 1)]
        dense = []
        for q in range(1, K.top_dim + 1):
            matrix = K.boundary_matrix(q).dense()
            dense.append([[matrix[i][j] for j in order[q]] for i in order[q - 1]])
        assert seen == [([len(K.cells_of_dim(q)) for q in range(K.top_dim + 1)], dense)], name


# -- relative homology and the sweep on the rank chains ------------------------


def test_relative_finite_space_homology_matches_the_simplicial_route(data_dir, corpus):
    # the route it replaced: the quotient of the order complex by the full
    # subcomplex on A, the order complex of A; for a closed A, also the
    # sweep's slice of the chains whose top cell is outside A
    rng = random.Random(13)
    for name, X in _oracle_inputs(data_dir, 3, range(5000, 5060)) + corpus:
        K = order_complex(X)
        ids = sorted(X.cell_ids)
        subspaces = [frozenset(), X.cell_ids,
                     closure(X, rng.sample(ids, rng.randint(0, len(ids)))),
                     open_hull(X, rng.sample(ids, rng.randint(0, len(ids)))),
                     frozenset(rng.sample(ids, rng.randint(0, len(ids))))]
        subcomplexes = [order_complex(X, subspace=A).cell_ids for A in subspaces]
        for ring in (ZZ, QQ, GF(2), GF(3)):
            chains = order_complex_chains(X, ring)
            for A, L in zip(subspaces, subcomplexes):
                expected = relative_homology(K, L, ring)
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
