"""The comparison theorem as executable checks, plus the converse search."""

import random
from fractions import Fraction

import pytest

from lefhom import (
    GF,
    QQ,
    ZZ,
    GeneratorConfig,
    build_complex,
    check_corollary,
    check_theorem,
    closure,
    enumerate_closed_sets,
    import_cubical,
    import_simplicial,
    is_augmentable,
    lefschetz_homology,
    local_condition,
    parse_lef,
    point_profile,
    random_complex,
    render_lef,
    restrict,
    search_converse,
)
from lefhom import complexes, homology, simplicial, theorem, topology
from lefhom.cli import main
from lefhom.complexes import LefschetzComplex
from lefhom.errors import (LefhomError, TooManyClosedSets, TooManyClosureCells, TooManySimplices,
                           UnsupportedRing)
from lefhom.formats import GENERATOR_BOUNDS
from lefhom.homology import ChainSlices, HomologyProfile, IncrementalReducer, lefschetz_chains
from lefhom.simplicial import (DEFAULT_SIMPLEX_CAP, _poset_chains, finite_space_homology,
                               order_complex_chains)
from lefhom.theorem import (CorollaryReport, _derive_seed, _first_local_failure, _is_candidate,
                            _reverify)
from lefhom.topology import closed_set_walk


def test_augmentable_examples(star, twisted):
    assert is_augmentable(star)
    assert not is_augmentable(twisted)
    assert is_augmentable(build_complex([("v", 0), ("w", 0)], {}, ZZ))
    assert is_augmentable(build_complex([], {}, ZZ))


def test_augmentable_depends_on_ring(twisted):
    # the offending column sums to 2, which vanishes mod 2
    assert is_augmentable(twisted, GF(2))


def _augmentable_in_ring_arithmetic(X, ring):
    """Every facet coefficient converted into ``ring`` and summed there."""
    for x in X.cells_of_dim(1):
        total = ring.convert(0)
        for y in X.facets(x):
            total = ring.convert(total + ring.convert(X.kappa(x, y)))
        if total:
            return False
    return True


def test_augmentable_kappa_sum_of_three():
    cells = [("a", 0), ("b", 0), ("c", 0), ("e", 1)]
    kappa = {("e", "a"): 1, ("e", "b"): 1, ("e", "c"): 1}
    for own in (ZZ, QQ):
        X = build_complex(cells, kappa, own)
        verdicts = {ring: is_augmentable(X, ring) for ring in (ZZ, QQ, GF(2), GF(3), GF(5))}
        assert verdicts == {ZZ: False, QQ: False, GF(2): False, GF(3): True, GF(5): False}
        assert not is_augmentable(X)
    X = build_complex(cells, kappa, GF(3))
    assert is_augmentable(X) and is_augmentable(X, GF(3))
    for ring in (ZZ, QQ, GF(2), GF(5)):  # residues are refused, not read as integers
        with pytest.raises(UnsupportedRing, match=f"cannot lift F3 entries into {ring}"):
            is_augmentable(X, ring)


def test_augmentable_with_fraction_values():
    cells = [("a", 0), ("b", 0), ("c", 0), ("e", 1), ("f", 1)]
    halves = build_complex(cells, {("e", "a"): Fraction(1, 2), ("e", "b"): Fraction(-1, 2),
                                   ("f", "b"): Fraction(3, 2), ("f", "c"): Fraction(-3, 2)}, QQ)
    assert is_augmentable(halves) and is_augmentable(halves, GF(3))
    with pytest.raises(UnsupportedRing, match="1/2 is not an integer"):
        is_augmentable(halves, ZZ)
    with pytest.raises(UnsupportedRing, match="vanishes mod 2"):
        is_augmentable(halves, GF(2))
    thirds = build_complex(cells, {("e", "a"): Fraction(1, 3), ("e", "b"): Fraction(2, 3),
                                   ("f", "b"): 1, ("f", "c"): -1}, QQ)
    # the sum is 1, and 1/3 has no value mod 3 even though the sum has one
    assert not is_augmentable(thirds) and not is_augmentable(thirds, GF(2))
    with pytest.raises(UnsupportedRing, match="vanishes mod 3"):
        is_augmentable(thirds, GF(3))
    with pytest.raises(UnsupportedRing, match="1/3 is not an integer"):
        is_augmentable(thirds, ZZ)


def test_augmentable_matches_ring_arithmetic(corpus):
    for _, X in corpus:
        for own in (ZZ, QQ, GF(2), GF(3)):
            Y = build_complex(X.cells, dict(X.kappa_entries), own)
            for ring in (None, ZZ, QQ, GF(2), GF(3)):
                if own.kind == "Fp" and ring not in (None, own):
                    with pytest.raises(UnsupportedRing, match=f"cannot lift {own} entries"):
                        is_augmentable(Y, ring)
                    continue
                assert is_augmentable(Y, ring) == _augmentable_in_ring_arithmetic(
                    Y, Y.ring if ring is None else ring)


def test_local_condition_star(star):
    checks = local_condition(star)
    assert not checks["e"].passes
    assert checks["e"].profile.free_rank(0) == 3
    for v in "abcd":
        assert checks[v].passes
        assert checks[v].profile == point_profile(ZZ)


def test_local_condition_twisted(twisted):
    checks = local_condition(twisted)
    assert all(check.passes for check in checks.values())
    assert checks["c"].profile == point_profile(ZZ)
    assert checks["d"].profile == point_profile(ZZ)


def test_check_theorem_star(star):
    report = check_theorem(star)
    assert report.augmentable
    assert not report.hypothesis_holds
    assert report.failing_cells == ("e",)
    assert report.lefschetz_profile.entries == ((0, 3, ()),)
    assert report.singular_profile.entries == ((0, 1, ()),)
    assert not report.conclusion_holds
    assert report.consistent_with_theorem


def test_check_theorem_twisted(twisted):
    report = check_theorem(twisted)
    assert not report.augmentable
    assert not report.hypothesis_holds
    assert report.failing_cells == ()
    assert report.lefschetz_profile.free_rank(1) == 0
    assert report.singular_profile.free_rank(1) == 1
    assert not report.conclusion_holds
    assert report.consistent_with_theorem


def test_check_theorem_hollow_triangle():
    X = import_simplicial([("a", "b"), ("b", "c"), ("a", "c")])
    report = check_theorem(X)
    assert report.hypothesis_holds and report.conclusion_holds
    assert report.lefschetz_profile.entries == ((0, 1, ()), (1, 1, ()))


def test_theorem_soundness_over_corpus(corpus):
    for name, X in corpus:
        report = check_theorem(X)
        assert report.consistent_with_theorem, name


def test_simplicial_imports_satisfy_local_condition(corpus):
    for name, X in corpus:
        if name.startswith("simplicial-random") or name in ("triangle", "hollow_triangle"):
            assert all(c.passes for c in local_condition(X).values()), name


def test_corollary_star(star):
    report = check_corollary(star)
    assert report.augmentable
    assert not report.local_condition_holds
    assert report.closed_sets_checked == 17
    assert not report.all_closed_match
    # the whole space itself is the failing closed subcomplex
    assert ("a", "b", "c", "d", "e") in report.mismatching_closed_sets
    assert report.directions_agree and report.consistent_with_corollary


def test_corollary_point():
    X = build_complex([("v", 0)], {}, ZZ)
    report = check_corollary(X)
    assert report.local_condition_holds and report.all_closed_match
    assert report.directions_agree


def test_corollary_hollow_triangle():
    X = import_simplicial([("a", "b"), ("b", "c"), ("a", "c")])
    report = check_corollary(X)
    # down-sets by hand: vertex subsets with any supported edges:
    # 1 (empty) + 3 (one vertex) + 3*2 (two vertices) + 8 (all three) = 18
    assert report.closed_sets_checked == 18
    assert report.local_condition_holds and report.all_closed_match
    assert report.directions_agree


def test_corollary_silent_when_not_augmentable(twisted):
    # the local condition holds everywhere, yet the whole space mismatches;
    # without augmentability that is no contradiction
    report = check_corollary(twisted)
    assert not report.augmentable
    assert report.local_condition_holds
    assert not report.all_closed_match
    assert not report.directions_agree
    assert report.consistent_with_corollary


def _fraction_star():
    """The star with halved coefficients over Q."""
    half = Fraction(1, 2)
    return build_complex(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0), ("e", 1)],
        {("e", "a"): half, ("e", "b"): half, ("e", "c"): -half, ("e", "d"): -half}, QQ)


def test_fraction_kappa_through_local_condition_and_sweep():
    # closures and closed sets are sliced from matrices whose entries are Fractions
    X = _fraction_star()
    checks = local_condition(X)
    for cid, check in checks.items():
        assert check.profile == lefschetz_homology(restrict(X, closure(X, {cid})))
    assert [cid for cid, check in checks.items() if not check.passes] == ["e"]
    expected = tuple(tuple(sorted(closed)) for closed in enumerate_closed_sets(X)
                     if lefschetz_homology(restrict(X, closed))
                     != finite_space_homology(restrict(X, closed)))
    report = check_corollary(X)
    assert expected and report.mismatching_closed_sets == expected
    assert report.augmentable and not report.local_condition_holds
    assert report.consistent_with_corollary


def _tower(levels: int = 12):
    # cells p_k, m_k of dimension k; each has both cells one level down as
    # facets, so the closed sets are 1 + 3 * levels = 37 and the chains
    # 3**levels - 1, past the default simplex cap
    cells = [(f"{t}{k}", k) for k in range(levels) for t in "pm"]
    kappa = {}
    for k in range(1, levels):
        s = -1 if k == 1 else 1
        kappa.update({(f"p{k}", f"p{k - 1}"): 1, (f"p{k}", f"m{k - 1}"): s,
                      (f"m{k}", f"p{k - 1}"): -1, (f"m{k}", f"m{k - 1}"): -s})
    return build_complex(cells, kappa, ZZ)


def test_corollary_cap_precedence():
    X = _tower()
    assert len(enumerate_closed_sets(X)) == 37
    with pytest.raises(TooManySimplices):
        check_corollary(X)
    with pytest.raises(TooManyClosedSets):
        check_corollary(X, cap=10)


def test_corollary_cap_below_one_is_refused_at_the_call(star):
    for cap in (0, -3):
        with pytest.raises(ValueError, match="cap must be positive"):
            check_corollary(star, cap=cap)
    assert check_corollary(star, cap=17).closed_sets_checked == 17
    with pytest.raises(TooManyClosedSets):
        check_corollary(star, cap=16)


def _sliced_corollary(X, ring):
    """The sweep without reduction: both profiles of every closed set
    sliced from scratch."""
    cells, chains = lefschetz_chains(X, ring), order_complex_chains(X, ring)
    closed_sets = enumerate_closed_sets(X)
    mismatches = tuple(tuple(sorted(closed)) for closed in closed_sets
                       if cells.profile(closed) != chains.profile(closed))
    local_ok = _first_local_failure(X, ring) is None
    augmentable = is_augmentable(X, ring)
    return CorollaryReport(ring, augmentable, local_ok, len(closed_sets), mismatches,
                           not mismatches, local_ok == (not mismatches),
                           local_ok == (not mismatches) or not augmentable)


def _torsion_witness():
    # augmentable, both homologies H_0: Z; H_1: Z, but cl e0 has H_0: Z + Z/2
    return build_complex(
        [("v0", 0), ("v1", 0), ("e0", 1), ("e1", 1)],
        {("e0", "v0"): -2, ("e0", "v1"): 2, ("e1", "v0"): -1, ("e1", "v1"): 1}, ZZ)


def test_corollary_torsion_takes_the_slice_fallback(monkeypatch):
    X = _torsion_witness()
    profiled = []
    original = ChainSlices.profile
    monkeypatch.setattr(ChainSlices, "profile",
                        lambda self, kept: profiled.append(frozenset(kept)) or original(self, kept))
    report = check_corollary(X)
    # the local condition slices only closures of single cells; the whole
    # complex is sliced by the sweep, below the include of e0
    assert X.cell_ids in profiled
    monkeypatch.undo()
    assert report == _sliced_corollary(X, ZZ)
    assert report.mismatching_closed_sets == (("e0", "v0", "v1"),)
    assert report.augmentable and not report.local_condition_holds
    assert report.consistent_with_corollary
    for ring in (QQ, GF(2), GF(3)):
        assert check_corollary(X, ring) == _sliced_corollary(X, ring), ring


def _recorded_reducers(monkeypatch):
    """The reducers that check_corollary builds, in order."""
    reducers = []

    def recorded(chains):
        reducers.append(IncrementalReducer(chains))
        return reducers[-1]

    monkeypatch.setattr(theorem, "IncrementalReducer", recorded)
    return reducers


def test_the_sweep_never_stalls_over_a_field(monkeypatch, sweep_corpus):
    # over Q and F_p every nonzero lowest entry is a unit, so no visit falls
    # back to slice profiles; over Z the witness's kappa 2 stalls it
    stalls, reducers = [], _recorded_reducers(monkeypatch)
    include = IncrementalReducer.include

    def watched(self, key):
        include(self, key)
        assert self is reducers[-1]  # the one reducer of the sweep
        stalls.append(self.stalled is not None)

    monkeypatch.setattr(IncrementalReducer, "include", watched)
    check_corollary(_torsion_witness(), ZZ)
    assert any(stalls) and len(reducers) == 1
    inputs = [X for _, X in sweep_corpus] + [_torsion_witness()]
    for X in inputs:
        try:
            enumerate_closed_sets(X, 200)
        except TooManyClosedSets:
            continue
        for ring in (QQ, GF(2), GF(3)):
            stalls.clear()
            reducers.clear()
            report = check_corollary(X, ring)
            assert len(reducers) == 1, (render_lef(X), ring)
            assert stalls and not any(stalls), (render_lef(X), ring)
            assert report == _sliced_corollary(X, ring), (render_lef(X), ring)


def test_corollary_matches_the_sliced_sweep(corpus, sweep_corpus):
    # the explicit and seeded corpus, plus the first 300 sweep-corpus
    # complexes (basis-change mode puts non-unit entries in their boundaries)
    inputs = [X for _, X in corpus] + [X for _, X in sweep_corpus[:300]]
    non_unit = mismatched = 0
    for X in inputs:
        try:
            enumerate_closed_sets(X, 200)
        except TooManyClosedSets:
            continue
        for ring in (ZZ, QQ, GF(2), GF(3)):
            report = check_corollary(X, ring)
            assert report == _sliced_corollary(X, ring), (render_lef(X), ring)
            mismatched += bool(report.mismatching_closed_sets)
        non_unit += any(v not in (1, -1) for v in X.kappa_entries.values())
    assert non_unit >= 20 and mismatched >= 100


def _split_profile(profile, o):
    """A stacked profile's degrees below o, and those from o shifted back by o."""
    low = tuple(e for e in profile.entries if e[0] < o)
    high = tuple((n - o, f, t) for n, f, t in profile.entries if n >= o)
    return HomologyProfile(profile.ring, low), HomologyProfile(profile.ring, high)


def test_corollary_visits_match_the_profiles(data_dir, monkeypatch):
    grids = [[[(0, 1), (0, 1)], [(0, 1), (1, 2)]], [[(0, 1), (0, 1)], [(1, 2), (0, 1)]],
             [[(0, 1), (0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 3)]]]
    modes = ("simplicial-random", "cubical-random", "basis-change")
    inputs = ([parse_lef(path.read_text()) for path in sorted(data_dir.glob("*.lef"))]
              + [import_cubical(cubes) for cubes in grids] + [_torsion_witness()]
              # a 2-cell over a facetless edge: the longest chain has 2 cells, not 3
              + [build_complex([("v", 0), ("e", 1), ("t", 2)], {("t", "e"): 1}, ZZ)]
              + [random_complex(GeneratorConfig(seed=seed, mode=modes[seed % 3]))
                 for seed in range(120)])
    stalled = 0
    reducers = _recorded_reducers(monkeypatch)
    for X in inputs:
        try:
            count = len(enumerate_closed_sets(X, 6000))
        except TooManyClosedSets:
            continue
        steps = closed_set_walk(X)
        o = X.top_dim + 1  # the order complex's degree q is the stack's o + q
        for ring in (ZZ, QQ, GF(2), GF(3)):
            # the corollary's one reducer, replayed again after its sweep
            reducers.clear()
            report = check_corollary(X, ring)
            (reducer,) = reducers
            assert reducer.kept == [] and reducer.stalled is None
            free = reducer.free
            assert len(free) == 2 * o
            visits = 1  # the empty set
            for x in steps:
                if x is None:
                    reducer.undo()
                    continue
                reducer.include(x)
                visits += 1
                if reducer.stalled is None:
                    cells, space = _split_profile(reducer.profile(), o)
                    assert (free[:o] != free[o:]) == (cells != space)
                else:
                    stalled += 1
            assert visits == count
            if count > 600:
                continue  # the 1x3 grid: slicing its 5 679 sets from scratch takes seconds
            cells, space = lefschetz_chains(X, ring), order_complex_chains(X, ring)
            expected = tuple(tuple(sorted(closed)) for closed in enumerate_closed_sets(X)
                             if cells.profile(closed) != space.profile(closed))
            assert report.closed_sets_checked == count, (render_lef(X), ring)
            assert report.mismatching_closed_sets == expected, (render_lef(X), ring)
    assert stalled


def test_corollary_cap_comes_before_the_order_complex(monkeypatch):
    # the walk refuses before the face poset, any closure profile, the
    # order complex, the stacked complex or its reducer is built
    def refused(*args):
        raise AssertionError("built before the cap")

    monkeypatch.setattr(theorem, "order_complex_chains", refused)
    monkeypatch.setattr(theorem, "stacked_chains", refused)
    monkeypatch.setattr(IncrementalReducer, "__init__", refused)
    monkeypatch.setattr(LefschetzComplex, "face_poset", refused)
    monkeypatch.setattr(theorem, "closure_profiles", refused)
    X = import_cubical([[(0, 1), (0, 1)], [(0, 1), (1, 2)]])  # 518 closed sets
    for cap in (1, 17, 517):
        with pytest.raises(TooManyClosedSets):
            check_corollary(X, cap=cap)


def test_check_corollary_lists_the_cofacets_once(monkeypatch, corpus):
    # the closed-set walk lists them; the face poset's up-sets are read off
    # its down-sets, with no second listing
    calls = []

    def counting(X):
        calls.append(X)
        return cofacets(X)

    cofacets = complexes._cofacets
    for module in (complexes, topology, simplicial):
        monkeypatch.setattr(module, "_cofacets", counting)
    for X in [X for _, X in corpus] + [import_cubical([[(0, 1), (0, 1)], [(0, 1), (1, 2)]])]:
        calls.clear()
        check_corollary(X)
        assert calls == [X]


def test_local_condition_builds_the_cell_set_at_most_once(monkeypatch):
    X = import_cubical([[(i, i + 1), (j, j + 1)] for i in range(4) for j in range(4)])
    built = {"cell_ids": 0, "Cell": 0}
    cell_ids, cell = LefschetzComplex.cell_ids.fget, complexes.Cell

    def counted(key, build):
        def wrapper(*args):
            built[key] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(LefschetzComplex, "cell_ids", property(counted("cell_ids", cell_ids)))
    monkeypatch.setattr(complexes, "Cell", counted("Cell", cell))
    checks = local_condition(X)
    assert len(checks) == len(X) == 81
    assert built["cell_ids"] <= 1
    assert built["Cell"] == 0  # closures are read off the face poset, not X.cells


def test_local_condition_equals_the_uncached_closure_profiles(corpus, sweep_corpus):
    # the oracle slices each closure by ids and eliminates it, with no memo;
    # the halved star has no values over Z or F2
    rings = (ZZ, QQ, GF(2), GF(3))
    inputs = ([(X, rings) for _, X in corpus] + [(X, rings) for _, X in sweep_corpus]
              + [(_torsion_witness(), rings), (_fraction_star(), (QQ, GF(3)))])
    failing = 0
    shared = {ring: homology.ClosureMemo() for ring in rings}  # one per ring, as a search's
    for X, X_rings in inputs:
        for ring in X_rings:
            chains = lefschetz_chains(X, ring)
            checks = local_condition(X, ring)
            assert list(checks) == [cell.id for cell in X.cells]
            # every complex before this one has filled the shared memo
            across = dict(homology.closure_profiles(X, ring, shared[ring]))
            for cid, check in checks.items():
                expected = chains.profile(closure(X, {cid}))
                assert check.profile == expected, (render_lef(X), ring, cid)
                assert across[cid] == expected, (render_lef(X), ring, cid)
                assert check.passes == (expected == point_profile(ring))
                failing += not check.passes
    assert failing >= 100


def test_closure_keys_keep_empty_dimensions():
    # cl s and cl e are one cell each, with no boundary; s has no 1-cells
    # below it.  Cut only where populated degrees start, both closures would
    # key as ((0, 0, 1), (), ()), and the memo would give one the other's profile
    top2 = build_complex([("v", 0), ("s", 2)], {}, ZZ)
    top1 = build_complex([("v", 0), ("e", 1)], {}, ZZ)
    for order in ((top2, top1), (top1, top2)):
        memo, profiles = homology.ClosureMemo(), {}
        for X in order:
            profiles.update(homology.closure_profiles(X, ZZ, memo))
        assert str(profiles["s"]) == "H_0: 0; H_1: 0; H_2: Z"
        assert str(profiles["e"]) == "H_0: 0; H_1: Z"
        assert len(memo) == 2


def test_local_condition_admits_the_ring_before_any_closure(monkeypatch):
    def refused(*args):
        raise AssertionError("a closure was profiled before the ring was admitted")

    monkeypatch.setattr(homology, "profile_from_boundaries", refused)
    f3 = build_complex([("a", 0), ("b", 0), ("e", 1)], {("e", "a"): 1, ("e", "b"): 2}, GF(3))
    for X, ring, message in ((f3, QQ, "cannot lift F3 entries into Q"),
                             (_fraction_star(), ZZ, "1/2 is not an integer")):
        with pytest.raises(UnsupportedRing) as err:
            local_condition(X, ring)
        assert str(err.value) == message


def test_the_local_condition_builds_no_chain_slices(monkeypatch, star):
    # closures are read off the complex: the chain slices are the sweep's
    def checked():
        return [(local_condition(X, ring), check_theorem(X, ring), _is_candidate(X, ring))
                for X in (_torsion_witness(), star) for ring in (ZZ, QQ, GF(2))]

    def refused(*args):
        raise AssertionError("chain slices built")

    expected = checked()
    monkeypatch.setattr(theorem, "lefschetz_chains", refused)
    assert checked() == expected
    assert expected[0][2] and not expected[0][1].hypothesis_holds  # the witness is a candidate
    assert not hasattr(theorem, "ChainSlices")


def test_torsion_witness_closures_share_a_shape_but_not_a_profile():
    # cl e0 and cl e1 have the same sizes and the same rows after
    # renumbering; only the values (-2, 2) and (-1, 1) tell them apart
    X = _torsion_witness()
    chains = lefschetz_chains(X, ZZ)
    (sizes0, boundary0), (sizes1, boundary1) = (chains.slice(closure(X, {e})) for e in ("e0", "e1"))
    assert sizes0 == sizes1 == [2, 1]
    assert ([sorted(col) for col in boundary0(1)._cols]
            == [sorted(col) for col in boundary1(1)._cols])
    checks = local_condition(X)
    assert checks["e0"].profile.entries == ((0, 1, (2,)),)
    assert checks["e1"].profile == point_profile(ZZ)
    assert [cid for cid, check in checks.items() if not check.passes] == ["e0"]
    # over F2, cl e0 has no boundary at all
    f2 = local_condition(X, GF(2))
    assert f2["e0"].profile.entries == ((0, 2, ()), (1, 1, ()))
    assert f2["e1"].profile == point_profile(GF(2))


def test_closures_with_equal_sizes_and_values_differ_by_their_rows():
    # cl s is a square a0-a1-a3-a2, cl t two digons b0=b1 and b2=b3: in
    # rank order both have 4 vertices, 4 edges with values (-1, 1) and a
    # face with values (1, -1, 1, -1); only the edges' rows differ
    edges = {"p1": ("a0", "a1"), "p2": ("a0", "a2"), "p3": ("a1", "a3"), "p4": ("a2", "a3"),
             "q1": ("b0", "b1"), "q2": ("b0", "b1"), "q3": ("b2", "b3"), "q4": ("b2", "b3")}
    kappa = {}
    for e, (u, v) in edges.items():
        kappa.update({(e, u): -1, (e, v): 1})
    for face, e in (("s", "p"), ("t", "q")):
        kappa.update({(face, f"{e}{k}"): (-1) ** (k + 1) for k in range(1, 5)})
    vertices = [(f"{t}{k}", 0) for t in "ab" for k in range(4)]
    X = build_complex(vertices + [(e, 1) for e in edges] + [("s", 2), ("t", 2)], kappa, ZZ)
    chains = lefschetz_chains(X, ZZ)
    (sizes_s, _), (sizes_t, _) = (chains.slice(closure(X, {x})) for x in "st")
    assert sizes_s == sizes_t == [4, 4, 1]
    for ring in (ZZ, QQ, GF(2), GF(3)):
        checks = local_condition(X, ring)
        assert checks["s"].passes
        assert checks["t"].profile.entries == ((0, 2, ()), (1, 1, ()))


def test_local_condition_eliminates_each_closure_content_once(monkeypatch):
    # the 5x5 grid's 96 closures of 1- and 2-cells, keyed as the oracle
    # slices them: sizes and renumbered columns, rows in ascending order
    X = import_cubical([[(i, i + 1), (j, j + 1)] for i in range(5) for j in range(5)])
    chains = lefschetz_chains(X, ZZ)
    contents = set()
    for cell in X.cells:
        if cell.dim:
            sizes, boundary = chains.slice(closure(X, {cell.id}))
            columns = [tuple(sorted(col.items()))
                       for q in range(1, len(sizes)) for col in boundary(q)._cols]
            contents.add((tuple(sizes), tuple(columns)))
    from lefhom import homology

    calls = []
    original = homology.profile_from_boundaries
    monkeypatch.setattr(homology, "profile_from_boundaries",
                        lambda *args: calls.append(args[1]) or original(*args))
    for _ in range(2):  # each call starts with an empty memo
        calls.clear()
        assert all(check.passes for check in local_condition(X).values())
        assert len(calls) == len(contents) < 96
        calls.clear()  # so does the search's first-failure pass
        assert _first_local_failure(X, ZZ) is None
        assert len(calls) == len(contents)


def _refused(*args):
    raise AssertionError("a closure was profiled past the cap")


def test_local_condition_cap_counts_closure_cells_before_any_profile(monkeypatch, tmp_path, capsys):
    # the closures of the k-simplex's faces hold 3**k - 2**k cells in all
    assert 3 ** 14 - 2 ** 14 == 4_766_585 <= homology.DEFAULT_CLOSURE_CAP < 3 ** 15 - 2 ** 15
    X = import_simplicial([("a", "b", "c", "d", "e")])
    assert sum(map(len, X.face_poset().values())) == 3 ** 5 - 2 ** 5 == 211
    monkeypatch.setattr(homology, "profile_from_boundaries", _refused)  # reached only past the cap
    monkeypatch.setattr(homology, "DEFAULT_CLOSURE_CAP", 210)
    with pytest.raises(TooManyClosureCells) as info:
        local_condition(X)
    assert (info.value.total, info.value.cap) == (211, 210)
    path = tmp_path / "simplex5.txt"
    path.write_text("a b c d e\n")
    from lefhom.cli import main

    assert main(["check", "--format", "simplicial", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the closures of the cells hold 211 cells in all, over the cap of 210\n"
    monkeypatch.undo()
    monkeypatch.setattr(homology, "DEFAULT_CLOSURE_CAP", 211)
    assert main(["check", "--format", "simplicial", str(path)]) == 0
    assert "hypothesis: true\n" in capsys.readouterr().out


def test_every_closure_pass_is_capped(monkeypatch):
    # the cap is checked inside closure_profiles, so the corollary's local
    # pass and a search draw's are capped as check's is
    X = import_simplicial([("a", "b", "c", "d", "e")])  # 211 closure cells
    count = len(enumerate_closed_sets(X))
    monkeypatch.setattr(homology, "profile_from_boundaries", _refused)
    monkeypatch.setattr(homology, "DEFAULT_CLOSURE_CAP", 210)
    for run in (local_condition, check_theorem, lambda X: _first_local_failure(X, ZZ),
                check_corollary):
        with pytest.raises(TooManyClosureCells) as info:
            run(X)
        assert (info.value.total, info.value.cap) == (211, 210)
    for cap in (1, count - 1):  # the closed-set walk refuses first
        with pytest.raises(TooManyClosedSets):
            check_corollary(X, cap=cap)


def test_no_answered_input_reaches_the_closure_cap(corpus, sweep_corpus):
    # each closure cell y <= x gives the order complex a chain, (y, x) or
    # (x), so a corollary past the closure cap is past the simplex cap too
    for X in [X for _, X in corpus] + [X for _, X in sweep_corpus]:
        by_dim = _poset_chains(range(len(X)), X.face_poset(), DEFAULT_SIMPLEX_CAP)
        assert sum(map(len, by_dim)) >= sum(map(len, X.face_poset().values())), render_lef(X)
    # a search draw has at most n cells: n / max_cells_per_dim is the
    # faces of a simplex of the top dimension, 27 those of a cube in 3 axes
    bounds = GENERATOR_BOUNDS
    n = bounds["max_cells_per_dim"] * (2 ** (bounds["max_dimension"] + 1) - 1)
    assert bounds["max_cells_per_dim"] * 27 <= n == 4_032
    assert n + n * (n - 1) // 2 == 8_130_528 < homology.DEFAULT_CLOSURE_CAP


# -- converse search ---------------------------------------------------------


def test_star_is_not_a_candidate(star, twisted):
    assert not _is_candidate(star, ZZ)      # conclusion fails
    assert not _is_candidate(twisted, ZZ)   # not augmentable


def test_hypothesis_holders_are_rejected():
    X = import_simplicial([("a", "b", "c")])
    assert not _is_candidate(X, ZZ)


def test_handmade_converse_candidate():
    # augmentable, global homologies agree, but one closure carries torsion
    X = build_complex(
        [("a", 0), ("b", 0), ("c", 1), ("d", 1)],
        {("c", "a"): 1, ("c", "b"): -1, ("d", "a"): 2, ("d", "b"): -2}, ZZ)
    assert is_augmentable(X)
    checks = local_condition(X)
    assert not checks["d"].passes
    assert checks["d"].profile.torsion(0) == (2,)
    assert lefschetz_homology(X) == finite_space_homology(X)
    assert _is_candidate(X, ZZ)


def test_reverify_rejects_non_candidates(star, twisted):
    hypothesis_holder = import_simplicial([("a", "b", "c")])
    for X in (star, twisted, hypothesis_holder):
        with pytest.raises(LefhomError):
            _reverify(render_lef(X), ZZ)


def test_search_determinism_and_reverification():
    cfg = GeneratorConfig(seed=11, mode="basis-change", max_cells_per_dim=3,
                          transform_steps=4)
    first = list(search_converse(cfg, ZZ, budget=80))
    second = list(search_converse(cfg, ZZ, budget=80))
    assert [c.index for c in first] == [c.index for c in second]
    assert [c.lef_text for c in first] == [c.lef_text for c in second]
    for candidate in first:
        assert candidate.reverified
        X = parse_lef(candidate.lef_text)
        assert is_augmentable(X)
        assert candidate.failing_cells
        assert lefschetz_homology(X) == finite_space_homology(X)
        assert candidate.lefschetz_profile == candidate.singular_profile


def test_search_parallel_matches_serial():
    cfg = GeneratorConfig(seed=3, mode="basis-change", max_cells_per_dim=3,
                          transform_steps=4)
    serial = [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget=60, jobs=1)]
    parallel = [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget=60, jobs=2)]
    assert serial == parallel


@pytest.mark.parametrize("mode", ["simplicial-random", "cubical-random", "basis-change"])
def test_search_candidates_equal_fresh_candidate_checks(mode):
    # each draw checked on its own, outside the search and its worker pool,
    # must pick the same candidates
    cfg = GeneratorConfig(seed=7, mode=mode, max_cells_per_dim=4, transform_steps=5)
    budget = 40
    hits = 0
    for ring in (ZZ, QQ, GF(2), GF(3)):
        draws = [random_complex(cfg._replace(seed=_derive_seed(cfg.seed, i)))
                 for i in range(budget)]
        expected = [(i, render_lef(X)) for i, X in enumerate(draws) if _is_candidate(X, ring)]
        for jobs in (1, 2):
            found = [(c.index, c.lef_text) for c in search_converse(cfg, ring, budget, jobs)]
            assert found == expected, (ring, jobs)
        hits += len(expected)
    assert hits or mode != "basis-change"


class InlineExecutor:
    """Stands in for the process pool: maps in this process, starts none."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def _record_closure_memos(monkeypatch, asked=None):
    """(memo, inside _reverify) for each closure_profiles call from here on;
    with ``asked``, each homology of a whole complex asked of a memo appends
    (memo, inside _reverify, "space" or "chain") to it."""
    calls, reverifying = [], []
    closure_profiles, reverify = theorem.closure_profiles, theorem._reverify
    sides = {"space": theorem._singular, "chain": theorem._chain}

    def recorded(X, ring, memo):
        calls.append((memo, bool(reverifying)))
        return closure_profiles(X, ring, memo)

    def asking(side):
        def ask(X, ring, memo):
            asked.append((memo, bool(reverifying), side))
            return sides[side](X, ring, memo)
        return ask

    def flagged(*args):
        reverifying.append(True)
        try:
            return reverify(*args)
        finally:
            reverifying.pop()

    monkeypatch.setattr(theorem, "closure_profiles", recorded)
    monkeypatch.setattr(theorem, "_reverify", flagged)
    if asked is not None:
        monkeypatch.setattr(theorem, "_singular", asking("space"))
        monkeypatch.setattr(theorem, "_chain", asking("chain"))
    return calls


def _key_length(memo) -> int:
    # a space key's tag is not counted
    return sum(len(cuts) + sum(map(len, values)) + len(rows) for cuts, values, rows, *_ in memo)


def test_search_memos_stay_within_their_bound(monkeypatch):
    # unbounded, this search's draw memo would hold 15 170 key entries and
    # its re-verification memo 22 502 (3 276 and 19 148 with closure keys only)
    bound = 1000
    monkeypatch.setattr(homology, "CLOSURE_MEMO_BOUND", bound)
    cfg = GeneratorConfig(seed=21, mode="basis-change")
    budget = 3000
    expected = [(i, render_lef(X)) for i in range(budget)
                if _is_candidate(X := random_complex(cfg._replace(seed=_derive_seed(cfg.seed, i))),
                                 ZZ)]
    asked = []
    calls = _record_closure_memos(monkeypatch, asked)
    lengths = {}
    original, singular = theorem.closure_profiles, theorem._singular

    def checked(X, ring, memo):
        for item in original(X, ring, memo):
            lengths[id(memo)] = length = _key_length(memo)
            assert length == memo.length <= bound
            yield item

    def checked_singular(X, ring, memo):
        profile = singular(X, ring, memo)
        lengths[id(memo)] = length = _key_length(memo)
        assert length == memo.length <= bound
        return profile

    monkeypatch.setattr(theorem, "closure_profiles", checked)
    monkeypatch.setattr(theorem, "_singular", checked_singular)
    found = [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget, 1)]
    assert len({id(memo) for memo, _ in calls}) == 2
    assert {id(memo) for memo, _, _ in asked} == {id(memo) for memo, _ in calls}
    # both memos were asked for both homologies, and hold space keys
    for reverifying in (False, True):
        assert {side for _, flag, side in asked if flag == reverifying} == {"space", "chain"}
    memos = {id(memo): memo for memo, _ in calls}
    assert all(any(key[-1] == "space" for key in memo) for memo in memos.values())
    assert all(bound - 100 < length <= bound for length in lengths.values())
    # a bounded memo changes no candidate, serial or pooled
    assert found == expected and len(found) > 500
    assert [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget, 2)] == expected


def test_each_recipe_is_built_and_checked_once_per_task_memo(monkeypatch):
    events = []  # ("task",), ("draw", recipe), ("build", recipe, X) and ("check", X)
    draw, build = theorem.formats.draw_recipe, theorem.formats.build_recipe
    is_candidate, range_hits = theorem._is_candidate, theorem._range_hits

    def drawn(rng, cfg):
        events.append(("draw", draw(rng, cfg)))
        return events[-1][1]

    def built(recipe):
        events.append(("build", recipe, build(recipe)))
        return events[-1][2]

    def checked(X, ring, memo=None):
        events.append(("check", X))
        return is_candidate(X, ring, memo)

    def task(args):
        events.append(("task",))
        return range_hits(args)

    monkeypatch.setattr(theorem.formats, "draw_recipe", drawn)
    monkeypatch.setattr(theorem.formats, "build_recipe", built)
    monkeypatch.setattr(theorem, "_is_candidate", checked)
    monkeypatch.setattr(theorem, "_range_hits", task)
    # the pool's tasks run here, one after another
    monkeypatch.setattr(theorem.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(theorem.os, "cpu_count", lambda: 2)
    for mode in ("basis-change", "cubical-random"):
        cfg = GeneratorConfig(seed=6, mode=mode)
        runs = {}
        for jobs in (1, 2):
            events.clear()
            found = [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, 400, jobs)]
            # the events of a search that builds and checks each recipe the
            # first time its task draws it, and never again
            expected, seen = [], set()
            for event in events:
                if event[0] == "task":
                    seen = set()
                if event[0] in ("task", "draw"):
                    expected.append(event)
                if event[0] == "draw" and event[1] not in seen:
                    seen.add(event[1])
                    expected += [("build", event[1]), ("check",)]
            assert [e[:2] if e[0] != "check" else e[:1] for e in events] == expected, (mode, jobs)
            # each check is of the complex built just before it
            assert all(events[i + 1][1] is event[2]
                       for i, event in enumerate(events) if event[0] == "build")
            kinds = [event[0] for event in events]
            assert kinds.count("draw") == 400 and kinds.count("task") == (0 if jobs == 1 else 16)
            runs[jobs] = found, kinds.count("build")
        assert runs[1][0] == runs[2][0]
        assert runs[1][1] < runs[2][1] < 400  # tasks share no memo, yet draws repeat in each


def test_the_recipe_memo_stays_within_its_bound(monkeypatch):
    bound = 300
    monkeypatch.setattr(homology, "CLOSURE_MEMO_BOUND", bound)
    cfg = GeneratorConfig(seed=23, mode="basis-change")
    budget = 1500
    expected = [(i, render_lef(X)) for i in range(budget)
                if _is_candidate(X := random_complex(cfg._replace(seed=_derive_seed(cfg.seed, i))),
                                 ZZ)]
    recipes = {theorem.formats.draw_recipe(random.Random(_derive_seed(cfg.seed, i)), cfg)
               for i in range(budget)}
    entries = theorem.formats.Recipe.entries
    assert sum(map(entries, recipes)) > 10 * bound  # what an unbounded memo would hold
    memos = []

    class CheckedMemo(homology.BoundedMemo):
        def __init__(self, size):
            super().__init__(size)
            memos.append(self)

        def __setitem__(self, recipe, verdict):
            super().__setitem__(recipe, verdict)
            assert sum(map(entries, self)) == self.length <= bound

    monkeypatch.setattr(theorem, "BoundedMemo", CheckedMemo)
    found = [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget, 1)]
    (memo,) = memos
    assert bound - max(map(entries, recipes)) < memo.length <= bound
    # a bounded memo changes no candidate, serial or pooled
    assert found == expected and len(found) > 200
    assert [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget, 2)] == expected


def test_reverification_memo_is_never_filled_by_the_draws(monkeypatch):
    asked = []
    calls = _record_closure_memos(monkeypatch, asked)
    cfg = GeneratorConfig(seed=4, mode="basis-change")
    hits = list(search_converse(cfg, ZZ, budget=300))
    uses = calls + [(memo, reverifying) for memo, reverifying, _ in asked]
    draws = {id(memo) for memo, reverifying in uses if not reverifying}
    reverified = {id(memo) for memo, reverifying in uses if reverifying}
    assert hits and len(draws) == len(reverified) == 1  # one memo each for the whole search
    assert not draws & reverified
    memos = {id(memo): memo for memo, _ in uses}
    assert all(isinstance(memo, homology.ClosureMemo) for memo in memos.values())
    # each candidate's two homologies were asked of re-verification's memo,
    # and the space keys there are the candidates' own
    (memo,) = [memos[i] for i in reverified]
    sides = sorted(side for _, flag, side in asked if flag)
    assert sides == ["chain"] * len(hits) + ["space"] * len(hits)
    spaces = {key for key in memo if key[-1] == "space"}
    assert spaces == {simplicial.space_key(parse_lef(c.lef_text)) for c in hits}


def _lone_edge():
    # a 1-cell with no facets: chain homology H_1 = Z, and its space is a point
    return build_complex([("e", 1)], {}, ZZ)


def test_a_chain_key_and_a_space_key_never_collide(monkeypatch):
    # the lone edge and the half interval have only the value 1, so the key
    # of their top cell's closure, which is X, is their face posets' key with
    # unit values: the tag tells a space key apart
    half = build_complex([("a", 0), ("e", 1)], {("e", "a"): 1}, ZZ)
    cases = [(_lone_edge(), "H_0: 0; H_1: Z", "H_0: Z"), (half, "trivial", "H_0: Z")]
    for X, chain, space in cases:
        assert homology.complex_key(X) == homology.complex_key(X, unit=True)
        assert simplicial.space_key(X) != homology.complex_key(X)
        assert str(lefschetz_homology(X)) == chain and str(finite_space_homology(X)) == space
    monkeypatch.setattr(theorem, "lefschetz_homology", None)  # each chain side is served
    for X, chain, space in cases:
        for space_first in (False, True):
            memo = homology.ClosureMemo()
            if space_first:
                assert str(theorem._singular(X, ZZ, memo)) == space
            assert str(dict(homology.closure_profiles(X, ZZ, memo))["e"]) == chain
            assert str(theorem._chain(X, ZZ, memo)) == chain
            assert str(theorem._singular(X, ZZ, memo)) == space
            assert len(memo) == 2
            assert not _is_candidate(X, ZZ, memo)
    monkeypatch.undo()
    assert not _is_candidate(_lone_edge(), ZZ)


def test_memo_served_homologies_and_verdicts_equal_the_direct_ones(corpus):
    # one memo per ring serves every input, as a search's serves its draws;
    # the verdict is computed here from its parts, not through _is_candidate
    rings = (ZZ, QQ, GF(2), GF(3))
    draws = [random_complex(GeneratorConfig(seed=seed, mode=mode, max_cells_per_dim=4))
             for seed in range(150) for mode in ("simplicial-random", "cubical-random",
                                                 "basis-change")]
    inputs = ([X for _, X in corpus] + draws
              + [_lone_edge(), _torsion_witness(), parse_lef(render_lef(_torsion_witness()))])
    served = candidates = 0
    for ring in rings:
        memo = homology.ClosureMemo()
        for X in inputs:
            lef, sing = lefschetz_homology(X, ring), finite_space_homology(X, ring)
            failure = not all(check.passes for check in local_condition(X, ring).values())
            verdict = is_augmentable(X, ring) and failure and lef == sing
            assert _is_candidate(X, ring, memo) == verdict, (render_lef(X), ring)
            candidates += verdict
        for X in inputs:
            for key, direct in ((simplicial.space_key(X), finite_space_homology(X, ring)),
                                (homology.complex_key(X), lefschetz_homology(X, ring))):
                if key in memo:
                    assert memo[key] == direct, (render_lef(X), ring)
                    served += 1
    assert candidates > 100 and served > 900
    # and the search's verdicts, over its own memos
    for mode in ("simplicial-random", "cubical-random", "basis-change"):
        cfg = GeneratorConfig(seed=13, mode=mode)
        for ring in rings:
            expected = []
            for i in range(200):
                X = random_complex(cfg._replace(seed=_derive_seed(cfg.seed, i)))
                if (is_augmentable(X, ring)
                        and not all(c.passes for c in local_condition(X, ring).values())
                        and lefschetz_homology(X, ring) == finite_space_homology(X, ring)):
                    expected.append(i)
            assert [c.index for c in search_converse(cfg, ring, 200)] == expected, (mode, ring)
            assert expected or mode != "basis-change"


def test_the_euler_check_spares_the_chain_side_only(monkeypatch):
    # a draw whose profiles differ in Euler characteristic is decided without
    # the chain side; the singular side is still computed, and first
    computed = []
    lef, sing = theorem.lefschetz_homology, theorem.finite_space_homology
    monkeypatch.setattr(theorem, "lefschetz_homology",
                        lambda X, ring: computed.append("chain") or lef(X, ring))
    monkeypatch.setattr(theorem, "finite_space_homology",
                        lambda X, ring: computed.append("space") or sing(X, ring))
    assert _is_candidate(_torsion_witness(), ZZ, homology.ClosureMemo())
    assert computed == ["space", "chain"]
    computed.clear()
    # cl f has H_0 = Z + Z/2, and g is a 1-cell with no facets: X has Euler
    # characteristic 0, its space (a point and an arc) 2
    X = build_complex([("a", 0), ("b", 0), ("f", 1), ("g", 1)],
                      {("f", "a"): -2, ("f", "b"): 2}, ZZ)
    assert is_augmentable(X) and _first_local_failure(X, ZZ) == "f"
    assert str(finite_space_homology(X)) == "H_0: Z^2"
    assert not _is_candidate(X, ZZ, homology.ClosureMemo())
    assert computed == ["space"]


def test_reverification_reads_a_closed_top_cell_from_its_local_pass(monkeypatch):
    # the square is the closure of its 2-cell: the full local pass has
    # profiled that closure, so X's chain homology is a memo hit
    square = import_cubical([[(0, 1), (0, 1)]])
    expected = lefschetz_homology(square)

    def refused(X, ring):
        raise AssertionError("the chain side was computed")

    monkeypatch.setattr(theorem, "lefschetz_homology", refused)
    memo = homology.ClosureMemo()
    report = theorem._check_theorem(square, ZZ, memo)
    assert report.lefschetz_profile == expected
    assert simplicial.space_key(square) in memo
    with pytest.raises(AssertionError, match="chain side"):
        check_theorem(square)  # without a memo, check_theorem computes both sides


def test_a_search_computes_fewer_profiles_than_it_asks_for(monkeypatch):
    counts = {"space asked": 0, "chain asked": 0, "space computed": 0, "chain computed": 0}

    def counted(name, function):
        def call(*args):
            counts[name] += 1
            return function(*args)
        return call

    for name, attr in (("space asked", "space_key"), ("chain asked", "complex_key"),
                       ("space computed", "finite_space_homology"),
                       ("chain computed", "lefschetz_homology")):
        monkeypatch.setattr(theorem, attr, counted(name, getattr(theorem, attr)))
    cfg = GeneratorConfig(seed=5, mode="basis-change")
    hits = list(search_converse(cfg, ZZ, budget=1000))
    assert len(hits) == 195
    # both memos asked, the draws' and re-verification's; without them each
    # side would be computed 527 times, once per draw and per candidate
    # that reach it, and the Euler check asks the chain side 131 times less
    assert counts == {"space asked": 527, "chain asked": 396, "space computed": 219,
                      "chain computed": 222}


def test_serial_search_eliminates_each_closure_content_once_per_memo(monkeypatch):
    eliminated, current = [], []  # current: the memo of the closure profile under way
    closure_profiles = theorem.closure_profiles
    profile_from_boundaries = homology.profile_from_boundaries

    def entered(X, ring, memo):
        profiles = closure_profiles(X, ring, memo)
        while True:
            current.append(memo)
            try:
                item = next(profiles, None)
            finally:
                current.pop()
            if item is None:
                return
            yield item

    def recorded(ring, sizes, boundary):
        if current:
            columns = tuple(tuple(sorted(col.items()))
                            for q in range(1, len(sizes)) for col in boundary(q)._cols)
            eliminated.append((id(current[-1]), tuple(sizes), columns))
        return profile_from_boundaries(ring, sizes, boundary)

    monkeypatch.setattr(theorem, "closure_profiles", entered)
    monkeypatch.setattr(homology, "profile_from_boundaries", recorded)
    for ring in (ZZ, GF(3)):
        eliminated.clear()
        cfg = GeneratorConfig(seed=8, mode="basis-change")
        assert list(search_converse(cfg, ring, budget=400))
        assert len(set(eliminated)) == len(eliminated) > 50
        assert len({memo for memo, *_ in eliminated}) == 2  # the draws' and re-verification's


def test_pool_tasks_are_index_ranges_handed_out_a_window_at_a_time():
    class RecordingPool:
        def __init__(self):
            self.windows = []

        def map(self, fn, tasks):
            self.windows.append([indices for _, _, indices in tasks])
            return [[(indices.start, "")] for _, _, indices in tasks]  # one hit per task

    for budget, workers in ((1, 2), (17, 2), (1000, 2), (40_000, 2), (10**8, 3)):
        pool = RecordingPool()
        hits = [index for index, _ in theorem._pool_hits(pool, None, ZZ, budget, workers)]
        ranges = [indices for window in pool.windows for indices in window]
        assert hits == [indices.start for indices in ranges]
        assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
        assert ranges[-1].stop == budget and {r.step for r in ranges} == {1}
        assert max(map(len, ranges)) <= theorem._RANGE_CAP
        assert max(map(len, pool.windows)) <= workers * theorem._TASKS_PER_WORKER


def test_serial_search_yields_each_candidate_as_it_is_found(monkeypatch):
    drawn = []
    draw_recipe = theorem.formats.draw_recipe
    monkeypatch.setattr(theorem.formats, "draw_recipe",
                        lambda rng, cfg: drawn.append(cfg) or draw_recipe(rng, cfg))
    cfg = GeneratorConfig(seed=11, mode="basis-change")
    first = next(search_converse(cfg, ZZ, budget=10**9))
    assert len(drawn) == first.index + 1


def test_search_budget_validation():
    cfg = GeneratorConfig(seed=0)
    with pytest.raises(ValueError):
        list(search_converse(cfg, ZZ, budget=0))
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs must be positive"):
            search_converse(cfg, ZZ, budget=10, jobs=jobs)


def test_search_pool_is_bounded_by_cpus_and_budget(monkeypatch):
    import lefhom.theorem as theorem

    requested = []

    class RecordingExecutor(InlineExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)

    monkeypatch.setattr(theorem.concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(theorem.os, "cpu_count", lambda: 4)
    cfg = GeneratorConfig(seed=3, mode="basis-change", max_cells_per_dim=3,
                          transform_steps=4)
    serial = [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget=60, jobs=1)]
    assert requested == [] and serial
    bounded = [(c.index, c.lef_text) for c in search_converse(cfg, ZZ, budget=60, jobs=10**6)]
    assert requested == [4]
    assert bounded == serial
    list(search_converse(cfg, ZZ, budget=3, jobs=10**6))
    assert requested == [4, 3]


def test_search_simplicial_mode_finds_nothing():
    # untransformed simplicial imports always satisfy the hypothesis, so the
    # candidate filter can never fire on them
    cfg = GeneratorConfig(seed=5, mode="simplicial-random")
    assert list(search_converse(cfg, ZZ, budget=40)) == []


def test_candidate_seeds_depend_only_on_index():
    cfg = GeneratorConfig(seed=11, mode="basis-change", max_cells_per_dim=3,
                          transform_steps=4)
    hits = list(search_converse(cfg, ZZ, budget=80))
    from lefhom.theorem import _derive_seed
    from lefhom.formats import render_lef

    for candidate in hits:
        assert candidate.seed == _derive_seed(cfg.seed, candidate.index)
        regenerated = random_complex(cfg._replace(seed=candidate.seed))
        assert render_lef(regenerated) == candidate.lef_text
