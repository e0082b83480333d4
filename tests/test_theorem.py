"""The comparison theorem as executable checks, plus the converse search."""

from dataclasses import replace
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
from lefhom import complexes, theorem
from lefhom.complexes import LefschetzComplex
from lefhom.errors import LefhomError, TooManyClosedSets, TooManySimplices, UnsupportedRing
from lefhom.homology import ChainSlices, lefschetz_chains
from lefhom.simplicial import finite_space_homology, order_complex_chains
from lefhom.theorem import (CorollaryReport, _first_local_failure, _is_candidate, _Mismatches,
                            _reverify)
from lefhom.topology import count_closed_sets


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
        total = ring.zero()
        for y in X.facets(x):
            total = ring.add(total, ring.convert(X.kappa(x, y)))
        if not ring.is_zero(total):
            return False
    return True


def test_augmentable_kappa_sum_of_three():
    cells = [("a", 0), ("b", 0), ("c", 0), ("e", 1)]
    kappa = {("e", "a"): 1, ("e", "b"): 1, ("e", "c"): 1}
    for own in (ZZ, QQ, GF(3)):
        X = build_complex(cells, kappa, own)
        verdicts = {ring: is_augmentable(X, ring) for ring in (ZZ, QQ, GF(2), GF(3), GF(5))}
        assert verdicts == {ZZ: False, QQ: False, GF(2): False, GF(3): True, GF(5): False}
        assert is_augmentable(X) == (own == GF(3))


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
    assert checks["c"].profile.is_point()
    assert checks["d"].profile.is_point()


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


def test_fraction_kappa_through_local_condition_and_sweep():
    # the star with halved coefficients over Q: closures and closed sets are
    # sliced from matrices whose entries are Fractions
    half = Fraction(1, 2)
    X = build_complex(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0), ("e", 1)],
        {("e", "a"): half, ("e", "b"): half, ("e", "c"): -half, ("e", "d"): -half}, QQ)
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
    local_ok = _first_local_failure(X, cells) is None
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


class _VisitOracle:
    """Follows the closed-set walk with the corollary's two reducers and
    checks every visit against a comparison of their profiles."""

    def __init__(self, X, ring):
        self.sweep = _Mismatches(lefschetz_chains(X, ring), order_complex_chains(X, ring))
        self.visits = self.stalled = 0

    def include(self, x):
        self.sweep.include(x)

    def undo(self):
        self.sweep.undo()

    def visit(self):
        cells, space = self.sweep.sides
        assert self.sweep.visit() == (cells.profile() != space.profile())
        self.visits += 1
        self.stalled += cells.stalled is not None or space.stalled is not None
        return False


def test_corollary_visits_match_the_profiles(data_dir):
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
    for X in inputs:
        try:
            count = count_closed_sets(X, 6000)
        except TooManyClosedSets:
            continue
        for ring in (ZZ, QQ, GF(2), GF(3)):
            oracle = _VisitOracle(X, ring)
            assert enumerate_closed_sets(X, sweep=oracle) == []
            assert oracle.visits == count
            stalled += oracle.stalled
            if count > 600:
                continue  # the 1x3 grid: slicing its 5 679 sets from scratch takes seconds
            report = check_corollary(X, ring)
            cells, space = lefschetz_chains(X, ring), order_complex_chains(X, ring)
            expected = tuple(tuple(sorted(closed)) for closed in enumerate_closed_sets(X)
                             if cells.profile(closed) != space.profile(closed))
            assert report.closed_sets_checked == count, (render_lef(X), ring)
            assert report.mismatching_closed_sets == expected, (render_lef(X), ring)
    assert stalled


def test_corollary_cap_comes_before_the_order_complex(monkeypatch):
    def refused(*args):
        raise AssertionError("order complex built before the cap")

    monkeypatch.setattr(theorem, "order_complex_chains", refused)
    X = import_cubical([[(0, 1), (0, 1)], [(0, 1), (1, 2)]])  # 518 closed sets
    for cap in (1, 17, 517):
        with pytest.raises(TooManyClosedSets):
            check_corollary(X, cap=cap)


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
    assert built["Cell"] == len(X)  # X.cells is built once, then reused


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

    class InlineExecutor:
        """Stands in for the process pool: maps in this process, starts none."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(theorem.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
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
        regenerated = random_complex(replace(cfg, seed=candidate.seed))
        assert render_lef(regenerated) == candidate.lef_text
