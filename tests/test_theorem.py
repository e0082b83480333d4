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
from lefhom.errors import LefhomError, TooManyClosedSets, TooManySimplices
from lefhom.simplicial import finite_space_homology
from lefhom.theorem import _is_candidate, _reverify


def test_augmentable_examples(star, twisted):
    assert is_augmentable(star)
    assert not is_augmentable(twisted)
    assert is_augmentable(build_complex([("v", 0), ("w", 0)], {}, ZZ))
    assert is_augmentable(build_complex([], {}, ZZ))


def test_augmentable_depends_on_ring(twisted):
    # the offending column sums to 2, which vanishes mod 2
    assert is_augmentable(twisted, GF(2))


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
