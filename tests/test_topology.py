"""Alexandroff topology on the face order: closures, hulls, restriction."""

import random
from itertools import combinations

import pytest

from lefhom import (
    ZZ,
    build_complex,
    closure,
    enumerate_closed_sets,
    import_cubical,
    import_simplicial,
    is_closed,
    is_locally_closed,
    mouth,
    open_hull,
    parse_lef,
    restrict,
)
from lefhom.complexes import LefschetzComplex, _cofacets
from lefhom.errors import NotLocallyClosed, TooManyClosedSets, UnknownCellReference
from lefhom.topology import closed_set_walk
from tests.conftest import poset_above, poset_below


def test_closure_examples(star, twisted):
    assert closure(star, {"e"}) == frozenset("abcde")
    assert closure(star, set()) == frozenset()
    assert closure(twisted, {"c"}) == frozenset("abc")


def test_open_hull_examples(star, twisted):
    assert open_hull(star, {"a"}) == frozenset({"a", "e"})
    assert open_hull(star, {"e"}) == frozenset({"e"})
    assert open_hull(twisted, {"a"}) == frozenset({"a", "c", "d"})


def test_mouth_examples(star, twisted):
    assert mouth(star, {"e"}) == frozenset("abcd")
    assert mouth(star, {"a"}) == frozenset()
    assert mouth(twisted, {"c"}) == frozenset({"a", "b"})


def test_unknown_cells_rejected(star):
    with pytest.raises(UnknownCellReference):
        closure(star, {"zz"})


def test_locally_closed_examples(star):
    assert is_locally_closed(star, {"e"})
    assert is_locally_closed(star, {"a"})
    triangle = import_simplicial([("a", "b", "c")])
    assert not is_locally_closed(triangle, {"a", "abc"})


def test_closed_and_open_sets_are_locally_closed(corpus):
    rng = random.Random(7)
    for name, X in corpus:
        ids = sorted(X.cell_ids)
        for _ in range(4):
            seedset = rng.sample(ids, rng.randint(0, len(ids))) if ids else []
            assert is_locally_closed(X, closure(X, seedset)), name
            assert is_locally_closed(X, open_hull(X, seedset)), name


def test_restrict_examples(star, twisted):
    sub = restrict(star, {"a", "b", "c", "d"})
    assert len(sub) == 4 and dict(sub.kappa_entries) == {}
    only_e = restrict(star, {"e"})
    assert len(only_e) == 1 and dict(only_e.kappa_entries) == {}
    part = restrict(twisted, {"a", "b", "c"})
    assert dict(part.kappa_entries) == {("c", "a"): 1, ("c", "b"): -1}


def test_restrict_rejects_non_locally_closed():
    triangle = import_simplicial([("a", "b", "c")])
    with pytest.raises(NotLocallyClosed):
        restrict(triangle, {"a", "abc"})


def test_restrict_validates_on_every_locally_closed_sample(corpus):
    rng = random.Random(11)
    for name, X in corpus:
        ids = sorted(X.cell_ids)
        tried = 0
        for _ in range(12):
            subset = frozenset(rng.sample(ids, rng.randint(0, len(ids)))) if ids else frozenset()
            if is_locally_closed(X, subset):
                sub = restrict(X, subset)
                assert sub.cell_ids == subset, name
                # X's incidences inside the subset, in X's order
                cells = [(x, d) for x, d in X._dims.items() if x in subset]
                kappa = [((x, y), v) for (x, y), v in X.kappa_entries.items()
                         if x in subset and y in subset]
                assert list(sub.kappa_entries.items()) == kappa, name
                # restrict does not validate; the constructor, which checks
                # boundary of boundary, builds the same store in the same order
                built = build_complex(cells, kappa, X.ring)
                assert sub == built, name
                assert list(sub._dims.items()) == list(built._dims.items()), name
                assert ([(x, list(row.items())) for x, row in sub._facets.items()]
                        == [(x, list(row.items())) for x, row in built._facets.items()]), name
                tried += 1
        assert tried > 0 or not ids


def test_enumerate_closed_sets_counts(star):
    X = build_complex([("v", 0)], {}, ZZ)
    assert enumerate_closed_sets(X) == [frozenset(), frozenset({"v"})]
    sets = enumerate_closed_sets(star)
    assert len(sets) == 17
    assert frozenset() in sets and frozenset("abcde") in sets
    # every subset of the minimal cells is closed; adding e forces everything
    assert all(closure(star, s) == s for s in sets)


def test_enumerate_closed_sets_chain_prefixes():
    # a two-step chain realized by a single-facet cell: its closed sets are
    # the down-closed prefixes (a three-step chain poset cannot occur: the
    # incidence-product condition forbids a single path of length two)
    X = build_complex([("a", 0), ("e", 1)], {("e", "a"): 1}, ZZ)
    assert enumerate_closed_sets(X) == [
        frozenset(), frozenset({"a"}), frozenset({"a", "e"})]


def test_sweep_follows_every_closed_set(corpus):
    for name, X in corpus:
        try:
            steps = closed_set_walk(X, cap=600)
        except TooManyClosedSets:
            continue
        sets = enumerate_closed_sets(X, cap=600)
        if len(X) <= 10:  # against every subset that is its own closure
            ids = sorted(X.cell_ids)
            subsets = (frozenset(c) for r in range(len(ids) + 1) for c in combinations(ids, r))
            assert set(sets) == {s for s in subsets if closure(X, s) == s}, name
        current, seen = [], [frozenset()]
        for x in steps:
            if x is None:
                current.pop()
                continue
            # a cell joins after all its faces, while nothing above it is in
            assert closure(X, {x}) - {x} <= set(current), name
            assert not any(x in closure(X, {y}) for y in current), name
            current.append(x)
            seen.append(frozenset(current))
        assert sorted(seen, key=sorted) == sorted(sets, key=sorted), name
        assert len(set(seen)) == len(sets), name
        assert current == [], name
        # the returned sets come smallest first
        assert sets == sorted(sets, key=lambda s: (len(s), sorted(s))), name


def test_walk_steps_are_balanced_and_replay_to_the_closed_sets(corpus, star):
    for name, X in corpus:
        steps = closed_set_walk(X)
        depth = 0
        for x in steps:
            depth += 1 if x is not None else -1
            assert depth >= 0, name  # no step back past the empty set
        assert depth == 0, name
        kept, sets = [], [frozenset()]
        for x in steps:
            if x is None:
                kept.pop()
            else:
                kept.append(x)
                sets.append(frozenset(kept))
        assert len(sets) == len(set(sets)) == len(steps) // 2 + 1, name
        assert sorted(sets, key=lambda s: (len(s), sorted(s))) == enumerate_closed_sets(X), name
    assert len(closed_set_walk(star, cap=17)) == 2 * 16
    with pytest.raises(TooManyClosedSets):
        closed_set_walk(star, cap=16)


def test_enumerate_closed_sets_cap(star):
    with pytest.raises(TooManyClosedSets):
        enumerate_closed_sets(star, cap=5)
    with pytest.raises(TooManyClosedSets):
        len(enumerate_closed_sets(star, cap=16))
    assert len(enumerate_closed_sets(star, cap=17)) == 17


def test_enumerate_closed_sets_cap_on_many_cells():
    # one search level per cell: far deeper than the interpreter's recursion limit
    X = build_complex([(f"v{i}", 0) for i in range(1200)], {}, ZZ)
    with pytest.raises(TooManyClosedSets):
        enumerate_closed_sets(X, cap=10)


def _list_walk(X, cap):
    """The walk with its addable cells as sorted rank lists: each child keeps
    its parent's list past its own place, plus the newly addable cofacets."""
    ids, rank, cofacets = X._ids, X._rank, _cofacets(X)
    needs = [sum(1 << rank[y] for y in X._facets[x]) for x in ids]
    steps = []
    count = 0
    stack = [(-1, 0, [k for k, need in enumerate(needs) if not need], -1)]
    while stack:
        entry = stack.pop()
        if entry is None:
            steps.append(None)
            continue
        j, chosen, siblings, place = entry
        count += 1
        if count > cap:
            raise TooManyClosedSets(cap)
        addable = siblings[place + 1:]
        if j >= 0:
            steps.append(ids[j])
            stack.append(None)
            addable += [c for c in cofacets[j] if needs[c] & chosen == needs[c]]
            addable.sort()
        stack.extend((c, chosen | 1 << c, addable, place) for place, c in enumerate(addable))
    return steps


def test_bitmask_walk_takes_the_list_walks_steps(corpus, sweep_corpus):
    grids = [[[(0, 1), (0, 1)], [(0, 1), (1, 2)]], [[(0, 1), (0, 1)], [(1, 2), (0, 1)]],
             [[(0, 1), (0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 3)]]]
    inputs = ([(name, X, 100_000) for name, X in corpus]
              + [(repr(cfg), X, 600) for cfg, X in sweep_corpus]
              + [(repr(cubes), import_cubical(cubes), 100_000) for cubes in grids])
    walked = 0
    for name, X, cap in inputs:
        try:
            expected = _list_walk(X, cap)
        except TooManyClosedSets:
            with pytest.raises(TooManyClosedSets):
                closed_set_walk(X, cap)
            continue
        assert closed_set_walk(X, cap) == expected, name
        walked += 1
    assert walked >= 1000
    assert len(closed_set_walk(import_cubical(grids[2]))) == 2 * 5678
    X = build_complex([(f"v{i}", 0) for i in range(1200)], {}, ZZ)
    for walk in (_list_walk, closed_set_walk):
        with pytest.raises(TooManyClosedSets):
            walk(X, cap=10)


def test_kuratowski_properties(corpus):
    rng = random.Random(23)
    for name, X in corpus:
        ids = sorted(X.cell_ids)
        assert is_closed(X, frozenset()) and open_hull(X, frozenset()) == frozenset()
        assert is_closed(X, X.cell_ids) and open_hull(X, X.cell_ids) == X.cell_ids
        for _ in range(4):
            A = frozenset(rng.sample(ids, rng.randint(0, len(ids)))) if ids else frozenset()
            B = frozenset(rng.sample(ids, rng.randint(0, len(ids)))) if ids else frozenset()
            cA = closure(X, A)
            assert A <= cA, name
            assert closure(X, cA) == cA, name  # idempotent
            if A <= B:
                assert cA <= closure(X, B), name  # monotone
            assert closure(X, A | B) == cA | closure(X, B), name  # unions


def test_order_closure_duality(corpus):
    # membership in a point's closure, membership in a point's open hull and
    # the face order are three views of one relation
    for name, X in corpus:
        ids = sorted(X.cell_ids)
        for x in ids:
            for y in ids:
                a = x in closure(X, {y})
                b = y in open_hull(X, {x})
                c = x in poset_below(X, y)
                assert a == b == c, name


# -- the facet walk against the face-poset route --------------------------------

RP2_FACES = ("abc", "acd", "ade", "aef", "afb", "bce", "cdf", "deb", "efc", "fbd")


def _cells_of(X, A):
    A = frozenset(A)
    unknown = sorted(a for a in A if a not in X)
    if unknown:
        raise UnknownCellReference(f"not cells of the complex: {unknown}")
    return A


def _poset_closure(X, A):
    """The union of the face poset's down-sets over A, as ids."""
    return frozenset().union(*(poset_below(X, x) for x in _cells_of(X, A)))


def _poset_is_closed(X, A):
    A = _cells_of(X, A)
    return _poset_closure(X, A) == A


def _poset_restrict(X, A):
    """The complex on A in X's order, or None when A is not locally closed."""
    A = _cells_of(X, A)
    if not _poset_is_closed(X, _poset_closure(X, A) - A):
        return None
    return build_complex([(x, X.dim_of(x)) for x in X._dims if x in A],
                         [((x, y), v) for (x, y), v in X.kappa_entries.items()
                          if x in A and y in A], X.ring)


def _facet_walk_inputs(data_dir):
    out = [(path.name, parse_lef(path.read_text())) for path in sorted(data_dir.glob("*.lef"))]
    out += [(f"grid{n}x{n}", import_cubical([[(i, i + 1), (j, j + 1)]
                                              for i in range(n) for j in range(n)]))
            for n in range(1, 9)]
    out.append(("cube2x1x1", import_cubical([[(0, 1), (0, 1), (0, 1)], [(1, 2), (0, 1), (0, 1)]])))
    out.append(("rp2", import_simplicial([tuple(face) for face in RP2_FACES])))
    return out


def _assert_walk_matches_poset(name, X, A):
    cA = _poset_closure(X, A)
    assert closure(X, A) == cA, name
    assert open_hull(X, A) == frozenset().union(*(poset_above(X, x) for x in A)), name
    assert is_closed(X, A) == _poset_is_closed(X, A), name
    assert mouth(X, A) == cA - frozenset(A), name
    assert is_locally_closed(X, A) == _poset_is_closed(X, cA - frozenset(A)), name
    expected = _poset_restrict(X, A)
    if expected is None:
        with pytest.raises(NotLocallyClosed) as err:
            restrict(X, A)
        assert str(err.value) == f"{sorted(A)} is not locally closed", name
    else:
        sub = restrict(X, A)
        assert sub == expected, name
        assert list(sub.kappa_entries.items()) == list(expected.kappa_entries.items()), name


def test_facet_walk_matches_the_face_poset(data_dir, sweep_corpus):
    rng = random.Random(31)
    inputs = _facet_walk_inputs(data_dir) + [(repr(cfg), X) for cfg, X in sweep_corpus]
    for name, X in inputs:
        ids = sorted(X.cell_ids)
        picks = [rng.sample(ids, rng.randint(0, len(ids))) for _ in range(3)]
        picks += [[x] for x in rng.sample(ids, min(3, len(ids)))]
        sets = [frozenset(), frozenset(ids)]
        for pick in picks:
            cA = _poset_closure(X, pick)
            # a subset, a closed set, an open set and a closed set less a cell
            sets += [frozenset(pick), cA, frozenset(ids) - cA, cA - {max(cA, default=None)}]
        for A in sets:
            _assert_walk_matches_poset(name, X, A)
            # the walk takes any iterable, as the poset route does
            assert closure(X, iter(sorted(A))) == _poset_closure(X, A), name


def _topology_answers(X):
    """Every topology function's answer on X, for a set, its closure and the
    open complement of that closure; restrict where the set is locally closed."""
    out = [closed_set_walk(X), enumerate_closed_sets(X)]
    A = sorted(X.cell_ids)[::2]
    for B in (A, closure(X, A), X.cell_ids - closure(X, A)):
        local = is_locally_closed(X, B)
        out += [closure(X, B), open_hull(X, B), mouth(X, B), is_closed(X, B), local]
        if local:
            out.append(restrict(X, B))
    return out


def test_topology_never_builds_the_face_poset(monkeypatch, corpus):
    # the facets, read down and up, answer every query: with the face poset
    # refused, each function gives the answer it gave before
    expected = [_topology_answers(X) for _, X in corpus]

    def refuse(*args):
        raise AssertionError("a face poset was built")

    monkeypatch.setattr(LefschetzComplex, "face_poset", refuse)
    for (name, X), answers in zip(corpus, expected):
        assert _topology_answers(X) == answers, name


def test_facet_walk_names_unknown_cells_as_the_poset_route_does(data_dir):
    for name, X in _facet_walk_inputs(data_dir):
        A = sorted(X.cell_ids)[:2] + ["zz9", "no such cell"]
        with pytest.raises(UnknownCellReference) as ref:
            _poset_closure(X, A)
        assert str(ref.value) == "not cells of the complex: ['no such cell', 'zz9']"
        for function in (closure, is_closed, mouth, is_locally_closed, restrict):
            with pytest.raises(UnknownCellReference) as err:
                function(X, A)
            assert str(err.value) == str(ref.value), (name, function.__name__)


# -- the one walk against the definitions it replaced ---------------------------


def _stack_closure(X, A):
    """A and every cell reached from it down the facets, one cell at a time."""
    facets, out = X._facets, set(_cells_of(X, A))
    stack = list(out)
    while stack:
        below = facets[stack.pop()].keys() - out
        out |= below
        stack += below
    return frozenset(out)


def _every_facet_in(X, A):
    A = _cells_of(X, A)
    return all(A.issuperset(X._facets[x]) for x in A)


def _assert_walk_matches_the_stack(name, X, A):
    """closure, mouth, is_closed, is_locally_closed and restrict against the
    stack walk, mouth = closure - A, closed = every facet in A and locally
    closed = the mouth is closed; returns whether A is locally closed."""
    A = frozenset(A)
    cA = _stack_closure(X, A)
    locally_closed = _every_facet_in(X, cA - A)
    assert closure(X, A) == cA, name
    assert mouth(X, A) == cA - A, name
    assert is_closed(X, A) == _every_facet_in(X, A), name
    assert is_locally_closed(X, A) == locally_closed, name
    if not locally_closed:
        with pytest.raises(NotLocallyClosed) as err:
            restrict(X, A)
        assert str(err.value) == f"{sorted(A)} is not locally closed", name
        return False
    expected = build_complex([(x, d) for x, d in X._dims.items() if x in A],
                             [((x, y), v) for (x, y), v in X.kappa_entries.items()
                              if x in A and y in A], X.ring)
    sub = restrict(X, A)
    assert sub == expected, name
    assert list(sub.kappa_entries.items()) == list(expected.kappa_entries.items()), name
    return True


def test_walk_matches_the_stack_on_every_closed_set(data_dir):
    inputs = [(path.name, parse_lef(path.read_text())) for path in sorted(data_dir.glob("*.lef"))]
    inputs += [(f"grid{m}x{n}", import_cubical([[(i, i + 1), (j, j + 1)]
                                                for i in range(m) for j in range(n)]))
               for m, n in ((1, 1), (1, 2), (2, 1), (2, 2))]
    for name, X in inputs:
        sets = enumerate_closed_sets(X)
        for A in sets:
            assert _assert_walk_matches_the_stack(name, X, A), name
            assert is_closed(X, A) and closure(X, A) == A and not mouth(X, A), name
    assert len(sets) == 24898  # the 2x2 grid's


def test_walk_matches_the_stack_on_random_subsets(sweep_corpus):
    rng = random.Random(41)
    verdicts = set()
    for cfg, X in sweep_corpus:
        ids = sorted(X.cell_ids)
        sets = [frozenset()] + [frozenset({x}) for x in ids]
        sets += [frozenset(rng.sample(ids, rng.randint(0, len(ids)))) for _ in range(3)]
        for A in sets:
            verdicts.add(_assert_walk_matches_the_stack(repr(cfg), X, A))
        unknown = ids[:1] + ["zz9", "no such cell"]
        for function in (closure, mouth, is_closed, is_locally_closed, restrict, open_hull):
            with pytest.raises(UnknownCellReference) as err:
                function(X, unknown)
            assert str(err.value) == "not cells of the complex: ['no such cell', 'zz9']"
    assert verdicts == {True, False}  # locally closed sets and others were both met
