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
    is_open,
    mouth,
    open_hull,
    parse_lef,
    restrict,
)
from lefhom.errors import NotLocallyClosed, TooManyClosedSets, UnknownCellReference
from lefhom.topology import closed_set_walk


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
                sub = restrict(X, subset)  # construction re-validates
                assert sub.cell_ids == subset, name
                # X's incidences inside the subset, in X's order
                assert list(sub.kappa_entries.items()) == [
                    ((x, y), v) for (x, y), v in X.kappa_entries.items()
                    if x in subset and y in subset], name
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


def test_kuratowski_properties(corpus):
    rng = random.Random(23)
    for name, X in corpus:
        ids = sorted(X.cell_ids)
        assert is_closed(X, frozenset()) and is_open(X, frozenset())
        assert is_closed(X, X.cell_ids) and is_open(X, X.cell_ids)
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
        poset = X.face_poset()
        ids = sorted(X.cell_ids)
        for x in ids:
            for y in ids:
                a = x in closure(X, {y})
                b = y in open_hull(X, {x})
                c = poset.leq(x, y)
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
    """The union of the face poset's down-sets over A."""
    poset = X.face_poset()
    return poset._union(_cells_of(X, A), poset._down)


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
