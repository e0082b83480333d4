import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from lefhom import (
    GeneratorConfig,
    ZZ,
    build_complex,
    import_cubical,
    import_simplicial,
    random_complex,
)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

GENERATOR_MODES = ("simplicial-random", "cubical-random", "basis-change")


def make_star():
    """Four 0-cells all facets of a single 1-cell, signs summing to zero."""
    return build_complex(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0), ("e", 1)],
        {("e", "a"): 1, ("e", "b"): 1, ("e", "c"): -1, ("e", "d"): -1},
        ZZ,
    )


def make_twisted_loop():
    """Two 0-cells and two 1-cells, one attached with equal signs."""
    return build_complex(
        [("a", 0), ("b", 0), ("c", 1), ("d", 1)],
        {("c", "a"): 1, ("c", "b"): -1, ("d", "a"): 1, ("d", "b"): 1},
        ZZ,
    )


@pytest.fixture(scope="session")
def star():
    return make_star()


@pytest.fixture(scope="session")
def twisted():
    return make_twisted_loop()


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def _explicit_corpus():
    return [
        ("empty", build_complex([], {}, ZZ)),
        ("point", build_complex([("v", 0)], {}, ZZ)),
        ("two_points", build_complex([("v", 0), ("w", 0)], {}, ZZ)),
        ("half_interval", build_complex([("a", 0), ("e", 1)], {("e", "a"): 1}, ZZ)),
        ("segment", build_complex(
            [("a", 0), ("b", 0), ("e", 1)], {("e", "a"): -1, ("e", "b"): 1}, ZZ)),
        ("star", make_star()),
        ("twisted_loop", make_twisted_loop()),
        ("triangle", import_simplicial([("a", "b", "c")])),
        ("hollow_triangle", import_simplicial([("a", "b"), ("b", "c"), ("a", "c")])),
        ("tetra_boundary", import_simplicial(
            [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")])),
        ("cubical_edge", import_cubical([[(0, 1)]])),
        ("cubical_square", import_cubical([[(0, 1), (0, 1)]])),
        ("cubical_ell", import_cubical([[(0, 1), (0, 0)], [(1, 1), (0, 1)]])),
    ]


@pytest.fixture(scope="session")
def corpus():
    """Named complexes shared by the property tests: hand-built shapes plus
    a seeded mix of all three generator modes."""
    out = _explicit_corpus()
    for seed in range(12):
        for mode in GENERATOR_MODES:
            cfg = GeneratorConfig(seed=seed, mode=mode)
            out.append((f"{mode}-{seed}", random_complex(cfg)))
    return out


@pytest.fixture(scope="session")
def sweep_corpus():
    """Criterion-3 corpus: seeds 0..999 cycling through the three modes."""
    out = []
    for seed in range(1000):
        cfg = GeneratorConfig(seed=seed, mode=GENERATOR_MODES[seed % 3])
        out.append((cfg, random_complex(cfg)))
    return out


def poset_below(X, x):
    """The ids of the face poset's down-set of x: the faces of x, x included."""
    return frozenset([X._ids[r] for r in X.face_poset()[X._rank[x]]])


def poset_above(X, y):
    """The ids of the face poset's up-set of y: the cofaces of y, y included,
    the cells whose down-sets hold y."""
    y = X._rank[y]
    return frozenset([X._ids[r] for r, faces in X.face_poset().items() if y in faces])


def random_closed_set(X, rng: random.Random):
    from lefhom import closure

    ids = sorted(X.cell_ids)
    if not ids:
        return frozenset()
    picked = rng.sample(ids, rng.randint(0, len(ids)))
    return closure(X, picked)
