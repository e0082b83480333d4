"""Acceptance criteria, one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All assertions are exact: no tolerances anywhere, every expected value is
either reproduced from a source display or recomputed by an independent
oracle inside the test.
"""

import random
import subprocess
import sys

import pytest

from lefhom import (
    ExactMatrix,
    GF,
    GeneratorConfig,
    QQ,
    ZZ,
    check_theorem,
    closure,
    excision_check,
    finite_space_homology,
    is_augmentable,
    lefschetz_homology,
    local_condition,
    long_exact_sequence,
    parse_lef,
    point_profile,
    random_complex,
    render_lef,
    restrict,
    search_converse,
    smith_normal_form,
)
from tests.conftest import DATA_DIR, make_star, make_twisted_loop
from tests.test_exact import check_divisors_against_minors


def _passed(message: str):
    print(f"PASS: {message}")


def test_criterion_1_star_reproduction():
    X = make_star()
    assert is_augmentable(X)
    checks = local_condition(X)
    failing = [cid for cid, c in checks.items() if not c.passes]
    assert failing == ["e"]
    assert checks["e"].profile.free_rank(0) == 3
    assert checks["e"].profile.torsion(0) == ()
    lef = lefschetz_homology(X)
    assert lef.entries == ((0, 3, ()),)  # Z^3 in degree 0, zero elsewhere
    sing = finite_space_homology(X)
    assert sing.entries == ((0, 1, ()),)  # Z in degree 0 only
    _passed("criterion 1 - star example: augmentable, local failure at e "
            "with rank 3, chain Z^3 vs space Z")


def test_criterion_2_twisted_loop_reproduction():
    X = make_twisted_loop()
    assert not is_augmentable(X)
    assert all(c.passes for c in local_condition(X).values())
    lef = lefschetz_homology(X)
    assert lef.free_rank(1) == 0 and lef.torsion(1) == ()
    sing = finite_space_homology(X)
    assert sing.free_rank(1) == 1 and sing.torsion(1) == ()
    # degree-0 chain homology, rederived from the stated oracle: the gcd of
    # k x k minors of [[1,1],[-1,1]] forces divisors (1,2), i.e. the group
    # Z^(2-2) + Z/2 = Z/2.  (A free summand would need rank < 2.)
    divisors = smith_normal_form(X.boundary_matrix(1)).divisors
    check_divisors_against_minors([[1, 1], [-1, 1]], divisors)
    assert divisors == (1, 2)
    assert lef.free_rank(0) == 2 - len(divisors) == 0
    assert lef.torsion(0) == (2,)
    _passed("criterion 2 - twisted loop: not augmentable, local condition "
            "passes everywhere, H1 chain 0 vs space Z, H0 = Z/2 per the "
            "minor-gcd oracle (divisors (1,2))")


def test_criterion_3_soundness_sweep(sweep_corpus):
    assert len(sweep_corpus) >= 1000
    for cfg, X in sweep_corpus:
        report = check_theorem(X)
        if not report.consistent_with_theorem:
            pytest.fail(
                "theorem contradicted by generated complex "
                f"(seed={cfg.seed}, mode={cfg.mode}):\n{render_lef(X)}")
    _passed(f"criterion 3 - soundness sweep: {len(sweep_corpus)} generated "
            "complexes, zero contradictions")


def test_criterion_4_subdivision_oracle():
    count = 0
    for seed in range(200):
        cfg = GeneratorConfig(seed=seed, mode="simplicial-random",
                              max_cells_per_dim=6, max_dimension=3)
        X = random_complex(cfg)
        assert len(X.cells_of_dim(0)) <= 6
        assert lefschetz_homology(X) == finite_space_homology(X), seed
        count += 1
    _passed(f"criterion 4 - subdivision oracle: {count} simplicial imports, "
            "chain profile equals finite-space profile")


def test_criterion_5_excision(sweep_corpus):
    rng = random.Random(20250810)
    pairs = 0
    index = 0
    while pairs < 200:
        _, X = sweep_corpus[index % len(sweep_corpus)]
        index += 1
        ids = sorted(X.cell_ids)
        sample = rng.sample(ids, rng.randint(0, len(ids))) if ids else []
        closed = closure(X, sample)
        assert excision_check(X, closed, ZZ)
        pairs += 1
    _passed(f"criterion 5 - excision: {pairs} (complex, closed subset) pairs, "
            "both relative-homology routes agree")


def test_criterion_6_les_exactness(sweep_corpus):
    rng = random.Random(987)
    pairs = 0
    index = 0
    while pairs < 100:
        _, X = sweep_corpus[index % len(sweep_corpus)]
        index += 1
        ids = sorted(X.cell_ids)
        sample = rng.sample(ids, rng.randint(0, len(ids))) if ids else []
        closed = closure(X, sample)
        for ring in (QQ, GF(2)):
            report = long_exact_sequence(X, closed, ring)
            assert report.exact, (report.first_failure, ring.label)
        pairs += 1
    _passed(f"criterion 6 - long exact sequence: {pairs} closed pairs over "
            "Q and F2, exact at every node")


def test_criterion_7_point_closure_acyclicity(sweep_corpus):
    cells_checked = 0
    for _, X in sweep_corpus:
        for cell in X.cells:
            sub = restrict(X, closure(X, {cell.id}))
            assert finite_space_homology(sub) == point_profile(ZZ), cell
            cells_checked += 1
    _passed(f"criterion 7 - point-closure acyclicity: {cells_checked} cell "
            "closures, all with point homology")


def test_criterion_8_snf_properties():
    rng = random.Random(1234)
    for trial in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        divisors = smith_normal_form(ExactMatrix.from_rows(rows, ZZ)).divisors
        assert all(d >= 1 for d in divisors), trial
        assert all(divisors[i + 1] % divisors[i] == 0
                   for i in range(len(divisors) - 1)), trial
        check_divisors_against_minors(rows, divisors)
    _passed("criterion 8 - Smith form: 500 random matrices, divisibility "
            "chain and minor-gcd identity hold")


def test_criterion_9_cli_determinism():
    star = str(DATA_DIR / "star4.lef")
    twisted = str(DATA_DIR / "twisted_loop.lef")

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "lefhom", *argv],
                              capture_output=True)
        return proc.returncode, proc.stdout

    golden = {}
    for command in ("check", "homology", "singular"):
        for path in (star, twisted):
            first = run(command, path)
            second = run(command, path)
            assert first == second
            golden[(command, path)] = first
    code, out = golden[("homology", twisted)]
    assert code == 0 and b"H_0: Z/2" in out and b"H_1: 0" in out
    code, out = golden[("singular", twisted)]
    assert code == 0 and b"H_0: Z" in out and b"H_1: Z" in out
    code, out = golden[("check", star)]
    assert code == 0 and b"hypothesis: false (fails at: e)" in out
    search = ["search", "--seed", "3", "--budget", "40", "--max-cells", "3"]
    serial = run(*search, "--jobs", "1")
    assert serial == run(*search, "--jobs", "2")
    assert serial[0] == 1 and b"candidate_index: " in serial[1]
    _passed("criterion 9 - CLI determinism: byte-identical output across "
            "runs on both bundled examples and across --jobs settings of search")


def test_criterion_10_search_honesty():
    cfg = GeneratorConfig(seed=42, mode="basis-change",
                          max_cells_per_dim=3, transform_steps=4)
    first = list(search_converse(cfg, ZZ, budget=10_000))
    second = list(search_converse(cfg, ZZ, budget=10_000))
    assert [c.index for c in first] == [c.index for c in second]
    assert [c.lef_text for c in first] == [c.lef_text for c in second]
    for candidate in first:
        assert candidate.reverified
        # independent replay of the reported profiles from the serialization
        X = parse_lef(candidate.lef_text)
        assert is_augmentable(X)
        assert candidate.failing_cells
        assert not local_condition(X)[candidate.failing_cells[0]].passes
        assert lefschetz_homology(X) == candidate.lefschetz_profile
        assert finite_space_homology(X) == candidate.singular_profile
        assert candidate.lefschetz_profile == candidate.singular_profile
    _passed(f"criterion 10 - converse search: budget 10000 at seed 42 "
            f"terminates with a deterministic candidate count "
            f"({len(first)}), every emission re-verified from its "
            "serialization")
