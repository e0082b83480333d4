"""Executable checks around the homology-comparison theorem.

The statement under test: for an augmentable complex in which the closure
of every cell has the homology of a point, the cell-chain homology and the
finite-space homology of the whole complex are isomorphic.  This module
evaluates the hypotheses and the conclusion on concrete complexes, sweeps
closed subcomplexes for the associated equivalence, and hunts for
counterexamples to the converse, which profile equality alone can decide
because profiles are complete isomorphism invariants over the supported
rings.

Nothing here proves anything: reports state per-instance consistency, and
an unproductive search is reported as such, never as evidence.
"""

from __future__ import annotations

import concurrent.futures
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

from . import formats
from .complexes import LefschetzComplex, is_augmentable
from .errors import LefhomError, TooManyClosureCells, TooManySimplices
from .exact import RingSpec
from .homology import (
    ChainSlices,
    HomologyProfile,
    IncrementalReducer,
    lefschetz_chains,
    lefschetz_homology,
    point_profile,
)
from .simplicial import finite_space_homology, order_complex_chains
from .topology import DEFAULT_CLOSED_SET_CAP, closed_set_walk
# closure, enumerate_closed_sets and restrict stay bound here, though unused:
# perfbench/tracing.py patches them in lefhom.theorem by name
from .topology import closure, enumerate_closed_sets, restrict  # noqa: F401

__all__ = [
    "LocalCheck",
    "TheoremReport",
    "CorollaryReport",
    "ConverseCandidate",
    "is_augmentable",
    "local_condition",
    "check_theorem",
    "check_corollary",
    "search_converse",
]

# The most cells that the closures of a complex's cells may hold in all for
# local_condition: the simplex on 14 vertices has 4 766 585, on 15 vertices
# 14 316 139.
DEFAULT_CLOSURE_CAP = 10_000_000


@dataclass(frozen=True)
class LocalCheck:
    passes: bool
    profile: HomologyProfile


def _closure_checks(X: LefschetzComplex, chains: ChainSlices) -> Iterator:
    """(cell id, LocalCheck) in canonical cell order, computed lazily; the
    closure profiles' memo lives as long as the iterator."""
    expected = point_profile(chains.ring)
    memo = {}
    for rank, cell in enumerate(X.cells):  # ranks follow X.cells, as chains' degrees do
        # the closure of a 0-cell is the cell itself
        profile = (expected if cell.dim == 0
                   else chains.closed_profile(X.face_poset()._down[rank], memo))
        yield cell.id, LocalCheck(profile == expected, profile)


def local_condition(X: LefschetzComplex,
                    ring: Optional[RingSpec] = None) -> Mapping[str, LocalCheck]:
    """Per cell: does the closure of the cell have point homology?

    Returned in canonical cell order; the failing cells are the obstruction
    to the comparison theorem's hypothesis.  Closures repeat: each is
    profiled through :meth:`~lefhom.homology.ChainSlices.closed_profile`,
    which eliminates only the first closure of each content.  The memo
    lives for this call only.  Raises ``TooManyClosureCells`` before any
    profile when the closures hold more than ``DEFAULT_CLOSURE_CAP`` cells
    in all.
    """
    total = sum(map(len, X.face_poset()._down))
    if total > DEFAULT_CLOSURE_CAP:
        raise TooManyClosureCells(total, DEFAULT_CLOSURE_CAP)
    return dict(_closure_checks(X, lefschetz_chains(X, ring)))


def _first_local_failure(X: LefschetzComplex, chains: ChainSlices) -> Optional[str]:
    return next((cid for cid, check in _closure_checks(X, chains) if not check.passes), None)


@dataclass(frozen=True)
class TheoremReport:
    """Hypotheses, conclusion and consistency verdict for one complex.

    ``consistent_with_theorem`` is False only for an instance that would
    contradict the theorem (hypotheses hold, conclusion fails); such a
    value indicates a bug somewhere and must be surfaced loudly.
    """

    ring: RingSpec
    augmentable: bool
    local_condition: Mapping[str, LocalCheck]
    hypothesis_holds: bool
    lefschetz_profile: HomologyProfile
    singular_profile: HomologyProfile
    conclusion_holds: bool
    consistent_with_theorem: bool

    @property
    def failing_cells(self) -> tuple:
        return tuple(cid for cid, check in self.local_condition.items()
                     if not check.passes)


def check_theorem(X: LefschetzComplex, ring: Optional[RingSpec] = None) -> TheoremReport:
    """Evaluate hypotheses and conclusion of the comparison theorem on X."""
    ring = X.ring if ring is None else ring
    augmentable = is_augmentable(X, ring)
    local = local_condition(X, ring)
    hypothesis = augmentable and all(check.passes for check in local.values())
    lef = lefschetz_homology(X, ring)
    sing = finite_space_homology(X, ring)
    conclusion = lef == sing
    consistent = not (hypothesis and not conclusion)
    return TheoremReport(
        ring=ring,
        augmentable=augmentable,
        local_condition=local,
        hypothesis_holds=hypothesis,
        lefschetz_profile=lef,
        singular_profile=sing,
        conclusion_holds=conclusion,
        consistent_with_theorem=consistent,
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Both directions of the closed-subcomplex equivalence on one instance.

    For an augmentable complex, the local condition is equivalent to every
    closed subcomplex having matching chain and space homology; the two
    directions are computed independently here and compared.
    """

    ring: RingSpec
    augmentable: bool
    local_condition_holds: bool
    closed_sets_checked: int
    mismatching_closed_sets: tuple
    all_closed_match: bool
    directions_agree: bool
    consistent_with_corollary: bool


def check_corollary(X: LefschetzComplex, ring: Optional[RingSpec] = None,
                    cap: int = DEFAULT_CLOSED_SET_CAP) -> CorollaryReport:
    """Sweep every closed subcomplex and compare both homology pipelines.

    The steps of :func:`~lefhom.topology.closed_set_walk` are taken first;
    the walk raises TooManyClosedSets past ``cap`` before the order complex
    is built.  Their replay carries a column reduction of X's chain complex
    and one of its order complex, each keyed by cell: a cell joins after
    its faces, so it appends only its own columns, and each closed set's
    profiles are its free ranks.
    This is the persistence algorithm of Edelsbrunner-Letscher-Zomorodian
    ("Topological persistence and simplification", DCG 2002) and
    Zomorodian-Carlsson ("Computing persistent homology", DCG 2005), with
    undo on backtrack.  Over Z and Q only unit pivots are taken; below a
    non-unit one, closed sets are profiled as slices.  A cap below 1
    raises ``ValueError`` at the call, since the empty set is always closed.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    ring = X.ring if ring is None else ring
    augmentable = is_augmentable(X, ring)
    cells = lefschetz_chains(X, ring)
    local_ok = _first_local_failure(X, cells) is None
    steps = closed_set_walk(X, cap)
    sides = [IncrementalReducer(c) for c in (cells, order_complex_chains(X, ring))]
    width = max(len(side.free) for side in sides)
    for side in sides:
        side.free += [0] * (width - len(side.free))  # zero ranks change no profile
    lef, space = sides
    kept, mismatches = [], []  # the empty set has no homology on either side
    for x in steps:
        if x is None:
            kept.pop()
            lef.undo()
            space.undo()
            continue
        kept.append(x)
        lef.include(x)
        space.include(x)
        if lef.stalled is None and space.stalled is None:
            differ = lef.free != space.free  # the profiles, over one ring
        else:
            differ = lef.profile() != space.profile()
        if differ:
            mismatches.append(tuple(sorted(kept)))
    mismatches.sort(key=lambda s: (len(s), s))
    all_match = not mismatches
    agree = local_ok == all_match
    return CorollaryReport(
        ring=ring,
        augmentable=augmentable,
        local_condition_holds=local_ok,
        closed_sets_checked=len(steps) // 2 + 1,  # one undo per join
        mismatching_closed_sets=tuple(mismatches),
        all_closed_match=all_match,
        directions_agree=agree,
        consistent_with_corollary=agree or not augmentable,
    )


# ---------------------------------------------------------------------------
# Converse search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConverseCandidate:
    """A generated complex on which the converse of the theorem fails.

    The candidate is augmentable, its global chain and space homology agree,
    yet some cell closure is not acyclic.  ``lef_text`` is the serialized
    complex; ``reverified`` records that all profiles were recomputed from
    that serialization before the candidate was reported.
    """

    index: int
    seed: int
    mode: str
    lef_text: str
    failing_cells: tuple
    lefschetz_profile: HomologyProfile
    singular_profile: HomologyProfile
    reverified: bool


def _derive_seed(master: int, index: int) -> int:
    # SplitMix64 scramble: candidate seeds depend only on (master, index),
    # never on scheduling, so parallel runs reproduce serial output.
    x = (master + (index + 1) * 0x9E3779B97F4A7C15) % (1 << 64)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return x ^ (x >> 31)


def _is_candidate(X: LefschetzComplex, ring: RingSpec) -> bool:
    if not is_augmentable(X, ring):
        return False
    if _first_local_failure(X, lefschetz_chains(X, ring)) is None:
        return False  # hypothesis holds: not a converse instance
    return lefschetz_homology(X, ring) == finite_space_homology(X, ring)


def _evaluate_index(args) -> Optional[str]:
    """The serialized complex of one index if it is a candidate, else None."""
    base, ring, index = args
    seed = _derive_seed(base.seed, index)
    X = formats.random_complex(replace(base, seed=seed))
    try:
        candidate = _is_candidate(X, ring)
    except TooManySimplices as exc:
        raise TooManySimplices(exc.cap, f"search draw {index} (seed {seed}): order complex",
                               "lower --transform-steps, --max-cells or --max-dimension "
                               "to shrink the draws") from None
    return formats.render_lef(X) if candidate else None


def _reverify(lef_text: str, ring: RingSpec) -> TheoremReport:
    """Recompute everything from the serialized complex, independently."""
    report = check_theorem(formats.parse_lef(lef_text), ring)
    if not (report.augmentable and report.failing_cells and report.conclusion_holds):
        raise LefhomError("candidate failed re-verification from its serialization")
    return report


def search_converse(base_config, ring: Optional[RingSpec] = None,
                    budget: int = 1000, jobs: int = 1) -> Iterator[ConverseCandidate]:
    """Stream every converse candidate among ``budget`` generated complexes.

    Candidate i is generated from a seed derived from (base seed, i), so
    the emitted sequence is deterministic for a fixed configuration and
    identical for any ``jobs`` setting.  At most ``jobs`` worker processes
    run, and never more than the CPU count or the budget.  Exhausting the
    budget without a hit is normal termination and means only that nothing
    was found at this scale.  A budget or ``jobs`` below 1 raises
    ``ValueError`` at the call.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    return _search(base_config, RingSpec.integers() if ring is None else ring, budget, jobs)


def _search(base_config, ring: RingSpec, budget: int, jobs: int) -> Iterator[ConverseCandidate]:
    workers = min(jobs, os.cpu_count() or 1, budget)
    tasks = ((base_config, ring, index) for index in range(budget))
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else nullcontext()) as pool:
        results = (pool.map(_evaluate_index, tasks, chunksize=max(1, budget // (workers * 8)))
                   if workers > 1 else map(_evaluate_index, tasks))
        for index, text in enumerate(results):
            if text is not None:
                report = _reverify(text, ring)
                yield ConverseCandidate(
                    index=index, seed=_derive_seed(base_config.seed, index),
                    mode=base_config.mode, lef_text=text, failing_cells=report.failing_cells,
                    lefschetz_profile=report.lefschetz_profile,
                    singular_profile=report.singular_profile, reverified=True,
                )
