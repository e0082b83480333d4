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
import random
from contextlib import closing, nullcontext
from typing import Iterator, Mapping, NamedTuple, Optional

from . import formats
from .complexes import LefschetzComplex, is_augmentable
from .errors import LefhomError, TooManySimplices
from .exact import ZZ, RingSpec
from .homology import (
    BoundedMemo,
    ClosureMemo,
    HomologyProfile,
    IncrementalReducer,
    closure_profiles,
    complex_key,
    lefschetz_chains,
    lefschetz_homology,
    point_profile,
    stacked_chains,
)
from .simplicial import finite_space_homology, order_complex_chains, space_key
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


class LocalCheck(NamedTuple):
    passes: bool
    profile: HomologyProfile


def local_condition(X: LefschetzComplex,
                    ring: Optional[RingSpec] = None) -> Mapping[str, LocalCheck]:
    """Per cell: does the closure of the cell have point homology?

    Returned in canonical cell order; the failing cells are the obstruction
    to the comparison theorem's hypothesis.  Closures repeat: each is
    profiled through :func:`~lefhom.homology.closure_profiles`, which
    eliminates only the first closure of each content and caps the closure
    cells in all (``TooManyClosureCells``).  The memo lives for this call only.
    """
    return _local_condition(X, X.ring if ring is None else ring)


def _local_condition(X: LefschetzComplex, ring: RingSpec,
                     memo: Optional[dict] = None) -> Mapping[str, LocalCheck]:
    expected = point_profile(ring)
    return {cid: LocalCheck(profile == expected, profile)
            for cid, profile in closure_profiles(X, ring, memo)}


def _first_local_failure(X: LefschetzComplex, ring: RingSpec,
                         memo: Optional[dict] = None) -> Optional[str]:
    expected = point_profile(ring)
    return next((cid for cid, profile in closure_profiles(X, ring, memo)
                 if profile != expected), None)


class TheoremReport(NamedTuple):
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
    return _check_theorem(X, X.ring if ring is None else ring)


def _singular(X: LefschetzComplex, ring: RingSpec, memo: Optional[dict]) -> HomologyProfile:
    """X's singular homology, kept in ``memo``, when given, under
    :func:`~lefhom.simplicial.space_key` and read from there when an
    earlier complex had the same face poset."""
    if memo is None:
        return finite_space_homology(X, ring)
    key = space_key(X)
    profile = memo.get(key)
    if profile is None:
        profile = memo[key] = finite_space_homology(X, ring)
    return profile


def _chain(X: LefschetzComplex, ring: RingSpec, memo: Optional[dict]) -> HomologyProfile:
    """X's chain homology, read from ``memo``, when given, where a closure
    of X's content was profiled (:func:`~lefhom.homology.complex_key`): one
    of X's cells closes on all of X.  It is not kept under that key, since
    a whole draw's content almost never comes back (5 hits in 2 414 asks
    over six 1 000-draw searches)."""
    profile = None if memo is None else memo.get(complex_key(X))
    return lefschetz_homology(X, ring) if profile is None else profile


def _check_theorem(X: LefschetzComplex, ring: RingSpec,
                   memo: Optional[dict] = None) -> TheoremReport:
    augmentable = is_augmentable(X, ring)
    local = _local_condition(X, ring, memo)
    hypothesis = augmentable and all(check.passes for check in local.values())
    lef = _chain(X, ring, memo)
    sing = _singular(X, ring, memo)
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


class CorollaryReport(NamedTuple):
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

    The ring is admitted first, then the steps of
    :func:`~lefhom.topology.closed_set_walk` are taken: the walk raises
    TooManyClosedSets past ``cap`` before the face poset, any closure
    profile or the order complex is built.  The local condition's first
    failure is sought next.  The steps' replay carries one column reduction of
    X's chain complex and its order complex stacked above it (degree q at o + q),
    keyed by cell: a cell joins after its faces, so it appends only its own
    columns, and the homologies differ where the free ranks below o and from o do.
    This is the persistence algorithm of Edelsbrunner-Letscher-Zomorodian
    ("Topological persistence and simplification", DCG 2002) and
    Zomorodian-Carlsson ("Computing persistent homology", DCG 2005), with
    undo on backtrack.  Each cell's block of columns (a square has 17
    chains in the order complex) is reduced once, before the replay, so a
    join reduces only the block's essential columns against the cells
    already in: the chunk algorithm of Bauer-Kerber-Reininghaus (2014),
    with the clearing of Chen-Kerber (2011); see
    :class:`~lefhom.homology.IncrementalReducer`.  Over Z and Q only unit
    pivots are taken; below a non-unit one, in either complex, closed sets
    are profiled as slices of both.  A cap below 1 raises ``ValueError`` at
    the call, since the empty set is always closed.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    ring = X.ring if ring is None else ring
    augmentable = is_augmentable(X, ring)
    cells = lefschetz_chains(X, ring)
    steps = closed_set_walk(X, cap)
    local_ok = _first_local_failure(X, ring) is None
    space = order_complex_chains(X, ring)
    reducer = IncrementalReducer(stacked_chains(cells, space))
    o, free, kept = len(cells.keys), reducer.free, reducer.kept
    mismatches = []  # the empty set has no homology on either side
    for x in steps:
        if x is None:
            reducer.undo()
            continue
        reducer.include(x)
        if (free[:o] != free[o:] if reducer.stalled is None  # the profiles, over one ring
                else cells.profile(kept) != space.profile(kept)):
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


class ConverseCandidate(NamedTuple):
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


def _is_candidate(X: LefschetzComplex, ring: RingSpec, memo: Optional[dict] = None) -> bool:
    """Whether X is augmentable, has a cell whose closure is not acyclic,
    and has equal chain and singular homology, decided in that order.

    ``memo``, a :class:`~lefhom.homology.ClosureMemo` or None, serves the
    closures of X and both of its homologies: the singular side under
    :func:`~lefhom.simplicial.space_key` (:func:`_singular`), the chain side
    where a closure of X's content was profiled (:func:`_chain`).

    The singular side comes first, and the chain side is skipped when the
    Euler characteristics differ: the alternating sum of the free ranks of
    X's chain homology is sum (-1)^q #q-cells, so a singular profile with
    another sum cannot equal it.  Only the singular side can raise
    ``TooManySimplices``; it is asked of every draw that gets past the local
    condition, so the Euler check spares no draw that error.
    """
    if not is_augmentable(X, ring):
        return False
    if _first_local_failure(X, ring, memo) is None:
        return False  # hypothesis holds: not a converse instance
    sing = _singular(X, ring, memo)
    starts = X._starts
    euler = sum((-1) ** q * (starts[q + 1] - starts[q]) for q in range(len(starts) - 1))
    if euler != sum((-1) ** q * free for q, free, _ in sing.entries):
        return False
    return _chain(X, ring, memo) == sing


_UNSEEN = object()  # a recipe that no draw of a task has made yet


def _hits(base, ring: RingSpec, indices: range, memo: dict) -> Iterator[tuple]:
    """(index, serialized complex) of each candidate among the draws at
    ``indices``, as it is found; their first-failure passes share ``memo``.

    Each recipe's first draw is built and checked; its verdict, the text of
    a candidate or ``None``, is kept per recipe, so a draw that repeats one
    is neither built nor checked again.
    """
    rng = random.Random()
    verdicts = BoundedMemo(formats.Recipe.entries)
    for index in indices:
        seed = _derive_seed(base.seed, index)
        rng.seed(seed)
        recipe = formats.draw_recipe(rng, base)
        text = verdicts.get(recipe, _UNSEEN)
        if text is _UNSEEN:
            X = formats.build_recipe(recipe)
            try:
                candidate = _is_candidate(X, ring, memo)
            except TooManySimplices as exc:
                raise TooManySimplices(exc.cap, f"search draw {index} (seed {seed}): order complex",
                                       "lower --transform-steps, --max-cells or --max-dimension "
                                       "to shrink the draws") from None
            text = verdicts[recipe] = formats.render_lef(X) if candidate else None
        if text is not None:
            yield index, text


def _range_hits(args) -> list:
    """One pool task: the hits of an index range, with a memo of its own."""
    base, ring, indices = args
    return list(_hits(base, ring, indices, ClosureMemo()))


# The most draws in one pool task, so that a task's hits stay small, and
# the most tasks handed to the pool at once per worker.
_RANGE_CAP = 1000
_TASKS_PER_WORKER = 8


def _pool_hits(pool, base, ring: RingSpec, budget: int, workers: int) -> Iterator[tuple]:
    """The hits of indices 0 to budget - 1, in order, from tasks that each
    name an index range; tasks are made a window at a time, so memory does
    not grow with the budget."""
    size = min(-(-budget // (workers * _TASKS_PER_WORKER)), _RANGE_CAP)
    window = size * workers * _TASKS_PER_WORKER
    for first in range(0, budget, window):
        tasks = [(base, ring, range(start, min(start + size, budget)))
                 for start in range(first, min(first + window, budget), size)]
        for hits in pool.map(_range_hits, tasks):
            yield from hits


def _reverify(lef_text: str, ring: RingSpec, memo: Optional[dict] = None) -> TheoremReport:
    """Recompute everything from the serialized complex, independently of
    the draw: ``memo`` holds only what re-verification itself profiled, the
    closures and the singular homologies of earlier candidates, keyed by
    content.  The full local pass profiles every closure, so when some
    cell's closure is the whole complex, its chain homology is read from
    there."""
    report = _check_theorem(formats.parse_lef(lef_text), ring, memo)
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
    return _search(base_config, ZZ if ring is None else ring, budget, jobs)


def _search(base_config, ring: RingSpec, budget: int, jobs: int) -> Iterator[ConverseCandidate]:
    workers = min(jobs, os.cpu_count() or 1, budget)
    reverified = ClosureMemo()
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else nullcontext()) as pool:
        hits = (_pool_hits(pool, base_config, ring, budget, workers) if workers > 1
                else _hits(base_config, ring, range(budget), ClosureMemo()))
        # A search that ends early (an error, SystemExit, or the caller closing
        # this iterator) closes the hits before the pool shuts down: that drops
        # _pool_hits' map iterator, which cancels the window's queued tasks,
        # so the shutdown waits only for the tasks already running.
        with closing(hits):
            for index, text in hits:
                report = _reverify(text, ring, reverified)
                yield ConverseCandidate(
                    index=index, seed=_derive_seed(base_config.seed, index),
                    mode=base_config.mode, lef_text=text, failing_cells=report.failing_cells,
                    lefschetz_profile=report.lefschetz_profile,
                    singular_profile=report.singular_profile, reverified=True,
                )
