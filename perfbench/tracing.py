"""Spans around the calls into lefhom's layers, recorded from outside.

The package itself carries no instrumentation.  :func:`instrumented`
replaces each public function with a timing wrapper at every place that
binds it (``profile_from_boundaries``, for example, is bound in both
``lefhom.homology`` and ``lefhom.simplicial``) and restores the originals
on exit, so untraced runs execute the unmodified code.

A span is ``(pass, op, id, parent, name, start, end)``.  A span's self time
is its duration minus the time its child spans cover.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction

ELIM = "exact.elim"


class Recorder:
    """Spans and counters of one traced pass over a batch."""

    def __init__(self, pass_no: int = 0):
        self.pass_no = pass_no
        self.op = 0
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self.restricted = set()
        self._stack = []  # [id, name, start, child time] of each open span

    def enter(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((self.pass_no, self.op, sid, parent, name, start, end))

    def current(self):
        return self._stack[-1][1] if self._stack else None

    def matrix(self, m) -> None:
        """Sizes of one matrix handed to elimination; bytes are not measured."""
        self.counts["exact.elim_calls"] += 1
        self.counts["exact.nnz_in"] += len(m.entries)
        cells = m.rows * m.cols
        if cells > self.maxima["exact.dense_cells_max"]:
            self.maxima["exact.dense_cells_max"] = cells
        bits = 0
        for v in m.entries.values():
            if isinstance(v, Fraction):
                b = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
            else:
                b = abs(v).bit_length()
            if b > bits:
                bits = b
        if bits > self.maxima["exact.entry_bits_max"]:
            self.maxima["exact.entry_bits_max"] = bits


def write_spans(path, recorders) -> None:
    """Write every span as one CSV line, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as sink:
        sink.write("pass,op,id,parent,name,start_s,end_s\n")
        for rec in recorders:
            for p, op, sid, parent, name, start, end in rec.spans:
                sink.write(f"{p},{op},{sid},{parent},{name},{start:.9f},{end:.9f}\n")


# -- wrappers ------------------------------------------------------------------


def _plain(rec, fn, name, after=None):
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(rec, args, result)
            return result
        finally:
            rec.exit()

    return traced


def _generator(rec, fn, name):
    # One span per resumption, so the caller's work between items is not
    # charged to the generator.
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            rec.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.exit()
            rec.counts["theorem.search.hits"] += 1
            yield item

    return traced


def _profile(rec, fn, callback_name):
    """profile_from_boundaries: elimination, with boundary assembly split off."""

    def traced(ring, sizes, boundary):
        def assembled(q):
            rec.enter(callback_name)
            try:
                m = boundary(q)
                rec.matrix(m)
                return m
            finally:
                rec.exit()

        rec.enter(ELIM)
        try:
            profile = fn(ring, sizes, assembled)
        finally:
            rec.exit()
        # ranks follow from the sizes and free ranks: r_{n+1} = c_n - r_n - b_n
        rank = 0
        for n, size in enumerate(sizes):
            rank = size - rank - profile.free_rank(n)
            rec.counts["exact.rank_total"] += rank
        return profile

    return traced


def _direct_elim(rank_of):
    def after(rec, args, result):
        if rec.current() != ELIM:  # calls from profile_from_boundaries are counted there
            rec.matrix(args[0])
            rec.counts["exact.rank_total"] += rank_of(result)
    return after


def _count(key, size=None):
    def after(rec, args, result):
        rec.counts[key] += 1 if size is None else size(result)
    return after


def _restricted(rec, args, result):
    rec.counts["topology.restrict_calls"] += 1
    rec.restricted.add(frozenset(args[1]))


def _after_order_complex(rec, args, result):
    rec.counts["simplicial.order_complex_calls"] += 1
    rec.counts["simplicial.simplices"] += len(result)


# (module, attribute, span name, hook): every binding a CLI operation reaches.
FUNCTIONS = [
    ("lefhom.cli", "parse_lef", "formats.parse", None),
    ("lefhom.cli", "parse_cubical", "formats.parse", None),
    ("lefhom.cli", "parse_simplicial", "formats.parse", None),
    # lefhom.theorem imports these three from lefhom.formats at call time
    ("lefhom.formats", "parse_lef", "formats.parse", None),
    ("lefhom.formats", "random_complex", "formats.generate", _count("formats.generate_calls")),
    ("lefhom.formats", "render_lef", "formats.render", None),
    ("lefhom.cli", "check_theorem", "theorem.check", None),
    ("lefhom.cli", "check_corollary", "theorem.corollary", None),
    ("lefhom.cli", "lefschetz_homology", "homology.lefschetz", None),
    ("lefhom.theorem", "lefschetz_homology", "homology.lefschetz", None),
    ("lefhom.homology", "lefschetz_homology", "homology.lefschetz", None),
    ("lefhom.cli", "excision_check", "homology.excision", None),
    ("lefhom.homology", "relative_homology", "homology.relative", None),
    ("lefhom.cli", "long_exact_sequence", "homology.les", None),
    ("lefhom.homology", "kernel_basis", "exact.kernel", None),
    ("lefhom.homology", "solve", "exact.solve", None),
    ("lefhom.homology", "rank_over", "exact.rank", _direct_elim(lambda r: r)),
    ("lefhom.homology", "smith_normal_form", "exact.snf", _direct_elim(lambda f: f.rank)),
    ("lefhom.cli", "finite_space_homology", "simplicial.finite_space", None),
    ("lefhom.theorem", "finite_space_homology", "simplicial.finite_space", None),
    ("lefhom.simplicial", "order_complex", "simplicial.order_complex", _after_order_complex),
    ("lefhom.homology", "restrict", "topology.restrict", _restricted),
    ("lefhom.theorem", "restrict", "topology.restrict", _restricted),
    ("lefhom.homology", "closure", "topology.closure", None),
    ("lefhom.homology", "is_closed", "topology.is_closed", None),
    ("lefhom.theorem", "closure", "topology.closure", None),
    ("lefhom.theorem", "enumerate_closed_sets", "topology.enumerate",
     _count("topology.closed_sets", len)),
]

# (module, class, method, span name, hook)
METHODS = [
    ("lefhom.complexes", "LefschetzComplex", "__init__", "complexes.validate",
     _count("complexes.validate_calls")),
    ("lefhom.complexes", "LefschetzComplex", "face_poset", "complexes.face_poset", None),
    ("lefhom.complexes", "LefschetzComplex", "boundary_matrix", "complexes.boundary", None),
    ("lefhom.simplicial", "SimplicialComplex", "boundary_matrix", "simplicial.boundary", None),
]


@contextmanager
def instrumented(rec: Recorder):
    """Patch every binding in the tables above; restore them all on exit."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for module, attr, name, after in FUNCTIONS:
            owner = importlib.import_module(module)
            patch(owner, attr, _plain(rec, getattr(owner, attr), name, after))
        for module, cls, attr, name, after in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            patch(owner, attr, _plain(rec, getattr(owner, attr), name, after))
        for module, callback in (("lefhom.homology", "complexes.boundary_cb"),
                                 ("lefhom.simplicial", "simplicial.boundary_cb")):
            owner = importlib.import_module(module)
            patch(owner, "profile_from_boundaries",
                  _profile(rec, owner.profile_from_boundaries, callback))
        cli = importlib.import_module("lefhom.cli")
        patch(cli, "search_converse", _generator(rec, cli.search_converse, "theorem.search"))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
