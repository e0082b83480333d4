"""Command-line surface.

Reports are stable, line-oriented ``key: value`` text so they can be
grepped and diffed in CI.  Exit codes: 0 success/consistent, 1 a check
failed or a counterexample was found, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from . import __version__
from .complexes import LefschetzComplex
from .errors import (
    KappaConditionViolation,
    LefhomError,
    LefSyntaxError,
    NonFieldRing,
    UnsupportedRing,
    UsageError,
)
from .exact import RingSpec
from .formats import (
    GENERATOR_MODES,
    GeneratorConfig,
    export_dot,
    parse_cubical,
    parse_lef,
    parse_simplicial,
)
from .homology import excision_check, lefschetz_homology, long_exact_sequence
from .simplicial import finite_space_homology
from .theorem import check_corollary, check_theorem, search_converse
from .topology import DEFAULT_CLOSED_SET_CAP

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _parse_ring(token: Optional[str]) -> Optional[RingSpec]:
    if token is None:
        return None
    token = token.strip()
    if token == "Z":
        return RingSpec.integers()
    if token == "Q":
        return RingSpec.rationals()
    for prefix in ("F", "Zp", "Z/"):
        if token.startswith(prefix) and token[len(prefix):].isdigit():
            try:
                return RingSpec.prime_field(int(token[len(prefix):]))
            except ValueError:  # past int's digit limit, or a digit int() refuses
                break
    raise UnsupportedRing(f"bad ring {token!r} (use Z, Q, or F<p>)")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load_complex(args) -> LefschetzComplex:
    text = _read_input(args.input)
    fmt = getattr(args, "format", "lef")
    if fmt == "lef":
        return parse_lef(text)
    if fmt == "simplicial":
        return parse_simplicial(text)
    return parse_cubical(text)


def _ring_for(args, X: LefschetzComplex) -> RingSpec:
    ring = _parse_ring(args.ring)
    return X.ring if ring is None else ring


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _profile_lines(prefix: str, profile, top: int) -> list:
    return [prefix + line for line in profile.lines(top)]


def _closed_set(args) -> frozenset:
    raw = args.closed or ""
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    return frozenset(ids)


# -- command bodies --------------------------------------------------------


def _cmd_profile(args) -> int:
    """``homology`` and ``singular``: ``args.profile`` names the function of
    this module that computes the profile; it is looked up at call time."""
    X = _load_complex(args)
    ring = _ring_for(args, X)
    profile = globals()[args.profile](X, ring)
    print(f"ring: {ring.label}")
    print(f"cells: {len(X)}")
    for line in _profile_lines("", profile, X.top_dim):
        print(line)
    return EXIT_OK


def _cmd_check(args) -> int:
    X = _load_complex(args)
    ring = _ring_for(args, X)
    report = check_theorem(X, ring)
    print(f"ring: {ring.label}")
    print(f"cells: {len(X)}")
    print(f"augmentable: {_bool(report.augmentable)}")
    if report.hypothesis_holds:
        print("hypothesis: true")
    else:
        reasons = []
        if not report.augmentable:
            reasons.append("not augmentable")
        if report.failing_cells:
            reasons.append("fails at: " + ",".join(report.failing_cells))
        print(f"hypothesis: false ({'; '.join(reasons)})")
    top = X.top_dim
    for line in _profile_lines("lefschetz_", report.lefschetz_profile, top):
        print(line)
    for line in _profile_lines("singular_", report.singular_profile, top):
        print(line)
    print(f"conclusion: {_bool(report.conclusion_holds)}")
    print(f"consistent_with_theorem: {_bool(report.consistent_with_theorem)}")
    return EXIT_OK if report.consistent_with_theorem else EXIT_FAILED


def _cmd_corollary(args) -> int:
    X = _load_complex(args)
    ring = _ring_for(args, X)
    try:
        report = check_corollary(X, ring, cap=args.cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"ring: {ring.label}")
    print(f"cells: {len(X)}")
    print(f"augmentable: {_bool(report.augmentable)}")
    print(f"local_condition: {_bool(report.local_condition_holds)}")
    print(f"closed_sets_checked: {report.closed_sets_checked}")
    print(f"all_closed_match: {_bool(report.all_closed_match)}")
    for bad in report.mismatching_closed_sets:
        print(f"mismatch: {','.join(bad) if bad else '(empty)'}")
    print(f"directions_agree: {_bool(report.directions_agree)}")
    print(f"consistent_with_corollary: {_bool(report.consistent_with_corollary)}")
    return EXIT_OK if report.consistent_with_corollary else EXIT_FAILED


def _cmd_les(args) -> int:
    X = _load_complex(args)
    ring = _ring_for(args, X)
    if not ring.is_field:
        raise NonFieldRing("les needs field coefficients; pass --ring Q or --ring F<p>")
    report = long_exact_sequence(X, _closed_set(args), ring)
    print(f"ring: {ring.label}")
    print(f"closed: {','.join(sorted(_closed_set(args)))}")
    print("sequence: " + " -> ".join(label for label, _ in report.nodes))
    print("dimensions: " + " -> ".join(str(dim) for _, dim in report.nodes))
    print(f"exact: {_bool(report.exact)}")
    if report.first_failure is not None:
        print(f"first_failure: {report.first_failure}")
    return EXIT_OK if report.exact else EXIT_FAILED


def _cmd_excision(args) -> int:
    X = _load_complex(args)
    ring = _ring_for(args, X)
    closed = _closed_set(args)
    match = excision_check(X, closed, ring)
    print(f"ring: {ring.label}")
    print(f"closed: {','.join(sorted(closed))}")
    print(f"match: {_bool(match)}")
    return EXIT_OK if match else EXIT_FAILED


def _cmd_validate(args) -> int:
    try:
        X = _load_complex(args)
    except LefSyntaxError:
        raise
    except LefhomError as exc:
        print("valid: false")
        print(f"error: {exc}")
        if isinstance(exc, KappaConditionViolation):
            print(f"offending_pair: {exc.pair[0]},{exc.pair[1]}")
        return EXIT_FAILED
    print("valid: true")
    print(f"ring: {X.ring.label}")
    print(f"cells: {len(X)}")
    print(f"top_dim: {X.top_dim}")
    print(f"kappa_entries: {len(X.kappa_entries)}")
    return EXIT_OK


def _cmd_search(args) -> int:
    ring = _parse_ring(args.ring) or RingSpec.integers()
    try:
        config = GeneratorConfig(
            seed=args.seed,
            mode=args.mode,
            max_dimension=args.max_dimension,
            max_cells_per_dim=args.max_cells,
            coefficient_bound=args.coefficient_bound,
            transform_steps=args.transform_steps,
        )
        found = search_converse(config, ring, budget=args.budget, jobs=args.jobs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # opened before any output, so an unwritable path ends the run as a usage error
    with open(args.hits, "a", encoding="utf-8") if args.hits else nullcontext() as sink:
        print(f"mode: {config.mode}")
        print(f"ring: {ring.label}")
        print(f"seed: {config.seed}")
        print(f"budget: {args.budget}")
        hits = []
        for candidate in found:
            hits.append(candidate)
            print(f"candidate_index: {candidate.index}")
            print(f"candidate_seed: {candidate.seed}")
            print(f"candidate_failing_cells: {','.join(candidate.failing_cells)}")
            print(f"candidate_reverified: {_bool(candidate.reverified)}")
            top = max(candidate.lefschetz_profile.top_degree,
                      candidate.singular_profile.top_degree, 0)
            for line in _profile_lines("candidate_lefschetz_", candidate.lefschetz_profile, top):
                print(line)
            for line in _profile_lines("candidate_singular_", candidate.singular_profile, top):
                print(line)
            if sink:
                sink.write(f"# converse candidate: master_seed={config.seed} "
                           f"index={candidate.index} seed={candidate.seed} "
                           f"mode={candidate.mode} ring={ring.label}\n")
                sink.write(candidate.lef_text)
                sink.write("\n")
            else:
                for line in candidate.lef_text.rstrip("\n").splitlines():
                    print(f"candidate_lef: {line}")
    print(f"evaluated: {args.budget}")
    print(f"candidates: {len(hits)}")
    if hits:
        print("result: CRITICAL: converse candidate(s) found; verify by hand")
        return EXIT_FAILED
    print("result: no counterexample found at this scale")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    X = _load_complex(args)
    sys.stdout.write(export_dot(X))
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------


def _add_input_options(parser, with_ring: bool = True):
    parser.add_argument("input", nargs="?", default="-",
                        help="input file, or - for standard input")
    parser.add_argument("--format", choices=("lef", "simplicial", "cubical"),
                        default="lef", help="input format (default lef)")
    if with_ring:
        parser.add_argument("--ring", default=None,
                            help="coefficient ring: Z, Q or F<p> "
                                 "(default: the complex's own ring)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; command bodies look their functions up at call time."""
    parser = argparse.ArgumentParser(
        prog="lefhom",
        description="Exact homology of Lefschetz complexes and of the finite "
                    "topological spaces they carry.")
    parser.add_argument("--version", action="version", version=f"lefhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="cell-chain homology profile")
    _add_input_options(p)
    p.set_defaults(func=_cmd_profile, profile="lefschetz_homology")

    p = sub.add_parser("singular", help="finite-space homology via the order complex")
    _add_input_options(p)
    p.set_defaults(func=_cmd_profile, profile="finite_space_homology")

    p = sub.add_parser("check", help="comparison-theorem hypotheses and conclusion")
    _add_input_options(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("corollary", help="sweep all closed subcomplexes")
    _add_input_options(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CLOSED_SET_CAP,
                   help="maximum number of closed sets to enumerate")
    p.set_defaults(func=_cmd_corollary)

    p = sub.add_parser("les", help="long exact sequence of a closed pair (field rings)")
    _add_input_options(p)
    p.add_argument("--closed", required=True,
                   help="comma-separated cell ids of the closed subcomplex")
    p.set_defaults(func=_cmd_les)

    p = sub.add_parser("excision", help="two-path relative homology comparison")
    _add_input_options(p)
    p.add_argument("--closed", required=True,
                   help="comma-separated cell ids of the closed subcomplex")
    p.set_defaults(func=_cmd_excision)

    p = sub.add_parser("search", help="hunt for converse counterexamples")
    p.add_argument("--ring", default="Z", help="coefficient ring (default Z)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--budget", type=int, default=1000,
                   help="number of complexes to generate and test")
    p.add_argument("--mode", choices=GENERATOR_MODES, default="basis-change")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (capped at the CPU count)")
    p.add_argument("--max-dimension", type=int, default=2, dest="max_dimension")
    p.add_argument("--max-cells", type=int, default=4, dest="max_cells")
    p.add_argument("--coefficient-bound", type=int, default=2, dest="coefficient_bound")
    p.add_argument("--transform-steps", type=int, default=6, dest="transform_steps")
    p.add_argument("--hits", default=None,
                   help="append serialized candidates to this file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export-dot", help="Hasse diagram as DOT")
    _add_input_options(p, with_ring=False)
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("validate", help="parse and validate only")
    _add_input_options(p, with_ring=False)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (LefSyntaxError, UnsupportedRing, NonFieldRing, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LefhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
