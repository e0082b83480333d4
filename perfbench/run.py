"""lefhom benchmark: one workload, end-to-end or traced, one JSON result line.

    python3 perfbench/run.py --workload singular-grids --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``lefhom`` from its
``src`` directory.  One client drives ``lefhom.cli.main(argv)`` in this
process in a closed loop: each operation starts after the previous one
returned.  Besides the import probes behind ``setup_s``, run one at a time,
only ``search --jobs 2`` starts processes: two workers.

``--trace 0`` measures end to end with the package untouched.  A run is a
fixed number of batches, ``max(2, round(seconds / nominal batch time))``,
so two commits measure the same operations and percentiles stay comparable.
Times are scaled by a reference loop timed around every operation (see
:func:`run_batch`); the unscaled batch time is printed beside them.

``--trace 1`` runs batch 0 once untraced and twice traced, reports per-layer
self times and counts per batch, fails if the two traced passes disagree on
any count, and writes the spans to ``.perfbench/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import Recorder, instrumented, write_spans
from workloads import WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
REFERENCE_S = 0.0015  # reference() on the machine the scaled seconds refer to
LAYERS = ("cli", "formats", "complexes", "topology", "simplicial", "exact", "homology", "theorem")

# Times the import, then samples machine speed in the same process.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "t = time.perf_counter()\n"
    "import lefhom, lefhom.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, {bench!r})\n"
    "from run import speed_sample\n"
    "print(t, speed_sample())\n"
)


def import_lefhom():
    """lefhom.cli from this checkout's src, or None when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import lefhom.cli
    except ImportError as exc:
        print(f"error: cannot import lefhom from {SRC}: {exc}", file=sys.stderr)
        return None
    if SRC not in Path(lefhom.cli.__file__).resolve().parents:
        print(f"error: lefhom was imported from outside {SRC}", file=sys.stderr)
        return None
    return lefhom.cli


def measure_setup() -> float:
    """Median import time of lefhom and lefhom.cli in fresh interpreters, scaled."""
    code = IMPORT_PROBE.format(src=str(SRC), bench=str(Path(__file__).resolve().parent))
    times = []
    for k in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        seconds, speed = map(float, out.stdout.split())
        if k:  # the first import may compile bytecode, which users pay once
            times.append(seconds * REFERENCE_S / speed)
    return statistics.median(times)


def run_op(main, op, rec=None):
    """One CLI call: (seconds, stdout, exit code, exception text or None).

    The CLI's stderr is captured and dropped; answers are judged on stdout
    and the exit code.
    """
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if rec is None:
                code = main(list(op.argv))
            else:
                rec.enter("cli.main")
                try:
                    code = main(list(op.argv))
                finally:
                    rec.exit()
    except Exception as exc:  # a traceback is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return time.perf_counter() - start, out.getvalue(), code, error


def reference():
    """Fixed pure-Python work shaped like lefhom's hot loops: integer row
    operations, Fraction arithmetic and set/dict churn."""
    n = 24
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = rows[k]
        for i in range(k + 1, n):
            f = rows[i][k]
            if f:
                rows[i] = [(x * pivot[k] - f * y) % 65521 for x, y in zip(rows[i], pivot)]
    q = Fraction(0)
    for i in range(1, 60):
        q += Fraction(i, i + 1) * Fraction(i + 2, 3)
    seen = {}
    for i in range(600):
        key = frozenset((i % 17, i % 29, i % 7))
        seen[key] = seen.get(key, 0) + 1
    return len(seen), q, rows[-1][-1]


def speed_sample() -> float:
    """Current seconds per reference() call: the median of five calls."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_batch(main, ops, rec=None):
    """Run the ops in order, sampling machine speed before and after each.

    Returns (scaled latencies, raw latencies, stdouts, failure reasons).  A
    scaled latency is the raw one times REFERENCE_S over the mean reference
    time around the op: seconds on a machine where reference() takes
    REFERENCE_S.  The CPU speed of a shared host drifts by a fifth from run
    to run; the scaled figure removes that drift, not the program's own cost.
    """
    refs = [speed_sample()]
    results = []
    for k, op in enumerate(ops):
        if rec is not None:
            rec.op = k
        results.append(run_op(main, op, rec))
        refs.append(speed_sample())
    raw = [r[0] for r in results]
    scaled = [t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    failures = []
    for k, (op, (_, stdout, code, error)) in enumerate(zip(ops, results)):
        if error is not None:
            reason = f"raised {error}"
        elif op.same_as is not None and stdout != results[op.same_as][1]:
            reason = f"stdout differs from op {op.same_as}"
        else:
            try:
                reason = op.check(stdout, code)
            except (ValueError, IndexError, KeyError) as exc:  # output the checker cannot read
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            failures.append(f"op {k} ({' '.join(op.argv[:1] + op.argv[3:5])}): {reason}")
    return scaled, raw, [r[1] for r in results], failures


def tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond)."""
    s = sorted(samples)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def declared_units() -> dict:
    """{"end_to_end" or "per_layer": {metric name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def end_to_end(main, workload, seed, seconds, tiny):
    inputs = Inputs(workload.name, seed)
    setup_s = measure_setup()
    batches = max(2, round(seconds / workload.nominal_batch_s))
    walls, raw_walls, latencies, failures = [], [], [], []
    attempted = 0
    for _ in range(batches):
        ops = workload.batch(inputs, tiny)
        inputs.first_batch = False
        lat, raw, _, bad = run_batch(main, ops, None)
        attempted += len(ops)
        failures += bad
        timed = [(op, t, r) for op, t, r in zip(ops, lat, raw) if op.same_as is None]
        walls.append(sum(t for _, t, _ in timed))
        raw_walls.append(sum(r for _, _, r in timed))
        latencies += [t for _, t, _ in timed]
        items = sum(op.items for op, _, _ in timed)  # the same in every batch
    op_tail, pct, beyond = tail(latencies)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": op_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"batches: {batches}, unscaled wall_s: {statistics.median(raw_walls):.6g} s",
        f"op_tail_s: p{pct:.1f} of {len(latencies)} operations, {beyond} beyond it",
        f"{workload.item_name}_per_s: {items / statistics.median(walls):.6g} 1/s",
    ]
    return attempted, failures, [], values, notes


def layer_metrics(rec: Recorder, evaluated: int) -> dict:
    s = rec.self_s
    c, mx = rec.counts, rec.maxima
    values = {
        "exact.elim_s": s["exact.elim"] + s["exact.rank"] + s["exact.snf"],
        "exact.elim_calls": c["exact.elim_calls"],
        "exact.nnz_in": c["exact.nnz_in"],
        "exact.dense_cells_max": mx["exact.dense_cells_max"],
        "exact.entry_bits_max": mx["exact.entry_bits_max"],
        "exact.rank_total": c["exact.rank_total"],
        "exact.kernel_s": s["exact.kernel"],
        "exact.solve_s": s["exact.solve"],
        "homology.les_s": s["homology.les"],
        "homology.relative_s": s["homology.relative"] + s["homology.excision"],
        "simplicial.order_complex_s": s["simplicial.order_complex"],
        "simplicial.order_complex_calls": c["simplicial.order_complex_calls"],
        "simplicial.simplices": c["simplicial.simplices"],
        "simplicial.boundary_s": s["simplicial.boundary"] + s["simplicial.boundary_cb"],
        "complexes.boundary_s": s["complexes.boundary"] + s["complexes.boundary_cb"],
        "complexes.validate_s": s["complexes.validate"],
        "complexes.validate_calls": c["complexes.validate_calls"],
        "complexes.face_poset_s": s["complexes.face_poset"],
        "topology.restrict_s": s["topology.restrict"],
        "topology.restrict_calls": c["topology.restrict_calls"],
        "topology.restrict_unique_ratio":
            len(rec.restricted) / c["topology.restrict_calls"] if c["topology.restrict_calls"] else 0.0,
        "topology.enumerate_s": s["topology.enumerate"],
        "topology.closed_sets": c["topology.closed_sets"],
        "formats.generate_s": s["formats.generate"],
        "formats.generate_calls": c["formats.generate_calls"],
        "formats.render_s": s["formats.render"],
        "formats.parse_s": s["formats.parse"],
        "theorem.search.hits": c["theorem.search.hits"],
        "theorem.search.hit_ratio": c["theorem.search.hits"] / evaluated if evaluated else 0.0,
        "theorem.search.generate_per_eval":
            c["formats.generate_calls"] / evaluated if evaluated else 0.0,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t for name, t in s.items()
                                        if name.split(".", 1)[0] == layer)
    return values


def traced(main, workload, seed, tiny):
    """Batch 0 untraced, then twice traced; per-layer numbers per batch."""
    ops = workload.batch(Inputs(workload.name, seed), tiny)
    plain_lat, _, _, failures = run_batch(main, ops, None)
    ops_traced = [op for op in ops if op.traced]
    evaluated = sum(op.items for op in ops_traced if op.argv[0] == "search")
    recorders, passes, times, raws = [], [], [], []
    for p in (1, 2):
        rec = Recorder(p)
        with instrumented(rec):
            lat, raw, outs, bad = run_batch(main, ops_traced, rec)
        failures += bad
        values = layer_metrics(rec, evaluated)
        values["cli.stdout_bytes"] = sum(len(o.encode()) for o in outs)
        values["trace.coverage"] = sum(rec.self_s.values()) / sum(raw)
        recorders.append(rec)
        passes.append(values)
        times.append(sum(lat))
        raws.append(sum(raw))
    write_spans(ROOT / ".perfbench" / f"spans-{workload.name}-seed{seed}.csv.gz", recorders)
    timings = [k for k in passes[0] if k.endswith("_s") or k == "trace.coverage"]
    values = {k: (statistics.fmean(v[k] for v in passes) if k in timings else passes[0][k])
              for k in passes[0]}
    problems = [f"count {k} differs between two traced passes of one batch"
                for k in passes[0] if k not in timings and passes[0][k] != passes[1][k]]
    plain_time = sum(t for op, t in zip(ops, plain_lat) if op.traced)
    values["trace.overhead_frac"] = statistics.fmean(times) / plain_time - 1
    jobs2 = [k for k, op in enumerate(ops) if op.same_as is not None]
    # untraced --jobs 2 throughput over --jobs 1 on the same search
    values["theorem.pool.speedup_jobs2"] = (
        plain_lat[ops[jobs2[0]].same_as] / plain_lat[jobs2[0]] if jobs2 else 0.0)
    notes = [f"traced pass: {statistics.fmean(times):.6g} s, untraced: {plain_time:.6g} s",
             f"exact.elim_s share of the traced operation time: "
             f"{values['exact.elim_s'] / statistics.fmean(raws):.4g} ratio"]
    return len(ops) + 2 * len(ops_traced), failures, problems, values, notes


def run(main, workload_name, seed, seconds, trace, tiny=False):
    """Run one workload; returns the result object and human-readable lines."""
    workload = WORKLOADS[workload_name]
    if trace:
        attempted, failures, problems, values, notes = traced(main, workload, seed, tiny)
    else:
        attempted, failures, problems, values, notes = end_to_end(
            main, workload, seed, seconds, tiny)
    units = declared_units()["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines = [f"workload: {workload_name} seed: {seed} trace: {trace}"]
    lines += [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += notes + [f"failed_frac: {len(failures) / attempted:.6g} ratio"]
    lines += [f"FAILED {reason}" for reason in failures + problems]
    result = {"correct": not (failures or problems), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cli = import_lefhom()
    if cli is None:
        return 2
    result, lines = run(cli.main, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
