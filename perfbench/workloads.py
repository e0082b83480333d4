"""The four workloads: seeded inputs, CLI operations and their known answers.

Every answer is known without the code under test: grids and cubes are
contractible, RP^2 has known homology over every ring, the down-sets of a
grid's face poset are counted here from the cubes' geometry, and search
output is checked for internal consistency and against ``--jobs 2``.

The seed sets the translation of every cube complex and the vertex names of
RP^2, so no two operations of a run see byte-identical text.  Offsets keep
every coordinate at three digits and new vertex names keep their order, so
the cell order, and with it the work, does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

# The 6-vertex triangulation of the real projective plane.
RP2_FACES = ("abc", "acd", "ade", "aef", "afb", "bce", "cdf", "deb", "efc", "fbd")

RP2_HOMOLOGY = {"Z": ("Z", "Z/2", "0"), "Q": ("Q", "0", "0"), "F2": ("F2", "F2", "F2")}


@dataclass(frozen=True)
class Op:
    """One CLI operation and how to judge its output.

    ``check(stdout, exit_code)`` returns None when the answer is right and a
    reason otherwise.  ``same_as`` names an earlier op of the batch whose
    stdout this one must reproduce byte for byte; such a repeat is a check
    and stays out of the timings.  ``items`` is the work the op counts
    toward the workload's throughput; ``traced`` ops run in traced passes.
    """

    argv: tuple
    stdin: str
    check: Callable[[str, int], Optional[str]]
    items: int = 1
    traced: bool = True
    same_as: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    batch: Callable  # (Inputs, tiny) -> list of Op
    nominal_batch_s: float  # seed-commit batch time; sizes runs from --seconds
    item_name: str  # what the printed throughput counts


def expect(text: str):
    """Check for exit code 0 and exactly ``text`` on stdout."""
    def check(stdout: str, exit_code: int) -> Optional[str]:
        if exit_code != 0:
            return f"exit code {exit_code}, expected 0"
        if stdout != text:
            return "stdout differs from the known answer"
        return None
    return check


# -- seeded inputs ----------------------------------------------------------------


class Inputs:
    """Draws the seeded inputs of one run; no two draws repeat."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self._used = set()
        self.first_batch = True

    def _fresh(self, draw):
        while True:
            value = draw()
            if value not in self._used:
                self._used.add(value)
                return value

    def offsets(self, axes: int) -> tuple:
        return self._fresh(lambda: tuple(self.rng.randrange(100, 900) for _ in range(axes)))

    def master_seed(self) -> int:
        return self._fresh(lambda: self.rng.randrange(1 << 32))

    def vertex_names(self, count: int) -> list:
        def draw():
            letters = "abcdefghijklmnopqrstuvwxyz"
            names = set()
            while len(names) < count:
                names.add("".join(self.rng.choice(letters) for _ in range(3)))
            return tuple(sorted(names))
        return list(self._fresh(draw))

    def shuffled(self, lines: list) -> list:
        lines = list(lines)
        self.rng.shuffle(lines)
        return lines


def _interval(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}_{hi}"


def cube_id(cube: tuple) -> str:
    """Cell id the cubical reader gives an elementary cube (all coordinates >= 0)."""
    return "x".join(_interval(lo, hi) for lo, hi in cube)


def cubical_text(inputs: Inputs, shape: tuple) -> tuple:
    """A translated box of unit cubes: (cubical-format text, top cubes)."""
    origin = inputs.offsets(len(shape))
    tops = [tuple((o + k, o + k + 1) for o, k in zip(origin, corner))
            for corner in product(*(range(n) for n in shape))]
    lines = ["x".join(f"[{lo},{hi}]" for lo, hi in cube) for cube in tops]
    return "\n".join(inputs.shuffled(lines)) + "\n", tops


def faces(cube: tuple) -> list:
    """All faces of an elementary cube, itself included."""
    options = [((lo, hi), (lo, lo), (hi, hi)) if lo != hi else ((lo, hi),)
               for lo, hi in cube]
    return list(product(*options))


def all_cells(tops) -> set:
    return {face for top in tops for face in faces(top)}


def count_down_sets(cells) -> int:
    """Closed sets of the face order, counted from the cubes' geometry.

    A down-set either omits a cell x, and then everything above x, or holds
    x, and then everything below it: count(P) = count(P - up x) + count(P - down x).
    """
    cells = sorted(cells)
    index = {c: i for i, c in enumerate(cells)}
    down = [0] * len(cells)
    up = [0] * len(cells)
    for c in cells:
        for f in faces(c):
            down[index[c]] |= 1 << index[f]
            up[index[f]] |= 1 << index[c]
    memo = {0: 1}

    def count(mask: int) -> int:
        if mask not in memo:
            x = (mask & -mask).bit_length() - 1
            memo[mask] = count(mask & ~up[x]) + count(mask & ~down[x])
        return memo[mask]

    return count((1 << len(cells)) - 1)


def _profile(prefix: str, degrees) -> str:
    return "".join(f"{prefix}H_{n}: {g}\n" for n, g in enumerate(degrees))


def _point(ring: str, top: int) -> tuple:
    return (ring,) + ("0",) * top


def singular_answer(ring: str, cells: int, degrees) -> str:
    return f"ring: {ring}\ncells: {cells}\n" + _profile("", degrees)


def check_answer(ring: str, cells: int, degrees) -> str:
    return (f"ring: {ring}\ncells: {cells}\naugmentable: true\nhypothesis: true\n"
            + _profile("lefschetz_", degrees) + _profile("singular_", degrees)
            + "conclusion: true\nconsistent_with_theorem: true\n")


# -- singular-grids -----------------------------------------------------------------


def _box_ops(inputs: Inputs, shape: tuple, commands) -> list:
    ops = []
    for command, ring in commands:
        text, tops = cubical_text(inputs, shape)
        cells = len(all_cells(tops))
        answer = singular_answer if command == "singular" else check_answer
        ops.append(Op((command, "--format", "cubical", "--ring", ring), text,
                      expect(answer(ring, cells, _point(ring, len(shape))))))
    return ops


def _rp2_ops(inputs: Inputs, commands) -> list:
    ops = []
    for command, ring in commands:
        names = dict(zip("abcdef", inputs.vertex_names(6)))
        lines = [" ".join(inputs.shuffled([names[v] for v in face])) for face in RP2_FACES]
        text = "\n".join(inputs.shuffled(lines)) + "\n"
        answer = singular_answer if command == "singular" else check_answer
        ops.append(Op((command, "--format", "simplicial", "--ring", ring), text,
                      expect(answer(ring, 31, RP2_HOMOLOGY[ring]))))
    return ops


def singular_grids(inputs: Inputs, tiny: bool) -> list:
    sz, sq, sf, cz = (("singular", "Z"), ("singular", "Q"),
                      ("singular", "F2"), ("check", "Z"))
    if tiny:
        return (_box_ops(inputs, (2, 2), (sz, sq, sf, cz))
                + _box_ops(inputs, (1, 1, 1), (sz,))
                + _rp2_ops(inputs, (sz, sf)))
    # The repeats on 5x5 and RP^2 put the median and the tail latency inside
    # groups of like operations rather than on the edge between two groups.
    return (_box_ops(inputs, (4, 4), (sz, sq, sf, cz))
            + _box_ops(inputs, (5, 5), (sz, sf, cz, sz))
            + _box_ops(inputs, (6, 6), (sf,))
            + _box_ops(inputs, (2, 1, 1), (sz, sf, cz))
            + _rp2_ops(inputs, (sz, sq, sf, cz, sz, sf, cz)))


# -- chain-les ------------------------------------------------------------------------

LES_SEQUENCE = ("0 -> H_2(X') -> H_2(X) -> H_2(X, X') -> H_1(X') -> H_1(X) -> "
                "H_1(X, X') -> H_0(X') -> H_0(X) -> H_0(X, X') -> 0")
# X and the closed column X' are contractible, so only H_0(X') -> H_0(X) is nonzero.
LES_DIMENSIONS = "0 -> 0 -> 0 -> 0 -> 0 -> 0 -> 0 -> 1 -> 1 -> 0 -> 0"


def _grid_pair_ops(inputs: Inputs, n: int, commands) -> list:
    ops = []
    for command, ring in commands:
        text, tops = cubical_text(inputs, (n, n))
        x0 = min(lo for (lo, _), _ in tops) + n // 2
        column = sorted({cube_id(f) for top in tops if top[0][0] == x0 for f in faces(top)})
        argv = (command, "--format", "cubical", "--ring", ring)
        if command == "homology":
            answer = singular_answer(ring, len(all_cells(tops)), _point(ring, 2))
        else:
            argv += ("--closed", ",".join(inputs.shuffled(column)))
            answer = f"ring: {ring}\nclosed: {','.join(column)}\n"
            if command == "les":
                answer += f"sequence: {LES_SEQUENCE}\ndimensions: {LES_DIMENSIONS}\nexact: true\n"
            else:
                answer += "match: true\n"
        ops.append(Op(argv, text, expect(answer)))
    return ops


def chain_les(inputs: Inputs, tiny: bool) -> list:
    lq, lf, ez, hz, hq = (("les", "Q"), ("les", "F3"), ("excision", "Z"),
                          ("homology", "Z"), ("homology", "Q"))
    if tiny:
        return _grid_pair_ops(inputs, 2, (lq, lf, ez, hz, hq))
    # les over Q only on 6x6, so a run holds enough batches for steady medians.
    # The 8x8 repeats put the median and the tail latency inside groups of
    # like operations rather than on the edge between two groups.
    return (_grid_pair_ops(inputs, 6, (lq, lf, ez, hz, hq))
            + _grid_pair_ops(inputs, 7, (lf, ez, hz, hq))
            + _grid_pair_ops(inputs, 8, (lf, ez, hz, hq, ez, hz, hq)))


# -- corollary-sweep ---------------------------------------------------------------------

def _corollary_op(inputs: Inputs, shape: tuple) -> Op:
    text, tops = cubical_text(inputs, shape)
    cells = all_cells(tops)
    closed_sets = count_down_sets(cells)
    answer = (f"ring: Z\ncells: {len(cells)}\naugmentable: true\nlocal_condition: true\n"
              f"closed_sets_checked: {closed_sets}\nall_closed_match: true\n"
              "directions_agree: true\nconsistent_with_corollary: true\n")
    return Op(("corollary", "--format", "cubical"), text, expect(answer), items=closed_sets)


def corollary_sweep(inputs: Inputs, tiny: bool) -> list:
    shapes = [(1, 1), (1, 2)] if tiny else [(1, 2), (2, 1)] * 3
    return [_corollary_op(inputs, shape) for shape in shapes]


# -- converse-search ---------------------------------------------------------------------


def _candidate_problem(lines: list) -> Optional[str]:
    """Independent reading of one candidate: grading, d∘d = 0, augmentability."""
    dims, kappa = {}, {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "cell":
            dims[parts[1]] = int(parts[2])
        else:
            kappa[(parts[1], parts[2])] = int(parts[3])
    if lines[0] != "ring Z":
        return "candidate is not over Z"
    facets = {x: {} for x in dims}
    for (x, y), v in kappa.items():
        if dims[x] != dims[y] + 1:
            return "candidate breaks the grading"
        facets[x][y] = v
    for x in dims:
        acc = {}
        for y, v in facets[x].items():
            for z, w in facets[y].items():
                acc[z] = acc.get(z, 0) + v * w
        if any(acc.values()):
            return "candidate boundary does not square to zero"
        if dims[x] == 1 and sum(facets[x].values()) != 0:
            return "candidate is not augmentable"
    return None


def search_check(seed: int, budget: int):
    header = f"mode: basis-change\nring: Z\nseed: {seed}\nbudget: {budget}\n"

    def check(stdout: str, exit_code: int) -> Optional[str]:
        if not stdout.startswith(header):
            return "search header differs"
        lines = stdout[len(header):].splitlines()
        hits, blocks = [], []
        for line in lines:
            key, _, value = line.partition(": ")
            if key == "candidate_index":
                hits.append(int(value))
                blocks.append({"lef": [], "lefschetz": [], "singular": []})
            elif key == "candidate_reverified" and value != "true":
                return "a candidate was not re-verified"
            elif key == "candidate_failing_cells" and not value:
                return "a candidate has no failing cell"
            elif key.startswith("candidate_lefschetz_"):
                blocks[-1]["lefschetz"].append(line.split("_", 2)[2])
            elif key.startswith("candidate_singular_"):
                blocks[-1]["singular"].append(line.split("_", 2)[2])
            elif key == "candidate_lef":
                blocks[-1]["lef"].append(value)
        tail = [f"evaluated: {budget}", f"candidates: {len(hits)}"]
        tail.append("result: CRITICAL: converse candidate(s) found; verify by hand" if hits
                    else "result: no counterexample found at this scale")
        if lines[-3:] != tail:
            return "search summary differs"
        if exit_code != (1 if hits else 0):
            return f"search exit code {exit_code}"
        if hits != sorted(set(hits)) or (hits and not 0 <= hits[0] <= hits[-1] < budget):
            return "candidate indices are not increasing within the budget"
        for block in blocks:
            if block["lefschetz"] != block["singular"]:
                return "a candidate's two homologies differ"
            reason = _candidate_problem(block["lef"])
            if reason:
                return reason
        return None

    return check


def converse_search(inputs: Inputs, tiny: bool) -> list:
    budget = 40 if tiny else 1000
    ops = []
    for _ in range(2 if tiny else 3):
        seed = inputs.master_seed()
        argv = ("search", "--mode", "basis-change", "--seed", str(seed),
                "--budget", str(budget), "--jobs", "1")
        ops.append(Op(argv, "", search_check(seed, budget), items=budget))
    if inputs.first_batch:
        # the run's one --jobs 2 pass must print exactly what --jobs 1 printed
        first = ops[0]
        ops.append(Op(first.argv[:-1] + ("2",), "", first.check, traced=False, same_as=0))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("singular-grids", singular_grids, 5.5, "operations"),
    Workload("corollary-sweep", corollary_sweep, 1.3, "closed_sets"),
    Workload("converse-search", converse_search, 3.0, "evaluated"),
    Workload("chain-les", chain_les, 3.8, "operations"),
)}
