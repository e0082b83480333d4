"""Command-line surface: reports, exit codes, determinism."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lefhom import cli, render_lef
from lefhom.cli import main
from lefhom.homology import lefschetz_homology
from tests.conftest import DATA_DIR
from tests.test_theorem import _tower


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_bytes(*argv):
    proc = subprocess.run([sys.executable, "-m", "lefhom", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout


@pytest.fixture()
def star_file(data_dir):
    return str(data_dir / "star4.lef")


@pytest.fixture()
def twisted_file(data_dir):
    return str(data_dir / "twisted_loop.lef")


def test_check_star(capsys, star_file):
    code, out, _ = run_cli(capsys, "check", star_file)
    assert code == 0
    assert "augmentable: true" in out
    assert "hypothesis: false (fails at: e)" in out
    assert "conclusion: false" in out
    assert "consistent_with_theorem: true" in out
    assert "lefschetz_H_0: Z^3" in out
    assert "singular_H_0: Z" in out


def test_check_twisted(capsys, twisted_file):
    code, out, _ = run_cli(capsys, "check", twisted_file)
    assert code == 0
    assert "augmentable: false" in out
    assert "hypothesis: false (not augmentable)" in out
    assert "conclusion: false" in out
    assert "consistent_with_theorem: true" in out


def test_homology_twisted(capsys, twisted_file):
    code, out, _ = run_cli(capsys, "homology", twisted_file)
    assert code == 0
    assert "H_0: Z/2" in out
    assert "H_1: 0" in out


def test_singular_twisted(capsys, twisted_file):
    code, out, _ = run_cli(capsys, "singular", twisted_file)
    assert code == 0
    assert "H_0: Z" in out
    assert "H_1: Z" in out


def test_homology_with_ring_flag(capsys, twisted_file):
    code, out, _ = run_cli(capsys, "homology", twisted_file, "--ring", "F2")
    assert code == 0
    assert "H_0: F2" in out and "H_1: F2" in out


def test_validate_good_and_broken(capsys, star_file, tmp_path):
    code, out, _ = run_cli(capsys, "validate", star_file)
    assert code == 0 and "valid: true" in out

    broken = tmp_path / "broken.lef"
    broken.write_text("ring Z\ncell a 0\ncell b 1\ncell c 2\n"
                      "kappa c b 1\nkappa b a 1\n")
    code, out, _ = run_cli(capsys, "validate", str(broken))
    assert code == 1
    assert "valid: false" in out
    assert "offending_pair: c,a" in out


def test_validate_reports_a_kappa_total_past_the_digit_limit(capsys, tmp_path):
    # the total is a product of two 3 000-digit entries; printing it once
    # ended in int()'s ValueError
    big = "9" * 3000
    path = tmp_path / "long.lef"
    path.write_text(f"ring Z\ncell a 0\ncell b 0\ncell e 1\ncell f 2\n"
                    f"kappa e a {big}\nkappa e b 1\nkappa f e {big}\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and err == ""
    assert out.splitlines() == ["valid: false",
                                "error: kappa condition fails at (f, a): sum = a 19932-bit number",
                                "offending_pair: f,a"]


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.lef"
    bad.write_text("ring Z\ncell e 1\nkappa e v 1\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "line 3" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "homology", "/nonexistent/x.lef")
    assert code == 2 and "error" in err


def test_usage_error_exits_2(capsys):
    assert main(["homology", "--ring"]) == 2
    capsys.readouterr()


def test_les_command(capsys, star_file):
    code, out, _ = run_cli(capsys, "les", star_file, "--closed", "a,b,c,d",
                           "--ring", "Q")
    assert code == 0
    assert "exact: true" in out
    assert "dimensions: 0 -> 0 -> 0 -> 1 -> 4 -> 3 -> 0 -> 0" in out


def test_les_requires_field(capsys, star_file):
    code, _, err = run_cli(capsys, "les", star_file, "--closed", "a")
    assert code == 2 and "field" in err


def test_les_defaults_to_the_field_of_the_complex(capsys, star_file, tmp_path):
    over_f3 = tmp_path / "star_f3.lef"
    with open(star_file, encoding="utf-8") as handle:
        over_f3.write_text(handle.read().replace("ring Z\n", "ring Zp 3\n", 1), encoding="utf-8")
    code, out, _ = run_cli(capsys, "les", str(over_f3), "--closed", "a,b,c,d")
    assert code == 0
    assert out.splitlines()[0] == "ring: F3"
    assert "exact: true" in out


def test_excision_command(capsys, star_file):
    code, out, _ = run_cli(capsys, "excision", star_file, "--closed", "a,b,c,d")
    assert code == 0 and "match: true" in out


def test_excision_not_closed_exits_1(capsys, star_file):
    code, _, err = run_cli(capsys, "excision", star_file, "--closed", "e")
    assert code == 1 and "not closed" in err


@pytest.mark.parametrize("command", [["les", "--ring", "Q"], ["excision"]], ids=["les", "excision"])
def test_closed_id_that_names_no_cell_exits_2(capsys, star_file, command):
    code, out, err = run_cli(capsys, *command, star_file, "--closed", "a,zz")
    assert (code, out, err) == (2, "", "error: not cells of the complex: ['zz']\n")


def test_corollary_command(capsys, star_file):
    code, out, _ = run_cli(capsys, "corollary", star_file)
    assert code == 0
    assert "closed_sets_checked: 17" in out
    assert "directions_agree: true" in out


def test_export_dot(capsys, star_file):
    code, out, _ = run_cli(capsys, "export-dot", star_file)
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert out.count("->") == 4


def test_stdin_simplicial(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("a b c\n"))
    code, out, _ = run_cli(capsys, "homology", "-", "--format", "simplicial")
    assert code == 0 and "H_0: Z" in out


def test_cubical_format(capsys, tmp_path):
    cubes = tmp_path / "cubes.txt"
    cubes.write_text("[0,1]x[0,1]\n")
    code, out, _ = run_cli(capsys, "homology", str(cubes), "--format", "cubical")
    assert code == 0 and "H_0: Z" in out


def test_search_reports_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "search", "--seed", "5", "--budget", "40",
                           "--mode", "simplicial-random")
    assert code == 0
    assert "candidates: 0" in out
    assert "result: no counterexample found at this scale" in out

    code2, out2, _ = run_cli(capsys, "search", "--seed", "7", "--budget", "30",
                             "--mode", "basis-change", "--max-cells", "3")
    if "candidates: 0" in out2:
        assert code2 == 0
    else:
        assert code2 == 1
        assert "candidate_reverified: true" in out2
        assert "CRITICAL" in out2


def test_search_hits_file(capsys, tmp_path):
    hits = tmp_path / "hits.lef"
    code, out, _ = run_cli(capsys, "search", "--seed", "7", "--budget", "30",
                           "--mode", "basis-change", "--max-cells", "3",
                           "--hits", str(hits))
    if code == 1:
        text = hits.read_text()
        assert "# converse candidate" in text
        assert "ring Z" in text
        assert "candidate_lef:" not in out  # hits go to the file, not stdout


def test_search_unwritable_hits_file_fails_before_any_output(capsys, tmp_path):
    # seed 1 finds no candidate in two draws and seed 3 finds one: both must
    # stop at the open, not after a report or inside a candidate block
    unwritable = tmp_path / "missing" / "hits.lef"
    for seed, found in (("1", "candidates: 0"), ("3", "candidate_index:")):
        code, out, _ = run_cli(capsys, "search", "--budget", "2", "--seed", seed)
        assert found in out, seed
        code, out, err = run_cli(capsys, "search", "--budget", "2", "--seed", seed,
                                 "--hits", str(unwritable))
        assert (code, out) == (2, ""), seed
        assert err.startswith("error: ") and "hits.lef" in err, seed


def test_search_hits_file_is_created_when_nothing_is_found(capsys, tmp_path):
    hits = tmp_path / "hits.lef"
    code, out, _ = run_cli(capsys, "search", "--budget", "2", "--seed", "1", "--hits", str(hits))
    assert code == 0 and "candidates: 0" in out
    assert hits.read_text() == ""


def test_version(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_search_determinism_across_jobs(capsys):
    args = ["search", "--seed", "9", "--budget", "30", "--mode", "basis-change",
            "--max-cells", "3"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
    assert (code1, out1.replace("\n", "|")) == (code2, out2.replace("\n", "|"))


def test_search_puts_the_sigterm_handler_back(capsys):
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        code, out, _ = run_cli(capsys, "search", "--seed", "9", "--budget", "5")
        assert code == 1 and "candidates: 2\n" in out
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_sigterm_ends_a_pooled_search_and_its_workers():
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lefhom", "search", "--mode", "basis-change", "--seed", "42",
         "--budget", "1000000", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"))
    pgid = proc.pid  # the leader of a new session leads its process group
    try:
        assert proc.stdout.readline() == "mode: basis-change\n"
        time.sleep(1)  # the pool starts once the header is out
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 143
        if (os.cpu_count() or 1) >= 2:  # on one CPU the search runs in this process
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "pool workers outlived the search"
                time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()


def test_subprocess_byte_determinism(star_file, twisted_file):
    for command in ("check", "homology", "singular"):
        for path in (star_file, twisted_file):
            first = cli_bytes(command, path)
            second = cli_bytes(command, path)
            assert first == second


def test_jobs_is_a_search_option_only(capsys, star_file):
    code, out, err = run_cli(capsys, "check", star_file, "--jobs", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --jobs 2" in err


def test_validate_takes_no_ring(capsys, star_file):
    # validate only parses; a ring it would ignore is refused as a usage error
    code, out, err = run_cli(capsys, "validate", star_file, "--ring", "Z")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --ring Z" in err


def _directory(tmp_path):
    return str(tmp_path)


def _latin1_file(tmp_path):
    path = tmp_path / "latin1.lef"
    path.write_bytes("ring Z\ncell \u00e9 0\n".encode("latin-1"))
    return str(path)


def _huge_dimension_file(tmp_path):
    path = tmp_path / "huge.lef"
    path.write_text("ring Z\ncell a 99999999999999999999\n")
    return str(path)


def _star_file(tmp_path):
    return str(DATA_DIR / "star4.lef")


@pytest.mark.parametrize("argv", [
    ["search", "--budget", "0"],
    ["search", "--seed", "-1"],
    ["search", "--jobs", "0"],
    ["search", "--jobs", "-4"],
    ["search", "--budget", "1", "--mode", "simplicial-random", "--max-cells", "100000000"],
    ["search", "--budget", "1", "--transform-steps", "1000000000"],
    ["homology", _directory],
    ["homology", _latin1_file],
    ["homology", _huge_dimension_file],
    ["corollary", _star_file, "--cap", "0"],
    ["corollary", _star_file, "--cap", "-3"],
], ids=["budget-0", "negative-seed", "jobs-0", "negative-jobs", "huge-max-cells",
        "huge-transform-steps", "directory", "not-utf8",
        "huge-dimension", "corollary-cap-0", "corollary-negative-cap"])
def test_unusable_input_exits_2(capsys, tmp_path, argv):
    argv = [arg(tmp_path) if callable(arg) else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")


def test_simplicial_input_over_the_cap_is_one_error_line(capsys, tmp_path):
    # 2**40 - 1 faces: refused once 200 001 of them are built
    path = tmp_path / "wide.txt"
    path.write_text(" ".join(f"v{i}" for i in range(40)) + "\n")
    code, out, err = run_cli(capsys, "homology", "--format", "simplicial", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: simplicial input exceeds 200000 simplices; raise the cap"]


def test_singular_cap_error_on_a_complex_without_weak_points(capsys, tmp_path):
    # the 12-level tower is its own weak-point core: 3**12 - 1 chains
    path = tmp_path / "tower.lef"
    path.write_text(render_lef(_tower(12)))
    code, out, err = run_cli(capsys, "singular", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: order complex exceeds 200000 simplices; raise the cap"]


def test_out_of_memory_is_one_error_line(monkeypatch, capsys, star_file):
    # a command body that runs out of memory ends as a refused input does:
    # exit 1 and one error line, with no traceback
    def exhausted(*args):
        raise MemoryError

    for command, body in (("singular", "finite_space_homology"), ("check", "check_theorem")):
        monkeypatch.setattr(cli, body, exhausted)
        code, out, err = run_cli(capsys, command, star_file)
        assert code == 1, command
        assert out == "", command
        assert err == "error: out of memory\n", command


def test_search_cap_error_names_the_draw_and_what_shrinks_it(capsys):
    # many unimodular moves make the face order dense: draw 0 outgrows the cap
    argv = ["search", "--budget", "1", "--max-cells", "64", "--max-dimension", "5",
            "--transform-steps", "1000"]
    expected = ["error: search draw 0 (seed 16294208416658607535): order complex exceeds "
                "200000 simplices; lower --transform-steps, --max-cells or --max-dimension "
                "to shrink the draws"]
    for extra in ([], ["--budget", "2", "--jobs", "2"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 1
        assert out.splitlines()[0] == "mode: basis-change"
        assert err.splitlines() == expected


def _modulus_file(tmp_path):
    path = tmp_path / "modulus.lef"
    path.write_text("ring Zp 2305843009213693951\ncell a 0\n")
    return str(path)


def _huge_interval_file(tmp_path):
    path = tmp_path / "huge.cub"
    path.write_text(f"[{'9' * 5000},0]\n")
    return str(path)


# Reading kappa over another ring: a Fraction that Z or F_2 cannot hold is
# refused, and so are F_3 entries over any other ring, also without an edge.
CONVERSION_INPUTS = {
    "halves-Q": "ring Q\ncell a 0\ncell b 0\ncell e 1\nkappa e a -1/2\nkappa e b 1/2\n",
    "edge-F3": "ring Zp 3\ncell a 0\ncell b 0\ncell e 1\nkappa e a 2\nkappa e b 1\n",
    "two-Q": "ring Q\ncell a 0\ncell b 0\n",
    "two-F3": "ring Zp 3\ncell a 0\ncell b 0\n",
}
CONVERSION_COMMANDS = {"homology": ["homology"], "check": ["check"], "corollary": ["corollary"],
                       "excision": ["excision", "--closed", "a"], "les": ["les", "--closed", "a"]}


def _conversion_error(name: str, command: str, ring: str):
    """The error line of one run, or None when it answers."""
    if command == "les" and ring == "Z":
        return "error: les needs field coefficients; pass --ring Q or --ring F<p>"
    if name.endswith("F3") and ring != "F3":
        return f"error: cannot lift F3 entries into {ring}"
    if name == "halves-Q":  # every command names the first kappa in (dim, id) order
        return {"Z": "error: -1/2 is not an integer",
                "F2": "error: denominator of -1/2 vanishes mod 2"}.get(ring)
    return None


def _conversion_case(name: str, command: str, ring: str):
    def write(tmp_path):
        path = tmp_path / f"{name}.lef"
        path.write_text(CONVERSION_INPUTS[name])
        return str(path)

    return pytest.param([*CONVERSION_COMMANDS[command], "--ring", ring, write],
                        _conversion_error(name, command, ring), id=f"{command}-{ring}-{name}")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["homology", _star_file, "--ring", "F2305843009213693951"],
                 "error: prime field modulus must be below 2**31, got a 61-bit number",
                 id="ring-option-modulus"),
    pytest.param(["homology", _modulus_file],
                 "error: line 1: bad prime field: prime field modulus must be below 2**31, "
                 "got a 61-bit number", id="lef-modulus"),
    pytest.param(["homology", _star_file, "--ring", "F" + "7" * 5000], "error: bad ring 'F7777",
                 id="ring-option-digits"),
    pytest.param(["validate", "--format", "cubical", _huge_interval_file],
                 "error: line 1: bad interval '[9999", id="cubical-digits"),
] + [_conversion_case(name, command, ring) for name in CONVERSION_INPUTS
     for command in CONVERSION_COMMANDS for ring in ("Z", "Q", "F2", "F3", "F5")])
def test_huge_numbers_exit_2_with_one_error_line(capsys, tmp_path, argv, message):
    # a modulus of 2**61 - 1 once ran trial division for ever; 5 000 digits
    # once raised int()'s ValueError out of the parsers.  The conversion
    # cases with no message answer: exit 0, nothing on stderr
    argv = [arg(tmp_path) if callable(arg) else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    if message is None:
        assert code == 0 and out and err == ""
        return
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_cubical_input_over_the_cap_is_one_error_line(capsys, tmp_path):
    # one cube of 12 unit factors has 3**12 = 531 441 faces: refused before any is built
    path = tmp_path / "cube12.cub"
    path.write_text("x".join(["[0,1]"] * 12) + "\n")
    code, out, err = run_cli(capsys, "homology", "--format", "cubical", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: cubical input exceeds 200000 simplices; raise the cap"]


def test_a_patched_profile_function_is_used_after_the_parser_is_built(
        capsys, monkeypatch, star_file):
    # the parser is built once per process; command bodies still look their
    # functions up at call time, which is what the benchmark's tracer patches
    assert run_cli(capsys, "homology", star_file)[0] == 0
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def patched(X, ring):
        seen.append(len(X))
        return lefschetz_homology(X, ring)

    monkeypatch.setattr(cli, "lefschetz_homology", patched)
    code, out, _ = run_cli(capsys, "homology", star_file)
    assert code == 0 and "H_0: Z^3" in out
    assert seen == [5]
