from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from singquandles import (
    AlexanderParams,
    braid_closure,
    build_tables,
    gen_fig9_left,
    gen_fig9_right,
    make_dihedral_quandle,
    make_trivial_quandle,
    parse_word,
    serialize_diagram,
    serialize_tables,
)
from singquandles.cli import main

# 3^9100 has 4,342 decimal digits, past the interpreter's default limit of
# 4,300 on int-to-str conversion (Python 3.11, 3.10.7 and later)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < 4342, reason="this interpreter prints 3^9100 in full")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fig9_files(tmp_path):
    left = tmp_path / "left.diagram"
    right = tmp_path / "right.diagram"
    left.write_text(serialize_diagram(gen_fig9_left()))
    right.write_text(serialize_diagram(gen_fig9_right()))
    return left, right


def test_check_verified_structure(tmp_path, capsys):
    path = tmp_path / "alex.tables"
    path.write_text(serialize_tables(build_tables(AlexanderParams(5, 4, 3))))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert all(line.endswith(": ok") for line in lines[:-1])
    assert lines[-1] == "verified"


def test_check_is_deterministic(capsys, data_dir):
    path = str(data_dir / "five_element_candidate.tables")
    first = run_cli(capsys, "check", path, "--one-indexed")
    second = run_cli(capsys, "check", path, "--one-indexed")
    assert first == second
    code, out, _ = first
    assert code == 1
    assert "riva: FAIL at (0, 0, 1): 4 != 1" in out
    assert out.strip().splitlines()[-1] == "not verified"


def test_check_bare_quandle(tmp_path, capsys):
    path = tmp_path / "dihedral.tables"
    path.write_text(serialize_tables(make_dihedral_quandle(7)))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert out.strip().splitlines()[-1] == "involutive quandle"

    bad = tmp_path / "bad.tables"
    bad.write_text("n 2\nstar\n1 1\n0 0\n")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert out.strip().splitlines()[-1] == "not an involutive quandle"


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "no-such-file.tables")
    assert code == 2
    assert "error:" in err


def test_alexander_find(capsys):
    code, out, _ = run_cli(capsys, "alexander", "find", "5")
    assert code == 0
    assert out == "1 0\n4 3\n4 4\n"
    code, out, _ = run_cli(capsys, "alexander", "find", "1")
    assert (code, out) == (0, "0 0\n")


def test_alexander_tables(capsys):
    code, out, _ = run_cli(capsys, "alexander", "tables", "5", "4", "3")
    assert code == 0
    assert out.startswith("n 5\nstar\n0 2 4 1 3\n")
    assert out == serialize_tables(build_tables(AlexanderParams(5, 4, 3)))


def test_alexander_tables_invalid_params(capsys):
    code, _, err = run_cli(capsys, "alexander", "tables", "5", "2", "1")
    assert code == 2
    assert "t^2 - 1" in err


def test_color_alexander_backends(fig9_files, capsys):
    left, right = fig9_files
    code, out, _ = run_cli(capsys, "color", str(left), "--alexander", "10", "9", "4")
    assert (code, out) == (0, "count 20\n")
    code, out, _ = run_cli(capsys, "color", str(left), "--alexander", "10", "9", "4",
                           "--backend", "linear")
    assert (code, out) == (0, "count 20\n")
    code, out, _ = run_cli(capsys, "color", str(right), "--alexander", "10", "9", "4",
                           "--list")
    lines = out.strip().splitlines()
    assert lines[0] == "count 10"
    assert len(lines) == 11
    assert lines[1:] == sorted(lines[1:])


def test_color_with_table_file(tmp_path, capsys):
    clasp = tmp_path / "clasp.diagram"
    clasp.write_text("arcs 3\nX 1 0 2\nX 2 0 1\n")
    tables = tmp_path / "dihedral.tables"
    tables.write_text(serialize_tables(make_dihedral_quandle(3)))
    code, out, _ = run_cli(capsys, "color", str(clasp), str(tables))
    assert (code, out) == (0, "count 9\n")


def test_color_usage_errors(fig9_files, tmp_path, capsys):
    left, _ = fig9_files
    tables = tmp_path / "trivial.tables"
    tables.write_text(serialize_tables(make_trivial_quandle(3)))

    code, _, err = run_cli(capsys, "color", str(left))
    assert code == 2 and "tables file or --alexander" in err

    code, _, err = run_cli(capsys, "color", str(left), str(tables),
                           "--alexander", "5", "4", "3")
    assert code == 2 and "not both" in err

    code, _, err = run_cli(capsys, "color", str(left), str(tables))
    assert code == 2 and "singular" in err

    code, _, err = run_cli(capsys, "color", str(left), str(tables),
                           "--backend", "linear")
    assert code == 2 and "--alexander" in err


def test_color_truncation_note(fig9_files, capsys, monkeypatch):
    import singquandles.cli as cli_module
    monkeypatch.setattr(cli_module, "count_colorings_bruteforce",
                        lambda d, s, list_colorings: __import__("singquandles").ColoringReport(
                            20, "brute-force", ((0, 0, 0, 0),), True))
    left, _ = fig9_files
    code, out, err = run_cli(capsys, "color", str(left), "--alexander", "10", "9", "4",
                             "--list")
    assert code == 0
    assert "truncated" in err
    assert out.startswith("count 20\n")


def assert_one_line_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# sha256 of `color fig9-left --alexander n t b --list`, the same on both
# backends
FIG9_LEFT_LISTINGS = {
    (10, 9, 4): "d877a1f176beb528492edd736bada0a3bc4bb5241d6b4a28342eae55d8da9152",
    (5, 4, 3): "dcbfaffbe0404f71f66303b13b48070679eae81dfca9de3cf717acccd1a326b3",
    (8, 1, 4): "361dd8a5930f02fe0c83162d1ce2852d671499922d40f764c1e98e2f2bccea43",
}


def test_color_listing_is_pinned(fig9_files, capsys):
    left, _ = fig9_files
    for params, digest in FIG9_LEFT_LISTINGS.items():
        for backend in ("brute", "linear"):
            code, out, err = run_cli(capsys, "color", str(left), "--alexander",
                                     *map(str, params), "--backend", backend,
                                     "--list")
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_color_list_too_large_exits_2(tmp_path, capsys):
    # 10^6 colorings of 9,100 colors each would be some 73 GB; the count
    # alone is taken, and the listing refused before it is built
    wide = tmp_path / "wide.diagram"
    wide.write_text("arcs 9100\n")
    # a wide diagram with few colorings is still listed: arcs 1..19 follow
    # from arcs 0 and 1, so 9 colorings of 20 colors each
    chain = tmp_path / "chain.diagram"
    chain.write_text("arcs 20\n" + "".join(f"X {i} 0 {i + 1}\n" for i in range(1, 19)))
    for backend in ("brute", "linear"):
        start = time.perf_counter()
        got = run_cli(capsys, "color", str(wide), "--alexander", "3", "1", "0",
                      "--backend", backend, "--list")
        assert time.perf_counter() - start < 5
        assert_one_line_error(*got)
        assert "too large" in got[2]
        code, out, err = run_cli(capsys, "color", str(chain), "--alexander",
                                 "3", "1", "0", "--backend", backend, "--list")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "count 9" and len(lines) == 10
        assert all(len(line.split()) == 20 for line in lines[1:])


@needs_digit_limit
def test_color_count_too_long_to_print_exits_2(tmp_path, capsys):
    arcs = tmp_path / "arcs.diagram"
    arcs.write_text("arcs 9100\n")
    free = tmp_path / "free.diagram"
    free.write_text("arcs 0\nfree 9100\n")
    for path in (arcs, free):
        for backend in ("brute", "linear"):
            got = run_cli(capsys, "color", str(path), "--alexander", "3", "1",
                          "0", "--backend", backend)
            assert_one_line_error(*got)
            assert "too many digits" in got[2]


@needs_digit_limit
def test_distinguish_counts_too_long_to_print_exit_2(tmp_path, capsys):
    # 2^15000 and 2^15001 differ under (2, 1, 0), and have over 4,500 digits
    d1 = tmp_path / "one.diagram"
    d1.write_text("arcs 15000\n")
    d2 = tmp_path / "two.diagram"
    d2.write_text("arcs 15001\n")
    got = run_cli(capsys, "distinguish", str(d1), str(d2))
    assert_one_line_error(*got)


HUGE = str(10 ** 20 - 1)


def test_huge_numbers_are_refused_before_work(fig9_files, tmp_path, capsys):
    left, right = fig9_files
    for argv in (("gen", "braid", HUGE, "s1"),
                 ("alexander", "tables", HUGE, "1", "0"),
                 ("color", str(left), "--alexander", HUGE, "1", "0"),
                 ("fig8-system", "1", "left", "--alexander", HUGE, "1", "0",
                  "--list"),
                 ("alexander", "find", HUGE),
                 ("distinguish", str(left), str(right),
                  "--alexander-max-n", HUGE)):
        start = time.perf_counter()
        got = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert_one_line_error(*got)
        assert "too large" in got[2]
    # counting needs no tables, and one free arc counts n
    arc = tmp_path / "arc.diagram"
    arc.write_text("arcs 1\n")
    code, out, _ = run_cli(capsys, "color", str(arc), "--alexander", HUGE, "1",
                           "0", "--backend", "linear")
    assert (code, out) == (0, f"count {HUGE}\n")
    code, out, _ = run_cli(capsys, "fig8-system", "1", "left", "--alexander",
                           HUGE, "1", "0")
    assert (code, out) == (0, f"count {HUGE}\n")


def test_long_braid_closure_is_refused_before_work(capsys):
    # 10^7 + 1 tops and the letter's new end pass the 10^7 bound on labels
    start = time.perf_counter()
    got = run_cli(capsys, "gen", "braid", "10000001", "s1")
    assert time.perf_counter() - start < 2
    assert_one_line_error(*got)
    assert "too large" in got[2]


def test_alexander_find_at_the_bound_finishes(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "alexander", "find", "10000000")
    assert time.perf_counter() - start < 10
    assert code == 0
    for line in out.splitlines():
        AlexanderParams(10 ** 7, *map(int, line.split()))


@needs_digit_limit
def test_huge_diagram_is_refused_before_counting(fig9_files, tmp_path, capsys):
    left, _ = fig9_files
    arcs = tmp_path / "arcs.diagram"
    arcs.write_text(f"arcs {HUGE}\n")
    free = tmp_path / "free.diagram"
    free.write_text(f"arcs 1\nfree {HUGE}\n")
    for path in (arcs, free):
        for argv in (("color", str(path), "--alexander", "2", "1", "0"),
                     ("color", str(path), "--alexander", "2", "1", "0",
                      "--backend", "linear"),
                     ("distinguish", str(path), str(left)),
                     ("distinguish", str(left), str(path))):
            start = time.perf_counter()
            got = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 2
            assert_one_line_error(*got)
            assert "too many digits" in got[2]
    # under n = 1 there is one coloring, printed; the brute-force counter
    # refuses to walk that many arcs
    for path, backend in ((arcs, "linear"), (free, "linear"), (free, "brute")):
        code, out, _ = run_cli(capsys, "color", str(path), "--alexander", "1",
                               "0", "0", "--backend", backend)
        assert (code, out) == (0, "count 1\n")
    got = run_cli(capsys, "color", str(arcs), "--alexander", "1", "0", "0")
    assert_one_line_error(*got)
    assert "brute-force" in got[2]


def test_out_of_memory_exits_2(capsys, monkeypatch):
    import singquandles.cli as cli_module

    def exhausted(word):
        raise MemoryError

    monkeypatch.setattr(cli_module, "braid_closure", exhausted)
    got = run_cli(capsys, "gen", "braid", "2", "s1")
    assert_one_line_error(*got)
    assert "memory" in got[2]


def test_fig8_system(capsys):
    code, out, _ = run_cli(capsys, "fig8-system", "1", "left",
                           "--alexander", "5", "4", "3")
    assert (code, out) == (0, "count 5\n")
    code, out, _ = run_cli(capsys, "fig8-system", "1", "left",
                           "--alexander", "5", "4", "3", "--list")
    assert out == "count 5\n0 0\n1 1\n2 2\n3 3\n4 4\n"
    code, out, _ = run_cli(capsys, "fig8-system", "1", "right",
                           "--alexander", "4", "1", "2")
    assert (code, out) == (0, "count 8\n")
    code, _, err = run_cli(capsys, "fig8-system", "0", "left",
                           "--alexander", "5", "4", "3")
    assert code == 2 and "k must be >= 1" in err
    code, _, _ = run_cli(capsys, "fig8-system", "1", "left")
    assert code == 2


def test_distinguish(fig9_files, capsys):
    left, right = fig9_files
    code, out, _ = run_cli(capsys, "distinguish", str(left), str(right))
    assert code == 0
    assert out == "separated at (n=2, t=1, b=0): counts 4 vs 2\n"
    code, out, _ = run_cli(capsys, "distinguish", str(left), str(left))
    assert (code, out) == (1, "not separated\n")


def test_distinguish_rejects_an_empty_family(fig9_files, capsys):
    left, right = fig9_files
    for bad in ("1", "0", "-3"):
        code, out, err = run_cli(capsys, "distinguish", str(left), str(right),
                                 "--alexander-max-n", bad)
        assert (code, out) == (2, "")
        assert "--alexander-max-n must be at least 2" in err
    code, out, _ = run_cli(capsys, "distinguish", str(left), str(right),
                           "--alexander-max-n", "2")
    assert code == 0 and out.startswith("separated at (n=2,")


def test_gen_named_diagrams(capsys):
    code, out, _ = run_cli(capsys, "gen", "fig9-left")
    assert (code, out) == (0, "arcs 4\nS 0 1 2 3\nS 2 3 0 1\n")
    code, out, _ = run_cli(capsys, "gen", "fig9-right")
    assert (code, out) == (0, "arcs 4\nS 0 1 2 3\nS 2 3 1 0\n")


def test_gen_braid(capsys):
    code, out, _ = run_cli(capsys, "gen", "braid", "2", "t1", "s1", "s1", "s1")
    assert code == 0
    assert out == serialize_diagram(braid_closure(parse_word("t1 s1 s1 s1", strands=2)))
    code, _, err = run_cli(capsys, "gen", "braid")
    assert code == 2 and "strand count" in err
    code, _, err = run_cli(capsys, "gen", "braid", "two")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "braid", "2", "q9")
    assert code == 2 and "bad letter token" in err


def test_gen_fig8_points_to_system_command(capsys):
    code, _, err = run_cli(capsys, "gen", "fig8-left")
    assert code == 2
    assert "fig8-system" in err
    code, _, err = run_cli(capsys, "gen", "nonsense")
    assert code == 2 and "unknown generator" in err


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2")
    assert (code, out) == (0, "order 2\ncount 2\n")
    code, out, _ = run_cli(capsys, "enumerate", "2", "--up-to-iso")
    assert code == 0
    assert "star" in out
    code, _, err = run_cli(capsys, "enumerate", "9")
    assert code == 2 and "between 1 and 5" in err


def test_bad_usage_returns_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for module in ("singquandles", "singquandles.cli"):
        done = subprocess.run([sys.executable, "-m", module, "enumerate", "2"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert "count 2" in done.stdout.splitlines()


# every subcommand with its flags, over a few files and the integers at
# the edges of what each command accepts; a token list is sometimes
# shuffled, so that argparse sees misplaced arguments too
FUZZ_INTS = st.sampled_from(
    ("-1", "0", "1", "2", "3", "4", "10", str(10 ** 20)))
FUZZ_FILES = ("fig9.diagram", "alex.tables", "malformed", "a-directory",
              "missing")
# valid (n, t, b) from those integers, so that counts are reached, or any
# three of them
FUZZ_PARAMS = st.sampled_from(
    (("1", "0", "0"), ("2", "1", "0"), ("4", "1", "2"), ("10", "1", "0"),
     (str(10 ** 20), "1", "0"))) | st.tuples(FUZZ_INTS, FUZZ_INTS, FUZZ_INTS)


@st.composite
def fuzz_argv(draw):
    def flag(*tokens):
        return list(tokens) if draw(st.booleans()) else []

    # the valid files half the time
    files = st.sampled_from(FUZZ_FILES[:2]) | st.sampled_from(FUZZ_FILES)
    alexander = ["--alexander", *draw(FUZZ_PARAMS)]
    command = draw(st.sampled_from(
        ("check", "alexander", "color", "fig8-system", "distinguish", "gen",
         "enumerate")))
    if command == "check":
        tail = [draw(files)] + flag("--one-indexed")
    elif command == "alexander":
        action = draw(st.sampled_from(("find", "tables")))
        tail = [action] + ([draw(FUZZ_INTS)] if action == "find"
                           else list(draw(FUZZ_PARAMS)))
    elif command == "color":
        tail = ([draw(files)] + flag(draw(files)) + flag(*alexander)
                + flag("--backend", draw(st.sampled_from(("brute", "linear"))))
                + flag("--list") + flag("--one-indexed"))
    elif command == "fig8-system":
        tail = ([draw(FUZZ_INTS), draw(st.sampled_from(("left", "right")))]
                + alexander + flag("--list"))
    elif command == "distinguish":
        tail = ([draw(files), draw(files)]
                + flag("--alexander-max-n", draw(FUZZ_INTS)))
    elif command == "gen":
        name = draw(st.sampled_from(
            ("braid", "fig9-left", "fig9-right", "fig8-left", "nonsense")))
        letters = st.sampled_from(("s1", "t1", "s2'", "t3", "s9", "q1"))
        tail = ([name] + flag(draw(FUZZ_INTS))
                + draw(st.lists(letters, max_size=4)))
    else:
        tail = [draw(FUZZ_INTS)] + flag("--up-to-iso")
    if draw(st.integers(0, 3)) == 0:
        tail = draw(st.permutations(tail))
    return [command] + tail


@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_argv())
@example(["gen", "braid", str(10 ** 20), "s1"])
def test_cli_fuzz_exits_0_1_or_2(tmp_path, argv):
    (tmp_path / "fig9.diagram").write_text(serialize_diagram(gen_fig9_left()))
    (tmp_path / "alex.tables").write_text(
        serialize_tables(build_tables(AlexanderParams(5, 4, 3))))
    (tmp_path / "malformed").write_text("n 2\nstar\n0 1\n")
    (tmp_path / "a-directory").mkdir(exist_ok=True)
    argv = [str(tmp_path / a) if a in FUZZ_FILES else a for a in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
