from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_out_of_memory_exits_2(capsys, monkeypatch):
    import singquandles.cli as cli_module

    def exhausted(word):
        raise MemoryError

    monkeypatch.setattr(cli_module, "braid_closure", exhausted)
    got = run_cli(capsys, "gen", "braid", "2000000000")
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
