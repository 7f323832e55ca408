"""Command-line front-end.

Exit codes: 0 success, 1 check-failed or not-separated, 2 usage or parse
error, or a result too large to build or print.  Reports go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .alexander import AlexanderParams, build_tables, find_params
from .axioms import check_all, check_table
from .coloring import (count_colorings_bruteforce, count_colorings_linear,
                       distinguish, fig8_system_count, serialize_report)
from .diagrams import (DiagramParseError, gen_fig9_left, gen_fig9_right,
                       parse_diagram, serialize_diagram)
from .enumeration import MAX_ORDER, enumerate_singquandles, serialize_census
from .tables import (OpTable, Singquandle, TableParseError, parse_tables,
                     serialize_tables)
from .tangles import braid_closure, parse_word


class _UsageError(Exception):
    pass


def _decimal(count: int) -> str:
    """count in decimal, refused past the interpreter's limit on int-to-str
    conversion (4300 digits by default)."""
    try:
        return str(count)
    except ValueError:
        raise _UsageError("the count has too many digits to print") from None


def _write_report(report) -> None:
    _decimal(report.count)      # refused here, before anything is written
    sys.stdout.write(serialize_report(report))


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _load_tables(path: str, one_indexed: bool):
    try:
        return parse_tables(_read_file(path), one_indexed=one_indexed)
    except TableParseError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _load_diagram(path: str):
    try:
        return parse_diagram(_read_file(path))
    except DiagramParseError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _params(values) -> AlexanderParams:
    try:
        return AlexanderParams(*values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _print_axioms(report) -> None:
    for r in report:
        if r.holds:
            print(f"{r.axiom}: ok")
        else:
            print(f"{r.axiom}: FAIL at {r.witness}: {r.lhs} != {r.rhs}")


def cmd_check(ns) -> int:
    obj = _load_tables(ns.tables, ns.one_indexed)
    if isinstance(obj, Singquandle):
        report = check_all(obj)
        _print_axioms(report)
        print("verified" if report.all_hold else "not verified")
    else:
        report = check_table(obj)
        _print_axioms(report)
        print("involutive quandle" if report.all_hold
              else "not an involutive quandle")
    return 0 if report.all_hold else 1


def cmd_alexander(ns) -> int:
    if ns.action == "find":
        try:
            params = find_params(ns.n)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        for p in params:
            print(f"{p.t} {p.b}")
        return 0
    p = _params((ns.n, ns.t, ns.b))
    sys.stdout.write(serialize_tables(build_tables(p)))
    return 0


def cmd_color(ns) -> int:
    diagram = _load_diagram(ns.diagram)
    if ns.alexander is not None and ns.tables is not None:
        raise _UsageError("give either a tables file or --alexander, not both")
    if ns.alexander is not None:
        p = _params(ns.alexander)
        if ns.backend == "linear":
            report = count_colorings_linear(diagram, p, ns.list_colorings)
        else:
            report = count_colorings_bruteforce(
                diagram, build_tables(p), ns.list_colorings)
    else:
        if ns.tables is None:
            raise _UsageError("need a tables file or --alexander n t b")
        if ns.backend == "linear":
            raise _UsageError("the linear backend requires --alexander")
        obj = _load_tables(ns.tables, ns.one_indexed)
        if isinstance(obj, OpTable):
            if diagram.singular_count:
                raise _UsageError(
                    "bare quandle tables cannot color singular crossings; "
                    "provide r1 and r2 blocks")
            obj = Singquandle(obj, obj, obj)
        report = count_colorings_bruteforce(diagram, obj, ns.list_colorings)
    _write_report(report)
    if report.truncated:
        print("note: coloring list truncated", file=sys.stderr)
    return 0


def cmd_fig8_system(ns) -> int:
    p = _params(ns.alexander)
    try:
        report = fig8_system_count(ns.k, ns.side, p, ns.list_colorings)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _write_report(report)
    return 0


def cmd_distinguish(ns) -> int:
    if ns.alexander_max_n < 2:
        raise _UsageError(
            f"--alexander-max-n must be at least 2, got {ns.alexander_max_n}")
    d1 = _load_diagram(ns.diagram1)
    d2 = _load_diagram(ns.diagram2)
    family = [p for n in range(2, ns.alexander_max_n + 1) for p in find_params(n)]
    verdict = distinguish(d1, d2, family)
    if verdict.separated:
        p = verdict.structure
        c1, c2 = verdict.counts
        print(f"separated at (n={p.n}, t={p.t}, b={p.b}): "
              f"counts {_decimal(c1)} vs {_decimal(c2)}")
        return 0
    print("not separated")
    return 1


def cmd_gen(ns) -> int:
    name = ns.name
    if name == "fig9-left":
        diagram = gen_fig9_left()
    elif name == "fig9-right":
        diagram = gen_fig9_right()
    elif name == "braid":
        if not ns.args:
            raise _UsageError("braid needs a strand count: gen braid <k> [letters...]")
        try:
            k = int(ns.args[0])
        except ValueError:
            raise _UsageError(f"bad strand count {ns.args[0]!r}") from None
        try:
            word = parse_word(" ".join(ns.args[1:]), strands=k)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        diagram = braid_closure(word)
    elif name in ("fig8-left", "fig8-right"):
        raise _UsageError(
            "the two-strand twist diagrams are not reconstructible from text; "
            "use the fig8-system command for their printed equation systems")
    else:
        raise _UsageError(f"unknown generator {name!r}")
    sys.stdout.write(serialize_diagram(diagram))
    return 0


def cmd_enumerate(ns) -> int:
    try:
        census = enumerate_singquandles(ns.n, up_to_iso=ns.up_to_iso)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    sys.stdout.write(serialize_census(census))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singquandles",
        description="Coloring invariants of singular links by involutive singquandles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a table file")
    p.add_argument("tables", help="table file (star alone, or star/r1/r2)")
    p.add_argument("--one-indexed", action="store_true",
                   help="table entries are 1..n (reports stay 0-indexed)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("alexander", help="linear structures over Z_n")
    act = p.add_subparsers(dest="action", required=True)
    q = act.add_parser("find", help="list valid (t, b) pairs for a modulus")
    q.add_argument("n", type=int)
    q = act.add_parser("tables", help="print the tables of (n, t, b)")
    q.add_argument("n", type=int)
    q.add_argument("t", type=int)
    q.add_argument("b", type=int)
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("color", help="count colorings of a diagram")
    p.add_argument("diagram", help="diagram file")
    p.add_argument("tables", nargs="?", help="table file for the structure")
    p.add_argument("--alexander", nargs=3, type=int, metavar=("N", "T", "B"),
                   help="use the linear structure (n, t, b)")
    p.add_argument("--backend", choices=("brute", "linear"), default="brute")
    p.add_argument("--list", dest="list_colorings", action="store_true",
                   help="also print the colorings")
    p.add_argument("--one-indexed", action="store_true",
                   help="table file entries are 1..n")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("fig8-system",
                       help="count solutions of the printed two-strand systems")
    p.add_argument("k", type=int)
    p.add_argument("side", choices=("left", "right"))
    p.add_argument("--alexander", nargs=3, type=int, metavar=("N", "T", "B"),
                   required=True)
    p.add_argument("--list", dest="list_colorings", action="store_true")
    p.set_defaults(func=cmd_fig8_system)

    p = sub.add_parser("distinguish",
                       help="separate two diagrams by scanning linear structures")
    p.add_argument("diagram1")
    p.add_argument("diagram2")
    p.add_argument("--alexander-max-n", type=int, default=10, metavar="N",
                   help="scan valid (n, t, b) with 2 <= n <= N (default 10)")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("gen", help="emit a named diagram or a braid closure")
    p.add_argument("name", help="fig9-left | fig9-right | braid <k> [letters...]")
    p.add_argument("args", nargs="*", help="braid strand count and letters")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enumerate", help="census of structures of one order")
    p.add_argument("n", type=int, help=f"order, 1..{MAX_ORDER}")
    p.add_argument("--up-to-iso", action="store_true",
                   help="also list canonical representatives")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.func(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the result is too large", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
