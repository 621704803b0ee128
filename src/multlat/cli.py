"""Command-line front end.

Subcommands: validate, analyze, graph, ring, search.  Reports go to stdout
as a single JSON object (or JSON lines for sweeps and searches); diagnostics
go to stderr.  Exit codes are stable:

  0  success / verdict holds
  1  analysis succeeded and the verdict is "fails" (or a search found one)
  2  invalid structure (order, lattice, ideal, or multiplication axioms)
  3  I/O or parse error, including a closed standard output
  4  solver timeout (a partial report is still printed)

A sweep or a search exits 1 if any verdict fails or any finding exists,
else 4 if any instance timed out or was skipped, else 0.  Usage errors,
such as a malformed family spec, a --timeout that is not a finite number
of seconds >= 0 or a run with nothing to analyse (--sweep A..B with A > B,
no spec in --families), exit 2 with one line on stderr.

All randomness is seed-injected via flags; identical inputs and seeds give
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (LatticeError, LatticeFileError, SelfCheckError,
                     SolverTimeout)
from .fileio import load_lattice_file
from .fixtures import FIXTURE_NAMES, fixture
from .multiplication import MULT_KINDS, attach_multiplication
from .report import VERDICT_FAILS, analyze
from .rings import analyze_ring
from .search import search_counterexamples
from .solvers import DEFAULT_SOLVER_BUDGET, chromatic_number
from .zdgraph import export_dot, mult_zero_divisor_graph, order_zero_divisor_graph

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_TIMEOUT = 4


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _exit_status(failed: bool, timed_out: bool) -> int:
    """The exit code of a run of one or more instances (module docstring)."""
    if failed:
        return EXIT_FAILS
    return EXIT_TIMEOUT if timed_out else EXIT_OK


def _emit(obj: dict, indent: int | None = 2) -> None:
    print(json.dumps(obj, sort_keys=True, indent=indent, ensure_ascii=False))


def _load_instance(args) -> tuple[str, object, object]:
    """Resolve (instance_id, lattice, mult_lattice | None) from the args."""
    if getattr(args, "fixture", None):
        ml = fixture(args.fixture, args.mult)
        return f"fixture:{args.fixture}", ml.lattice, ml
    # A --mult meet or trivial replaces the file's own multiplication, so
    # that one is checked against the schema only.
    lat, ml = load_lattice_file(args.file, attach=args.mult in (None, "table"))
    if args.mult and args.mult != "table":
        ml = attach_multiplication(lat, args.mult)
    elif args.mult == "table" and ml is None:
        raise LatticeError("--mult table requires a table in the file")
    return f"file:{args.file}", lat, ml


def _element_index(lat, name: str) -> int:
    try:
        return lat.names.index(name)
    except ValueError:
        raise LatticeError(f"unknown element name {name!r}; elements are "
                           f"{', '.join(lat.names)}") from None


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", help="lattice file (JSON)")
    p.add_argument("--fixture", choices=FIXTURE_NAMES,
                   help="use a bundled fixture instead of a file")
    p.add_argument("--mult", choices=MULT_KINDS,
                   help="override the multiplication")


def cmd_validate(args) -> int:
    try:
        lat, ml = load_lattice_file(args.file)
    except LatticeFileError as exc:
        _emit({"valid": False, "error": {"kind": "parse", "message": str(exc)}})
        _diag(str(exc))
        return EXIT_IO
    except LatticeError as exc:
        diag = {"kind": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "axiom"):
            diag["axiom"] = exc.axiom
            diag["witness"] = list(exc.witness)
        if getattr(exc, "pair", None):
            diag["pair"] = list(exc.pair)
        _emit({"valid": False, "error": diag})
        _diag(str(exc))
        return EXIT_INVALID
    _emit({"valid": True, "elements": lat.n,
           "multiplication": ml is not None})
    return EXIT_OK


def cmd_analyze(args) -> int:
    instance_id, lat, ml = _load_instance(args)
    if ml is None:
        raise LatticeError(
            "analysis needs a multiplication; add one to the file or pass --mult")
    element = (None if args.element is None
               else _element_index(lat, args.element))
    report = analyze(ml, element=element, instance_id=instance_id,
                     solver_budget=args.timeout)
    print(report.to_json())
    _diag(f"analyzed {instance_id} in {report.wall_time:.3f}s")
    return _exit_status(report.verdict == VERDICT_FAILS, report.timed_out)


def cmd_graph(args) -> int:
    instance_id, lat, ml = _load_instance(args)
    if args.sense == "mult":
        if ml is None:
            raise LatticeError(
                "the multiplicative sense needs a multiplication; add one to "
                "the file or pass --mult")
        element = (None if args.element is None
                   else _element_index(lat, args.element))
        graph = mult_zero_divisor_graph(ml, element)
    else:
        if args.ideal is not None:  # a set: a name given twice adds one bit
            names = args.ideal.split(",")
            ideal = sum({1 << _element_index(lat, nm) for nm in names})
        else:
            ideal = 1 << lat.bottom
        graph = order_zero_divisor_graph(lat, ideal)
    coloring = None
    if args.color:
        _, coloring = chromatic_number(graph, args.timeout)
    text = export_dot(graph, coloring=coloring)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise LatticeFileError(f"cannot write {args.dot}: {exc}") from exc
        _diag(f"wrote {graph.n_vertices} vertices / {graph.n_edges} edges "
              f"to {args.dot}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_ring(args) -> int:
    if args.sweep:
        lo, hi = args.sweep
        failed = timed_out = False
        for n in range(lo, hi + 1):
            report = analyze_ring(n, solver_budget=args.timeout)
            print(report.to_json(indent=None))
            failed |= report.verdict == VERDICT_FAILS
            timed_out |= report.timed_out
        return _exit_status(failed, timed_out)
    report = analyze_ring(args.modulus, solver_budget=args.timeout)
    print(report.to_json())
    _diag(f"analyzed ring:{args.modulus} in {report.wall_time:.3f}s")
    return _exit_status(report.verdict == VERDICT_FAILS, report.timed_out)


def cmd_search(args) -> int:
    families = [tok for tok in args.families.split(",") if tok]
    result = search_counterexamples(families, budget=args.budget,
                                    seed=args.seed,
                                    solver_budget=args.timeout)
    for finding in result.findings:
        print(json.dumps(finding, sort_keys=True, ensure_ascii=False))
    _diag(f"analyzed {result.analyzed} instance(s); "
          f"{len(result.findings)} finding(s); "
          f"{len(result.skipped)} skipped on timeout")
    for instance_id in result.skipped:
        _diag(f"skipped (timeout): {instance_id}")
    return _exit_status(bool(result.findings), bool(result.skipped))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits 2."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multlat",
        description="Analyze finite multiplicative lattices and their "
                    "zero-divisor graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a lattice file")
    p.add_argument("file", help="lattice file (JSON)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze",
                       help="full chromatic/clique analysis of one instance")
    _add_instance_flags(p)
    p.add_argument("--element", help="element for the zero-divisor graph "
                                     "(default: the bottom)")
    p.add_argument("--timeout", type=_parse_seconds, default=DEFAULT_SOLVER_BUDGET,
                   help="per-graph solver budget in seconds")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="emit a zero-divisor graph as DOT")
    _add_instance_flags(p)
    p.add_argument("--sense", choices=("order", "mult"), default="mult")
    p.add_argument("--element", help="element for the multiplicative sense")
    p.add_argument("--ideal", help="comma-separated ideal members for the "
                                   "order sense (default: the bottom)")
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.add_argument("--color", action="store_true",
                   help="fill nodes by an optimal coloring")
    p.add_argument("--timeout", type=_parse_seconds, default=DEFAULT_SOLVER_BUDGET)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("ring", help="analyze the ideal lattice of Z_n")
    p.add_argument("--modulus", type=int, help="single modulus n >= 2")
    p.add_argument("--sweep", type=_parse_range,
                   help="range A..B of moduli, one JSON line each")
    p.add_argument("--timeout", type=_parse_seconds, default=DEFAULT_SOLVER_BUDGET)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("search",
                       help="hunt for chi != omega instances over families")
    p.add_argument("--families", required=True,
                   help="comma-separated family specs, e.g. "
                        "boolean:4,divisor:2310,random:20x16,fig3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1000,
                   help="maximum number of instances to analyze")
    p.add_argument("--timeout", type=_parse_seconds, default=DEFAULT_SOLVER_BUDGET)
    p.set_defaults(func=cmd_search)

    return parser


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split("..", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must look like A..B, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"range A..B needs A <= B, got {text!r}")
    return lo, hi


def _parse_seconds(text: str) -> float:
    """A solver budget: a finite number of seconds, at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds >= 0, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ring" and (args.modulus is None) == (args.sweep is None):
        parser.error("ring needs exactly one of --modulus or --sweep")
    if args.command in ("analyze", "graph") and not (args.file or args.fixture):
        parser.error(f"{args.command} needs a file or --fixture")
    if args.command == "graph" and args.sense == "mult" and args.ideal is not None:
        parser.error("graph --ideal needs --sense order")
    if args.command == "graph" and args.sense == "order" and args.element is not None:
        parser.error("graph --element needs --sense mult")
    if args.command == "search" and not any(args.families.split(",")):
        parser.error("search needs at least one family spec")
    try:
        return args.func(args)
    except LatticeFileError as exc:
        _diag(f"error: {exc}")
        return EXIT_IO
    except SolverTimeout as exc:
        _diag(f"timeout: {exc}")
        return EXIT_TIMEOUT
    except SelfCheckError as exc:
        _diag(f"FATAL SELF-TEST FAILURE: {exc}")
        return EXIT_INVALID
    except LatticeError as exc:
        _diag(f"error: {exc}")
        return EXIT_INVALID
    except BrokenPipeError:
        # The reader closed stdout.  Point its descriptor at the null device,
        # so the interpreter's final flush of what is buffered cannot fail
        # and print an "Exception ignored" line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _diag("error: standard output was closed")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
