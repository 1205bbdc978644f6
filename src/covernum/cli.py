"""Command line front end.

Subcommands: gen, invariant, recognize, cover, solve, verify.  Graph input
comes from a file argument or stdin in graph6, edge list, or DIMACS form.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 capacity, 4 no constructive path for the class, 5 solver budget, 141
(128 + SIGPIPE, as a shell reports a process a closed pipe killed) the
reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .covers import certificate_to_json, formula_cover
from .formats import ParseError, emit_graph6, parse_graph
from .generators import parse_family_spec
from .graphs import CapacityError, Graph
from .invariants import chromatic_number, clique_number
from .recognizers import CLASSES, class_f, in_class, is_perfect, parse_class_spec
from .solver import BudgetError, SolveBudget, decide_cover, exact_cover_number
from .verify import SUITES, run_suite


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_graph(text, args.format)


def _emit(obj) -> None:
    # A witness's f_omega can pass the int-to-str digit limit; lift it only
    # while serialising, so parsing input keeps it.  Python 3.10.0-3.10.6
    # have no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj, indent=2)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    print(emit_graph6(parse_family_spec(args.family)))
    return 0


def _cmd_invariant(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    want_chi = args.chi or not (args.chi or args.omega)
    want_omega = args.omega or not (args.chi or args.omega)
    out = {}
    if want_chi:
        chi, coloring = chromatic_number(g)
        out["chi"] = chi
        out["coloring"] = list(coloring.colors)
    if want_omega:
        # chi bounds omega, so the clique search may stop there
        omega, witness = clique_number(g, out.get("chi"))
        out["omega"] = omega
        out["clique"] = list(witness.vertices)
    _emit(out)
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    spec = parse_class_spec(args.cls)
    g = _read_graph(args)
    if spec.kind == "perfect":
        # one perfection test gives both the verdict and the failure witness
        member, bad = is_perfect(g)
        witness = {"class": str(spec)} if member else {"kind": bad[0], "vertices": list(bad[1])}
    else:
        witness = in_class(g, spec)
        member = witness is not None
    _emit({"class": str(spec), "member": member, "witness": witness})
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    spec = parse_class_spec(args.cls)
    if class_f(spec) is None:
        print(
            f"no constructive cover for class {spec}; "
            f"use `covernum solve --class {spec}` for the exact oracle",
            file=sys.stderr,
        )
        return 4
    _emit(certificate_to_json(formula_cover(_read_graph(args), spec)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = parse_class_spec(args.cls)
    g = _read_graph(args)
    budget = SolveBudget(max_edges=args.max_edges)
    if args.decision is not None:
        cert = decide_cover(g, spec, args.decision, budget)
        out = {
            "class": str(spec),
            "decision": args.decision,
            "present": cert is not None,
            "certificate": certificate_to_json(cert) if cert is not None else None,
        }
        _emit(out)
        return 0
    res = exact_cover_number(g, spec, budget)
    out = {
        "class": str(spec),
        "value": res.value,
        "method": res.stats.method,
        "family_size": res.stats.family_size,
        "nodes": res.stats.nodes,
        "certificate": certificate_to_json(res.certificate),
    }
    _emit(out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    start = time.monotonic()
    report = run_suite(args.suite, n_max=args.n_max, samples=args.samples, seed=args.seed)
    elapsed = time.monotonic() - start
    _emit(report)
    # stdout stays deterministic for golden files; timing goes to stderr
    print(f"# suite {args.suite}: {elapsed:.1f}s", file=sys.stderr)
    return 0 if report["passed"] else 1


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-",
                   help="graph file, or - for stdin (default)")
    p.add_argument("--format", choices=("graph6", "edgelist", "dimacs"),
                   default=None, help="force input format instead of auto-detect")


def _class_forms(constructive: bool = False) -> list:
    """Each registry kind as --class takes it, with its parameter; only the
    colouring classes, which have a cover formula, where constructive."""
    return [kind if entry.param is None else f"{kind}:<{entry.param}>"
            for kind, entry in CLASSES.items() if entry.f is not None or not constructive]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covernum",
        description="Exact edge covers of graphs by hereditary-style classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family graph as graph6")
    p.add_argument("family", help="e.g. complete:4, cycle:5, hypercube:3, kkl:2,4")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("invariant", help="chromatic and clique numbers with witnesses")
    _add_input_args(p)
    p.add_argument("--chi", action="store_true", help="chromatic number only")
    p.add_argument("--omega", action="store_true", help="clique number only")
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("recognize", help="class membership with witness")
    _add_input_args(p)
    p.add_argument("--class", dest="cls", required=True,
                   help=" | ".join(_class_forms()))
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("cover", help="formula-sized cover by construction")
    _add_input_args(p)
    p.add_argument("--class", dest="cls", required=True,
                   help="constructive classes: " + ", ".join(_class_forms(constructive=True)))
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("solve", help="exact minimum cover: bounds, greedy covers, then enumeration")
    _add_input_args(p)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--decision", type=int, default=None, metavar="K",
                   help="decide coverability with at most K parts")
    p.add_argument("--max-edges", type=int, default=SolveBudget().max_edges,
                   help="enumeration budget (default %(default)s)")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="run a cross-checking suite")
    p.add_argument("suite", help=" | ".join(SUITES))
    p.add_argument("--n-max", type=int, default=None,
                   help="largest corpus graph (chibound, chain, inclusion); other suites exit 2")
    p.add_argument("--samples", type=int, default=None,
                   help="random graphs per n above 5 (chibound, chain, inclusion); "
                        "other suites exit 2")
    p.add_argument("--seed", type=int, default=None,
                   help="corpus seed (chibound, chain, inclusion); other suites exit 2")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at the null device, where the flush at interpreter
        # exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 5
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
