"""Command-line entry point.

Data artifacts (matrix/graph files) go to --out or stdout and come from a
path or "-" for stdin, so subcommands can be piped; both ends are bytes,
read and written by the file codec alone.  The JSON run report goes to
stdout for checking commands (verify, mincheck, spectra, oracle) and to
stderr for data-producing ones.  Reports
deliberately exclude wall-clock fields: an identical invocation (flags,
seeds, budgets) must produce byte-identical JSON.

Exit codes: 0 success / verification pass, 1 verification failure,
2 argument or budget errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .budgets import Budgets
from .construct import (construct_ball_power, construct_cherry,
                        construct_neighborhood, read_blocking_set,
                        write_blocking_set)
from .errors import BlockforgeError
from .expander import (blowup, complete_graph, lps_graph, power_graph,
                       read_graph, second_eigenvalue, write_graph)
from .gf import field_create
from .linalg import read_matrix, write_matrix
from .mincode import LinearCode, blocking_to_code, is_s_minimal
from .supply import (read_supply, supply_mds, supply_random_verified,
                     verify_general_position, write_supply)
from .verify import (is_strong_blocking, is_strong_blocking_sampled,
                     minimum_size_search)


def _source(path: str):
    """What a reader reads for an input argument: standard input's bytes
    for "-", else the file at `path`."""
    return sys.stdin.buffer if path == "-" else path


def _target(path: str | None):
    """What a writer writes to for --out: standard output's bytes for "-"
    or no path, else the file at `path`."""
    return sys.stdout.buffer if not path or path == "-" else path


def _parse_field_arg(spec: str):
    parts = spec.split(",")
    if len(parts) == 1:
        return field_create(int(parts[0]), 1)
    if len(parts) == 2:
        return field_create(int(parts[0]), int(parts[1]))
    raise ValueError(f"--field wants 'p' or 'p,m', got {spec!r}")


def _envelope(subcommand: str, config: dict, result: dict) -> dict:
    return {"tool": "blockforge", "version": __version__,
            "subcommand": subcommand, "config": config, "result": result}


def _emit_report(report: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        _emit_text(report, stream)


def _emit_text(obj, stream, prefix="") -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                stream.write(f"{prefix}{key}:\n")
                _emit_text(val, stream, prefix + "  ")
            else:
                stream.write(f"{prefix}{key}: {val}\n")
    elif isinstance(obj, list):
        for val in obj:
            _emit_text(val, stream, prefix + "- ")
    else:
        stream.write(f"{prefix}{obj}\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_supply(args, budgets, fmt) -> int:
    fld = _parse_field_arg(args.field)
    if args.mode == "mds":
        supply = supply_mds(fld, args.k, args.n)
        report = verify_general_position(supply, args.s, args.t, budgets=budgets,
                                         seed=args.seed)
    else:
        if args.s is None or args.t is None:
            raise ValueError("random mode needs --s and --t")
        supply, report = supply_random_verified(fld, args.k, args.n, args.s,
                                                args.t, seed=args.seed,
                                                budgets=budgets)
    write_supply(_target(args.out), supply, report)
    env = _envelope("supply", {"field": args.field, "k": args.k, "n": args.n,
                               "mode": args.mode, "s": args.s, "t": args.t,
                               "seed": args.seed, "out": args.out},
                    {"provenance": supply.provenance, "report": report.to_dict()})
    _emit_report(env, fmt, sys.stderr)
    return 0


def _cmd_graph(args, budgets, fmt) -> int:
    needs = {"lps": ("p", "q"), "complete": ("n",), "power": ("u",), "blowup": ("D",)}
    for flag in needs.get(args.kind, ()):
        if getattr(args, flag) is None:
            raise ValueError(f"graph {args.kind} needs --{flag}")
    if args.kind == "lps":
        g = lps_graph(args.p, args.q)
        config = {"kind": "lps", "p": args.p, "q": args.q}
    elif args.kind == "complete":
        g = complete_graph(args.n)
        config = {"kind": "complete", "n": args.n}
    elif args.kind == "from-file":
        g = read_graph(_source(args.infile))
        config = {"kind": "from-file", "in": args.infile}
    elif args.kind == "power":
        g = power_graph(read_graph(_source(args.infile)), args.u)
        config = {"kind": "power", "in": args.infile, "u": args.u}
    else:  # blowup
        g = blowup(read_graph(_source(args.infile)), args.D)
        config = {"kind": "blowup", "in": args.infile, "D": args.D}
    write_graph(_target(args.out), g)
    env = _envelope("graph", {**config, "out": args.out},
                    {"n": g.n, "m": g.m, "regular": g.is_regular()})
    _emit_report(env, fmt, sys.stderr)
    return 0


def _cmd_spectra(args, budgets, fmt) -> int:
    g = read_graph(_source(args.graph))
    rep = second_eigenvalue(g, tol=args.tol, seed=args.seed)
    env = _envelope("spectra", {"graph": args.graph, "tol": args.tol,
                                "seed": args.seed}, rep.to_dict())
    _emit_report(env, fmt)
    return 0


def _cmd_construct(args, budgets, fmt) -> int:
    if args.graph == "-" and args.supply == "-":
        raise ValueError("--graph and --supply cannot both read standard input ('-')")
    g = read_graph(_source(args.graph))
    supply, report = read_supply(_source(args.supply))
    if report is None:
        report = verify_general_position(supply, budgets=budgets)
    if args.recipe == "cherry":
        if args.s != 2:
            raise ValueError("the cherry recipe builds strong 2-blocking sets; pass --s 2")
        b = construct_cherry(g, supply, report=report, budgets=budgets)
    elif args.recipe == "ballpower":
        b = construct_ball_power(g, supply, args.s, report=report, budgets=budgets)
    else:
        b = construct_neighborhood(g, supply, args.s, report=report,
                                   budgets=budgets)
    write_blocking_set(_target(args.out), b)
    env = _envelope("construct", {"recipe": args.recipe, "graph": args.graph,
                                  "supply": args.supply, "s": args.s, "out": args.out},
                    {"points": b.size, "provenance": b.provenance})
    _emit_report(env, fmt, sys.stderr)
    return 0


def _cmd_verify(args, budgets, fmt) -> int:
    b = read_blocking_set(_source(args.set))
    if args.sampled is not None:
        rep = is_strong_blocking_sampled(b, args.s, args.sampled, seed=args.seed)
    else:
        rep = is_strong_blocking(b, args.s, budget=budgets.subspaces,
                                 jobs=args.jobs, count_all=args.count_all)
    result = rep.to_dict()
    result["points"] = b.size
    env = _envelope("verify", {"set": args.set, "s": args.s,
                               "sampled": args.sampled, "seed": args.seed,
                               "jobs": args.jobs, "count_all": args.count_all},
                    result)
    _emit_report(env, fmt)
    return 0 if rep.passed else 1


def _cmd_convert(args, budgets, fmt) -> int:
    b = read_blocking_set(_source(args.set))
    code = blocking_to_code(b)
    write_matrix(_target(args.out), code.generator)
    env = _envelope("convert", {"set": args.set, "out": args.out},
                    {"n": code.n, "k": code.k})
    _emit_report(env, fmt, sys.stderr)
    return 0


def _cmd_mincheck(args, budgets, fmt) -> int:
    gen = read_matrix(_source(args.code))
    rep = is_s_minimal(LinearCode(gen), args.s, budget=budgets.minimal_subspaces)
    env = _envelope("mincheck", {"code": args.code, "s": args.s}, rep.to_dict())
    _emit_report(env, fmt)
    return 0 if rep.passed else 1


def _cmd_oracle(args, budgets, fmt) -> int:
    fld = _parse_field_arg(args.field)
    res = minimum_size_search(fld, args.k, args.s, budget=args.budget)
    env = _envelope("oracle", {"field": args.field, "k": args.k, "s": args.s,
                               "budget": args.budget},
                    {"size": res.size, "exact": res.exact,
                     "candidates_tested": res.candidates_tested,
                     "points": res.blocking_set.points.tolist()})
    _emit_report(env, fmt)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blockforge",
                                 description="strong blocking sets: supply, graph, spectra, construct, "
                                             "verify, convert, mincheck, oracle")
    ap.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    ap.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; exhaustive verification runs one "
                         "scan and the report does not depend on it")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    # the same flags are accepted after the subcommand as well; SUPPRESS
    # keeps a subcommand-level absence from clobbering a top-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("supply", help="build a general-position point supply")
    p.add_argument("--field", required=True, help="p or p,m")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("mds", "random"), default="mds")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("graph", help="build or transform a graph")
    p.add_argument("kind", choices=("lps", "complete", "from-file", "power", "blowup"))
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("spectra", help="second-eigenvalue bound of a regular graph")
    p.add_argument("--graph", default="-")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("construct", help="build a blocking-set candidate")
    p.add_argument("--recipe", choices=("cherry", "ballpower", "neighborhood"),
                   required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--supply", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check the strong s-blocking property")
    p.add_argument("--set", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--sampled", type=int, default=None,
                   help="check N random subspaces instead of all of them")
    p.add_argument("--count-all", action="store_true",
                   help="do not stop at the first counterexample")

    p = sub.add_parser("convert", help="blocking set -> generator matrix")
    p.add_argument("--set", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("mincheck", help="check s-minimality of a code")
    p.add_argument("--code", required=True)
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("oracle", help="exact minimum-size search (small cases)")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)

    return ap


_HANDLERS = {
    "supply": _cmd_supply,
    "graph": _cmd_graph,
    "spectra": _cmd_spectra,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "convert": _cmd_convert,
    "mincheck": _cmd_mincheck,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        budgets = Budgets.from_env()
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return _HANDLERS[args.command](args, budgets, args.format)
    except (ValueError, BlockforgeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
