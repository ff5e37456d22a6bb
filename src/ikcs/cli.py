"""Command-line front end.

Structured JSON goes to stdout, human-readable summaries to stderr.  Exit
codes: 0 success, 1 negative/infeasible answer, 2 usage or input error,
3 internal consistency failure or any other unexpected error, 141
(128 + SIGPIPE) when the reader closes stdout early.  Randomized
subcommands accept --rng-seed and always echo the seed actually used.

`write_json` writes exactly the bytes of `json.dump(obj, out, indent=2,
sort_keys=True)`, but a run of plain ints or of equal-length int rows at a
time instead of one token at a time.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import asdict
from itertools import chain, starmap
from pathlib import Path

from .deg3 import ConsistencyError, min_i2cs_maxdeg3
from .exact import DEFAULT_BUDGET, min_conversion_set
from .graph import Graph, parse_edge_list
from .percolation import is_conversion_set, run, stuck_certificate
from .polymatroid import (
    NU_BRUTE_MAX_LINES,
    PolymatroidInstance,
    check_parity_count,
    complete_matching,
    max_matching,
    nu_algebraic,
    nu_bruteforce,
)
from .satred import EQUIVALENCE_BUDGET, build_reduction, check_equivalence, parse_dimacs
from .torus import construct_3cs, render_cells

__all__ = ["main", "write_json"]

AUTO_CROSSCHECK_MAX = 12
# array items per write: bounds the text held at once for 10^7-item lists
JSON_CHUNK = 4096


class UsageError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read(path))


def _parse_seed_list(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    try:
        return frozenset(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"bad seed list {text!r}, expected comma-separated ints") from None


def _edge_list_text(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges}


def write_json(obj, out, level: int = 0) -> None:
    """Write obj as `json.dump(obj, out, indent=2, sort_keys=True)` does.

    Dict keys must be str.  Arrays go out in chunks of JSON_CHUNK items:
    a chunk of exact ints (not bools) is one join, a chunk of equal-length
    rows of exact ints one `str.format` template per row; anything else
    recurses item by item, down to scalars, which the C encoder writes.
    """
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        pad = "\n" + "  " * (level + 1)
        for i, key in enumerate(sorted(obj)):
            out.write(("{" if i == 0 else ",") + pad + json.dumps(key) + ": ")
            write_json(obj[key], out, level + 1)
        out.write("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        pad = "\n" + "  " * (level + 1)
        sep = "," + pad
        out.write("[" + pad)
        for start in range(0, len(obj), JSON_CHUNK):
            chunk = obj[start:start + JSON_CHUNK]
            if start:
                out.write(sep)
            kinds = set(map(type, chunk))
            if kinds == {int}:
                out.write(sep.join(map(int.__repr__, chunk)))
                continue
            if kinds <= {list, tuple}:
                width = set(map(len, chunk))
                if len(width) == 1 and 0 not in width and set(
                    map(type, chain.from_iterable(chunk))
                ) == {int}:
                    inner = "\n" + "  " * (level + 2)
                    row = "[" + inner + ("," + inner).join(["{}"] * width.pop())
                    out.write(sep.join(starmap((row + pad + "]").format, chunk)))
                    continue
            for i, item in enumerate(chunk):
                if i:
                    out.write(sep)
                write_json(item, out, level + 1)
        out.write("\n" + "  " * level + "]")
    else:
        out.write(json.dumps(obj))


def _cmd_simulate(args, rng) -> tuple[int, dict, str]:
    g = _load_graph(args.graph)
    seed = _parse_seed_list(args.seed)
    trace = run(g, seed, args.k)
    payload = {
        "k": args.k,
        "graph": _graph_payload(g),
        "trace": trace.to_json_dict(),
    }
    if trace.converted_all:
        return 0, payload, (
            f"seed of {len(seed)} converts all {g.n} vertices "
            f"in {len(trace.rounds)} rounds"
        )
    payload["stuck_certificate"] = sorted(stuck_certificate(g, trace, args.k))
    return 1, payload, (
        f"stuck: {len(trace.final_black)}/{g.n} black after "
        f"{len(trace.rounds)} rounds"
    )


def _cmd_min_set(args, rng) -> tuple[int, dict, str]:
    g = _load_graph(args.graph)
    engine = args.engine
    if engine == "auto":
        engine = "deg3" if args.k == 2 and g.max_degree() <= 3 else "brute"
    if engine == "deg3" and (args.k != 2 or g.max_degree() > 3):
        raise UsageError("engine deg3 needs --k 2 and maximum degree <= 3")
    if engine == "deg3":
        size, witness = min_i2cs_maxdeg3(g, rng=rng)
    else:
        size, wl = min_conversion_set(g, args.k, budget_vertices=args.budget)
        witness = frozenset(wl)
    crosschecked = False
    if args.engine == "auto" and engine == "deg3" and g.n <= AUTO_CROSSCHECK_MAX:
        ref, _ = min_conversion_set(g, args.k, budget_vertices=args.budget)
        if ref != size:
            raise ConsistencyError(f"deg3 size {size} != brute size {ref}")
        crosschecked = True
    if not is_conversion_set(g, witness, args.k):
        raise ConsistencyError("reported witness does not convert the graph")
    payload = {
        "k": args.k,
        "engine": engine,
        "size": size,
        "witness": sorted(witness),
        "crosschecked": crosschecked,
        "graph": _graph_payload(g),
    }
    return 0, payload, f"minimum {args.k}-conversion set: {size} vertices ({engine})"


def _cmd_reduce_sat(args, rng) -> tuple[int, dict, str]:
    formula = parse_dimacs(_read(args.cnf))
    out = build_reduction(formula)
    payload = out.to_json_dict()
    if args.out:
        try:
            Path(args.out).write_text(_edge_list_text(out.graph))
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0, payload, (
        f"{formula.n} vars / {formula.m} clauses -> graph on "
        f"{out.graph.n} vertices, target size s = {out.s}"
    )


def _cmd_check_sat_equiv(args, rng) -> tuple[int, dict, str]:
    formula = parse_dimacs(_read(args.cnf))
    report = check_equivalence(formula, budget_vertices=args.budget)
    ok = report["match"] and report["forward_seed_ok"] is not False
    if not ok:
        return 3, report, "MISMATCH between satisfiability and seed search"
    verdict = "satisfiable" if report["satisfiable"] else "unsatisfiable"
    return 0, report, f"equivalence holds ({verdict}, s = {report['s']})"


def _cmd_torus_construct(args, rng) -> tuple[int, dict, str]:
    c = construct_3cs(args.m, args.n)
    payload = {
        "m": args.m,
        "n": args.n,
        "case": c.params.tag,
        "size": c.params.size,
        "bound": c.params.bound,
        "params": asdict(c.params),
        "cells": sorted(c.cells),
        "vertices": sorted(c.vertices),
    }
    if args.verify:
        # construct_3cs returns only a seed whose conversion run on T(m, n)
        # converted every vertex; that run is the one reported
        payload["verified"] = True
    summary = (
        f"T({args.m},{args.n}) case {c.params.tag}: "
        f"{c.params.size} black cells (bound {c.params.bound})"
    )
    if args.emit_grid:
        payload["grid"] = render_cells(args.m, args.n, c.cells)
        summary += "\n" + payload["grid"]
    return 0, payload, summary


def _cmd_polymatroid_debug(args, rng) -> tuple[int, dict, str]:
    try:
        obj = json.loads(_read(args.instance))
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad instance JSON: {exc}") from None
    except RecursionError:
        raise UsageError("bad instance JSON: nested too deeply") from None
    inst = PolymatroidInstance.from_json_dict(obj)
    # nu_algebraic's own size rule, applied before anything is ranked
    check_parity_count(inst.field.order, len(inst))
    full = inst.rank()
    nu = nu_algebraic(inst, rng=rng)
    brute = None
    if len(inst) <= NU_BRUTE_MAX_LINES:
        brute = nu_bruteforce(inst)
        if brute != nu:
            raise ConsistencyError(f"algebraic nu {nu} != brute nu {brute}")
    matching = max_matching(inst, rng=rng)
    span = complete_matching(inst, matching)
    gallai_ok = len(span) + nu == full
    payload = {
        "lines": len(inst),
        "dim": inst.dim,
        "field_bits": inst.field.w,
        "rank_full": full,
        "nu": nu,
        "nu_bruteforce": brute,
        "matching": sorted(matching),
        "min_spanning_set": sorted(span),
        "gallai_ok": gallai_ok,
    }
    if not gallai_ok:
        raise ConsistencyError("nu + rho != f(V)")
    return 0, payload, (
        f"f(V)={full}  nu={nu}  rho={len(span)}  (Gallai identity holds)"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it between calls."""
    parser = argparse.ArgumentParser(
        prog="ikcs",
        description="Irreversible k-threshold conversion toolbox.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--rng-seed", type=int, default=None,
        help="seed for all randomized steps (default: from entropy, echoed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="run the conversion process")
    p.add_argument("--k", type=int, required=True, help="conversion threshold")
    p.add_argument("--seed", required=True, help="comma-separated black vertex ids")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("min-set", parents=[common], help="minimum conversion set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--engine", choices=("brute", "deg3", "auto"), default="auto")
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="vertex cap for brute search"
    )
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=_cmd_min_set)

    p = sub.add_parser("reduce-sat", parents=[common], help="3-CNF to threshold-2 instance")
    p.add_argument("--out", help="also write the graph as an edge-list file")
    p.add_argument("cnf", help="DIMACS CNF file, 3 literals per clause")
    p.set_defaults(func=_cmd_reduce_sat)

    p = sub.add_parser(
        "check-sat-equiv", parents=[common],
        help="verify satisfiability matches the seed search on the built graph",
    )
    p.add_argument("--budget", type=int, default=EQUIVALENCE_BUDGET)
    p.add_argument("cnf", help="DIMACS CNF file")
    p.set_defaults(func=_cmd_check_sat_equiv)

    p = sub.add_parser(
        "torus-construct", parents=[common],
        help="small verified 3-conversion set of the m x n torus",
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument(
        "--verify", action="store_true",
        help="report the construction's own conversion run on T(m, n) as `verified`",
    )
    p.add_argument("--emit-grid", action="store_true", help="include ASCII grid art")
    p.set_defaults(func=_cmd_torus_construct)

    p = sub.add_parser(
        "polymatroid-debug", parents=[common],
        help="rank / matching / spanning diagnostics for an instance JSON",
    )
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=_cmd_polymatroid_debug)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return exc.code if isinstance(exc.code, int) else 2
    rng_seed = args.rng_seed
    if rng_seed is None:
        rng_seed = int.from_bytes(os.urandom(4), "big")
    rng = random.Random(rng_seed)
    try:
        code, payload, summary = args.func(args, rng)
        payload["rng_seed"] = rng_seed
        write_json(payload, sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing more can reach the reader; point stdout at the null device
        # so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if summary:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
