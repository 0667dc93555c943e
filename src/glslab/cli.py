"""Command line front end.

Subcommands: report, verify, flow, constants, logcc, search.  Outputs are
deterministic strict JSON (sorted keys, no timestamps, null for undefined
values such as a skipped bound's margin) or the fixed-column flow CSV,
written atomically when --out is given.  Every payload is the envelope
{"config", "config_sha256", ...} built by _emit_json, so runs can be tied
to their inputs; the result records in it are their to_json(), which is
each record's dataclass fields (functions.Record).

Exit codes: 0 success, 1 a bound was violated or a certificate refuted,
2 usage error (NaN or infinite float options too), 3 any lab error
(capacity, domain, positivity, ...), an unreadable or malformed family or
problem file included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import corpus
from .errors import LabError
from .measure import GaussianMeasureSpec, build_grid
from .functions import build_function, normalize
from .functionals import report as functional_report
from .ou_flow import flow_csv_rows, flow_curve
from .logconcavity import certify, certify_along_flow
from .stability import (
    StabilityBound,
    constants_table,
    improved_constant_compact,
    t_star_compact,
    t_star_tail,
    verify_bounds,
)
from .search import load_problem, run_search


def _emit(payload: str, out: str | None) -> None:
    if not payload.endswith("\n"):
        payload += "\n"
    if out is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".glslab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _strict(obj):
    """obj with every NaN or infinite float replaced by None, for strict JSON."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit_json(config: dict, body: dict, out: str | None) -> None:
    """Write {"config", "config_sha256", **body} as strict JSON."""
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    payload = {"config": config, "config_sha256": digest, **body}
    _emit(json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False), out)


def finite_float(text: str) -> float:
    """argparse type for float options: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _load_function(args: argparse.Namespace):
    if getattr(args, "builtin", None):
        entry = corpus.get(args.builtin)
        return entry.function(), {"builtin": args.builtin, "build": entry.build}
    try:
        with open(args.family, "r", encoding="utf-8") as fh:
            build = json.load(fh)
    except (OSError, ValueError) as exc:
        raise LabError(f"cannot read family file {args.family!r}: {exc}") from exc
    return build_function(build), {"family_file": args.family, "build": build}


def _grid_for(u, order: int):
    return build_grid(GaussianMeasureSpec(d=u.d), order)


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise LabError(f"cannot parse times {text!r}: {exc}") from exc
    if not times:
        raise LabError("at least one time is required")
    return times


def _apply_tol(bound: StabilityBound, tol: float | None) -> StabilityBound:
    if tol is None or bound.status == "skipped":
        return bound
    status = "verified" if bound.margin >= -tol else "violated"
    return replace(bound, status=status)


def cmd_report(args: argparse.Namespace) -> int:
    u, source = _load_function(args)
    grid = _grid_for(u, args.grid_order)
    rep = functional_report(normalize(u, grid), grid)
    config = {"command": "report", "grid_order": args.grid_order, **source}
    _emit_json(config, {"report": rep.to_json()}, args.out)
    return 0


def _verify_one(build: dict, order: int, names, eps: float, tol: float | None) -> dict:
    u = build_function(build)
    grid = _grid_for(u, order)
    bounds = verify_bounds(normalize(u, grid), grid, names=names, eps=eps)
    return {"build": build, "bounds": [_apply_tol(b, tol).to_json() for b in bounds]}


def cmd_verify(args: argparse.Namespace) -> int:
    names = tuple(args.bounds.split(",")) if args.bounds else None
    if args.all_builtin:
        records = [
            {"entry": e.name, **_verify_one(e.build, args.grid_order, names, args.eps, args.tol)}
            for e in corpus.entries()
        ]
    else:
        _, source = _load_function(args)
        result = _verify_one(source["build"], args.grid_order, names, args.eps, args.tol)
        records = [{"entry": source.get("builtin"), **result}]
    config = {
        "command": "verify",
        "grid_order": args.grid_order,
        "bounds": args.bounds,
        "eps": args.eps,
        "tol": args.tol,
        "all_builtin": args.all_builtin,
    }
    n_violated = sum(b["status"] == "violated" for rec in records for b in rec["bounds"])
    _emit_json(config, {"results": records, "n_violated": n_violated}, args.out)
    return 1 if n_violated else 0


def cmd_flow(args: argparse.Namespace) -> int:
    u, _ = _load_function(args)
    grid = _grid_for(u, args.grid_order)
    times = _parse_times(args.times)
    states = flow_curve(u, np.asarray(times), grid)
    _emit("\n".join(flow_csv_rows(states)), args.out)
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    table = constants_table()
    if args.radius:
        table["compact"] = {
            repr(r): {"t_star": t_star_compact(r), "constant": improved_constant_compact(r)}
            for r in args.radius
        }
    if args.eps:
        table["tail"] = {repr(e): {"t_star": t_star_tail(e)} for e in args.eps}
    config = {"command": "constants", "radius": args.radius, "eps": args.eps}
    _emit_json(config, {"constants": table}, args.out)
    return 0


def cmd_logcc(args: argparse.Namespace) -> int:
    u, source = _load_function(args)
    grid = _grid_for(u, args.grid_order)
    if args.time == 0:
        cert = certify(normalize(u, grid), grid, args.probes)
    else:
        ((_, cert),) = certify_along_flow(normalize(u, grid), [args.time], grid, args.probes)
    config = {
        "command": "logcc",
        "grid_order": args.grid_order,
        "time": args.time,
        "probes": args.probes,
        **source,
    }
    _emit_json(config, {"certificate": cert.to_json()}, args.out)
    return 1 if cert.status == "refuted" else 0


def cmd_search(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    if args.seed is not None:
        problem = replace(problem, seed=args.seed)
    result = run_search(problem)
    config = {"command": "search", "problem": problem.to_json(), "seed": problem.seed}
    _emit_json(config, {"result": result.to_json()}, args.out)
    return 0


def _add_function_source(p: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="path to a JSON family description")
    group.add_argument("--builtin", help="name of a built-in corpus entry")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glslab",
        description="Numerical laboratory for the Gaussian log-Sobolev deficit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="entropy, Fisher information and deficit")
    _add_function_source(p)
    p.add_argument("--grid-order", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="check the stability bounds")
    group = _add_function_source(p)
    group.add_argument("--all-builtin", action="store_true", help="run the whole corpus")
    p.add_argument("--bounds", help="comma separated bound names (default: all)")
    p.add_argument("--grid-order", type=int, default=64)
    p.add_argument(
        "--eps", type=finite_float, default=0.1, help="tail exponent for gaussian_tail"
    )
    p.add_argument(
        "--tol",
        type=finite_float,
        default=None,
        help="fixed margin tolerance; default adapts to the quadrature error",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flow", help="evolve a density and tabulate its functionals")
    _add_function_source(p)
    p.add_argument("--times", required=True, help="comma separated, strictly increasing")
    p.add_argument("--grid-order", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("constants", help="named constants and waiting times")
    p.add_argument("--radius", type=finite_float, action="append", help="compact support radius")
    p.add_argument("--eps", type=finite_float, action="append", help="tail exponent")
    p.add_argument("--out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("logcc", help="certify log-concavity, optionally after evolution")
    _add_function_source(p)
    p.add_argument("--time", type=finite_float, default=0.0)
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--grid-order", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_logcc)

    p = sub.add_parser("search", help="run a box-constrained family search")
    p.add_argument("--problem", required=True, help="path to a search problem JSON")
    p.add_argument("--seed", type=int, default=None, help="override the problem seed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
