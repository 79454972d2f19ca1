"""Command-line front end: single-point runs, table reproduction, paths.

Output formats: text (methods as rows for eyeballing), CSV (one row per
(method, theta), 9 significant digits), and JSON (schema-stable keys
{query, results[], deltas[], timings} for every successful run). All
configuration arrives through flags; nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
import time

from .errors import DomainError, LogMgfError
from .gaussian import RngSeed
from .lambertw import mgf_asmussen
from .montecarlo import McConfig, mgf_monte_carlo
from .tables import TABLES
from .thintile import TileGridConfig, build_grid, mgf_thintile
from .types import Method, MgfQuery
from .zeroentropy import (
    ZeroEntropyConfig,
    ensemble_moments,
    integrate,
    mgf_zero_entropy,
    simulate_paths,
    trajectory_csv,
)

_METHOD_ORDER = tuple(Method)
_ALIASES = {m.value: m for m in Method} | {
    "zero-entropy": Method.ZERO_ENTROPY,
    "zero": Method.ZERO_ENTROPY,
    "thin-tile": Method.THIN_TILE,
    "tile": Method.THIN_TILE,
    "laplace": Method.LAPLACE_W,
    "lambert": Method.LAPLACE_W,
    "mc": Method.MONTE_CARLO,
}


def _parse_methods(spec: str) -> list[Method]:
    if spec.strip().lower() == "all":
        return list(_METHOD_ORDER)
    out = set()
    for name in spec.split(","):
        key = name.strip().lower()
        if key not in _ALIASES:
            raise argparse.ArgumentTypeError(f"unknown method {name!r}")
        out.add(_ALIASES[key])
    if not out:
        raise argparse.ArgumentTypeError("no methods selected")
    return [m for m in _METHOD_ORDER if m in out]


def _runners(methods: list[Method], args) -> dict:
    """Method -> callable(q) for each selected method, in the given order.

    Every config is built here, before any method runs, so a bad engine flag
    (e.g. --steps 5) raises its DomainError as bad input, exit 2, rather than
    as one error row per point. The mgf_* functions are looked up each time
    this runs, not at import, so names rebound in this module are the ones run.
    """
    runners = {}
    for method in methods:
        if method is Method.ZERO_ENTROPY:
            run = functools.partial(mgf_zero_entropy, cfg=ZeroEntropyConfig(steps=args.steps))
        elif method is Method.THIN_TILE:
            run = functools.partial(mgf_thintile, cfg=TileGridConfig(n_pairs=args.n_pairs))
        elif method is Method.MONTE_CARLO:
            cfg = McConfig(n_samples=args.mc_samples, seed=RngSeed(args.seed))
            run = functools.partial(mgf_monte_carlo, cfg=cfg)
        else:
            run = mgf_asmussen
        runners[method] = run
    return runners


def _run_report(q: MgfQuery, runners: dict, table_id: int | None = None) -> dict:
    """One point's JSON document {query, results[], deltas[], timings}.

    Each result holds method, then value or error, then diagnostics if there
    are any, then paper_value in table runs.
    """
    results, timings = [], {}
    for method, run in runners.items():
        t0 = time.perf_counter()
        row = {"method": method.value}
        try:
            est = run(q)
            row["value"] = est.value
            if est.diagnostics:
                row["diagnostics"] = est.diagnostics
        except LogMgfError as exc:
            row["error"] = str(exc)
        timings[method.value] = (time.perf_counter() - t0) * 1e3
        if table_id is not None:
            row["paper_value"] = TABLES[table_id].paper_value(method, q.theta)
        results.append(row)
    deltas = []
    for a, b in itertools.combinations([r for r in results if "value" in r], 2):
        d = abs(a["value"] - b["value"])
        scale = max(abs(a["value"]), abs(b["value"]))
        deltas.append(
            {"a": a["method"], "b": b["method"], "abs": d, "rel": d / scale if scale > 0 else 0.0}
        )
    return {
        "query": {"mu": q.mu, "sigma": q.sigma, "theta": q.theta},
        "results": results,
        "deltas": deltas,
        "timings": timings,
    }


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _print_report_text(report: dict, out) -> None:
    q = report["query"]
    out.write(f"mu={_fmt(q['mu'])} sigma={_fmt(q['sigma'])} theta={_fmt(q['theta'])}\n")
    for r in report["results"]:
        ms = report["timings"][r["method"]]
        if "value" in r:
            line = f"  {r['method']:<13} {_fmt(r['value']):>14}  [{ms:.1f} ms]"
        else:
            line = f"  {r['method']:<13} ERROR: {r['error']}  [{ms:.1f} ms]"
        out.write(line + "\n")
    if report["deltas"]:
        worst = max(report["deltas"], key=lambda d: d["abs"])
        out.write(f"  max pairwise delta: {worst['abs']:.3g} ({worst['a']} vs {worst['b']})\n")


def _reports_csv(reports: list[dict], out, table_id: int | None = None) -> None:
    w = csv.writer(out)
    header = ["mu", "sigma", "theta", "method", "value", "paper_value", "error", "time_ms"]
    if table_id is not None:
        header.insert(0, "table")
    w.writerow(header)
    for rep in reports:
        q = rep["query"]
        for r in rep["results"]:
            row = [
                _fmt(q["mu"]),
                _fmt(q["sigma"]),
                _fmt(q["theta"]),
                r["method"],
                _fmt(r["value"]) if "value" in r else "",
                _fmt(r["paper_value"]) if "paper_value" in r else "",
                r.get("error", ""),
                f"{rep['timings'][r['method']]:.3f}",
            ]
            if table_id is not None:
                row.insert(0, str(table_id))
            w.writerow(row)


def _emit(reports: list[dict], fmt: str, table_id: int | None = None) -> None:
    out = sys.stdout
    if fmt == "json":
        json.dump(reports if table_id is not None else reports[0], out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        _reports_csv(reports, out, table_id)
    elif table_id is not None:
        _print_table_text(reports, table_id, out)
    else:
        for rep in reports:
            _print_report_text(rep, out)


def _print_table_text(reports: list[dict], table_id: int, out) -> None:
    spec = TABLES[table_id]
    thetas = [rep["query"]["theta"] for rep in reports]
    out.write(f"table {table_id}: mu={_fmt(spec.mu)} sigma={_fmt(spec.sigma)}\n")
    head = f"{'method':<22}" + "".join(f"{_fmt(t):>15}" for t in thetas)
    out.write(head + "\n")
    # one tuple per method: its result at each theta
    for rows in zip(*(rep["results"] for rep in reports)):
        cells = [_fmt(r["value"]) if "value" in r else "ERROR" for r in rows]
        paper_cells = [_fmt(r["paper_value"]) for r in rows]
        out.write(f"{rows[0]['method']:<22}" + "".join(f"{c:>15}" for c in cells) + "\n")
        out.write(f"{'  (paper)':<22}" + "".join(f"{c:>15}" for c in paper_cells) + "\n")


def _cmd_compute(args) -> int:
    q = MgfQuery(mu=args.mu, sigma=args.sigma, theta=args.theta)
    RngSeed(args.seed)  # a bad seed is bad input (exit 2), not a per-row error
    dumps = []  # (path, write): a dump's config is input too, checked before any output
    if args.dump_grid:
        grid_cfg = TileGridConfig(n_pairs=args.n_pairs)
        dumps.append((args.dump_grid, lambda fh: build_grid(q, grid_cfg).to_csv(fh)))
    if args.dump_trajectory and q.theta == 0.0:
        print("trajectory dump skipped: theta = 0 has no trajectory", file=sys.stderr)
    elif args.dump_trajectory:
        ze_cfg = ZeroEntropyConfig(steps=args.steps)
        dumps.append((args.dump_trajectory, lambda fh: trajectory_csv(q, ze_cfg, fh)))
    report = _run_report(q, _runners(args.methods, args))
    _emit([report], args.format)
    sys.stdout.flush()  # the report stands whatever a dump then raises
    for path, write in dumps:
        try:
            with open(path, "w") as fh:
                write(fh)
        except OSError as exc:
            exc.filename = exc.filename or path  # a failed write names no file
            raise
    return 1 if any("error" in r for r in report["results"]) else 0


def _cmd_table(args) -> int:
    runners = _runners(list(_METHOD_ORDER), args)
    spec = TABLES[args.id]
    reports = []
    for theta in spec.thetas:
        q = MgfQuery(mu=spec.mu, sigma=spec.sigma, theta=theta)
        reports.append(_run_report(q, runners, table_id=args.id))
    _emit(reports, args.format, table_id=args.id)
    return 1 if any("error" in r for rep in reports for r in rep["results"]) else 0


def _cmd_paths(args) -> int:
    q = MgfQuery(mu=args.mu, sigma=args.sigma, theta=args.theta)
    if args.n < 2:
        raise DomainError(f"--n must be >= 2 for a sample variance, got {args.n}")
    # variance_kick so the reported (m_1, v_1) carries live variance dynamics,
    # the quantity the simulated spread is an oracle for
    cfg = ZeroEntropyConfig(steps=args.steps, variance_kick=True)
    ensemble = simulate_paths(q, args.n, args.steps, RngSeed(args.seed))
    moments = ensemble_moments(ensemble.terminal_values)
    state = integrate(q, cfg)
    n = ensemble.n_paths
    if n > 1:
        se_mean = (moments["variance"] / n) ** 0.5
        se_var = moments["variance"] * (2.0 / (n - 1)) ** 0.5
    if n < 2 or se_mean == 0.0 or se_var == 0.0:
        # one path retained, the others overflowed, or e.g. a sigma so
        # small that the squared deviations underflow
        raise DomainError(
            f"ensemble variance {moments['variance']:.3g} over {n} retained paths "
            f"has no standard error at sigma={_fmt(q.sigma)}"
        )
    rows = {
        "n_paths": float(n),
        "n_overflowed": float(ensemble.n_overflowed),
        "ensemble_mean": moments["mean"],
        "ensemble_variance": moments["variance"],
        "ensemble_skewness": moments["skewness"],
        "ensemble_excess_kurtosis": moments["excess_kurtosis"],
        "ode_m_1": state.m,
        "ode_v_1": state.v,
        "standardized_mean_diff": (moments["mean"] - state.m) / se_mean,
        "standardized_variance_diff": (moments["variance"] - state.v) / se_var,
    }
    if args.format == "json":
        doc = {
            "query": {"mu": q.mu, "sigma": q.sigma, "theta": q.theta},
            "results": rows,
        }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["quantity", "value"])
        for k, v in rows.items():
            w.writerow([k, _fmt(v)])
    else:
        print(f"mu={_fmt(q.mu)} sigma={_fmt(q.sigma)} theta={_fmt(q.theta)}")
        for k, v in rows.items():
            print(f"  {k:<27} {_fmt(v)}")
    return 0


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=2000,
                   help="Euler steps for the moment/variance system (zero_entropy "
                        "at theta > 0 and --dump-trajectory; theta < 0 is solved "
                        "exactly)")
    p.add_argument("--n-pairs", type=int, default=80_000,
                   help="tile pairs for the thin_tile grid")
    p.add_argument("--mc-samples", type=int, default=1_000_000,
                   help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmgf",
        description="Lognormal MGF by four cross-validating numerical methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one (mu, sigma, theta) point")
    _add_query_flags(p_compute)
    p_compute.add_argument("--methods", type=_parse_methods, default=list(_METHOD_ORDER),
                           help="comma list of zero_entropy,thin_tile,laplace_w,monte_carlo or 'all'")
    _add_engine_flags(p_compute)
    p_compute.add_argument("--dump-grid", metavar="PATH", default=None,
                           help="write the tile grid as CSV n,x_n,s_n,dA_n,A_n")
    p_compute.add_argument("--dump-trajectory", metavar="PATH", default=None,
                           help="write the Euler trajectory as CSV i,t,m,v")
    p_compute.set_defaults(func=_cmd_compute)

    p_table = sub.add_parser("table", help="reproduce a published comparison table")
    p_table.add_argument("--id", type=int, choices=sorted(TABLES), required=True)
    _add_engine_flags(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_paths = sub.add_parser("paths", help="path-ensemble diagnostics vs the moment ODEs")
    _add_query_flags(p_paths)
    p_paths.add_argument("--n", type=int, default=100_000, help="number of paths")
    p_paths.add_argument("--steps", type=int, default=2000)
    p_paths.add_argument("--seed", type=int, default=0)
    p_paths.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_paths.set_defaults(func=_cmd_paths)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    A DomainError (bad input) exits 2 and any other LogMgfError exits 1, each
    with one line on stderr instead of a traceback; so do a MemoryError and an
    OSError, as from a size too large to allocate or an output that cannot be
    written. A reader that closes stdout early (`| head`) ends the run quietly, exit 1.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except (LogMgfError, MemoryError, OSError) as exc:
        if not isinstance(exc, BrokenPipeError):  # a closed reader is not an error
            what = "out of memory: " if isinstance(exc, MemoryError) else ""
            print(f"logmgf: error: {what}{exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout cannot take its output: let the exit flush write nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2 if isinstance(exc, DomainError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
