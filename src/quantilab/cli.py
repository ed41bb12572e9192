"""Command-line front end: grid solving, dilatation, rate constants and
the reproduction experiments, with deterministic text/CSV/JSON output."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import analysis, dilatation
from .distributions import (
    DistributionSpec,
    UnsupportedDimensionError,
    c_fr,
    zador_q,
)
from .quantizer import DilationParams, Grid, dilate, distortion
from .solver import (
    GridCache,
    SolverError,
    SolverOpts,
    exp_optimal_grid,
    optimal_grid,
    solve,
)

_NUMERIC_FAILURES = (
    SolverError,
    ArithmeticError,  # QuadratureError, and OverflowError in the closed forms
    UnsupportedDimensionError,
    dilatation.AdmissibilityError,
)


def _add_dist_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dist",
        choices=["gaussian", "exponential", "gamma"],
        default="gaussian",
        help="distribution family (default gaussian)",
    )
    p.add_argument("--m", type=float, default=0.0, help="Gaussian mean")
    p.add_argument("--sigma2", type=float, default=1.0, help="Gaussian variance")
    p.add_argument(
        "--lambda", dest="lam", type=float, default=1.0, help="exponential/Gamma rate"
    )
    p.add_argument("--a", type=float, default=None, help="Gamma shape")
    p.add_argument("--d", type=int, default=1, help="dimension (constants only)")


def _spec_from_args(args, parser: argparse.ArgumentParser) -> DistributionSpec:
    if args.dist == "gaussian":
        return DistributionSpec.gaussian(args.m, args.sigma2, args.d)
    if args.dist == "exponential":
        return DistributionSpec.exponential(args.lam)
    if args.a is None:
        parser.error("the gamma family needs --a")
    return DistributionSpec.gamma(args.a, args.lam)


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cache_from_args(args) -> GridCache | None:
    if getattr(args, "cache_dir", None):
        return GridCache(args.cache_dir)
    return GridCache.from_env()


def _grid_text(grid: Grid, fmt: str) -> str:
    return grid.to_json() + "\n" if fmt == "json" else grid.to_text()


def _read_grid(path: str) -> Grid:
    text = Path(path).read_text()
    if text.lstrip().startswith("["):
        return Grid.from_json(text)
    return Grid.from_text(text)


def _payload_text(payload: dict[str, object], fmt: str) -> str:
    """``key = value`` lines, floats to 9 significant digits, or indented
    JSON with infinities written as the string "inf"."""
    if fmt == "json":
        clean = {
            k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
            for k, v in payload.items()
        }
        return json.dumps(clean, indent=2, default=str) + "\n"
    return "".join(
        f"{k} = {v:.9g}\n" if isinstance(v, float) else f"{k} = {v}\n"
        for k, v in payload.items()
    )


def _rows_text(rows, fmt: str) -> str:
    if fmt == "csv":
        return analysis.rows_to_csv(rows)
    if fmt == "json":
        payload = [
            {
                "n": row.n,
                "a_hat": row.a_hat,
                "b_hat": row.b_hat,
                "eps_rmse": row.eps_rmse,
                "eps_maxabs": row.eps_maxabs,
                "status": row.status,
            }
            for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"{'n':>5} {'a_hat':>14} {'b_hat':>14} {'eps_rmse':>12} {'eps_maxabs':>12}"]
    for row in rows:
        if row.status != "ok":
            lines.append(f"{row.n:>5} {row.status}")
            continue
        lines.append(
            f"{row.n:>5} {row.a_hat:>14.9g} {row.b_hat:>14.6g} "
            f"{row.eps_rmse:>12.6g} {row.eps_maxabs:>12.6g}"
        )
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantilab",
        description="L^r-optimal 1-D quantizer grids, dilatation and rate constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="solve an L^r-optimal grid")
    _add_dist_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--grad-tol", type=float, default=1e-10)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("exp-grid", help="exponential grid via the exact recursion")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("dilate", help="apply x -> mu + theta (x - mu) to a grid file")
    p.add_argument("--grid-file", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("distortion", help="r-th power quantization error of a grid")
    _add_dist_flags(p)
    p.add_argument("--grid-file", required=True)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("theta-star", help="optimal scaling number for (r, s)")
    _add_dist_flags(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("constants", help="rate constants for one (r, s, theta) query")
    _add_dist_flags(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--theta", type=float, default=None, help="default theta_star")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--j-const", type=float, default=None, help="cube coefficient for d >= 2")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None)

    for name, blurb in (
        ("table1", "Gaussian grid regression table"),
        ("table2", "exponential grid regression table"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--s", type=float, default=1.0, help="response exponent (r=2)")
        p.add_argument("--full-tables", action="store_true", help="sizes up to 900")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--format", choices=["csv", "json", "text"], default="csv")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser(
        "empirical-check",
        help="bin discrepancy of the theta_star-dilated optimal grid",
    )
    _add_dist_flags(p)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("counterexample", help="Gamma(7,1) identity failure numbers")
    p.add_argument("-o", "--output", default=None)

    return parser


def _run(args, parser: argparse.ArgumentParser) -> int:
    cmd = args.command

    if cmd == "grid":
        spec = _spec_from_args(args, parser)
        opts = SolverOpts(grad_tol=args.grad_tol)
        grid = optimal_grid(spec, args.n, args.r, opts, cache=_cache_from_args(args))
        _emit(_grid_text(grid, args.format), args.output)
        return 0

    if cmd == "exp-grid":
        grid = exp_optimal_grid(args.n, args.r, args.lam)
        _emit(_grid_text(grid, args.format), args.output)
        return 0

    if cmd == "dilate":
        grid = dilate(_read_grid(args.grid_file), DilationParams(args.theta, args.mu))
        _emit(_grid_text(grid, args.format), args.output)
        return 0

    if cmd == "distortion":
        spec = _spec_from_args(args, parser)
        val = distortion(_read_grid(args.grid_file), spec, args.r)
        _emit(f"{val:.12g}\n", args.output)
        return 0

    if cmd == "theta-star":
        spec = _spec_from_args(args, parser)
        _emit(f"{dilatation.theta_star(spec, args.r, args.s):.9g}\n", args.output)
        return 0

    if cmd == "constants":
        spec = _spec_from_args(args, parser)
        ts = dilatation.theta_star(spec, args.r, args.s)
        theta = args.theta if args.theta is not None else ts
        payload: dict[str, object] = {
            "c_fr": c_fr(spec, args.r),
            "q_r": zador_q(spec, args.r, j_const=args.j_const),
            "theta_star": ts,
            "theta": theta,
        }
        lo, _ = dilatation.admissible_theta_range(spec, args.r, args.s)
        payload["theta_min"] = lo
        if spec.d == 1:
            query = dilatation.RateQuery(spec, args.r, args.s, theta, args.mu)
            consts = dilatation.rate_constants(query)
            payload.update(
                q_inf=consts.q_inf,
                q_sup_sub=consts.q_sup_sub,
                condition_integral=consts.condition_integral,
                theta_admissible=consts.theta_admissible,
            )
        _emit(_payload_text(payload, args.format), args.output)
        return 0

    if cmd in ("table1", "table2"):
        spec = (
            DistributionSpec.gaussian()
            if cmd == "table1"
            else DistributionSpec.exponential()
        )
        ns = analysis.FULL_TABLE_SIZES if args.full_tables else analysis.CI_TABLE_SIZES
        rows = analysis.table_experiment(
            spec, 2.0, args.s, ns, cache=_cache_from_args(args)
        )
        _emit(_rows_text(rows, args.format), args.output)
        return 0

    if cmd == "empirical-check":
        spec = _spec_from_args(args, parser)
        grid = solve(spec, args.n, args.r, cache=_cache_from_args(args))
        theta = dilatation.theta_star(spec, args.r, args.s)
        mu = dilatation.default_mu(spec)
        dilated = dilate(grid, DilationParams(theta, mu))
        report = analysis.empirical_discrepancy(dilated, spec, args.s, args.bins)
        payload = {
            "n": report.n,
            "bins": args.bins,
            "theta_star": theta,
            "max_discrepancy": report.max_discrepancy,
        }
        _emit(_payload_text(payload, args.format), args.output)
        return 0

    if cmd == "counterexample":
        res = analysis.gamma_counterexample()
        _emit(
            f"lhs = {res.lhs:.12g}\nrhs = {res.rhs:.12g}\n"
            f"identity violated: {'no' if res.holds else 'yes'}\n",
            args.output,
        )
        return 0

    parser.error(f"unknown command {cmd!r}")
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, parser)
    except _NUMERIC_FAILURES as err:
        print(f"quantilab: numeric failure: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        # the library rejects invalid arguments with ValueError; OSError is
        # an unreadable --grid-file or unwritable -o path
        print(f"quantilab: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
