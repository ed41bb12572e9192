"""Command-line front end: grid solving, dilatation, rate constants and
the reproduction experiments, with deterministic text/CSV/JSON output."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import analysis, dilatation
from .distributions import DistributionSpec, c_fr, zador_q
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
    dilatation.AdmissibilityError,
)


def _flag(*names: str, **kw) -> tuple[tuple[str, ...], dict]:
    return names, kw


_DIST_FLAGS = (
    _flag(
        "--dist",
        choices=["gaussian", "exponential", "gamma"],
        default="gaussian",
        help="distribution family (default gaussian)",
    ),
    _flag("--m", type=float, default=0.0, help="Gaussian mean"),
    _flag("--sigma2", type=float, default=1.0, help="Gaussian variance"),
    _flag("--lambda", dest="lam", type=float, default=1.0, help="exponential/Gamma rate"),
    _flag("--a", type=float, help="Gamma shape"),
    _flag("--d", type=int, default=1, help="dimension (Gaussian only)"),
)
_N = _flag("--n", type=int, required=True)
_R = _flag("--r", type=float, default=2.0)
_R_REQUIRED = _flag("--r", type=float, required=True)
_S_REQUIRED = _flag("--s", type=float, required=True)
_GRID_FILE = _flag("--grid-file", required=True)
_TEXT_JSON = ("text", "json")

# name -> (help, own flags, takes --cache-dir, --format choices, handler)
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, blurb: str, *flags, cache: bool = False, formats=()):
    """Register a subcommand whose handler returns the text to print.

    ``--cache-dir`` (if ``cache``), ``--format`` (if ``formats``; the first
    choice is the default) and ``-o/--output`` follow the command's own
    flags.
    """

    def register(handler):
        _COMMANDS[name] = (blurb, flags, cache, formats, handler)
        return handler

    return register


def _spec_from_args(args) -> DistributionSpec:
    if args.dist == "gaussian":
        return DistributionSpec.gaussian(args.m, args.sigma2, args.d)
    if args.d != 1:
        build_parser().error(f"--d applies to the gaussian family only, not {args.dist}")
    if args.dist == "exponential":
        return DistributionSpec.exponential(args.lam)
    if args.a is None:
        build_parser().error("the gamma family needs --a")
    return DistributionSpec.gamma(args.a, args.lam)


def _cache_from_args(args) -> GridCache | None:
    return GridCache(args.cache_dir) if args.cache_dir else GridCache.from_env()


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
        return json.dumps([dataclasses.asdict(row) for row in rows], indent=2) + "\n"
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


@_command("grid", "solve an L^r-optimal grid", *_DIST_FLAGS, _N, _R,
          _flag("--grad-tol", type=float, default=1e-10), cache=True, formats=_TEXT_JSON)
def _grid(args) -> str:
    spec = _spec_from_args(args)
    opts = SolverOpts(grad_tol=args.grad_tol)
    grid = optimal_grid(spec, args.n, args.r, opts, cache=_cache_from_args(args))
    return _grid_text(grid, args.format)


@_command("exp-grid", "exponential grid via the exact recursion",
          _flag("--lambda", dest="lam", type=float, default=1.0), _N, _R, formats=_TEXT_JSON)
def _exp_grid(args) -> str:
    return _grid_text(exp_optimal_grid(args.n, args.r, args.lam), args.format)


@_command("dilate", "apply x -> mu + theta (x - mu) to a grid file", _GRID_FILE,
          _flag("--theta", type=float, required=True), _flag("--mu", type=float, default=0.0),
          formats=_TEXT_JSON)
def _dilate(args) -> str:
    grid = dilate(_read_grid(args.grid_file), DilationParams(args.theta, args.mu))
    return _grid_text(grid, args.format)


@_command("distortion", "r-th power quantization error of a grid", *_DIST_FLAGS, _GRID_FILE, _R)
def _distortion(args) -> str:
    spec = _spec_from_args(args)
    return f"{distortion(_read_grid(args.grid_file), spec, args.r):.12g}\n"


@_command("theta-star", "optimal scaling number for (r, s)", *_DIST_FLAGS, _R_REQUIRED,
          _S_REQUIRED)
def _theta_star(args) -> str:
    return f"{dilatation.theta_star(_spec_from_args(args), args.r, args.s):.9g}\n"


@_command("constants", "rate constants for one (r, s, theta) query", *_DIST_FLAGS, _R_REQUIRED,
          _S_REQUIRED, _flag("--theta", type=float, help="default theta_star"),
          _flag("--mu", type=float),
          _flag("--j-const", type=float, help="cube coefficient for d >= 2"), formats=_TEXT_JSON)
def _constants(args) -> str:
    spec = _spec_from_args(args)
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
    return _payload_text(payload, args.format)


def _table(args) -> str:
    spec = (
        DistributionSpec.gaussian()
        if args.command == "table1"
        else DistributionSpec.exponential()
    )
    # read per call: the benchmark's tiny runs patch the sizes
    ns = analysis.FULL_TABLE_SIZES if args.full_tables else analysis.CI_TABLE_SIZES
    rows = analysis.table_experiment(spec, 2.0, args.s, ns, cache=_cache_from_args(args))
    return _rows_text(rows, args.format)


for _name, _blurb in (
    ("table1", "Gaussian grid regression table"),
    ("table2", "exponential grid regression table"),
):
    _command(_name, _blurb, _flag("--s", type=float, default=1.0, help="response exponent (r=2)"),
             _flag("--full-tables", action="store_true", help="sizes up to 900"), cache=True,
             formats=("csv", "json", "text"))(_table)


@_command("empirical-check", "bin discrepancy of the theta_star-dilated optimal grid",
          *_DIST_FLAGS, _flag("--n", type=int, default=500), _R,
          _flag("--s", type=float, default=1.0), _flag("--bins", type=int, default=10),
          cache=True, formats=_TEXT_JSON)
def _empirical_check(args) -> str:
    spec = _spec_from_args(args)
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
    return _payload_text(payload, args.format)


@_command("counterexample", "Gamma(7,1) identity failure numbers")
def _counterexample(args) -> str:
    res = analysis.gamma_counterexample()
    return (
        f"lhs = {res.lhs:.12g}\nrhs = {res.rhs:.12g}\n"
        f"identity violated: {'no' if res.holds else 'yes'}\n"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="quantilab",
        description="L^r-optimal 1-D quantizer grids, dilatation and rate constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, flags, cache, formats, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        for names, kw in flags:
            p.add_argument(*names, **kw)
        if cache:
            p.add_argument("--cache-dir")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("-o", "--output")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(args)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
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
