"""Experiment reproduction: grid-on-grid regressions, empirical-measure
checks and the Gamma counterexample evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dilatation import default_mu, theta_star
from .distributions import (
    DistributionSpec,
    Family,
    c_fr,
    empirical_measure_law,
    quantile,
    scaled_density_power_integral,
)
from .quantizer import Grid
from .solver import GridCache, SolverError, _exp_grid, _takes_recursion, exp_ak_sequence, solve

__all__ = [
    "OlsFit",
    "RegressionRow",
    "EmpiricalCheckReport",
    "IdentityCheckResult",
    "CounterexampleResult",
    "GAMMA_COUNTEREXAMPLE_RHS",
    "ols_fit",
    "table_experiment",
    "rows_to_csv",
    "rows_from_csv",
    "empirical_discrepancy",
    "empirical_identity_check",
    "gamma_counterexample",
    "CI_TABLE_SIZES",
    "FULL_TABLE_SIZES",
]

CI_TABLE_SIZES: tuple[int, ...] = (20, 50, 100, 300)
FULL_TABLE_SIZES: tuple[int, ...] = (20, 50, 100, 300, 700, 800, 900)

# Reference mismatch constant of the Gamma(7, 1) empirical-measure
# counterexample at (r, s) = (2, 1) on [0, 1]: the identity would require
# the tail-difference below to equal this value, and it does not.
GAMMA_COUNTEREXAMPLE_RHS = -511.0 / 512.0


class OlsFit(NamedTuple):
    a_hat: float
    b_hat: float
    eps_rmse: float
    eps_maxabs: float


@dataclass(frozen=True)
class RegressionRow:
    """One regression line: grid size, fitted slope/intercept, residual stats."""

    n: int
    a_hat: float
    b_hat: float
    eps_rmse: float
    eps_maxabs: float
    status: str = "ok"


@dataclass(frozen=True)
class EmpiricalCheckReport:
    n: int
    partition: tuple[tuple[float, float], ...]
    max_discrepancy: float


@dataclass(frozen=True)
class IdentityCheckResult:
    lhs: float
    rhs: float
    abs_gap: float


@dataclass(frozen=True)
class CounterexampleResult:
    lhs: float
    rhs: float
    holds: bool


def ols_fit(xs: Sequence[float], ys: Sequence[float]) -> OlsFit:
    """Simple least squares of ys on xs, closed form, with residual stats."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D samples of size >= 2")
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    if sxx == 0.0:
        raise ValueError("degenerate regressor: all xs identical")
    # centring y too makes a sample regressed on itself give a = 1 exactly
    a = float(np.dot(xc, y - y.mean())) / sxx
    b = float(y.mean() - a * x.mean())
    resid = y - (a * x + b)
    return OlsFit(a, b, float(np.sqrt(np.mean(resid**2))), float(np.max(np.abs(resid))))


def table_experiment(
    spec: DistributionSpec,
    r: float,
    s: float,
    ns: Sequence[int] = CI_TABLE_SIZES,
    cache: GridCache | None = None,
) -> list[RegressionRow]:
    """Regress the L^s grid on the L^r grid for each size in ``ns``.

    Points are paired by sorted index; the response is the L^s grid, so
    the fitted slope estimates the optimal scaling number theta_star.
    Each grid is ``solve``'s under the default solver tolerances.  For
    the exponential law, whose grids come from the spacing recursion,
    each exponent's sequence is built once, for the largest size, and
    every size takes its first n terms.
    Solver failures yield a row with NaN stats and an error status.
    """
    sizes = sorted(set(int(n) for n in ns))
    spacings = {}
    if sizes and sizes[0] >= 1 and _takes_recursion(spec):
        for e in (r, s):
            try:
                spacings[e] = exp_ak_sequence(e, sizes[-1]).values
            except SolverError:
                pass  # each size meets the failure in its own solve

    def grid(n: int, e: float) -> Grid:
        if e in spacings:
            return _exp_grid(spacings[e][:n], spec.lam)
        return solve(spec, n, e, cache=cache)

    rows: list[RegressionRow] = []
    for n in sizes:
        try:
            grid_r = grid(n, r)
            grid_s = grid(n, s)
            fit = ols_fit(grid_r.points, grid_s.points)
            rows.append(RegressionRow(n, *fit))
        except SolverError as err:
            rows.append(
                RegressionRow(
                    n, math.nan, math.nan, math.nan, math.nan, f"error: {err}"
                )
            )
    return rows


_CSV_HEADER = "n,a_hat,b_hat,eps_rmse,eps_maxabs"


def rows_to_csv(rows: Sequence[RegressionRow]) -> str:
    """Fixed-header CSV (9 significant digits, LF endings); failed rows skipped."""
    lines = [_CSV_HEADER]
    for row in rows:
        if row.status != "ok":
            continue
        lines.append(
            f"{row.n},{row.a_hat:.9g},{row.b_hat:.9g},"
            f"{row.eps_rmse:.9g},{row.eps_maxabs:.9g}"
        )
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[RegressionRow]:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError("unexpected CSV header")
    out = []
    for ln in lines[1:]:
        n, a, b, rm, mx = ln.split(",")
        out.append(RegressionRow(int(n), float(a), float(b), float(rm), float(mx)))
    return out


def empirical_discrepancy(
    grid: Grid,
    spec: DistributionSpec,
    s: float,
    n_bins: int,
) -> EmpiricalCheckReport:
    """Sup over equiprobable bins of |point fraction - limiting mass|.

    The bins are the ``n_bins`` quantile intervals of the limiting point
    law for exponent ``s``, so each carries mass 1/n_bins in the limit.
    """
    if n_bins < 2:
        raise ValueError("need at least two bins")
    law = empirical_measure_law(spec, s)
    inner = np.asarray(
        quantile(law, np.arange(1, n_bins) / n_bins), dtype=float
    )
    edges = np.concatenate(([-math.inf], inner, [math.inf]))
    counts = np.diff(np.searchsorted(grid.points, edges[1:-1], side="left"),
                     prepend=0, append=grid.n)
    frac = counts / grid.n
    disc = float(np.max(np.abs(frac - 1.0 / n_bins)))
    partition = tuple(
        (float(edges[i]), float(edges[i + 1])) for i in range(n_bins)
    )
    return EmpiricalCheckReport(grid.n, partition, disc)


def gamma_counterexample() -> CounterexampleResult:
    """Closed-form evaluation of the Gamma(7,1) empirical-measure failure.

    With (r, s) = (2, 1) and the interval [0, 1], the limiting-measure
    identity reduces to (185/128) e^(-3/8) - (79/48) e^(-1/2) = -511/512,
    which is numerically false: the dilated sequence is rate-optimal but
    does not follow the limiting point density.
    """
    lhs = (185.0 / 128.0) * math.exp(-3.0 / 8.0) - (79.0 / 48.0) * math.exp(-0.5)
    rhs = GAMMA_COUNTEREXAMPLE_RHS
    return CounterexampleResult(lhs, rhs, abs(lhs - rhs) < 1e-9)


def empirical_identity_check(
    spec: DistributionSpec,
    r: float,
    s: float,
    interval: tuple[float, float],
) -> IdentityCheckResult:
    """Check of the limiting-measure change-of-variables identity.

    For the Gaussian and exponential families both sides agree: the mass
    the r-limit law puts on the theta_star-contracted interval equals the
    mass the s-limit law puts on the interval itself, and the result holds
    (lhs, rhs, |lhs - rhs|).

    For Gamma shapes != 1 the identity fails; the result then reports the
    same quantity the counterexample computes, routed through the
    density-power integrals of both limit laws:
    lhs is the difference of the two tail terms, rhs the reference
    mismatch constant, abs_gap their distance.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise ValueError("interval must be ordered")
    th = theta_star(spec, r, s)
    mu = default_mu(spec)
    t_lo = (lo - mu) / th + mu
    t_hi = (hi - mu) / th + mu
    side_r = (
        scaled_density_power_integral(spec, 1.0, mu, 0.0, 1.0 / (1.0 + r), t_lo, t_hi)
        / c_fr(spec, r)
    )
    side_s = (
        scaled_density_power_integral(spec, 1.0, mu, 0.0, 1.0 / (1.0 + s), lo, hi)
        / c_fr(spec, s)
    )
    if spec.family is Family.GAMMA and spec.a != 1.0:
        lhs = side_s - side_r
        rhs = GAMMA_COUNTEREXAMPLE_RHS
        return IdentityCheckResult(lhs, rhs, abs(lhs - rhs))
    return IdentityCheckResult(side_r, side_s, abs(side_r - side_s))
