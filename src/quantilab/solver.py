"""L^r-optimal grid computation.

Two routes: a generalized Lloyd sweep warm-started at the limiting point
density quantiles followed by a damped Newton polish of the stationarity
system (any family; for r < 1 Anderson-accelerated Lloyd iteration
instead of Newton), and the closed-form implicit recursion that yields
the exact optimal grid of the exponential law.  ``solve`` picks the
recursion for the exponential law (Gamma shape 1) and the solver for
every other law.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .distributions import (
    DistributionSpec,
    Family,
    QuadratureOpts,
    _abs_moments,
    _edge_masses,
    _effective_bounds,
    cdf,
    cell_gradient,  # noqa: F401  (solver.cell_gradient is patched by perfbench's tracer)
    empirical_measure_law,
    pdf,
    quantile,
    quantile_sf,
    sf,
)
from .quantizer import Grid, voronoi_bounds

__all__ = [
    "SolverOpts",
    "SolverError",
    "SolveResult",
    "AkSequence",
    "cell_argmin",
    "solve",
    "optimal_grid",
    "exp_ak_sequence",
    "exp_optimal_grid",
    "GridCache",
]

CACHE_ENV_VAR = "QUANTILAB_CACHE_DIR"

_ANDERSON_DEPTH = 10  # past Lloyd iterates mixed into each r < 1 step
_MAX_FIXED_POINT_SWEEPS = 400  # sweep budget of the r < 1 route
_LLOYD_MOVE_TOL = 1e-6  # largest point move, relative to 1 + max|x|, of a verified grid
_STEP_DAMPING = 0.5  # Newton line-search step shrink factor


def _tight_quad() -> QuadratureOpts:
    # Deep tail cut and small absolute floor: stationarity residuals of
    # far-tail cells are minuscule and would otherwise drown in the
    # truncation bias (outer grid points must still land to ~1e-9).
    return QuadratureOpts(
        abs_tol=1e-16, rel_tol=1e-12, max_subdivisions=4000, tail_mass_cut=1e-20
    )


@dataclass(frozen=True)
class SolverOpts:
    """Iteration controls for ``optimal_grid``."""

    max_lloyd_iters: int = 2
    max_newton_iters: int = 60
    grad_tol: float = 1e-10
    position_tol: float = 1e-10
    quad: QuadratureOpts = field(default_factory=_tight_quad)

    def __post_init__(self) -> None:
        if self.grad_tol <= 0.0 or self.position_tol <= 0.0:
            raise ValueError("tolerances must be positive")


class SolverError(RuntimeError):
    """Solve did not converge; carries the best iterate for diagnostics."""

    def __init__(self, message: str, points: np.ndarray, residual_sup: float):
        super().__init__(message)
        self.points = points
        self.residual_sup = residual_sup


@dataclass(frozen=True)
class SolveResult:
    grid: Grid
    residual_sup: float
    lloyd_sweeps: int
    newton_iters: int
    stationary_only: bool  # True when global optimality is not guaranteed


# --------------------------------------------------------------------------
# cell optimisation, all cells at once
# --------------------------------------------------------------------------

def _require_mass(spec: DistributionSpec, b: np.ndarray) -> np.ndarray:
    mass = _edge_masses(spec, b)
    if np.any(mass <= 0.0):
        raise SolverError("empty-mass cell", np.array([]), math.nan)
    return mass


def _partial_mean(spec: DistributionSpec, b: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """integral of x f(x) over each cell [b[i], b[i+1]] of mass ``mass[i]``.

    Gaussian: m P - sigma2 (f(hi) - f(lo)).  Gamma: x f(x) is a/lam times
    the Gamma(a + 1, lam) density.
    """
    if spec.family is Family.GAUSSIAN:
        return spec.m * mass - spec.sigma2 * np.diff(pdf(spec, b))
    lifted = DistributionSpec.gamma(spec.a + 1.0, spec.lam)
    return (spec.a / spec.lam) * _edge_masses(lifted, b)


def _conditional_mean(spec: DistributionSpec, b: np.ndarray) -> np.ndarray:
    mass = _require_mass(spec, b)
    return _partial_mean(spec, b, mass) / mass


def _conditional_median(spec: DistributionSpec, b: np.ndarray) -> np.ndarray:
    mass = _require_mass(spec, b)
    lo = b[:-1]
    lo_cdf = cdf(spec, lo)
    lower = lo_cdf <= 0.5
    out = np.empty(mass.shape)
    p = lo_cdf[lower] + 0.5 * mass[lower]
    out[lower] = quantile(spec, np.clip(p, 1e-300, 1.0 - 1e-16))
    q = sf(spec, lo[~lower]) - 0.5 * mass[~lower]
    out[~lower] = quantile_sf(spec, np.clip(q, 1e-300, 1.0 - 1e-16))
    return out


def _increasing_roots(
    g, lo: np.ndarray, hi: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """Roots of increasing functions on brackets [lo, hi], all at once.

    ``g(x, idx)`` evaluates functions ``idx`` at points ``x``.  Where g
    has one sign over the whole bracket the nearer end is returned.
    Chandrupatla's method: inverse quadratic interpolation where it is
    safe, bisection otherwise, to |x - root| <= 1e-12 + 8.9e-16 |x|.
    The first trial point is ``start`` (a guess near the root), else the
    bracket midpoint.
    """
    m = lo.size
    cells = np.arange(m)
    ends = g(np.concatenate((lo, hi)), np.concatenate((cells, cells)))
    g_lo, g_hi = ends[:m], ends[m:]
    out = np.where(g_lo >= 0.0, lo, hi)
    idx = np.flatnonzero((g_lo < 0.0) & (g_hi > 0.0))
    x1, f1, x2, f2 = lo[idx], g_lo[idx], hi[idx], g_hi[idx]
    x3, f3 = x2, f2
    if start is None:
        t = np.full(idx.size, 0.5)
    else:  # keep the first trial point off the bracket ends
        t = np.clip((start[idx] - x1) / (x2 - x1), 0.01, 0.99)
    for _ in range(200):
        if not idx.size:
            break
        xt = x1 + t * (x2 - x1)
        ft = g(xt, idx)
        keep_x2 = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(keep_x2, x1, x2), np.where(keep_x2, f1, f2)
        x2, f2 = np.where(keep_x2, x2, x1), np.where(keep_x2, f2, f1)
        x1, f1 = xt, ft
        better = np.abs(f1) < np.abs(f2)
        xm = np.where(better, x1, x2)
        fm = np.where(better, f1, f2)
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = (1e-12 + 8.9e-16 * np.abs(xm)) / np.abs(x2 - x1)
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (
                f3 - f1
            ) * f2 / (f3 - f2)
        done = (tl > 0.5) | (fm == 0.0)
        out[idx[done]] = xm[done]
        use_iqi = (phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t = np.clip(np.where(use_iqi, iqi, 0.5), tl, 1.0 - tl)
        live = ~done
        idx, x1, f1, x2, f2, x3, f3, t = (
            v[live] for v in (idx, x1, f1, x2, f2, x3, f3, t)
        )
    out[idx] = np.where(np.abs(f1) < np.abs(f2), x1, x2)
    return out


def _cell_argmins(
    spec: DistributionSpec,
    b: np.ndarray,
    r: float,
    opts: SolverOpts,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """The L^r-optimal point of every cell [b[i], b[i+1]] (sorted edges).

    r = 1: the conditional median; r = 2: the conditional mean; otherwise
    the root of the moment derivative r * integral |x - a|**(r-1)
    sign(a - x) f(x) (unique for these unimodal densities; for r < 1 its
    weight is singular at a) within the cell clipped to the support and
    tail cuts, searched first at ``start`` when given.
    """
    if r == 1.0:
        return _conditional_median(spec, b)
    if r == 2.0:
        return _conditional_mean(spec, b)
    _require_mass(spec, b)
    lo, hi = b[:-1], b[1:]
    q = opts.quad
    lo_e, hi_e, _ = _effective_bounds(spec, lo, hi, q.tail_mass_cut)
    # a Gamma density ~ x**(a-1) with a + r <= 1 makes the derivative -inf
    # at the origin, where it is not integrated but given a negative value
    pole = spec.family is Family.GAMMA and spec.a + r <= 1.0

    def grad(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        live = x > 0.0 if pole else slice(None)
        out = np.full(x.shape, -1.0)
        out[live] = _abs_moments(
            spec, x[live], lo[idx[live]], hi[idx[live]], r - 1.0, q, signed=True
        )[0]
        return out

    return _increasing_roots(grad, lo_e, hi_e, start)


def cell_argmin(
    spec: DistributionSpec,
    lo: float,
    hi: float,
    r: float,
    opts: SolverOpts | None = None,
) -> float:
    """The point minimising the cell's L^r moment over (lo, hi).

    One cell of the batched sweep: a closed form for r = 1, 2, else the
    root of the moment derivative.
    """
    opts = opts or SolverOpts()
    return float(_cell_argmins(spec, np.array([lo, hi], float), r, opts)[0])


# --------------------------------------------------------------------------
# stationarity system
# --------------------------------------------------------------------------

def _residual(
    spec: DistributionSpec,
    pts: np.ndarray,
    r: float,
    q: QuadratureOpts,
    mass: np.ndarray | None = None,
) -> np.ndarray:
    """Per cell, r * integral |x - a|**(r-1) sign(a - x) f(x) over the cell.

    Closed forms for r = 1 (the cell's mass below its point minus the
    mass above) and r = 2 (2 (a P - M1), P the cell mass and M1 its
    partial first moment); quadrature otherwise.  ``mass`` holds the
    cell masses when the caller has them.
    """
    b = voronoi_bounds(pts)
    if r == 1.0:
        edges = np.empty(2 * pts.size + 1)  # b0, a0, b1, a1, ..., bn
        edges[0::2] = b
        edges[1::2] = pts
        halves = _edge_masses(spec, edges)
        return halves[0::2] - halves[1::2]
    if r == 2.0:
        mass = _edge_masses(spec, b) if mass is None else mass
        return 2.0 * (pts * mass - _partial_mean(spec, b, mass))
    grad, _ = _abs_moments(spec, pts, b[:-1], b[1:], r - 1.0, q, signed=True)
    return r * grad


def _jacobian_banded(
    spec: DistributionSpec,
    pts: np.ndarray,
    r: float,
    q: QuadratureOpts,
    mass: np.ndarray | None = None,
) -> np.ndarray:
    """Banded (3, n) Jacobian of the residual; tridiagonal and symmetric.

    Each residual component touches its neighbours only through the
    shared cell midpoints, each with derivative 1/2.  The diagonal is
    2 f(a) for r = 1 and twice the cell mass for r = 2 (``mass`` when
    given).
    """
    n = pts.size
    b = voronoi_bounds(pts)
    if r == 1.0:
        diag = 2.0 * pdf(spec, pts)
    elif r == 2.0:
        diag = 2.0 * (_edge_masses(spec, b) if mass is None else mass)
    else:
        diag = r * (r - 1.0) * _abs_moments(spec, pts, b[:-1], b[1:], r - 2.0, q)[0]
    if n > 1:
        w = 0.5 * np.diff(pts)
        f_mid = pdf(spec, b[1:-1])
        coupling = 0.5 * r * w ** (r - 1.0) * f_mid
        diag[:-1] -= coupling
        diag[1:] -= coupling
    ab = np.zeros((3, n))
    ab[1, :] = diag
    if n > 1:
        ab[0, 1:] = -coupling
        ab[2, :-1] = -coupling
    return ab


def _lloyd_sweep(
    spec: DistributionSpec, pts: np.ndarray, r: float, opts: SolverOpts
) -> np.ndarray:
    b = voronoi_bounds(pts)
    return _cell_argmins(spec, b, r, opts, start=pts)


def _admissible(spec: DistributionSpec, pts: np.ndarray, cut: float) -> np.ndarray | None:
    """The cell masses of ``pts`` if it is admissible, else None.

    Admissible: strictly increasing inside the support, every cell with
    mass > cut.  A point pushed into a cell of negligible mass has a
    vanishing stationarity residual wherever it sits; such iterates are
    refused.
    """
    s_lo, s_hi = spec.support
    if not (np.all(np.diff(pts) > 0.0) and s_lo < pts[0] and pts[-1] < s_hi):
        return None
    mass = _edge_masses(spec, voronoi_bounds(pts))
    return mass if np.min(mass) > cut else None


def _scale(pts: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(pts)))


def _newton(
    spec: DistributionSpec, pts: np.ndarray, r: float, opts: SolverOpts
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    q = opts.quad
    mass = _edge_masses(spec, voronoi_bounds(pts))
    res = _residual(spec, pts, r, q, mass)
    sup = float(np.max(np.abs(res)))
    last_step = math.inf
    iters = 0
    for _ in range(opts.max_newton_iters):
        if sup <= opts.grad_tol and last_step <= opts.position_tol * _scale(pts):
            return pts, res, iters, True
        ab = _jacobian_banded(spec, pts, r, q, mass)
        try:
            step = solve_banded((1, 1), ab, -res)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        moved = False
        while lam >= 1e-7:
            cand = pts + lam * step
            c_mass = _admissible(spec, cand, q.tail_mass_cut)
            if c_mass is not None:
                c_res = _residual(spec, cand, r, q, c_mass)
                c_sup = float(np.max(np.abs(c_res)))
                if c_sup <= sup or c_sup <= opts.grad_tol:
                    pts, res, sup, mass = cand, c_res, c_sup, c_mass
                    last_step = lam * float(np.max(np.abs(step)))
                    moved = True
                    break
            lam *= _STEP_DAMPING
        iters += 1
        if not moved:
            break
    ok = sup <= opts.grad_tol and last_step <= opts.position_tol * _scale(pts)
    return pts, res, iters, ok


def _anderson_lloyd(
    spec: DistributionSpec, pts: np.ndarray, r: float, opts: SolverOpts
) -> tuple[np.ndarray, int]:
    """The fixed point of the Lloyd sweep, and the sweeps it took.

    Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011) of the
    map x -> sweep(x): each step mixes the last ``_ANDERSON_DEPTH`` sweep
    images by least squares on their residuals sweep(x) - x.  A mixed
    iterate that is not admissible is replaced by the plain sweep image
    and the history restarts.  Stops once a sweep moves no point by
    ``position_tol`` (1 + max|x|) or more; raises ``SolverError`` when
    ``_MAX_FIXED_POINT_SWEEPS`` sweeps do not get there.
    """
    d_res: list[np.ndarray] = []  # differences of successive residuals
    d_img: list[np.ndarray] = []  # ... and of successive sweep images
    prev = None
    x = pts
    for sweeps in range(1, _MAX_FIXED_POINT_SWEEPS + 1):
        img = _lloyd_sweep(spec, x, r, opts)
        res = img - x
        move = float(np.max(np.abs(res)))
        if move < opts.position_tol * _scale(img):
            return img, sweeps
        if prev is not None:
            d_res = (d_res + [res - prev[0]])[-_ANDERSON_DEPTH:]
            d_img = (d_img + [img - prev[1]])[-_ANDERSON_DEPTH:]
        prev = res, img
        x = img
        if d_res:
            gamma = np.linalg.lstsq(np.column_stack(d_res), res, rcond=None)[0]
            mixed = img - np.column_stack(d_img) @ gamma
            if _admissible(spec, mixed, opts.quad.tail_mass_cut) is not None:
                x = mixed
            else:
                d_res, d_img = [], []
    raise SolverError(
        f"Lloyd iteration not settled after {_MAX_FIXED_POINT_SWEEPS} sweeps"
        f" (last move {move:.3g})",
        img,
        math.nan,
    )


def _lloyd_newton(
    spec: DistributionSpec, pts: np.ndarray, r: float, opts: SolverOpts
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Lloyd sweeps, then Newton, verified by one more sweep.

    Returns the points, the residual, the sweeps and the Newton
    iterations.  A Newton result is accepted only if a Lloyd sweep moves
    it by at most ``_LLOYD_MOVE_TOL`` (1 + max|x|): the residual is
    weighted by cell mass, so it alone cannot tell a stationary grid from
    one with a point stranded in the far tail.  Otherwise 20 more sweeps
    run and Newton restarts, up to three times.
    """
    sweeps = 0
    for _ in range(opts.max_lloyd_iters):
        new = _lloyd_sweep(spec, pts, r, opts)
        move = float(np.max(np.abs(new - pts)))
        pts = new
        sweeps += 1
        if move < _LLOYD_MOVE_TOL:
            break
    newton_iters = 0
    for _ in range(3):
        pts, res, iters, ok = _newton(spec, pts, r, opts)
        newton_iters += iters
        if ok:
            sweeps += 1
            check = _lloyd_sweep(spec, pts, r, opts)
            if np.max(np.abs(check - pts)) <= _LLOYD_MOVE_TOL * _scale(pts):
                return pts, res, sweeps, newton_iters
        for _ in range(20):  # rescue: extra Lloyd sweeps, then retry
            pts = _lloyd_sweep(spec, pts, r, opts)
            sweeps += 1
    sup = float(np.max(np.abs(res)))
    raise SolverError(
        f"no verified convergence for n={pts.size}, r={r} (residual sup {sup:.3g})",
        pts,
        sup,
    )


def _initial_points(spec: DistributionSpec, n: int, r: float) -> np.ndarray:
    law = empirical_measure_law(spec, r)
    levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return np.asarray(quantile(law, levels), dtype=float)


def _unit_law(spec: DistributionSpec) -> tuple[DistributionSpec, Callable, Callable]:
    """The unit-scale law of spec's family, and maps of points to and from it.

    Optimal grids are equivariant under x -> m + sigma x (Gaussian) and
    x -> x / lam (Gamma), so a solve on the unit law, mapped back, does
    not depend on the scale: the tolerances are met in the same units at
    every scale.
    """
    if spec.family is Family.GAUSSIAN:
        return (
            DistributionSpec.gaussian(),
            lambda x: (x - spec.m) / spec.sigma,
            lambda u: spec.m + spec.sigma * u,
        )
    return DistributionSpec.gamma(spec.a), lambda x: x * spec.lam, lambda u: u / spec.lam


def optimal_grid(
    spec: DistributionSpec,
    n: int,
    r: float,
    opts: SolverOpts | None = None,
    *,
    init_grid: Grid | None = None,
    cache: "GridCache | None" = None,
    full_result: bool = False,
) -> Grid | SolveResult:
    """Solve for the L^r-optimal n-point grid of ``spec`` (d = 1).

    r >= 1: up to ``max_lloyd_iters`` Lloyd sweeps (fewer once the max
    point move drops below ``_LLOYD_MOVE_TOL``), then Newton with the
    exact tridiagonal Jacobian drives the stationarity residual below
    ``grad_tol``; the result must also be a fixed point of the Lloyd
    sweep.  r < 1: Anderson-accelerated Lloyd iteration to
    ``position_tol``.  Raises ``SolverError`` rather than return an
    unverified grid.  The solve starts from ``init_grid`` when given,
    else from the quantiles of the limiting point law.  For log-concave
    densities (Gaussian, Gamma shape >= 1) the stationary point is the
    global optimum; Gamma shapes below 1 are flagged ``stationary_only``
    in the full result.  The solve runs on the unit-scale law (N(0, 1)
    or Gamma(a, 1)); the tolerances and the reported residual are those
    of that law.
    """
    opts = opts or SolverOpts()
    if spec.d != 1:
        raise ValueError("grid solving requires d=1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if r <= 0.0:
        raise ValueError("r must be positive")

    if cache is not None and not full_result:
        hit = cache.load(spec, n, r, opts)
        if hit is not None:
            return hit

    unit, to_unit, from_unit = _unit_law(spec)
    if init_grid is not None:
        if init_grid.n != n:
            raise ValueError("init_grid size mismatch")
        pts = to_unit(init_grid.points)
    else:
        pts = _initial_points(unit, n, r)

    try:
        if r < 1.0:
            # the Jacobian's weight |x - a|**(r-2) is not integrable: no
            # Newton, Lloyd iteration runs to the position tolerance
            pts, sweeps = _anderson_lloyd(unit, pts, r, opts)
            res_sup, newton_iters = math.nan, 0
        else:
            pts, res, sweeps, newton_iters = _lloyd_newton(unit, pts, r, opts)
            res_sup = float(np.max(np.abs(res)))
    except SolverError as err:
        err.points = from_unit(err.points)
        raise

    pts = from_unit(pts)
    grid = Grid(pts)
    if grid.n != n:
        raise SolverError(
            f"points collapsed during solve (kept {grid.n} of {n})", pts, res_sup
        )
    if cache is not None:
        cache.store(spec, n, r, opts, grid)
    if full_result:
        stationary_only = spec.family is Family.GAMMA and spec.a < 1.0
        return SolveResult(grid, res_sup, sweeps, newton_iters, stationary_only)
    return grid


def solve(
    spec: DistributionSpec,
    n: int,
    r: float,
    opts: SolverOpts | None = None,
    *,
    cache: "GridCache | None" = None,
) -> Grid:
    """The L^r-optimal n-point grid of ``spec``.

    The exponential law (Gamma shape 1) takes the exact recursion
    ``exp_optimal_grid``; every other law goes to ``optimal_grid`` with
    ``opts`` and ``cache``.
    """
    if spec.family is Family.GAMMA and spec.a == 1.0 and spec.d == 1:
        return exp_optimal_grid(n, r, spec.lam)
    return optimal_grid(spec, n, r, opts, cache=cache)


# --------------------------------------------------------------------------
# exponential closed-form recursion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AkSequence:
    """Half-spacing sequence of the exponential optimal grids.

    Strictly decreasing; k * a_k tends to r + 1.
    """

    r: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if np.any(np.diff(vals) >= 0.0):
            raise ValueError("sequence must be strictly decreasing")


def _phi_plus(r: float, y: float) -> float:
    """integral of t**(r-1) e**(-t) on (0, y)."""
    return math.gamma(r) * float(special.gammainc(r, y))


def _phi_minus(r: float, y: float) -> float:
    """integral of t**(r-1) e**t on (0, y), by series."""
    if y <= 0.0:
        return 0.0
    term = y**r / r
    total = term
    for k in range(800):
        term *= y * (r + k) / ((k + 1.0) * (r + k + 1.0))
        total += term
        if term < 1e-17 * total:
            break
    return total


def exp_ak_sequence(r: float, n: int, root_tol: float = 1e-12) -> AkSequence:
    """First n terms of the implicit spacing recursion for the unit-rate
    exponential law: each a_{k+1} balances the forward integral of
    t**(r-1) e**t against the backward integral at a_k (a_0 = +inf).
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if root_tol <= 0.0:
        raise ValueError("root_tol must be positive")
    target = math.gamma(r)  # a_0 = +inf case
    hi = 1.0
    while _phi_minus(r, hi) < target:
        hi *= 2.0
        if hi > 256.0:
            raise SolverError(f"bracket failure at r={r}", np.array([]), math.nan)
    vals = np.empty(n)
    y = brentq(lambda t: _phi_minus(r, t) - target, 0.0, hi, xtol=root_tol, rtol=8.9e-16)
    vals[0] = 2.0 * y
    for k in range(1, n):
        target = _phi_plus(r, vals[k - 1] / 2.0)
        y = brentq(
            lambda t: _phi_minus(r, t) - target,
            0.0,
            vals[k - 1] / 2.0,
            xtol=root_tol,
            rtol=8.9e-16,
        )
        vals[k] = 2.0 * y
    return AkSequence(r, vals)


def exp_optimal_grid(
    n: int, r: float, lam: float = 1.0, root_tol: float = 1e-12
) -> Grid:
    """Exact L^r-optimal n-point grid of the exponential law.

    Built for unit rate from the spacing recursion -- point k sits at
    a_n/2 plus the sum of the spacings a_{n+1-k} .. a_{n-1} -- then
    scaled by 1/lam (optimal grids are equivariant under scaling).
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    seq = exp_ak_sequence(r, n, root_tol)
    v = seq.values
    if n == 1:
        pts = np.array([v[0] / 2.0])
    else:
        suffix = np.concatenate(([0.0], np.cumsum(v[n - 2 :: -1])))
        pts = v[n - 1] / 2.0 + suffix
    return Grid(pts / lam)


# --------------------------------------------------------------------------
# on-disk grid cache
# --------------------------------------------------------------------------

class GridCache:
    """Text-file store of solved grids keyed by (family, params, n, r, opts).

    The file name carries a digest of the whole ``SolverOpts`` repr, so a
    grid solved under one set of options is never served to a call with
    another.  The file payload is the Grid text serialisation, so cached
    and fresh results are bit-identical.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(cls) -> "GridCache | None":
        root = os.environ.get(CACHE_ENV_VAR)
        return cls(root) if root else None

    def _path(self, spec: DistributionSpec, n: int, r: float, opts: SolverOpts) -> Path:
        digest = hashlib.sha256(repr(opts).encode()).hexdigest()[:16]
        return self.root / f"{spec.cache_token()}__n{n}__r{float(r)!r}__o{digest}.txt"

    def load(
        self, spec: DistributionSpec, n: int, r: float, opts: SolverOpts
    ) -> Grid | None:
        """The stored grid, or None on a miss.

        A file that is missing or unreadable, does not parse, or does not
        hold n finite, strictly increasing points is a miss.
        """
        path = self._path(spec, n, r, opts)
        try:
            pts = np.array([float(tok) for tok in path.read_text().split()])
        except (OSError, ValueError):
            return None
        if pts.size != n or not np.all(np.isfinite(pts)) or np.any(np.diff(pts) <= 0.0):
            return None
        grid = Grid(pts)
        return grid if grid.n == n else None

    def store(
        self, spec: DistributionSpec, n: int, r: float, opts: SolverOpts, grid: Grid
    ) -> None:
        """Write the grid atomically: readers see the old file or the new one."""
        path = self._path(spec, n, r, opts)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(grid.to_text())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
