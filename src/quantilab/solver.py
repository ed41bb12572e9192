"""L^r-optimal grid computation.

Two routes: for any family and every r > 0, damped Newton on the
stationarity system started at the limiting point density quantiles and
verified as a fixed point of the generalized Lloyd sweep; and the
closed-form implicit recursion that yields the exact optimal grid of the
exponential law.  ``solve`` picks the recursion for the exponential law
(Gamma shape 1) and the solver for every other law.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import special

from .distributions import (
    DistributionSpec,
    Family,
    QuadratureError,
    QuadratureOpts,
    _abs_moments,
    _edge_law,
    _edge_masses,
    _EdgeLaw,
    _effective_bounds,
    _require_positive,
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

_LLOYD_MOVE_TOL = 1e-6  # largest point move, relative to 1 + max|x|, of a verified grid
_STEP_DAMPING = 0.5  # Newton line-search step shrink factor
_MAX_NEWTON_ITERS = 60  # iterations of each Newton run
# The cell integrals' controls.  Deep tail cut and small absolute floor:
# stationarity residuals of far-tail cells are minuscule and would
# otherwise drown in the truncation bias (outer grid points must still
# land to ~1e-9).
_QUAD = QuadratureOpts(abs_tol=1e-16, rel_tol=1e-12, max_subdivisions=4000, tail_mass_cut=1e-20)


@dataclass(frozen=True)
class SolverOpts:
    """Stopping tolerances of ``optimal_grid``'s Newton runs: ``grad_tol``
    on the stationarity residual and ``position_tol`` on the last step.

    The cell integrals' controls (``_QUAD``) and the Newton budget
    (``_MAX_NEWTON_ITERS``) are fixed.
    """

    grad_tol: float = 1e-10
    position_tol: float = 1e-10

    def __post_init__(self) -> None:
        _require_positive(grad_tol=self.grad_tol, position_tol=self.position_tol)


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
    lloyd_sweeps: int  # the fixed-point check: 1 on every return
    newton_iters: int
    stationary_only: bool  # True when global optimality is not guaranteed


# --------------------------------------------------------------------------
# cell optimisation, all cells at once
# --------------------------------------------------------------------------

def _require_mass(spec: DistributionSpec, b: np.ndarray) -> tuple[np.ndarray, _EdgeLaw]:
    """The cell masses and the edge law they come from; no empty cell."""
    law = _edge_law(spec, b)
    mass = law.masses()
    if np.any(mass <= 0.0):
        raise SolverError("empty-mass cell", np.array([]), math.nan)
    return mass, law


@functools.lru_cache(maxsize=64)
def _lifted(a: float, lam: float) -> DistributionSpec:
    """Gamma(a + 1, lam), whose density times a/lam is x f(x) for Gamma(a, lam):
    one spec per law, so its median band is computed once."""
    return DistributionSpec.gamma(a + 1.0, lam)


def _partial_mean(spec: DistributionSpec, b: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """integral of x f(x) over each cell [b[i], b[i+1]] of mass ``mass[i]``.

    Gaussian: m P - sigma2 (f(hi) - f(lo)).  Gamma: x f(x) is a/lam times
    the Gamma(a + 1, lam) density.
    """
    if spec.family is Family.GAUSSIAN:
        return spec.m * mass - spec.sigma2 * np.diff(pdf(spec, b))
    return (spec.a / spec.lam) * _edge_masses(_lifted(spec.a, spec.lam), b)


def _conditional_mean(spec: DistributionSpec, b: np.ndarray) -> np.ndarray:
    mass = _require_mass(spec, b)[0]
    return _partial_mean(spec, b, mass) / mass


def _conditional_median(spec: DistributionSpec, b: np.ndarray) -> np.ndarray:
    mass, law = _require_mass(spec, b)
    upper, tail = law.upper, law.tails()
    lower = ~upper  # the cells whose mass came from the cdf
    out = np.empty(mass.shape)
    p = tail[lower] + 0.5 * mass[lower]
    out[lower] = quantile(spec, np.clip(p, 1e-300, 1.0 - 1e-16))
    q = tail[upper] - 0.5 * mass[upper]
    out[upper] = quantile_sf(spec, np.clip(q, 1e-300, 1.0 - 1e-16))
    return out


def _increasing_roots(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of increasing functions on brackets [lo, hi], all at once.

    ``g(x, idx)`` evaluates functions ``idx`` at points ``x``.  Where g
    has one sign over the whole bracket the nearer end is returned.
    Chandrupatla's method: inverse quadratic interpolation where it is
    safe, bisection otherwise, to |x - root| <= 1e-12 + 8.9e-16 |x|.
    The first trial point is the bracket midpoint.
    """
    m = lo.size
    cells = np.arange(m)
    ends = g(np.concatenate((lo, hi)), np.concatenate((cells, cells)))
    g_lo, g_hi = ends[:m], ends[m:]
    out = np.where(g_lo >= 0.0, lo, hi)
    idx = np.flatnonzero((g_lo < 0.0) & (g_hi > 0.0))
    x1, f1, x2, f2 = lo[idx], g_lo[idx], hi[idx], g_hi[idx]
    x3, f3 = x2, f2
    t = np.full(idx.size, 0.5)
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


def _cell_argmins(spec: DistributionSpec, b: np.ndarray, r: float) -> np.ndarray:
    """The L^r-optimal point of every cell [b[i], b[i+1]] (sorted edges).

    r = 1: the conditional median; r = 2: the conditional mean; otherwise
    the root of the moment derivative r * integral |x - a|**(r-1)
    sign(a - x) f(x) (unique for these unimodal densities; for r < 1 its
    weight is singular at a) within the cell clipped, once, to the support
    and tail cuts.
    """
    if r == 1.0:
        return _conditional_median(spec, b)
    if r == 2.0:
        return _conditional_mean(spec, b)
    _require_mass(spec, b)
    lo, hi = _effective_bounds(spec, b[:-1], b[1:], _QUAD.tail_mass_cut)
    return _increasing_roots(_moment_derivative(spec, lo, hi, r), lo, hi)


def _moment_derivative(
    spec: DistributionSpec, lo: np.ndarray, hi: np.ndarray, r: float
) -> Callable:
    """The moment derivatives (up to the factor r) of the clipped cells [lo, hi].

    Returns ``grad(x, idx)``, integral |x - a|**(r-1) sign(a - x) f(x) over
    cells ``idx`` at points ``x`` (increasing in x).  The brackets must
    already be clipped to the support and tail cuts (``_effective_bounds``),
    so that the integration clips nothing more.
    """
    # a Gamma density ~ x**(a-1) with a + r <= 1 makes the derivative -inf at
    # the origin if 2a + r > 1, +inf if 2a + r < 1; it is given a negative value
    # there, so a cell whose derivative is positive on (0, hi] has its root at 0
    pole = spec.family is Family.GAMMA and spec.a + r <= 1.0

    def grad(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        live = x > 0.0 if pole else slice(None)
        out = np.full(x.shape, -1.0)
        out[live] = _abs_moments(
            spec, x[live], lo[idx[live]], hi[idx[live]], r - 1.0, _QUAD, signed=True
        )
        return out

    return grad


def cell_argmin(spec: DistributionSpec, lo: float, hi: float, r: float) -> float:
    """The point minimising the cell's L^r moment over (lo, hi).

    One cell of the batched sweep: a closed form for r = 1, 2, else the
    root of the moment derivative, integrated under the solver's
    quadrature controls.  Infinite ends are allowed; NaN ends and a
    non-positive or infinite r raise ValueError.
    """
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got lo={lo!r}, hi={hi!r}")
    _require_positive(r=r)
    return float(_cell_argmins(spec, np.array([lo, hi], float), r)[0])


# --------------------------------------------------------------------------
# stationarity system
# --------------------------------------------------------------------------

class _State(NamedTuple):
    """A Newton iterate: its points, Voronoi edges ``b``, cell masses, the
    r = 1 edge law of the interleaved edges (``_EdgeLaw``; else None), the
    cells clipped to the support and tail cuts (``lo``, ``hi``; r not 1
    or 2, else None), the residual, the cells' curvatures and the system
    Newton solves."""

    pts: np.ndarray
    b: np.ndarray
    mass: np.ndarray
    law: _EdgeLaw | None
    lo: np.ndarray | None
    hi: np.ndarray | None
    res: np.ndarray
    curv: np.ndarray
    f: np.ndarray


def _state(
    spec: DistributionSpec, pts: np.ndarray, r: float, cut: float | None = None
) -> _State | None:
    """The Newton state at ``pts``; with a ``cut``, None unless admissible.

    Admissible: inside the support, each point strictly between its
    cell's edges (so no midpoint rounds onto a point), every cell with
    mass > cut.  A point pushed into a cell of negligible mass has a
    vanishing stationarity residual wherever it sits; such iterates are
    refused before their residual is computed.  Each part of the state
    is computed once: the Jacobian (``_jacobian_banded``) and the
    fixed-point check (``_sweep_keeps``) read it.

    For r = 1 the law is evaluated once, by ``_edge_law``, at the
    interleaved edges b0, a0, b1, a1, ..., bn of the cells and their
    points (``law``).  The residual reads its half-cell masses; each
    cell mass is the sum of its two halves, read only by the tail-cut
    test here and by the fixed-point check.

    The residual R_i = r integral |x - a|**(r-1) sign(a - x) f(x) over
    cell i, and the curvature D_i is the derivative of R_i in a_i with
    the cell's edges held fixed.  Closed forms for r = 1 (the cell's mass
    below its point minus the mass above; D = 2 f(a)) and r = 2
    (2 (a P - M1), P the cell mass and M1 its partial first moment;
    D = 2 P).  Otherwise the cells are clipped to the support and tail
    cuts once, and R and one more moment come from one ``_abs_moments``
    call on those 2n brackets: for r > 1, D = r (r - 1) integral
    |x - a|**(r-2) f(x).  For r < 1 that weight is not integrable, and D
    follows by parts from G = R / r, the moment M = integral |x - a|**r
    f(x) and the density at the clipped ends lo, hi, with
    e(x) = |x - a|**(r-1) f(x), negated at an end on the far side of a:
    Gaussian, D = r (e(lo) + e(hi) + ((m - a) G + M) / sigma2);
    Gamma(alpha, lam), D = (r / a) ((r + alpha - 1 - lam a) G + lam M
    + lo e(lo) + hi e(hi)), where x f(x) is alpha/lam times the
    Gamma(alpha + 1, lam) density, so the lo term vanishes at the origin.
    Newton solves F = R / D for r >= 1 and R itself for r < 1 (``_newton``).
    """
    b = voronoi_bounds(pts)
    if cut is not None:
        inside = spec.support[0] < pts[0] and pts[-1] < spec.support[1]
        if not (inside and np.all(b[:-1] < pts) and np.all(pts < b[1:])):
            return None
    law = lo = hi = None
    if r == 1.0:
        edges = np.empty(2 * pts.size + 1)
        edges[0::2] = b
        edges[1::2] = pts
        law = _edge_law(spec, edges)
        halves = law.masses()
        mass = halves[0::2] + halves[1::2]
    else:
        mass = _edge_masses(spec, b)
    if cut is not None and np.min(mass) <= cut:
        return None
    if r == 1.0:
        res, curv = halves[0::2] - halves[1::2], 2.0 * pdf(spec, pts)
    elif r == 2.0:
        res, curv = 2.0 * (pts * mass - _partial_mean(spec, b, mass)), 2.0 * mass
    else:
        n = pts.size
        lo, hi = _effective_bounds(spec, b[:-1], b[1:], _QUAD.tail_mass_cut)
        grad, moment = _abs_moments(
            spec, np.tile(pts, 2), np.tile(lo, 2), np.tile(hi, 2),
            np.repeat((r - 1.0, r - 2.0 if r > 1.0 else r), n), _QUAD,
            signed=np.repeat((True, False), n),
        ).reshape(2, n)
        res = r * grad
        if r > 1.0:
            curv = r * (r - 1.0) * moment
        else:
            ends = np.concatenate((lo, hi))
            # a line-search point may lie beyond its cell's tail cut
            gap = np.concatenate((pts - lo, hi - pts))
            dist = np.sign(gap) * np.abs(gap) ** (r - 1.0)
            if spec.family is Family.GAUSSIAN:
                e_lo, e_hi = (pdf(spec, ends) * dist).reshape(2, n)
                curv = e_lo + e_hi + ((spec.m - pts) * grad + moment) / spec.sigma2
            else:
                lifted = _lifted(spec.a, spec.lam)
                xe_lo, xe_hi = (spec.a / spec.lam * pdf(lifted, ends) * dist).reshape(2, n)
                curv = (
                    xe_lo + xe_hi + (r + spec.a - 1.0 - spec.lam * pts) * grad + spec.lam * moment
                ) / pts
            curv = r * curv
    return _State(pts, b, mass, law, lo, hi, res, curv, res / curv if r >= 1.0 else res)


def _jacobian_banded(spec: DistributionSpec, st: _State, r: float) -> np.ndarray:
    """Banded (3, n) Jacobian of the residual at the state ``st``;
    tridiagonal and symmetric.

    Each residual component touches its neighbours only through the
    shared cell midpoints ``st.b``, each with derivative 1/2.  The
    diagonal is the state's curvature ``st.curv`` less those two
    couplings.
    """
    n = st.pts.size
    ab = np.zeros((3, n))
    ab[1, :] = st.curv
    if n > 1:
        w = 0.5 * np.diff(st.pts)
        coupling = 0.5 * r * w ** (r - 1.0) * pdf(spec, st.b[1:-1])
        ab[1, :-1] -= coupling
        ab[1, 1:] -= coupling
        ab[0, 1:] = -coupling
        ab[2, :-1] = -coupling
    return ab


def _lloyd_sweep(spec: DistributionSpec, pts: np.ndarray, r: float) -> np.ndarray:
    """One Lloyd sweep: every point moved to its Voronoi cell's optimum."""
    return _cell_argmins(spec, voronoi_bounds(pts), r)


def _sweep_keeps(spec: DistributionSpec, st: _State, r: float) -> bool:
    """Whether a Lloyd sweep would move no point of the Newton state ``st``
    by more than d = ``_LLOYD_MOVE_TOL`` (1 + max|x|).

    No sweep runs, and the state's edges, masses, edge law and clipped
    cells are read, not computed again.  For r = 2, F = R / D = a - M1 / P
    is each point's distance from its cell's conditional mean, the
    sweep's move up to round-off, so the test is max|F| <= d with no
    evaluation of the law.  For r = 1 the residual
    R(x) = P[b_i, x] - P[x, b_(i+1)] is taken at x = a - d and a + d,
    clipped to the cell, with the cell's edges held fixed.  A cell takes
    the side of its half-cell [b_i, a_i] in the state's edge law, and t,
    that half's tail beyond b_i: R(x) = 2 (cdf(x) - t) - P_i on the cdf
    side and 2 (t - sf(x)) - P_i on the sf side, with the law at those
    2n points.
    Otherwise each cell's moment derivative is evaluated at a - d and
    a + d, clipped to the state's clipped cell, in one batch, with no
    cdf, sf or quantile call.  Either way the
    residual or derivative increases in the point, and the sweep's root
    lies within d of a exactly when it is <= 0 at the left point and
    >= 0 at the right one, or that point is the bracket end.  A first
    point within d of the origin is thus kept even where the sweep
    sends it to the origin itself; ``optimal_grid`` refuses those laws
    (2a + r <= 1) before solving.
    """
    pts = st.pts
    d = _LLOYD_MOVE_TOL * _scale(pts)
    if r == 2.0:
        return bool(np.max(np.abs(st.f)) <= d)
    if r == 1.0:
        up, t = st.law.upper[0::2], st.law.tails()[0::2]
        x = np.stack((np.maximum(pts - d, st.b[:-1]), np.minimum(pts + d, st.b[1:])))
        g = np.empty(x.shape)
        g[:, ~up] = 2.0 * (cdf(spec, x[:, ~up]) - t[~up])
        g[:, up] = 2.0 * (t[up] - sf(spec, x[:, up]))
        g -= st.mass
        return bool(np.all(g[0] <= 0.0) and np.all(g[1] >= 0.0))
    grad = _moment_derivative(spec, st.lo, st.hi, r)
    left, right = np.maximum(pts - d, st.lo), np.minimum(pts + d, st.hi)
    cells = np.arange(pts.size)
    g_left, g_right = np.split(
        grad(np.concatenate((left, right)), np.concatenate((cells, cells))), 2
    )
    return bool(
        np.all((g_left <= 0.0) | (left == st.lo)) and np.all((g_right >= 0.0) | (right == st.hi))
    )


def _scale(pts: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(pts)))


def _dlog_pdf(spec: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """(log f)'(x) inside the support; +-inf where (a - 1) / x overflows
    for a Gamma point near the origin."""
    if spec.family is Family.GAUSSIAN:
        return (spec.m - x) / spec.sigma2
    with np.errstate(over="ignore"):
        return (spec.a - 1.0) / x - spec.lam


def _newton_matrix(spec: DistributionSpec, st: _State, r: float) -> np.ndarray:
    """Banded (3, n) Jacobian of F = R / D (r >= 1) at the state ``st``,
    D the cells' curvatures.

    Row i of the residual's Jacobian divided by D_i, less F_i D_i'/D_i on
    the diagonal, with D_i' modelled as D_i (log f)'(a_i): exact for
    r = 1, where D = 2 f(a).
    """
    ab = _jacobian_banded(spec, st, r)
    # line k of the band holds row j + k - 1 at column j
    ab[0, 1:] /= st.curv[:-1]
    ab[1] /= st.curv
    ab[2, :-1] /= st.curv[1:]
    ab[1] -= st.f * _dlog_pdf(spec, st.pts)
    return ab


def _tridiagonal_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """``solve_banded((1, 1), ab, rhs)`` without its input checks; None if singular.

    For n >= 2 that is LAPACK's ``gtsv``, called here directly: the
    wrapper's validation costs more than the solve.  Overwrites ``ab``
    and ``rhs``.  scipy.linalg is imported on the first such solve, so
    that commands which solve nothing do not load it.
    """
    if ab.shape[1] == 1:
        return rhs / ab[1] if ab[1, 0] else None
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, 1, 1, 1, 1)
    return None if info else x


def _newton(
    spec: DistributionSpec, pts: np.ndarray, r: float, opts: SolverOpts
) -> tuple[_State, int, bool]:
    """Damped Newton on the stationarity system.

    Every iterate is one ``_state``: its residual R, and the cells'
    curvatures D on the diagonal of the Jacobian (``_jacobian_banded``).
    For r >= 1 each equation R_i = 0 is
    divided by D_i, so that F_i = R_i / D_i is the distance point i still
    has to move in its cell, mass or not (``_newton_matrix``).  From the
    limiting-law seed the plain system under-steps in the tail cells,
    where R is that distance times a minute mass.  r < 1 solves R = 0
    itself: when alpha + r < 1 a Gamma first cell's F tends to 0 as its
    point nears the origin, so sup|F| would be a misleading merit there.
    A step is taken once the sup of the system solved does not grow.
    A candidate is refused at the cell mass min(tail cut, half the
    iterate's smallest), so that a seed's sub-cut tail cells can move,
    and where its cell integrals overflow (``QuadratureError``).
    Converged: sup|R| <= grad_tol and the last step <= position_tol
    (1 + max|x|).  Returns the last state, the iterations and whether it
    converged.
    """

    def converged() -> bool:
        return bool(
            np.max(np.abs(st.res)) <= opts.grad_tol
            and last_step <= opts.position_tol * _scale(st.pts)
        )

    st = _state(spec, pts, r)
    merit = float(np.max(np.abs(st.f)))
    last_step = math.inf
    iters = 0
    for _ in range(_MAX_NEWTON_ITERS):
        if converged():
            return st, iters, True
        ab = _newton_matrix(spec, st, r) if r >= 1.0 else _jacobian_banded(spec, st, r)
        step = _tridiagonal_solve(ab, -st.f)
        if step is None:
            break
        cut = min(_QUAD.tail_mass_cut, 0.5 * float(np.min(st.mass)))
        lam = 1.0
        moved = False
        while lam >= 1e-7:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    c_st = _state(spec, st.pts + lam * step, r, cut)
            except QuadratureError:
                c_st = None
            if c_st is not None:
                c_merit = float(np.max(np.abs(c_st.f)))
                if c_merit <= merit or np.max(np.abs(c_st.res)) <= opts.grad_tol:
                    st, merit = c_st, c_merit
                    last_step = lam * float(np.max(np.abs(step)))
                    moved = True
                    break
            lam *= _STEP_DAMPING
        iters += 1
        if not moved:
            break
    return st, iters, converged()


def _lloyd_newton(
    spec: DistributionSpec, seeds: Iterable[np.ndarray], r: float, opts: SolverOpts
) -> tuple[_State, int]:
    """Newton from each seed in turn, verified as a fixed point of the Lloyd sweep.

    Returns the first verified state and the Newton iterations of every
    run.  A Newton result is accepted only if a Lloyd sweep would move it
    by at most ``_LLOYD_MOVE_TOL`` (1 + max|x|), which ``_sweep_keeps``
    decides from the final Newton state without running the sweep: from
    that state alone for r = 2, from its edge law and the law at 2n more
    points for r = 1, and from its clipped cells in one batched
    quadrature pass otherwise.  The residual is weighted by cell mass, so
    it alone cannot tell a stationary grid from one with a point stranded
    in the far tail.  When no seed verifies, the ``SolverError`` says
    "no verified convergence" and carries the last run's points.
    """
    newton_iters = 0
    for pts in seeds:
        st, iters, ok = _newton(spec, pts, r, opts)
        newton_iters += iters
        if ok and _sweep_keeps(spec, st, r):
            return st, newton_iters
    sup = float(np.max(np.abs(st.res)))
    raise SolverError(
        f"no verified convergence for n={st.pts.size}, r={r} (residual sup {sup:.3g})",
        st.pts,
        sup,
    )


def _initial_points(spec: DistributionSpec, n: int, r: float) -> np.ndarray:
    """The limiting point law's quantiles at the levels (2i - 1) / (2n); one
    point is swept to its one-cell optimum, interior for every law solved."""
    law = empirical_measure_law(spec, r)
    levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    pts = np.asarray(quantile(law, levels), dtype=float)
    return _lloyd_sweep(spec, pts, r) if n == 1 else pts


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

    Every r > 0: damped Newton from the seed, with a tridiagonal
    Jacobian whose diagonal is each cell's analytic curvature, drives the
    stationarity residual below ``grad_tol`` and its last step below
    ``position_tol``.  For r >= 1 each equation is divided by its cell's
    curvature, which lets Newton start at the seed in the tail cells.
    The result must also be a fixed point of the Lloyd sweep (the full
    result's one sweep).  For r = 1 and 2 a Newton state takes the cdf
    or sf once per abscissa it needs (``_edge_law``); the fixed-point
    check of r = 2 is max|F| of the final state, and that of r = 1 the
    sign of the residual at a -+ d from the final state's edge law and
    the law at 2n more points.  Off the closed forms (r not 1 or 2) each
    Newton state (residual and curvatures) and the fixed-point check is
    one batched quadrature pass over all the cells it needs.  Raises
    ``SolverError`` rather than return an unverified grid.  The solve
    starts from ``init_grid`` when given, and from the quantiles of the
    limiting point law otherwise or when that run fails.  For
    log-concave densities (Gaussian, Gamma shape >= 1) the stationary
    point is the global optimum; Gamma shapes below 1 are flagged
    ``stationary_only`` in the full result.
    The solve runs on the unit-scale law (N(0, 1) or Gamma(a, 1)); the
    tolerances and the reported residual are those of that law.
    A Gamma law with 2a + r <= 1 raises ``SolverError`` before any seed: as
    x -> 0+ the first cell's moment derivative is ~ x**(a+r-1) (B(r, a) -
    B(r, 1-a-r)) >= 0 (B(r, .) decreases; at the tie the remainder is
    positive), so for every n the first point's optimum is the origin.
    """
    opts = opts or SolverOpts()
    if spec.d != 1:
        raise ValueError("grid solving requires d=1")
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_positive(r=r)
    if spec.family is Family.GAMMA and 2.0 * spec.a + r <= 1.0:
        raise SolverError(
            f"the first cell's optimal point is the origin, where the Gamma shape a={spec.a:g} "
            f"and r={r:g} (2a + r <= 1) make the stationarity integral diverge",
            np.array([]), math.nan,
        )

    if cache is not None and not full_result:
        hit = cache.load(spec, n, r, opts)
        if hit is not None:
            return hit

    if init_grid is not None and init_grid.n != n:
        raise ValueError("init_grid size mismatch")
    unit, to_unit, from_unit = _unit_law(spec)

    def seeds() -> Iterator[np.ndarray]:
        if init_grid is not None:
            yield to_unit(init_grid.points)
        yield _initial_points(unit, n, r)

    try:
        st, newton_iters = _lloyd_newton(unit, seeds(), r, opts)
    except SolverError as err:
        err.points = from_unit(err.points)
        raise

    pts = from_unit(st.pts)
    res_sup = float(np.max(np.abs(st.res)))
    grid = Grid(pts)
    if grid.n != n:
        raise SolverError(
            f"points collapsed during solve (kept {grid.n} of {n})", pts, res_sup
        )
    if cache is not None:
        cache.store(spec, n, r, opts, grid)
    if full_result:
        stationary_only = spec.family is Family.GAMMA and spec.a < 1.0
        return SolveResult(grid, res_sup, 1, newton_iters, stationary_only)
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
    if _takes_recursion(spec):
        return exp_optimal_grid(n, r, spec.lam)
    return optimal_grid(spec, n, r, opts, cache=cache)


def _takes_recursion(spec: DistributionSpec) -> bool:
    """Whether ``solve`` takes the exponential law's exact recursion."""
    return spec.family is Family.GAMMA and spec.a == 1.0 and spec.d == 1


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
    """integral of t**(r-1) e**t on (0, y): (y**r / r) 1F1(r; r+1; y)."""
    return y**r / r * float(special.hyp1f1(r, r + 1.0, y))


def _phi_minus_root(r: float, target: float, hi: float) -> float:
    """The y in (0, hi] with _phi_minus(r, y) = target, to full precision.

    Newton on the exact derivative y**(r-1) e**y, started at ``hi`` and
    kept inside a shrinking bisection bracket; it stops once the bracket
    or the step is within 2 ulp.  The spacing recursion amplifies root
    errors from one term to the next, so no coarser tolerance is offered.
    """
    lo, y = 0.0, hi
    for _ in range(200):
        g = _phi_minus(r, y) - target
        if g == 0.0:
            return y
        if g > 0.0:
            hi = y
        else:
            lo = y
        new = y - g / (y ** (r - 1.0) * math.exp(y))
        # test the step before any bisection: a converged step from above
        # lands on hi, which is no reason to bisect
        if abs(new - y) <= 2.0 * math.ulp(y):
            return new
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if hi - lo <= 2.0 * math.ulp(hi):
            return new
        y = new
    raise SolverError(f"spacing root did not converge at r={r}", np.array([]), math.nan)


def exp_ak_sequence(r: float, n: int) -> AkSequence:
    """First n terms of the implicit spacing recursion for the unit-rate
    exponential law: each a_{k+1} balances the forward integral of
    t**(r-1) e**t against the backward integral at a_k (a_0 = +inf).
    """
    _require_positive(r=r)
    if n < 1:
        raise ValueError("n must be >= 1")
    target = math.gamma(r)  # a_0 = +inf case
    hi = 1.0
    while _phi_minus(r, hi) < target:
        hi *= 2.0
        if hi > 256.0:
            raise SolverError(f"bracket failure at r={r}", np.array([]), math.nan)
    vals = np.empty(n)
    vals[0] = 2.0 * _phi_minus_root(r, target, hi)
    for k in range(1, n):
        half = vals[k - 1] / 2.0
        vals[k] = 2.0 * _phi_minus_root(r, _phi_plus(r, half), half)
    return AkSequence(r, vals)


def exp_optimal_grid(n: int, r: float, lam: float = 1.0) -> Grid:
    """Exact L^r-optimal n-point grid of the exponential law.

    Built for unit rate from the spacing recursion -- point k sits at
    a_n/2 plus the sum of the spacings a_{n+1-k} .. a_{n-1} -- then
    scaled by 1/lam (optimal grids are equivariant under scaling).
    """
    _require_positive(lam=lam)
    return _exp_grid(exp_ak_sequence(r, n).values, lam)


def _exp_grid(v: np.ndarray, lam: float) -> Grid:
    """``exp_optimal_grid`` of n = v.size points from the first n spacings ``v``.

    The recursion's terms do not depend on n, so the first n terms of a
    longer sequence give the same grid bit for bit.
    """
    n = v.size
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

    The file name carries a digest of the ``SolverOpts`` repr together
    with the solver's quadrature controls ``_QUAD``, so a grid solved
    under one set of tolerances, or one quadrature, is never served to a
    call under another.  The file payload is the Grid text serialisation,
    so cached and fresh results are bit-identical.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(cls) -> "GridCache | None":
        root = os.environ.get(CACHE_ENV_VAR)
        return cls(root) if root else None

    def _path(self, spec: DistributionSpec, n: int, r: float, opts: SolverOpts) -> Path:
        digest = hashlib.sha256(repr((opts, _QUAD)).encode()).hexdigest()[:16]
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
