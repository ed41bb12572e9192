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
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, compress
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import special

from . import _quad, distributions, quantizer
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
    _require_count,
    _require_interval,
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
_FLOOR_STEP = 1e-13  # largest pending step, relative to 1 + max|x|, of a state at round-off
_STALL_STEP = 1e-7  # largest step, relative to 1 + max|x|, of a run stalled at round-off
# The cell integrals' controls.  Deep tail cut and small absolute floor:
# stationarity residuals of far-tail cells are minuscule and would
# otherwise drown in the truncation bias (outer grid points must still
# land to ~1e-9).
_QUAD = QuadratureOpts(abs_tol=1e-16, rel_tol=1e-12, max_subdivisions=4000, tail_mass_cut=1e-20)


@dataclass(frozen=True)
class SolverOpts:
    """Stopping tolerances of ``optimal_grid``'s Newton runs.

    A run stops when sup|R| <= ``grad_tol`` (R the stationarity residual)
    and its last step is <= ``position_tol`` (1 + max|x|), or at the
    round-off floor: when the merit it minimises (sup|R / D| for r >= 1,
    D the cells' curvatures; sup|R| for r < 1) is <= ``grad_tol`` and the
    pending step is <= 1e-13 (1 + max|x|).  A last step that is the third
    or later and cut the merit by less than half need only be <= 1e-7
    (1 + max|x|): the run has stalled at round-off.

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


def _partial_mean(
    spec: DistributionSpec, b: np.ndarray, mass: np.ndarray, starts: list[int] | None = None
) -> np.ndarray:
    """integral of x f(x) over each cell [b[i], b[i+1]] of mass ``mass[i]``
    (``starts``: as in ``_edge_law``).

    Gaussian: m P - sigma2 (f(hi) - f(lo)); the density is 0 at both
    ends of the support, so an edge shared by two runs reads right either
    way.  Gamma: x f(x) is a/lam times the Gamma(a + 1, lam) density.
    """
    if spec.family is Family.GAUSSIAN:
        return spec.m * mass - spec.sigma2 * np.diff(pdf(spec, b))
    return (spec.a / spec.lam) * _edge_masses(_lifted(spec.a, spec.lam), b, starts)


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


def _increasing_roots(g, lo: np.ndarray, hi: np.ndarray, abs_tol: float) -> np.ndarray:
    """Roots of increasing functions on brackets [lo, hi], all at once.

    ``g(x, idx)`` evaluates functions ``idx`` at points ``x``.  Where g
    has one sign over the whole bracket the nearer end is returned.
    Chandrupatla's method: inverse quadratic interpolation where it is
    safe, bisection otherwise, to |x - root| <= abs_tol + 8.9e-16 |x|.
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
            tl = (abs_tol + 8.9e-16 * np.abs(xm)) / np.abs(x2 - x1)
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
    and tail cuts.  For a Gamma law with a + r < 1 < 2a + r the roots are
    found to relative precision: a first optimum can lie at 1e-24.
    """
    if r == 1.0:
        return _conditional_median(spec, b)
    if r == 2.0:
        return _conditional_mean(spec, b)
    _require_mass(spec, b)
    lo, hi = _effective_bounds(spec, b[:-1], b[1:], _QUAD.tail_mass_cut)
    pole = spec.family is Family.GAMMA and spec.a + r < 1.0 < 2.0 * spec.a + r
    return _increasing_roots(_moment_derivative(spec, lo, hi, r), lo, hi, 0.0 if pole else 1e-12)


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
    _require_interval(lo, hi)
    _require_positive(r=r)
    return float(_cell_argmins(spec, np.array([lo, hi], float), r)[0])


# --------------------------------------------------------------------------
# stationarity system
# --------------------------------------------------------------------------

class _State(NamedTuple):
    """A Newton iterate of one or more grids, one block of points each,
    block after block: where each block starts (``starts``), and per
    point its cell's edges ``left`` and ``right`` (a block's outer edges
    are the support's ends), its cell mass, for r = 1 the side of the
    half-cell [left, a] in the edge law and the cdf and sf of ``left``
    there (``upper``, ``c``, ``s``; each read on its own side alone; else
    None), the cell clipped to the support and tail cuts (``lo``, ``hi``;
    r not 1 or 2, else None), the residual, the curvature and the system
    Newton solves."""

    starts: list[int]
    pts: np.ndarray
    left: np.ndarray
    right: np.ndarray
    mass: np.ndarray
    upper: np.ndarray | None
    c: np.ndarray | None
    s: np.ndarray | None
    lo: np.ndarray | None
    hi: np.ndarray | None
    res: np.ndarray
    curv: np.ndarray
    f: np.ndarray

    def sizes(self) -> list[int]:
        return _sizes(self.starts, self.pts.size)


def _sizes(starts: list[int], n: int) -> list[int]:
    """The sizes of blocks that start at ``starts``, n points in all."""
    return [j - i for i, j in zip(starts, [*starts[1:], n])]


def _starts(sizes: Sequence[int]) -> list[int]:
    """Where blocks of ``sizes`` points, one after another, start."""
    return [0, *accumulate(sizes[:-1])]


def _take(st: _State, keep: Sequence[bool]) -> _State:
    """The blocks ``keep`` (a flag per block) of the state ``st``, as one state."""
    if all(keep):
        return st
    sizes = st.sizes()
    at = np.repeat(keep, sizes)
    return _State(_starts([*compress(sizes, keep)]), *(v if v is None else v[at] for v in st[1:]))


def _block(st: _State, i: int) -> _State:
    """Block i of the state ``st``, as a state of its own."""
    return _take(st, [j == i for j in range(len(st.starts))])


def _join(st: _State | None, more: _State) -> _State:
    """The blocks of ``st`` (none if None), then those of ``more``, as one state."""
    if st is None:
        return more
    return _State(
        [*st.starts, *(i + st.pts.size for i in more.starts)],
        *(v if v is None else np.concatenate((v, w)) for v, w in zip(st[1:], more[1:])),
    )


def _alone(fn: Callable, starts: list[int], n: int) -> list:
    """``fn(j, at)`` for each block j of a batch of n points alone (``at``
    its points' slice; blocks at ``starts``): its result, or the
    ``QuadratureError`` it raised.  A batch falls back on it where one of
    its blocks spoils it, so that the failure stays with that block."""
    bounds = [*starts, n]
    out = []
    for j, at in enumerate(map(slice, bounds, bounds[1:])):
        try:
            out.append(fn(j, at))
        except QuadratureError as err:
            out.append(err)
    return out


def _states(
    spec: DistributionSpec,
    pts: np.ndarray,
    starts: list[int],
    r: float,
    cuts: list[float] | None = None,
) -> tuple[_State | None, list[bool]]:
    """The Newton state at grids ``pts``, one block each (blocks at
    ``starts``), as one batch, and which grids it holds: with ``cuts``
    (one per grid), those admissible under their cuts (the state is None
    where none is); without, all.

    A grid's state is bit for bit that of a batch of its own: no cell
    integral or law evaluation depends on its batch.  Admissible: each
    point strictly between its cell's edges (the outer edges are the
    support's ends; no midpoint rounds onto a point), every cell with
    mass > the cut.  A point pushed into a cell of negligible mass has a
    vanishing stationarity residual wherever it sits; such iterates are
    refused before their residual is computed, and the rest of the batch
    is computed without them.  Each part of the state is computed once:
    the Jacobian (``_jacobian_banded``) and the fixed-point check
    (``_sweep_keeps``) read it.

    The law takes the edges of all grids as one array ``b``, each cell's
    left edge and then the support's upper end: a grid's edges run from
    its first cell's left edge, the support's lower end, to the next
    grid's, which it reads as the upper end (``_edge_law``'s runs).  For
    r = 1 the law is evaluated once, by ``_edge_law``, at the interleaved
    edges b0, a0, b1, a1, ..., bn of the cells and their points.  The
    residual reads its half-cell masses; each cell mass is the sum of its
    two halves, read only by the tail-cut test here and by the
    fixed-point check.

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
    n = pts.size
    b = voronoi_bounds(pts)  # each cell's left edge, then the support's upper end
    right = b[1:].copy()
    for i in starts:  # each grid's own ends
        b[i], right[i - 1] = spec.support
    left = b[:-1]

    def refuse(ok: list[bool]) -> tuple[_State | None, list[bool]]:  # the admissible grids alone
        if not any(ok):
            return None, ok
        sizes = _sizes(starts, n)
        kept = pts[np.repeat(ok, sizes)]
        st, took = _states(spec, kept, _starts([*compress(sizes, ok)]), r, [*compress(cuts, ok)])
        took = iter(took)
        return st, [k and next(took) for k in ok]

    if cuts is not None:
        inside = np.logical_and.reduceat((left < pts) & (pts < right), starts)
        if not inside.all():
            return refuse(inside.tolist())
    upper = c = s = lo = hi = None
    if r == 1.0:
        edges = np.empty(2 * n + 1)
        edges[0::2], edges[1::2] = b, pts
        law = _edge_law(spec, edges, [2 * i for i in starts])
        halves = law.masses()  # [left, a] at even places, [a, right] at odd ones
        mass = halves[0::2] + halves[1::2]
    else:
        mass = _edge_masses(spec, b, starts)
    if cuts is not None:
        light = np.minimum.reduceat(mass, starts) <= cuts
        if light.any():
            return refuse((~light).tolist())
    if r == 1.0:
        upper, c, s = law.upper[0::2], law.c[0:-1:2], law.s[0:-1:2]
        res, curv = halves[0::2] - halves[1::2], 2.0 * pdf(spec, pts)
    elif r == 2.0:
        res, curv = 2.0 * (pts * mass - _partial_mean(spec, b, mass, starts)), 2.0 * mass
    else:
        lo, hi = _effective_bounds(spec, left, right, _QUAD.tail_mass_cut)
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
    f = res / curv if r >= 1.0 else res
    st = _State(starts, pts, left, right, mass, upper, c, s, lo, hi, res, curv, f)
    return st, [True] * len(starts)


def _candidates(
    spec: DistributionSpec, pts: np.ndarray, starts: list[int], r: float, cuts: list[float]
) -> tuple[_State | None, list[bool]]:
    """``_states`` under ``cuts``; where the batch's cell integrals
    overflow (``QuadratureError``), each grid alone, and a grid whose own
    integrals overflow is not admissible either."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _states(spec, pts, starts, r, cuts)
        except QuadratureError:
            alone = _alone(
                lambda j, at: _states(spec, pts[at], [0], r, cuts[j : j + 1]), starts, pts.size
            )
    ok = [not isinstance(got, QuadratureError) and got[1][0] for got in alone]
    return functools.reduce(_join, (got[0] for got, k in zip(alone, ok) if k), None), ok


def _jacobian_banded(spec: DistributionSpec, st: _State, r: float) -> np.ndarray:
    """Banded (3, n) Jacobian of the residual at the state ``st``;
    tridiagonal and symmetric, and block-diagonal over its blocks.

    Each residual component touches its neighbours only through the
    shared cell midpoints ``st.right``, each with derivative 1/2.  The
    diagonal is the state's curvature ``st.curv`` less those two
    couplings.  A block's last cell ends at the support's end, where the
    density, and so the coupling to the next block, is 0.
    """
    n = st.pts.size
    ab = np.zeros((3, n))
    ab[1, :] = st.curv
    if n > 1:
        w = 0.5 * np.diff(st.pts)
        for i in st.starts[1:]:
            w[i - 1] = 1.0  # no power of a width across a border
        coupling = 0.5 * r * w ** (r - 1.0) * pdf(spec, st.right[:-1])
        ab[1, :-1] -= coupling
        ab[1, 1:] -= coupling
        ab[0, 1:] = -coupling
        ab[2, :-1] = -coupling
    return ab


def _lloyd_sweep(spec: DistributionSpec, pts: np.ndarray, r: float) -> np.ndarray:
    """One Lloyd sweep: every point moved to its Voronoi cell's optimum."""
    return _cell_argmins(spec, voronoi_bounds(pts), r)


def _sweep_keeps(spec: DistributionSpec, st: _State, r: float) -> np.ndarray:
    """Whether a Lloyd sweep would move no point of each block of the
    Newton state ``st`` by more than d = ``_LLOYD_MOVE_TOL`` (1 + the
    block's max|x|): one flag per block.

    No sweep runs, and the state's edges, masses, half-cell sides and
    clipped cells are read, not computed again.  For r = 2,
    F = R / D = a - M1 / P is each point's distance from its cell's
    conditional mean, the sweep's move up to round-off, so the test is
    max|F| <= d with no evaluation of the law.  For r = 1 the residual
    R(x) = P[b_i, x] - P[x, b_(i+1)] is taken at x = a - d and a + d,
    clipped to the cell, with the cell's edges held fixed.  A cell takes
    the side of its half-cell [b_i, a_i] in the state's edge law, and t,
    that half's tail beyond b_i: R(x) = 2 (cdf(x) - t) - P_i on the
    cdf side and 2 (t - sf(x)) - P_i on the sf side, with the law at
    those 2n points.
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
    pts, starts = st.pts, st.starts
    d = _LLOYD_MOVE_TOL * (1.0 + np.maximum.reduceat(np.abs(pts), starts))
    if r == 2.0:
        return np.maximum.reduceat(np.abs(st.f), starts) <= d
    d = np.repeat(d, st.sizes())
    if r == 1.0:
        up = st.upper
        t = np.where(up, st.s, st.c)  # the tail of [b_i, a_i] beyond b_i
        x = np.stack((np.maximum(pts - d, st.left), np.minimum(pts + d, st.right)))
        g = np.empty(x.shape)
        g[:, ~up] = 2.0 * (cdf(spec, x[:, ~up]) - t[~up])
        g[:, up] = 2.0 * (t[up] - sf(spec, x[:, up]))
        g -= st.mass
        kept = (g[0] <= 0.0) & (g[1] >= 0.0)
    else:
        grad = _moment_derivative(spec, st.lo, st.hi, r)
        left, right = np.maximum(pts - d, st.lo), np.minimum(pts + d, st.hi)
        cells = np.arange(pts.size)
        g_left, g_right = np.split(
            grad(np.concatenate((left, right)), np.concatenate((cells, cells))), 2
        )
        kept = ((g_left <= 0.0) | (left == st.lo)) & ((g_right >= 0.0) | (right == st.hi))
    return np.logical_and.reduceat(kept, starts)


def _verified(spec: DistributionSpec, st: _State, r: float) -> list:
    """``_sweep_keeps`` of each block of ``st``; where the batch raises
    ``QuadratureError``, of each block alone, and a block that raises has
    its error for a flag."""
    try:
        return list(_sweep_keeps(spec, st, r))
    except QuadratureError:
        return _alone(lambda j, _: _sweep_keeps(spec, _block(st, j), r)[0], st.starts, st.pts.size)


def _sups(x: np.ndarray, starts: list[int]) -> list[float]:
    """max|x| over each block (blocks at ``starts``)."""
    return np.maximum.reduceat(np.abs(x), starts).tolist()


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


def _steps(
    spec: DistributionSpec, st: _State, r: float
) -> tuple[np.ndarray, list[float], list[bool]]:
    """The Newton step of every block of the state ``st``, each step's
    largest move, and which blocks are singular (their steps read 0): one
    tridiagonal solve of the block-diagonal band, whose couplings across
    a block border are 0, so elimination mixes no blocks unless a pivot
    is 0 or not finite; each block is then solved alone."""
    matrix = _newton_matrix if r >= 1.0 else _jacobian_banded
    step = _tridiagonal_solve(matrix(spec, st, r), -st.f)
    if step is not None:
        size = _sups(step, st.starts)
        if all(map(math.isfinite, size)):
            return step, size, [False] * len(size)
    ab = matrix(spec, st, r)
    steps = _alone(lambda _, at: _tridiagonal_solve(ab[:, at], -st.f[at]), st.starts, st.pts.size)
    singular = [x is None for x in steps]
    step = np.concatenate([np.zeros(m) if x is None else x for x, m in zip(steps, st.sizes())])
    return step, _sups(step, st.starts), singular


def _newton(
    spec: DistributionSpec, st: _State, r: float, opts: SolverOpts
) -> list[tuple[_State, int, bool]]:
    """Damped Newton on the stationarity system, one run from each block
    of the seed state ``st``, all runs in one batch.

    Every iterate is one ``_states``: its residual R, and the cells'
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
    (1 + max|x|), or <= ``_STALL_STEP`` (1 + max|x|) where that step, the
    third or later, cut the merit by less than half: at large n ||J^-1||
    (about n**2) turns the round-off of F into steps above position_tol;
    or, once a step is solved, the merit (sup|F|, or sup|R|
    for r < 1) <= grad_tol and that step <= ``_FLOOR_STEP`` (1 + max|x|),
    so that no state is computed only to confirm a step at round-off;
    that step counts as an iteration.

    The runs share each iteration: their steps come from one tridiagonal
    solve (``_steps``) and each line-search round's candidates from one
    batched state.  A run's merit, line search and stop tests are its
    own, and it leaves the batch once it stops, so each grid passes
    through the very states of a run alone.  Returns per run (seed
    block) its last state, iterations and whether it converged.
    """
    runs = list(range(len(st.starts)))  # the run of each block of st
    merit = _sups(st.f, st.starts)  # per run, as the next two
    last, stalled = [math.inf] * len(runs), [False] * len(runs)
    out: list = [None] * len(runs)

    def leave(gone: list[bool], iters: int, converged: bool) -> None:  # blocks of st that stop
        for i in compress(range(len(gone)), gone):
            out[runs[i]] = (_block(st, i), iters, converged)

    for it in range(_MAX_NEWTON_ITERS + 1):
        res_sup = _sups(st.res, st.starts)
        if any(x <= opts.grad_tol for x in res_sup) or it == _MAX_NEWTON_ITERS:
            conv = [
                x <= opts.grad_tol
                and last[j] <= (_STALL_STEP if stalled[j] else opts.position_tol) * (1.0 + a)
                for x, j, a in zip(res_sup, runs, _sups(st.pts, st.starts))
            ]
            leave(conv, it, True)
            keep = [not c for c in conv]
            if it == _MAX_NEWTON_ITERS or not any(keep):
                leave(keep, it, False)
                break
            st, runs = _take(st, keep), [*compress(runs, keep)]
        step, size, singular = _steps(spec, st, r)
        floor = [merit[j] <= opts.grad_tol for j in runs]
        if any(floor):
            floor = [
                f and not g and x <= _FLOOR_STEP * (1.0 + a)
                for f, g, x, a in zip(floor, singular, size, _sups(st.pts, st.starts))
            ]
        if any(singular) or any(floor):
            leave(singular, it, False)
            leave(floor, it + 1, True)
            search = [not (g or f) for g, f in zip(singular, floor)]
            if not any(search):
                break
            step, size = step[np.repeat(search, st.sizes())], [*compress(size, search)]
            st, runs = _take(st, search), [*compress(runs, search)]
        cuts = np.minimum.reduceat(st.mass, st.starts).tolist()
        cuts = [min(_QUAD.tail_mass_cut, 0.5 * m) for m in cuts]
        pts, starts, who = st.pts, st.starts, runs
        nxt, nxt_runs, lam = None, [], 1.0
        while lam >= 1e-7:
            c_st, took = _candidates(spec, pts + lam * step, starts, r, cuts)
            rest = [True] * len(who)  # per searching run, whether it searches on
            if c_st is not None:
                c_merit = _sups(c_st.f, c_st.starts)
                found = [*compress(range(len(who)), took)]
                ok = [m <= merit[who[i]] for m, i in zip(c_merit, found)]
                if not all(ok):
                    res_sup = _sups(c_st.res, c_st.starts)
                    ok = [g or x <= opts.grad_tol for g, x in zip(ok, res_sup)]
                for i, m in compress(zip(found, c_merit), ok):
                    j = who[i]
                    stalled[j] = it >= 2 and m > 0.5 * merit[j]
                    last[j], merit[j], rest[i] = lam * size[i], m, False
                if any(ok):
                    nxt = _join(nxt, _take(c_st, ok))
                    nxt_runs += [who[i] for i in compress(found, ok)]
            if not any(rest):
                break
            if not all(rest):
                who, size, cuts = ([*compress(v, rest)] for v in (who, size, cuts))
                sizes = _sizes(starts, pts.size)
                at, starts = np.repeat(rest, sizes), _starts([*compress(sizes, rest)])
                pts, step = pts[at], step[at]
            lam *= _STEP_DAMPING
        else:  # no step: these runs stop
            leave([j in who for j in runs], it + 1, False)
        if nxt is None:
            break
        st, runs = nxt, nxt_runs
    return out


def _lloyd_newton(
    spec: DistributionSpec, seeds: list[Iterator[np.ndarray]], r: float, opts: SolverOpts
) -> list:
    """Newton from each grid's seeds in turn, verified as a fixed point of
    the Lloyd sweep; all grids in one batch, each round running the next
    seed of every grid not yet verified.

    A Newton result is accepted only if a Lloyd sweep would move it by
    at most ``_LLOYD_MOVE_TOL`` (1 + max|x|), which ``_sweep_keeps``
    decides from the final Newton states without running the sweep: from
    the state alone for r = 2, from its half-cell sides and the law at
    2n more points for r = 1, and from its clipped cells in one batched
    quadrature pass otherwise.  The residual is weighted by cell mass, so
    it alone cannot tell a stationary grid from one with a point stranded
    in the far tail.  A seed that is not admissible as a candidate is,
    with every cell's mass > 0, is skipped.  Returns per grid its first
    verified state's (points, sup|R|, Newton iterations of all its runs);
    else the last run's ``SolverError``, or the error that building its
    seed or checking its run raised.
    """
    out: list = [None] * len(seeds)
    iters = [0] * len(seeds)
    todo = range(len(seeds))
    while todo:
        ids, grids = [], []
        for i in todo:
            try:
                pts = next(seeds[i], None)
            except (SolverError, QuadratureError) as err:
                out[i], pts = err, None
            if pts is not None:
                ids.append(i)
                grids.append(pts)
        if not ids:
            break
        starts = _starts([pts.size for pts in grids])
        seeded, took = _candidates(spec, np.concatenate(grids), starts, r, [0.0] * len(ids))
        todo = []
        for i, pts, ok in zip(ids, grids, took):
            if not ok:
                out[i] = SolverError(f"inadmissible seed for n={pts.size}, r={r}", pts, math.nan)
                todo.append(i)
        if seeded is None:
            continue
        ends = _newton(spec, seeded, r, opts)
        done = [st for st, _, ok in ends if ok]
        checks = iter(_verified(spec, functools.reduce(_join, done), r) if done else ())
        for i, (st, run_iters, ok) in zip(compress(ids, took), ends):
            iters[i] += run_iters
            sup = float(np.abs(st.res).max())
            check = next(checks) if ok else False
            if isinstance(check, QuadratureError):
                out[i] = check
            elif check:
                out[i] = (st.pts, sup, iters[i])
            else:
                out[i] = SolverError(
                    f"no verified convergence for n={st.pts.size}, r={r} (residual sup {sup:.3g})",
                    st.pts,
                    sup,
                )
                todo.append(i)
    return out


def _initial_points(spec: DistributionSpec, n: int, r: float) -> np.ndarray:
    """The limiting point law's quantiles at the levels i / (n + 1).

    One point is swept to its one-cell optimum, interior for every law
    solved.  For a Gamma law with a + r < 1 < 2a + r the first point's
    optimum lies near the origin, at up to 1e-4 where 2a + r = 1.01, while
    its quantile is of order 1, and Newton on R would walk it onto the
    second point: it starts at the optimum of its seed cell
    [0, (p0 + p1) / 2].  Laws with 2a + r <= 1 never reach the seed.
    """
    law = empirical_measure_law(spec, r)
    pts = np.asarray(quantile(law, np.arange(1, n + 1) / (n + 1.0)), dtype=float)
    if n == 1:
        return _lloyd_sweep(spec, pts, r)
    if spec.family is Family.GAMMA and spec.a + r < 1.0 < 2.0 * spec.a + r:
        pts[0] = _cell_argmins(spec, np.array([0.0, 0.5 * (pts[0] + pts[1])]), r)[0]
    return pts


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
    ``position_tol``, or stops at the round-off floor (``SolverOpts``).
    For r >= 1 each equation is divided by its cell's curvature, which
    lets Newton start at the seed in the tail cells.
    The result must also be a fixed point of the Lloyd sweep (the full
    result's one sweep).  For r = 1 and 2 a Newton state takes the cdf
    or sf once per abscissa it needs (``_edge_law``); the fixed-point
    check of r = 2 is max|F| of the final state, and that of r = 1 the
    sign of the residual at a -+ d from the final state's half-cell
    sides and the law at 2n more points.  Off the closed forms (r not 1 or 2) each
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
    This is the one-size call of ``_optimal_grids``.
    """
    (out,) = _optimal_grids(
        spec, [n], r, opts, init_grid=init_grid, cache=cache, full_result=full_result
    )
    if isinstance(out, Exception):
        raise out
    return out


def _optimal_grids(
    spec: DistributionSpec, ns: Sequence[int], r: float, opts: SolverOpts | None = None, *,
    init_grid: Grid | None = None, cache: "GridCache | None" = None, full_result: bool = False,
) -> list:
    """``optimal_grid`` at each size of ``ns``, as one batch: per size its
    Grid (or SolveResult), or the ``SolverError`` or ``QuadratureError``
    that size's own solve raises.

    Every size is looked up in ``cache`` first (not for a full result),
    and the misses are solved together (``_lloyd_newton``), each bit for
    bit as alone.  Bad arguments, and a Gamma law whose first optimal
    point is the origin, raise for all sizes.
    """
    opts = opts or SolverOpts()
    if spec.d != 1:
        raise ValueError("grid solving requires d=1")
    for n in ns:
        _require_count(n=n)
    _require_positive(r=r)
    if spec.family is Family.GAMMA and 2.0 * spec.a + r <= 1.0:
        raise SolverError(
            f"the first cell's optimal point is the origin, where the Gamma shape a={spec.a:g} "
            f"and r={r:g} (2a + r <= 1) make the stationarity integral diverge",
            np.array([]), math.nan,
        )
    if init_grid is not None and any(init_grid.n != n for n in ns):  # a cache hit too
        raise ValueError("init_grid size mismatch")
    out = [None if cache is None or full_result else cache.load(spec, n, r, opts) for n in ns]
    misses = [i for i, hit in enumerate(out) if hit is None]
    unit, to_unit, from_unit = _unit_law(spec)

    def seeds(n: int) -> Iterator[np.ndarray]:
        if init_grid is not None:
            yield to_unit(init_grid.points)
        yield _initial_points(unit, n, r)

    for i, res in zip(misses, _lloyd_newton(unit, [seeds(ns[i]) for i in misses], r, opts)):
        if isinstance(res, SolverError):
            res.points = from_unit(res.points)
        elif not isinstance(res, Exception):
            pts, res_sup, newton_iters = from_unit(res[0]), res[1], res[2]
            grid = Grid(pts)
            if grid.n != ns[i]:
                res = SolverError(
                    f"points collapsed during solve (kept {grid.n} of {ns[i]})", pts, res_sup
                )
            else:
                if cache is not None:
                    cache.store(spec, ns[i], r, opts, grid)
                res = grid
                if full_result:
                    stationary_only = spec.family is Family.GAMMA and spec.a < 1.0
                    res = SolveResult(grid, res_sup, 1, newton_iters, stationary_only)
        out[i] = res
    return out


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
    _require_count(n=n)
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

@functools.cache
def _code_digest() -> str:
    """Digest of the source of the modules that compute a grid, read once."""
    files = (_quad.__file__, distributions.__file__, quantizer.__file__, __file__)
    return hashlib.sha256(b"".join(Path(f).read_bytes() for f in files)).hexdigest()


class GridCache:
    """Text-file store of solved grids keyed by (family, params, n, r, opts).

    The file name carries a digest of the ``SolverOpts`` repr, the solver's
    quadrature controls ``_QUAD`` and ``_code_digest``, so a grid solved under
    other tolerances, quadrature or code is never served.  The file payload
    is the Grid text serialisation, so cached and fresh results are bit-identical.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(cls) -> "GridCache | None":
        root = os.environ.get(CACHE_ENV_VAR)
        return cls(root) if root else None

    def _path(self, spec: DistributionSpec, n: int, r: float, opts: SolverOpts) -> Path:
        digest = hashlib.sha256(repr((opts, _QUAD, _code_digest())).encode()).hexdigest()[:16]
        return self.root / f"{spec.cache_token()}__n{n}__r{float(r)!r}__o{digest}.txt"

    def load(
        self, spec: DistributionSpec, n: int, r: float, opts: SolverOpts
    ) -> Grid | None:
        """The stored grid, or None on a miss.

        A file that is missing or unreadable, does not parse as a Grid, or
        is not byte for byte the ``to_text`` of an n-point Grid is a miss.
        """
        try:
            text = self._path(spec, n, r, opts).read_text()
            grid = Grid.from_text(text)
        except (OSError, ValueError):
            return None
        return grid if grid.n == n and grid.to_text() == text else None

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
