"""Analytic models of the Gaussian and Gamma families.

The exponential law is the Gamma law with shape 1:
``DistributionSpec.exponential(lam)`` equals ``DistributionSpec.gamma(1.0, lam)``.

Provides densities, distribution/quantile functions, cell-wise moment
integrals by adaptive quadrature (one cell at a time, or all cells of a
grid in one batch), and the closed forms tied to each family: the
density-power normaliser ``c_fr``, the asymptotic distortion coefficient
``zador_q``, the limiting codebook point law ``empirical_measure_law``
(in family; ``empirical_density`` is its pdf) and the whole-support
density-power product integral behind the rate constants,
``scaled_density_power_integral``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy import special

from ._quad import QuadratureError, integrate, integrate_batch, integrate_endpoint_power

__all__ = [
    "Family",
    "DistributionSpec",
    "QuadratureOpts",
    "UnsupportedDimensionError",
    "QuadratureError",
    "pdf",
    "cdf",
    "sf",
    "quantile",
    "quantile_sf",
    "cell_moment",
    "cell_gradient",
    "c_fr",
    "cube_coefficient",
    "zador_q",
    "empirical_density",
    "empirical_measure_law",
    "scaled_density_power_integral",
]

_INF = math.inf


def _require_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and > 0.

    NaN fails every ``x <= 0`` test, so a bare sign check lets it through.
    """
    for name, v in values.items():
        if not 0.0 < v < _INF:
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _require_count(least: int = 1, **values: int) -> None:
    """Raise ValueError naming the first value that is not an integer >= ``least``."""
    for name, v in values.items():
        if not (isinstance(v, (int, np.integer)) and v >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


def _require_interval(lo: float, hi: float) -> None:
    """Raise ValueError unless lo <= hi; NaN fails it too."""
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got lo={lo!r}, hi={hi!r}")


class UnsupportedDimensionError(ValueError):
    """An operation that needs d=1 (or an explicit cube coefficient) got d>=2."""


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    GAMMA = "gamma"


@dataclass(frozen=True)
class DistributionSpec:
    """A named 1-D law with analytic pdf/cdf/quantile.

    ``m``/``sigma2`` are the Gaussian mean and variance, ``lam`` the
    Gamma rate, ``a`` the Gamma shape (1 for the exponential law).
    ``d`` parameterises the closed-form constants only; every grid or
    quadrature operation requires ``d == 1``.
    """

    family: Family
    m: float = 0.0
    sigma2: float = 1.0
    lam: float = 1.0
    a: float = 1.0
    d: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.m):
            raise ValueError(f"m must be finite, got {self.m!r}")
        _require_positive(sigma2=self.sigma2, lam=self.lam, a=self.a)
        _require_count(d=self.d)

    @classmethod
    def gaussian(cls, m: float = 0.0, sigma2: float = 1.0, d: int = 1) -> "DistributionSpec":
        return cls(Family.GAUSSIAN, m=float(m), sigma2=float(sigma2), d=d)

    @classmethod
    def exponential(cls, lam: float = 1.0) -> "DistributionSpec":
        """The exponential law: the Gamma law with shape 1."""
        return cls.gamma(1.0, lam)

    @classmethod
    def gamma(cls, a: float, lam: float = 1.0) -> "DistributionSpec":
        return cls(Family.GAMMA, a=float(a), lam=float(lam))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def support(self) -> tuple[float, float]:
        if self.family is Family.GAUSSIAN:
            return (-_INF, _INF)
        return (0.0, _INF)

    @functools.cached_property
    def _median_band(self) -> np.ndarray:
        """The quantiles at 0.5 -+ 1e-9, once per spec: an edge below the
        first has cdf <= 0.5 and one at or above the second cdf > 0.5,
        whatever the cdf's round-off, so ``_edge_law`` asks the cdf only
        about the edges between."""
        band = quantile(self, np.array([0.5 - 1e-9, 0.5 + 1e-9]))
        band.flags.writeable = False
        return band

    def cache_token(self) -> str:
        """Deterministic parameter string used in cache file names."""
        if self.family is Family.GAUSSIAN:
            return f"gaussian_m{self.m!r}_v{self.sigma2!r}"
        return f"gamma_a{self.a!r}_l{self.lam!r}"


@dataclass(frozen=True)
class QuadratureOpts:
    """Tolerances for the adaptive integrator.

    An infinite integration limit is truncated where the neglected tail
    holds the fraction ``tail_mass_cut`` of the cell's mass.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000
    tail_mass_cut: float = 1e-12

    def __post_init__(self) -> None:
        _require_positive(abs_tol=self.abs_tol, rel_tol=self.rel_tol)
        if not 0.0 < self.tail_mass_cut < 1e-6:
            raise ValueError("tail_mass_cut must lie in (0, 1e-6)")
        if not 4 <= self.max_subdivisions < _INF:
            raise ValueError(
                f"max_subdivisions must be finite and >= 4, got {self.max_subdivisions!r}"
            )


DEFAULT_QUAD = QuadratureOpts()


def _require_d1(spec: DistributionSpec, what: str) -> None:
    if spec.d != 1:
        raise UnsupportedDimensionError(f"{what} requires d=1, got d={spec.d}")


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


# --------------------------------------------------------------------------
# density / distribution / quantile
# --------------------------------------------------------------------------

def _log_density(spec: DistributionSpec, xs: np.ndarray) -> np.ndarray:
    """``log_pdf`` at the array ``xs``, under the caller's ``np.errstate``:
    (x - m)^2 and lam x may overflow to inf at huge |x|, which gives -inf,
    and log(0) is -inf."""
    if spec.family is Family.GAUSSIAN:
        return -0.5 * math.log(2.0 * math.pi * spec.sigma2) - (xs - spec.m) ** 2 / (
            2.0 * spec.sigma2
        )
    a, lam = spec.a, spec.lam
    # the formula on every point, then a fix-up of the few outside (0, inf):
    # masking every call costs more than the formula itself
    if a == 1.0:
        out = math.log(lam) - lam * xs
    else:  # a log(lam) - lgamma(a) + (a - 1) log(x) - lam x, summed in place
        out = np.log(xs)
        out *= a - 1.0
        out += a * math.log(lam) - math.lgamma(a)
        out -= lam * xs
    if not (xs.min(initial=_INF) > 0.0 and xs.max(initial=0.0) < _INF):  # NaN fails it too
        # NaN stays NaN and 0 is already +inf (a < 1), log(lam) (a = 1) or
        # -inf (a > 1); below 0 and at +-inf, where the formula gives NaN
        # or a finite value, the log-density is -inf
        out = np.where((xs < 0.0) | (xs == _INF), -_INF, out)
    return out


def log_pdf(spec: DistributionSpec, x) -> np.ndarray | float:
    """Natural log of the density; -inf outside the support, NaN at NaN."""
    _require_d1(spec, "log_pdf")
    xs, scalar = _as_array(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _ret(_log_density(spec, xs), scalar)


def pdf(spec: DistributionSpec, x) -> np.ndarray | float:
    """Density f(x); zero outside the support."""
    _require_d1(spec, "pdf")
    xs, scalar = _as_array(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _ret(np.exp(_log_density(spec, xs)), scalar)


def _gamma_p_or_q(a: float, x: np.ndarray, upper: bool) -> np.ndarray:
    """Q(a, x) (``upper``) or P(a, x), the regularised incomplete gamma
    functions at x >= 0 (NaN and +inf allowed).

    For a < 1 scipy's series path is slow on x < 1.1, so there both come
    from shape a + 1 (DLMF 8.8.2) with t = x^a e^(-x) / Gamma(a + 1):
    P(a, x) = P(a + 1, x) + t adds two positive terms, and
    Q(a, x) = Q(a + 1, x) - t keeps a point only where
    Q(a + 1, x) + t <= 8 Q(a, x), at most 3 bits lost to cancellation;
    any other point, and every shape a >= 1, takes scipy at shape a.
    """
    fn = special.gammaincc if upper else special.gammainc
    if a >= 1.0:
        return fn(a, x)
    near = x < 1.1
    out = np.empty_like(x)
    out[~near] = fn(a, x[~near])
    xn = x[near]
    with np.errstate(divide="ignore"):
        t = np.exp(a * np.log(xn) - xn - math.lgamma(a + 1.0))
    if upper:
        q1 = special.gammaincc(a + 1.0, xn)
        v = q1 - t
        lossy = q1 + t > 8.0 * v
        v[lossy] = special.gammaincc(a, xn[lossy])
    else:  # two rounded terms can pass 1 where Q(a, x) is below round-off
        v = np.minimum(special.gammainc(a + 1.0, xn) + t, 1.0)
    out[near] = v
    return out


def _tail(spec: DistributionSpec, x, upper: bool) -> np.ndarray | float:
    """``sf`` (``upper``) or ``cdf``; a Gamma shape below 1 is evaluated near
    the origin from shape a + 1 (``_gamma_p_or_q``)."""
    _require_d1(spec, "sf" if upper else "cdf")
    xs, scalar = _as_array(x)
    if spec.family is Family.GAUSSIAN:
        out = special.ndtr((spec.m - xs if upper else xs - spec.m) / spec.sigma)
    else:
        out = _gamma_p_or_q(spec.a, spec.lam * np.maximum(xs, 0.0), upper)
    return _ret(out, scalar)


def cdf(spec: DistributionSpec, x) -> np.ndarray | float:
    """Distribution function P(X <= x)."""
    return _tail(spec, x, False)


def sf(spec: DistributionSpec, x) -> np.ndarray | float:
    """Survival function 1 - cdf, computed without cancellation in the tail."""
    return _tail(spec, x, True)


def _inverse_tail(spec: DistributionSpec, p, upper: bool) -> np.ndarray | float:
    """``quantile_sf`` (``upper``) or ``quantile``: one body for both sides."""
    _require_d1(spec, "quantile_sf" if upper else "quantile")
    ps, scalar = _as_array(p)
    if np.any(ps <= 0.0) or np.any(ps >= 1.0):
        what = "tail mass" if upper else "quantile level"
        raise ValueError(f"{what} must lie strictly inside (0, 1)")
    if spec.family is Family.GAUSSIAN:
        out = spec.m + (-spec.sigma if upper else spec.sigma) * special.ndtri(ps)
    else:
        out = (special.gammainccinv if upper else special.gammaincinv)(spec.a, ps) / spec.lam
    return _ret(out, scalar)


def quantile(spec: DistributionSpec, p) -> np.ndarray | float:
    """Inverse cdf; rejects probabilities outside the open interval (0, 1)."""
    return _inverse_tail(spec, p, False)


def quantile_sf(spec: DistributionSpec, q) -> np.ndarray | float:
    """Upper-tail quantile: the x with sf(x) = q (accurate for tiny q)."""
    return _inverse_tail(spec, q, True)


class _EdgeLaw(NamedTuple):
    """The law at sorted edges, or at runs of them, read one interval
    [edges[i], edges[i+1]] at a time (``_edge_law``).

    ``upper[i]``: interval i takes the sf side, else the cdf side.  ``c``
    holds the cdf of every edge that bounds a lower interval, ``s`` the sf
    of every edge that bounds an upper one; each is 0 outside its run of
    edges.  ``ends``: the edges where one run ends and the next begins.
    """

    upper: np.ndarray
    c: np.ndarray
    s: np.ndarray
    ends: list[int]

    def masses(self) -> np.ndarray:
        """The interval masses, each on its own side; 0 if empty.  A run's
        last interval reads its end as +inf: cdf 1, sf 0."""
        mass = np.where(self.upper, self.s[:-1] - self.s[1:], self.c[1:] - self.c[:-1])
        for i in self.ends:
            mass[i - 1] = self.s[i - 1] if self.upper[i - 1] else 1.0 - self.c[i - 1]
        return np.maximum(mass, 0.0)

    def tails(self) -> np.ndarray:
        """Each interval's tail beyond its lower edge: that edge's cdf on
        the cdf side, its sf on the sf side."""
        return np.where(self.upper, self.s[:-1], self.c[:-1])


def _edge_law(
    spec: DistributionSpec, edges: np.ndarray, starts: list[int] | None = None
) -> _EdgeLaw:
    """The cdf and sf of sorted ``edges`` (infinite ends allowed) where
    their intervals need them; with ``starts``, of runs of sorted edges,
    run j from interval ``starts[j]`` on.  A run ends on the next one's
    first edge, the support's lower end, and reads it as +inf: the grids
    of a batch on one array, each from one end of the support to the
    other.

    Interval i is upper when its lower edge has cdf > 0.5; its mass is
    then an sf difference, else a cdf difference, so neither tail loses
    digits to cancellation.  An edge outside the median band is upper or
    lower by its position alone; inside the band its cdf decides.  In
    each run the cdf runs from the first edge to the last lower
    interval's upper edge and the sf from the first upper interval's
    lower edge to the last edge, so an edge outside the band takes each
    function its intervals need once.  Where the cdf's round-off steps
    back across 0.5 inside the band, the two runs overlap there and the
    same rule holds.
    """
    n = edges.size - 1
    upper = np.zeros(n, bool)
    c, s = np.zeros(n + 1), np.zeros(n + 1)
    bounds = [*(starts or [0]), n]
    for start, end in zip(bounds, bounds[1:]):
        run = edges[start : end + 1]
        k, k_hi = run[:-1].searchsorted(spec._median_band).tolist()
        upper[start + k_hi : end] = True
        c_end, s_start = k, k_hi  # the cdf of run[:c_end + 1], the sf of run[s_start:]
        if k < k_hi:
            band = upper[start + k : start + k_hi] = cdf(spec, run[k:k_hi]) > 0.5
            at = np.arange(k, k_hi)
            s_start = int(at[band].min(initial=k_hi))
            c_end = int(at[~band].max(initial=k - 1)) + 1
        if c_end:
            c[start : start + c_end + 1] = cdf(spec, run[: c_end + 1])
        if s_start < end - start:
            s[start + s_start : end + 1] = sf(spec, run[s_start:])
    return _EdgeLaw(upper, c, s, bounds[1:-1])


def _edge_masses(
    spec: DistributionSpec, edges: np.ndarray, starts: list[int] | None = None
) -> np.ndarray:
    """P([edges[i], edges[i+1]]) for sorted edges, or runs of them
    (``starts``: as in ``_edge_law``; infinite ends allowed), each from
    the cdf or the sf side as ``_edge_law`` decides."""
    return _edge_law(spec, edges, starts).masses()


# --------------------------------------------------------------------------
# cell-wise moment integrals
# --------------------------------------------------------------------------

def _effective_bounds(spec: DistributionSpec, lo, hi, cut: float):
    """Clip [lo, hi] to the support and truncate infinite ends at tail quantiles.

    Elementwise over 1-D arrays of cells; returns the clipped ends.  The
    cut is relative to the cell's own mass: an infinite upper end drops
    the fraction ``cut`` of the mass beyond the finite lower end, and vice
    versa, so far-tail cells keep the same relative accuracy as central
    ones.  Cells with finite ends, as the solver's clipped ones, only take
    the support clip.
    """
    s_lo, s_hi = spec.support
    lo_e = np.maximum(lo, s_lo)
    hi_e = np.minimum(hi, s_hi)
    lo_cut = np.flatnonzero(np.isneginf(lo_e))
    hi_cut = np.flatnonzero(np.isposinf(hi_e))
    tiny = np.finfo(float).tiny  # the dropped mass when the cell's own mass underflows
    if hi_cut.size:  # read before lo_e changes: a cell can be infinite at both ends
        hi_drop = np.maximum(cut * sf(spec, lo_e[hi_cut]), tiny)
    if lo_cut.size:
        lo_e[lo_cut] = quantile(spec, np.maximum(cut * cdf(spec, hi_e[lo_cut]), tiny))
    if hi_cut.size:
        hi_e[hi_cut] = quantile_sf(spec, hi_drop)
    return lo_e, hi_e


def _weighted_piece(
    spec: DistributionSpec,
    pt: float,
    a0: float,
    b0: float,
    q: float,
    opts: QuadratureOpts,
) -> float:
    """integral of |x - pt|**q * f(x) over [a0, b0]; pt never interior."""
    if not a0 < b0:
        return 0.0
    kw = dict(
        abs_tol=opts.abs_tol,
        rel_tol=opts.rel_tol,
        max_subdivisions=opts.max_subdivisions,
    )
    gamma_sing = spec.family is Family.GAMMA and spec.a < 1.0 and a0 == 0.0
    pt_sing = q < 0.0 and (pt == a0 or pt == b0)
    if gamma_sing and pt_sing and pt == b0:
        # singular weight at both ends; give each its own sub-interval
        c = 0.5 * b0
        return _weighted_piece(spec, pt, a0, c, q, opts) + _weighted_piece(
            spec, pt, c, b0, q, opts
        )
    if gamma_sing:
        scale = math.exp(spec.a * math.log(spec.lam) - math.lgamma(spec.a))
        lam = spec.lam
        if pt == a0:
            # weight and density powers share the endpoint: merge them
            merged = q + spec.a - 1.0
            if merged <= -1.0:
                raise ValueError("non-integrable singularity at the support edge")
            return integrate_endpoint_power(
                lambda x: scale * np.exp(-lam * x), merged, a0, b0,
                singular_at="lo", **kw,
            )[0]

        def fn(x: np.ndarray) -> np.ndarray:
            return np.abs(x - pt) ** q * scale * np.exp(-lam * x)

        return integrate_endpoint_power(
            fn, spec.a - 1.0, a0, b0, singular_at="lo", breakpoints=(pt,), **kw
        )[0]
    if pt_sing:
        end = "lo" if pt == a0 else "hi"
        return integrate_endpoint_power(
            lambda x: pdf(spec, x), q, a0, b0, singular_at=end, **kw
        )[0]
    if q == 0.0:
        fn = lambda x: pdf(spec, x)
    else:
        fn = lambda x: np.abs(x - pt) ** q * pdf(spec, x)
    bps = (pt,) if a0 < pt < b0 else ()
    return integrate(fn, a0, b0, breakpoints=bps, **kw)[0]


def _abs_moment(
    spec: DistributionSpec,
    pt: float,
    lo: float,
    hi: float,
    q: float,
    opts: QuadratureOpts,
    signed: bool = False,
) -> float:
    """integral of |x-pt|**q * [sign(pt-x)] * f(x) over [lo, hi]; pt finite, lo <= hi."""
    if not -_INF < pt < _INF:  # NaN fails it too
        raise ValueError(f"need a finite a, got a={pt!r}")
    _require_interval(lo, hi)
    lo_e, hi_e = (
        float(v[0])
        for v in _effective_bounds(spec, np.array([lo]), np.array([hi]), opts.tail_mass_cut)
    )
    if not lo_e < hi_e:
        return 0.0
    if signed:
        if pt <= lo_e:
            pieces = [(lo_e, hi_e, -1.0)]
        elif pt >= hi_e:
            pieces = [(lo_e, hi_e, 1.0)]
        else:
            pieces = [(lo_e, pt, 1.0), (pt, hi_e, -1.0)]
    else:
        if lo_e < pt < hi_e:
            pieces = [(lo_e, pt, 1.0), (pt, hi_e, 1.0)]
        else:
            pieces = [(lo_e, hi_e, 1.0)]
    total = 0.0
    for a0, b0, sgn in pieces:
        total += sgn * _weighted_piece(spec, pt, a0, b0, q, opts)
    return total


def _abs_moments(
    spec: DistributionSpec,
    pt: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    q,
    opts: QuadratureOpts,
    signed=False,
) -> np.ndarray:
    """Array form of ``_abs_moment``: the cells' values from one batched
    integration.  No error bound is returned: a cell that misses its
    tolerance raises ``QuadratureError`` instead.  Cells are clipped by
    ``_effective_bounds``; cells already clipped clip to themselves.

    ``q`` and ``signed`` are scalars or per-cell arrays, so cells with
    different weights (a residual's and a curvature's, or the cells of
    several grids) share one call, and each cell comes out bit for bit as
    in a call of its own.

    Each cell is split at its point, which then sits at or beyond one end
    of each piece.  A piece is integrated in t, the distance from its
    singular end (the point, or the origin for a Gamma shape below 1),
    over [0, b - a].  It passes ``integrate_batch`` its power at t = 0:
    q at the point, a - 1 at the origin, their sum where the two meet.
    A power that is not a non-negative integer gets a Gauss-Jacobi end
    panel there.  For non-integer q, the Gamma piece [0, pt] is cut in
    half so that each singular end has its own piece.
    """
    pt = np.asarray(pt, dtype=float)
    m = pt.size
    q = np.broadcast_to(np.asarray(q, dtype=float), pt.shape)
    signed = np.broadcast_to(signed, pt.shape)
    lo_e, hi_e = _effective_bounds(spec, lo, hi, opts.tail_mass_cut)
    hi_e = np.maximum(hi_e, lo_e)
    cut = np.clip(pt, lo_e, hi_e)
    a = np.concatenate((lo_e, cut))
    b = np.concatenate((cut, hi_e))
    cell = np.concatenate((np.arange(m),) * 2)
    sign = np.concatenate((np.ones(m), np.where(signed, -1.0, 1.0)))
    pt_above = np.arange(2 * m) < m  # the point is at or above b, else at or below a
    gamma_sing = spec.family is Family.GAMMA and spec.a < 1.0
    if gamma_sing:
        # non-smooth at both ends of [0, pt] (non-integer q): give each end its own piece
        both = np.flatnonzero(
            (a == 0.0) & pt_above & (b == pt[cell]) & (b > 0.0) & (q[cell] % 1.0 != 0.0)
        )
        half = 0.5 * b[both]
        a = np.concatenate((a, half))
        b = np.concatenate((b, b[both]))
        b[both] = half
        cell = np.concatenate((cell, cell[both]))
        sign = np.concatenate((sign, sign[both]))
        pt_above = np.concatenate((pt_above, np.ones(both.size, dtype=bool)))
    origin = (a == 0.0) & gamma_sing
    from_b = pt_above & ~origin
    end = np.where(from_b, b, a)
    step = np.where(from_b, -1.0, 1.0)
    shift = step * (end - pt[cell])  # |x - pt| = |t + shift| at x = end + step * t
    at_pt = shift == 0.0
    t_pow = np.where(at_pt, q[cell], 0.0)
    shift_pow = np.where(at_pt, 0.0, q[cell])
    end_pow = t_pow + np.where(origin, spec.a - 1.0, 0.0)  # integrate_batch rejects <= -1
    # factors whose power is 0 everywhere are skipped: the product is bit-identical
    has_t_pow = bool(np.any(t_pow != 0.0))
    has_shift_pow = bool(np.any(shift_pow != 0.0))

    def integrand(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        # t is node-major (16, p), so per-panel values broadcast along rows
        x = step[k] * t
        x += end[k]
        f = pdf(spec, x)
        if has_t_pow:
            f *= t ** t_pow[k]
        if has_shift_pow:
            f *= np.abs(t + shift[k]) ** shift_pow[k]
        return f

    val, _ = integrate_batch(
        integrand,
        np.zeros(a.size),
        b - a,
        power=end_pow,
        abs_tol=opts.abs_tol,
        rel_tol=opts.rel_tol,
        max_subdivisions=opts.max_subdivisions,
    )
    return np.bincount(cell, sign * val, m)


def cell_moment(
    spec: DistributionSpec,
    a: float,
    lo: float,
    hi: float,
    r: float,
    opts: QuadratureOpts = DEFAULT_QUAD,
) -> float:
    """integral of |x - a|**r f(x) over [lo, hi] (+-inf limits allowed).

    The kink of the weight at x = a is always a subdivision point, so the
    integrator only ever sees smooth panels.
    """
    _require_d1(spec, "cell_moment")
    _require_positive(r=r)
    return _abs_moment(spec, float(a), lo, hi, r, opts, signed=False)


def cell_gradient(
    spec: DistributionSpec,
    a: float,
    lo: float,
    hi: float,
    r: float,
    opts: QuadratureOpts = DEFAULT_QUAD,
) -> float:
    """d/da of cell_moment: r * integral |x-a|**(r-1) sign(a-x) f(x) dx.

    Zero exactly at the cell's L^r-optimal point.  Requires a finite r >= 1.
    """
    _require_d1(spec, "cell_gradient")
    if not 1.0 <= r < _INF:
        raise ValueError(f"cell_gradient requires a finite r >= 1, got r={r!r}")
    return r * _abs_moment(spec, float(a), lo, hi, r - 1.0, opts, signed=True)


# --------------------------------------------------------------------------
# closed-form constants
# --------------------------------------------------------------------------

def c_fr(spec: DistributionSpec, r: float) -> float:
    """The density-power normaliser: integral of f**(d/(d+r)).

    Closed form per family; agrees with direct quadrature of the
    defining integral to 1e-8 relative (d=1), which the test-suite pins.
    Gamma: Gamma(e) Gamma(a)**(-1/(1+r)) lam**(-r/(r+1)) (r+1)**e with
    e = (r + a)/(r + 1), as one log-sum of ``lgamma`` terms once Gamma(a)
    leaves the float range (a > 171).  The product is kept below that:
    lgamma(a) is near 700 at a = 170, and its rounding alone would move
    the result by up to 1e-13.
    """
    _require_positive(r=r)
    d = spec.d
    if spec.family is Family.GAUSSIAN:
        det = spec.sigma2**d
        return ((2.0 * math.pi) ** d * det) ** (r / (2.0 * (r + d))) * (
            (d + r) / d
        ) ** (d / 2.0)
    _require_d1(spec, "c_fr for the Gamma family")
    a, lam = spec.a, spec.lam
    e = (r + a) / (r + 1.0)
    if a <= 171.0:
        return (
            math.gamma(e)
            * math.gamma(a) ** (-1.0 / (1.0 + r))
            * lam ** (-r / (r + 1.0))
            * (r + 1.0) ** e
        )
    return math.exp(
        math.lgamma(e) - math.lgamma(a) / (1.0 + r) - r / (r + 1.0) * math.log(lam)
        + e * math.log(r + 1.0)
    )


def cube_coefficient(r: float, d: int = 1, override: float | None = None) -> float:
    """Uniform-cube quantization coefficient J_{r,d}.

    Known in closed form only for d=1 (1/((r+1) 2**r)); any d >= 2 value
    must be supplied by the caller via ``override``.
    """
    if override is not None:
        _require_positive(j_const=override)
        return float(override)
    if d != 1:
        raise UnsupportedDimensionError(
            f"J_(r,d) is built in only for d=1; supply a value for d={d}"
        )
    return 1.0 / ((r + 1.0) * 2.0**r)


def zador_q(spec: DistributionSpec, r: float, j_const: float | None = None) -> float:
    """Asymptotic distortion coefficient: limit of n**(r/d) e_{n,r}**r.

    Factorises as J_{r,d} * c_fr**((d+r)/d); for d >= 2 the caller must
    pass the cube coefficient ``j_const`` explicitly.
    """
    j = cube_coefficient(r, spec.d, override=j_const)
    return j * c_fr(spec, r) ** ((spec.d + r) / spec.d)


def empirical_measure_law(spec: DistributionSpec, s: float) -> DistributionSpec:
    """The limiting codebook point distribution, itself in-family.

    Normalising f**(1/(1+s)) keeps the family: Gaussian variance grows by
    (1+s), the Gamma rate shrinks by (1+s) and the shape maps to
    (a+s)/(1+s).
    """
    _require_d1(spec, "empirical_measure_law")
    _require_positive(s=s)
    if spec.family is Family.GAUSSIAN:
        return DistributionSpec.gaussian(spec.m, (1.0 + s) * spec.sigma2)
    return DistributionSpec.gamma((spec.a + s) / (1.0 + s), spec.lam / (1.0 + s))


def empirical_density(spec: DistributionSpec, s: float, x) -> np.ndarray | float:
    """Limiting point density f(x)**(d/(d+s)) / c_fr(spec, s): the density
    of the in-family ``empirical_measure_law``."""
    return pdf(empirical_measure_law(spec, s), x)


# --------------------------------------------------------------------------
# density-power product integrals (closed form)
# --------------------------------------------------------------------------

def scaled_density_power_integral(
    spec: DistributionSpec,
    theta: float,
    mu: float,
    p_scaled: float,
    p_plain: float,
) -> float:
    """Integral of f(mu + theta (x - mu))**p_scaled * f(x)**p_plain over
    the support.

    Closed form per family.  Gaussian: the integrand is a Gaussian kernel
    of precision A = p_scaled theta**2 + p_plain, so the integral is a
    prefactor times sigma sqrt(2 pi / A).
    Gamma (mu = 0 only): the integrand is C x**(k-1) e**(-rho x) with
    k = (a-1)(p_scaled + p_plain) + 1 and rho = lam (theta p_scaled +
    p_plain), so it is C Gamma(k) rho**(-k).  Raises ValueError when the
    combination diverges (A <= 0, rho <= 0 or k <= 0); the rate
    constants in ``dilatation`` report +inf there.
    """
    _require_d1(spec, "scaled_density_power_integral")
    _require_positive(theta=theta)
    total = p_scaled + p_plain
    if spec.family is Family.GAUSSIAN:
        weight = p_scaled * theta**2
        prec = weight + p_plain
        if prec <= 0.0:
            raise ValueError("divergent: combined quadratic coefficient <= 0")
        # p_scaled theta**2 (x - x0)**2 + p_plain (x - m)**2
        #   = prec (x - centre)**2 + weight p_plain (x0 - m)**2 / prec
        gap = (spec.m - mu) * (1.0 / theta - 1.0)  # x0 - m
        log_c = -0.5 * total * math.log(2.0 * math.pi * spec.sigma2) - (
            weight * p_plain * gap**2 / (2.0 * prec * spec.sigma2)
        )
        return math.exp(log_c) * spec.sigma * math.sqrt(2.0 * math.pi / prec)
    if mu != 0.0:
        raise ValueError("the Gamma family needs mu = 0")
    rho = spec.lam * (theta * p_scaled + p_plain)
    if rho <= 0.0:
        raise ValueError("divergent: combined exponential rate <= 0")
    k = (spec.a - 1.0) * total + 1.0
    if k <= 0.0:
        raise ValueError("divergent: non-integrable power at the origin")
    return math.exp(
        total * (spec.a * math.log(spec.lam) - math.lgamma(spec.a))
        + (spec.a - 1.0) * p_scaled * math.log(theta)
        + math.lgamma(k)
        - k * math.log(rho)
    )
