"""Independent references for closed forms in quantilab.

``quadrature_sdpi`` integrates f(mu + theta (x - mu))**p_scaled *
f(x)**p_plain with the adaptive scalar integrator, so tests of the
closed-form ``scaled_density_power_integral`` (and of constants built on
it) compare against a quadrature rather than against the closed form
itself.  ``mp_cell_moment`` evaluates a cell integral with mpmath's
tanh-sinh rule, independently of the library's quadrature.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from quantilab._quad import integrate, integrate_endpoint_power
from quantilab.distributions import DEFAULT_QUAD, Family, QuadratureOpts, log_pdf


def quadrature_sdpi(
    spec,
    theta: float,
    mu: float,
    p_scaled: float,
    p_plain: float,
    opts: QuadratureOpts = DEFAULT_QUAD,
) -> float:
    """Quadrature of f(mu + theta (x - mu))**p_scaled * f(x)**p_plain.

    The integrand is evaluated in log space over the support, truncated
    where the analytic decay of the combined exponent says.  Raises
    ValueError when the requested combination diverges.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")

    def log_integrand(x: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x)
        if p_scaled != 0.0:
            acc = acc + p_scaled * log_pdf(spec, mu + theta * (x - mu))
        if p_plain != 0.0:
            acc = acc + p_plain * log_pdf(spec, x)
        return acc

    kw = dict(
        abs_tol=opts.abs_tol,
        rel_tol=opts.rel_tol,
        max_subdivisions=opts.max_subdivisions,
    )

    if spec.family is Family.GAUSSIAN:
        quad_coef = p_scaled * theta**2 + p_plain
        if quad_coef <= 0.0:
            raise ValueError("divergent: combined quadratic coefficient <= 0")
        x0 = mu + (spec.m - mu) / theta  # centre of the scaled factor
        centre = (p_scaled * theta**2 * x0 + p_plain * spec.m) / quad_coef
        width = spec.sigma / math.sqrt(quad_coef)
        w_lo, w_hi = centre - 12.0 * width, centre + 12.0 * width
        bps = [centre + k * width for k in (-4.0, -1.0, 0.0, 1.0, 4.0)]
        val, _ = integrate(
            lambda x: np.exp(log_integrand(x)), w_lo, w_hi, breakpoints=bps, **kw
        )
        return val

    rate = spec.lam * (p_scaled * theta + p_plain)
    if rate <= 0.0:
        raise ValueError("divergent: combined exponential rate <= 0")
    power = (spec.a - 1.0) * (p_scaled + p_plain)
    if power <= -1.0:
        raise ValueError("divergent: non-integrable power at the origin")
    w_hi = (max(power, 0.0) + 60.0) / rate
    mode = max(power, 0.0) / rate
    bps = [mode + k / rate for k in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    if power < 0.0:
        def fn_smooth(x: np.ndarray) -> np.ndarray:
            return np.exp(log_integrand(x) - power * np.log(x))

        val, _ = integrate_endpoint_power(
            fn_smooth, power, 0.0, w_hi, singular_at="lo", breakpoints=bps, **kw
        )
        return val
    val, _ = integrate(
        lambda x: np.exp(log_integrand(x)), 0.0, w_hi, breakpoints=bps, **kw
    )
    return val


def _mp_density(spec):
    if spec.family is Family.GAUSSIAN:
        m, s2 = mpmath.mpf(spec.m), mpmath.mpf(spec.sigma2)
        norm = mpmath.sqrt(2 * mpmath.pi * s2)
        return lambda x: mpmath.exp(-((x - m) ** 2) / (2 * s2)) / norm
    a, lam = mpmath.mpf(spec.a), mpmath.mpf(spec.lam)
    norm = lam**a / mpmath.gamma(a)
    return lambda x: norm * x ** (a - 1) * mpmath.exp(-lam * x)


def mp_cell_moment(spec, pt: float, lo: float, hi: float, q: float, dps: int = 30) -> float:
    """integral of |x - pt|**q f(x) over [lo, hi] (lo <= pt <= hi, infinite ends allowed).

    Each side of the point is integrated in u = t**(q + 1), t the distance
    from the point, so the weight is exact there and tanh-sinh meets no
    power singularity (it loses digits on t**q, q < 0, directly).  A Gamma
    cell at the origin is cut at pt / 2 and its half next to 0 is
    integrated in v = x**a for the same reason.
    """
    with mpmath.workdps(dps):
        f = _mp_density(spec)
        p = mpmath.mpf(pt)
        c = mpmath.mpf(q) + 1

        def from_point(g, length):
            end = mpmath.mpf(length) ** c if math.isfinite(length) else mpmath.inf
            return mpmath.quad(lambda u: g(u ** (1 / c)), [0, end]) / c

        lo = max(lo, spec.support[0])
        total = from_point(lambda t: f(p + t), hi - pt)
        if spec.family is Family.GAMMA and lo == 0.0:
            a = mpmath.mpf(spec.a)

            def near_origin(v):
                x = v ** (1 / a)
                return (p - x) ** q * f(x) * x / (a * v)

            total += from_point(lambda t: f(p - t), p / 2)
            total += mpmath.quad(near_origin, [0, (p / 2) ** a])
        else:
            total += from_point(lambda t: f(p - t), pt - lo)
        return float(total)
