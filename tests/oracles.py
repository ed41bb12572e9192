"""Independent references for closed forms in quantilab.

``quadrature_sdpi`` integrates f(mu + theta (x - mu))**p_scaled *
f(x)**p_plain with the adaptive scalar integrator, so tests of the
closed-form ``scaled_density_power_integral`` (and of constants built on
it) compare against a quadrature rather than against the closed form
itself.
"""

from __future__ import annotations

import math

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
    lo: float | None = None,
    hi: float | None = None,
) -> float:
    """Quadrature of f(mu + theta (x - mu))**p_scaled * f(x)**p_plain.

    The integrand is evaluated in log space over the support intersected
    with [lo, hi]; with the default unbounded window the truncation point
    is chosen from the analytic decay of the combined exponent.  Raises
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
        if lo is not None:
            w_lo = max(w_lo, lo)
        if hi is not None:
            w_hi = min(w_hi, hi)
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
    w_lo = 0.0
    if lo is not None:
        w_lo = max(w_lo, lo)
    if hi is not None:
        w_hi = min(w_hi, hi)
    if not w_lo < w_hi:
        return 0.0
    mode = max(power, 0.0) / rate
    bps = [mode + k / rate for k in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    if power < 0.0 and w_lo == 0.0:
        def fn_smooth(x: np.ndarray) -> np.ndarray:
            return np.exp(log_integrand(x) - power * np.log(x))

        val, _ = integrate_endpoint_power(
            fn_smooth, power, w_lo, w_hi, singular_at="lo", breakpoints=bps, **kw
        )
        return val
    val, _ = integrate(
        lambda x: np.exp(log_integrand(x)), w_lo, w_hi, breakpoints=bps, **kw
    )
    return val
