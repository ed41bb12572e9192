"""Rate constants of dilated/contracted optimal quantizer sequences.

For a sequence of L^r-optimal grids mapped by x -> mu + theta (x - mu),
this module evaluates the asymptotic lower-bound constant ``q_inf``, the
upper-bound constant ``q_sup_sub`` (s < r), the integrability condition
that governs rate-optimality, and the family-specific optimal scaling
number ``theta_star`` with its admissible range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .distributions import (
    DistributionSpec,
    Family,
    _require_positive,
    c_fr,
    cube_coefficient,
    scaled_density_power_integral,
    zador_q,
)

__all__ = [
    "RateQuery",
    "RateConstants",
    "AdmissibilityError",
    "theta_star",
    "admissible_theta_range",
    "q_inf",
    "q_sup_sub",
    "condition_integral",
    "rate_constants",
    "default_mu",
]

_INF = math.inf


class AdmissibilityError(ValueError):
    """Parameter combination outside the family's validity window."""


def default_mu(spec: DistributionSpec) -> float:
    """Natural translation centre: the Gaussian mean, else the support edge."""
    return spec.m if spec.family is Family.GAUSSIAN else 0.0


@dataclass(frozen=True)
class RateQuery:
    """One (distribution, r, s, theta, mu) constant evaluation request.

    ``mu=None`` resolves to the family default.  Only the Gaussian family
    (full support) accepts an arbitrary translation; the half-line
    families need mu = 0 to keep the scaled support inside the original.
    """

    spec: DistributionSpec
    r: float
    s: float
    theta: float
    mu: float | None = None

    def __post_init__(self) -> None:
        _require_positive(r=self.r, s=self.s, theta=self.theta)
        if self.mu is None:
            object.__setattr__(self, "mu", default_mu(self.spec))
        elif not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        elif self.spec.family is not Family.GAUSSIAN and self.mu != 0.0:
            raise AdmissibilityError(
                "nonzero mu breaks the support condition for half-line families"
            )


@dataclass(frozen=True)
class RateConstants:
    """Bundle of constants for one query; q_sup_sub is None when s >= r."""

    q_inf: float
    q_sup_sub: float | None
    condition_integral: float
    theta_admissible: bool
    theta_star: float


def theta_star(spec: DistributionSpec, r: float, s: float) -> float:
    """The scaling number minimising the upper-bound constant.

    Gaussian: sqrt((s+d)/(r+d)); Gamma: (s+a)/(r+a), which is
    (s+1)/(r+1) for the exponential law.  For the Gamma family with
    s > r+1 the formula is only valid for shapes below (s+r+1)/s.
    """
    _require_positive(r=r, s=s)
    if spec.family is Family.GAUSSIAN:
        if s == r + spec.d:
            warnings.warn(
                "s == r + d sits outside the proven equivalence window; "
                "returning the formula value anyway",
                stacklevel=2,
            )
        return math.sqrt((s + spec.d) / (r + spec.d))
    a = spec.a
    if s > r + 1.0 and a >= (s + r + 1.0) / s:
        raise AdmissibilityError(
            f"Gamma shape {a} outside (0, {(s + r + 1.0) / s:.6g}) for s > r+1"
        )
    return (s + a) / (r + a)


def _condition_threshold(spec: DistributionSpec, r: float, s: float) -> float:
    """theta above which the s/(d+r)-power product integral is finite."""
    if spec.family is Family.GAUSSIAN:
        return math.sqrt(s / (spec.d + r))
    return s / (r + 1.0)


def _holder_threshold(spec: DistributionSpec, r: float, s: float) -> float:
    """theta above which the s<r upper-bound integral is finite."""
    if spec.family is Family.GAUSSIAN:
        return math.sqrt(s / r)
    return s / r


def admissible_theta_range(
    spec: DistributionSpec, r: float, s: float
) -> tuple[float, float]:
    """Open interval of scaling numbers keeping the dilated sequence
    rate-optimal in L^s: (threshold, +inf).

    For s >= r the necessary-and-sufficient threshold applies; for s < r
    the (sufficient) upper-bound threshold is returned.
    """
    _require_positive(r=r, s=s)
    if s >= r:
        return (_condition_threshold(spec, r, s), _INF)
    return (_holder_threshold(spec, r, s), _INF)


def _integral_or_inf(query: RateQuery, p_scaled: float, p_plain: float) -> float:
    """The closed form at a validated query, +inf where it diverges: at a Gamma
    origin power, or by rounding just above an analytic threshold."""
    try:
        return scaled_density_power_integral(query.spec, query.theta, query.mu, p_scaled, p_plain)
    except ValueError:
        return _INF


def _q_inf_from(query: RateQuery, cond: float) -> float:
    """q_inf from the condition integral: theta**(s+d) * J_{s,d} *
    c_fr(spec, r)**(s/d) * cond, or +inf when cond is."""
    if math.isinf(cond):
        return _INF
    spec, s = query.spec, query.s
    j = cube_coefficient(s, spec.d)
    return query.theta ** (s + spec.d) * j * c_fr(spec, query.r) ** (s / spec.d) * cond


def q_inf(query: RateQuery) -> float:
    """Asymptotic lower-bound constant for the dilated sequence.

    theta**(s+d) * J_{s,d} * c_fr(spec, r)**(s/d) times the condition
    integral of f_(theta,mu) f**(-s/(d+r)); +inf whenever that integral
    is (``condition_integral``).
    """
    return _q_inf_from(query, condition_integral(query))


def q_sup_sub(query: RateQuery) -> float:
    """Asymptotic upper-bound constant, s < r branch.

    theta**(s+d) * Q_r**(s/r) * (Hoelder integral)**(1 - s/r); +inf at or
    below the family threshold and wherever that integral diverges.  Calling
    it with s >= r is a usage error (the s > r bound carries an unknown
    constant and is not computed here).
    """
    spec, r, s = query.spec, query.r, query.s
    if s >= r:
        raise ValueError("q_sup_sub is defined for s < r only")
    if spec.d != 1:
        raise ValueError("q_sup_sub evaluation requires d=1")
    if query.theta <= _holder_threshold(spec, r, s):
        return _INF
    integral = _integral_or_inf(query, r / (r - s), -s / (r - s))
    return (
        query.theta ** (s + spec.d)
        * zador_q(spec, r) ** (s / r)
        * integral ** (1.0 - s / r)
    )


def condition_integral(query: RateQuery) -> float:
    """The integral of f_(theta,mu) f**(-s/(d+r)) over the support.

    Finiteness of this quantity is equivalent to L^s-rate-optimality of
    the dilated sequence (for s > r; for s < r it is sufficient via the
    lower bound).  +inf at or below the family threshold, and above it
    wherever the closed form diverges (``_integral_or_inf``).
    """
    spec, r, s = query.spec, query.r, query.s
    if spec.d != 1:
        raise ValueError("condition_integral evaluation requires d=1")
    if query.theta <= _condition_threshold(spec, r, s):
        return _INF
    return _integral_or_inf(query, 1.0, -s / (spec.d + r))


def rate_constants(query: RateQuery) -> RateConstants:
    """Evaluate every constant for one query in a single bundle."""
    spec, r, s = query.spec, query.r, query.s
    cond = condition_integral(query)
    qs = q_sup_sub(query) if s < r else None
    lo, _ = admissible_theta_range(spec, r, s)
    return RateConstants(
        q_inf=_q_inf_from(query, cond),
        q_sup_sub=qs,
        condition_integral=cond,
        theta_admissible=query.theta > lo,
        theta_star=theta_star(spec, r, s),
    )
