"""Reference grids for the small-n solves that have no closed form.

At n = 5 the Zador limit is still 14-39% away from n**r * distortion, so
criterion 5's bound cannot judge these grids.  Instead each one was
solved once, independently of quantilab, with QUADPACK (scipy.integrate
``quad`` with algebraic endpoint weights) and a hybrid Powell root
finder on the stationarity system, and stored here for the standard
parameters.  Other location/scale parameters follow by equivariance:
N(m, s2) grids are m + sqrt(s2) * g, Gamma(a, lam) grids are g / lam.

    python3 perfbench/references.py    # recompute and compare
"""

from __future__ import annotations

import math

# (family, shape, n, r) -> points for N(0, 1) or Gamma(shape, 1)
REFERENCE_GRIDS: dict[tuple[str, float, int, float], tuple[float, ...]] = {
    ("gaussian", 0.0, 2, 1.5): (-0.7395261048152175, 0.7395261048152176),
    ("gaussian", 0.0, 5, 1.5): (
        -1.59038549558967,
        -0.7037993111807114,
        -1.0853402436730928e-14,
        0.7037993111806947,
        1.590385495589645,
    ),
    ("gamma", 3.0, 2, 3.0): (2.266493021879478, 5.907431444467408),
    ("gamma", 3.0, 5, 3.0): (
        1.3011948182656277,
        2.7436139362135425,
        4.338832319464902,
        6.378132435516251,
        9.569361861024738,
    ),
}


def reference_grid(family: str, shape: float, n: int, r: float, loc: float, scale: float):
    """Stored grid mapped to location ``loc`` and scale ``scale``."""
    return [loc + scale * p for p in REFERENCE_GRIDS[(family, shape, n, r)]]


def solve_reference(family: str, shape: float, n: int, r: float) -> list[float]:
    """Independent stationary grid: QUADPACK cell gradients + hybrid root."""
    import numpy as np
    from scipy import integrate, optimize, stats

    if family == "gaussian":
        law, lo, hi = stats.norm(), -40.0, 40.0
    else:
        law, lo, hi = stats.gamma(shape), 0.0, 200.0

    def half(a: float, end: float) -> float:
        # integral of |x - a|**(r-1) f(x) between a and end
        if end == a:
            return 0.0
        left, right = (end, a) if end < a else (a, end)
        wvar = (0.0, r - 1.0) if end < a else (r - 1.0, 0.0)
        val, _ = integrate.quad(
            law.pdf, left, right, weight="alg", wvar=wvar,
            epsabs=1e-16, epsrel=1e-13, limit=400,
        )
        return val

    def residual(pts: np.ndarray) -> np.ndarray:
        pts = np.sort(pts)
        bounds = np.concatenate(([lo], 0.5 * (pts[1:] + pts[:-1]), [hi]))
        return np.array(
            [half(a, bounds[i]) - half(a, bounds[i + 1]) for i, a in enumerate(pts)]
        )

    start = law.ppf((np.arange(n) + 0.5) / n)
    sol = optimize.root(residual, start, method="hybr", options={"xtol": 1e-13})
    worst = float(np.max(np.abs(residual(sol.x))))
    if not worst <= 1e-13:
        raise RuntimeError(f"reference solve failed (residual {worst:.2e}): {sol.message}")
    return [float(p) for p in np.sort(sol.x)]


def main() -> int:
    worst = 0.0
    for key, stored in REFERENCE_GRIDS.items():
        fresh = solve_reference(*key)
        gap = max(abs(a - b) for a, b in zip(fresh, stored))
        worst = max(worst, gap)
        print(f"{key}: {fresh!r}  max gap to stored {gap:.2e}")
    ok = math.isfinite(worst) and worst <= 1e-9
    print("references", "match" if ok else "DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
