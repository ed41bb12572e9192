"""Adaptive Gauss-Legendre quadrature over finite intervals.

Panels are bisected worst-estimated-error first until the summed panel
error bound meets the requested tolerance.  Endpoint power singularities
``|x - end|**p`` with ``p`` in (-1, 0) are removed by a monomial change
of variable rather than by brute-force subdivision.

``integrate_batch`` runs many integrals at once as ``(panels, 16)`` node
arrays, with the same per-integral stopping test and subdivision budget.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


class QuadratureError(ArithmeticError):
    """Quadrature did not converge within its subdivision budget.

    Attributes:
        estimate: best available value of the integral.
        error_bound: estimated absolute error of ``estimate``.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = float(estimate)
        self.error_bound = float(error_bound)


def _panel(fn: Integrand, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    vals = fn(0.5 * (lo + hi) + half * _NODES)
    return half * float(np.dot(vals, _WEIGHTS))


def integrate(
    fn: Integrand,
    lo: float,
    hi: float,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_subdivisions: int = 4000,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate a vectorised ``fn`` over ``[lo, hi]``.

    ``breakpoints`` are forced initial subdivision points; pass kinks and
    bump centres here, the refinement loop only reacts to what the error
    estimator can already see.  Returns ``(value, error_bound)``.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        return 0.0, 0.0
    cuts = [lo] + sorted(float(p) for p in set(breakpoints) if lo < p < hi) + [hi]

    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    panels = 0
    total = 0.0
    err_total = 0.0

    def push(a: float, b: float, whole: float | None = None) -> None:
        nonlocal seq, panels, total, err_total
        if whole is None:
            whole = _panel(fn, a, b)
        mid = 0.5 * (a + b)
        left = _panel(fn, a, mid)
        right = _panel(fn, mid, b)
        refined = left + right
        if not math.isfinite(refined):
            raise QuadratureError(
                "integrand produced non-finite values", total, math.inf
            )
        err = abs(refined - whole)
        total += refined
        err_total += err
        heapq.heappush(heap, (-err, seq, a, b, left, right))
        seq += 1
        panels += 1

    for a, b in zip(cuts, cuts[1:]):
        push(a, b)

    while err_total > max(abs_tol, rel_tol * abs(total)):
        neg_err, _, a, b, left, right = heapq.heappop(heap)
        err = -neg_err
        if err <= 0.0:
            break  # every panel already at the round-off floor
        total -= left + right
        err_total -= err
        mid = 0.5 * (a + b)
        if not a < mid < b:
            # panel width at machine resolution; keep the value, stop
            # charging its error against the budget
            total += left + right
            heapq.heappush(heap, (0.0, seq, a, b, left, right))
            seq += 1
            continue
        if panels + 2 > max_subdivisions:
            raise QuadratureError(
                f"no convergence within {max_subdivisions} panels "
                f"(estimate {total + left + right:.17g}, "
                f"error bound {err_total + err:.3g})",
                total + left + right,
                err_total + err,
            )
        push(a, mid, whole=left)
        push(mid, b, whole=right)

    return total, err_total


BatchIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

_CHUNK = 1024  # panels per integrand call: bounds the node arrays' memory


def _panels(fn: BatchIntegrand, a: np.ndarray, b: np.ndarray, owner: np.ndarray) -> np.ndarray:
    out = np.empty(a.size)
    for s in range(0, a.size, _CHUNK):
        part = slice(s, s + _CHUNK)
        half = 0.5 * (b[part] - a[part])
        x = (0.5 * (a[part] + b[part]))[:, None] + half[:, None] * _NODES
        out[part] = half * (fn(x, owner[part]) @ _WEIGHTS)
    return out


def integrate_batch(
    fn: BatchIntegrand,
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_subdivisions: int = 4000,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``m`` integrands over ``[lo[k], hi[k]]`` in one array pass.

    ``fn(x, owner)`` evaluates integrand ``owner[j]`` at the nodes ``x[j]``
    of a ``(p, 16)`` array.  Refinement is level-synchronous: each round
    bisects, in every integral that has not yet met ``integrate``'s test
    (summed panel error <= max(abs_tol, rel_tol * |total|)), the panels
    whose error exceeds an even share of half that tolerance.  Returns
    ``(values, error_bounds)``; empty or reversed intervals give zero.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m = lo.size
    total = np.zeros(m)
    err_total = np.zeros(m)
    owner = np.flatnonzero(lo < hi)
    a, b = lo[owner], hi[owner]
    mid = 0.5 * (a + b)
    whole, left, right = _panels(
        fn, np.concatenate((a, a, mid)), np.concatenate((b, mid, b)), np.concatenate((owner,) * 3)
    ).reshape(3, -1)
    err = np.abs(left + right - whole)
    count = np.bincount(owner, minlength=m)
    while True:
        refined = left + right
        sums = np.bincount(owner, refined, m)
        errs = np.bincount(owner, err, m)
        if not np.all(np.isfinite(refined)):
            k = owner[~np.isfinite(refined)][0]
            raise QuadratureError("integrand produced non-finite values", sums[k], math.inf)
        tol = np.maximum(abs_tol, rel_tol * np.abs(sums))
        npan = np.bincount(owner, minlength=m)
        finished = (npan > 0) & (errs <= tol)
        total[finished] = sums[finished]
        err_total[finished] = errs[finished]
        live = ~finished[owner]
        if not live.any():
            return total, err_total
        owner, a, b, left, right, err = (
            v[live] for v in (owner, a, b, left, right, err)
        )
        split = err > (0.5 * tol / np.maximum(npan, 1))[owner]
        mid = 0.5 * (a + b)
        # a panel at machine resolution keeps its value; its error is no
        # longer charged against the budget
        floor = split & ~((a < mid) & (mid < b))
        err[floor] = 0.0
        split &= ~floor
        count += 2 * np.bincount(owner[split], minlength=m)
        over = np.flatnonzero(count > max_subdivisions)
        if over.size:
            k = over[0]
            raise QuadratureError(
                f"no convergence within {max_subdivisions} panels "
                f"(estimate {sums[k]:.17g}, error bound {errs[k]:.3g})",
                sums[k],
                errs[k],
            )
        sa, sm, sb, sk = a[split], mid[split], b[split], owner[split]
        q1, q3 = 0.5 * (sa + sm), 0.5 * (sm + sb)
        l1, r1, l2, r2 = _panels(
            fn,
            np.concatenate((sa, q1, sm, q3)),
            np.concatenate((q1, sm, q3, sb)),
            np.concatenate((sk,) * 4),
        ).reshape(4, -1)
        keep = ~split
        err = np.concatenate(
            (err[keep], np.abs(l1 + r1 - left[split]), np.abs(l2 + r2 - right[split]))
        )
        owner = np.concatenate((owner[keep], sk, sk))
        a = np.concatenate((a[keep], sa, sm))
        b = np.concatenate((b[keep], sm, sb))
        left = np.concatenate((left[keep], l1, l2))
        right = np.concatenate((right[keep], r1, r2))


def integrate_endpoint_power(
    fn: Integrand,
    power: float,
    lo: float,
    hi: float,
    *,
    singular_at: str = "lo",
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_subdivisions: int = 4000,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Integrate ``|x - end|**power * fn(x)`` over ``[lo, hi]``.

    ``end`` is ``lo`` or ``hi`` per ``singular_at``; ``fn`` must stay
    bounded up to that endpoint.  Valid for ``power > -1``; the
    substitution u = |x-end|**(power+1) makes the integrand bounded, so
    this is the route for genuinely singular weights (power < 0).
    """
    if power <= -1.0:
        raise ValueError(f"power must exceed -1, got {power}")
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        return 0.0, 0.0
    c = power + 1.0
    inv = 1.0 / c
    span = hi - lo
    upper = span**c
    if singular_at == "lo":
        g = lambda u: fn(lo + u**inv)
        bps = [(p - lo) ** c for p in breakpoints if lo < p < hi]
    elif singular_at == "hi":
        g = lambda u: fn(hi - u**inv)
        bps = [(hi - p) ** c for p in breakpoints if lo < p < hi]
    else:
        raise ValueError("singular_at must be 'lo' or 'hi'")
    val, err = integrate(
        g,
        0.0,
        upper,
        abs_tol=abs_tol * c,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        breakpoints=bps,
    )
    return val * inv, err * inv
