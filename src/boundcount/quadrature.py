"""Gauss-Legendre panel quadrature and the periodic angular rule.

All radial/line integrals in the package go through ``adaptive_integral``:
fixed-order Gauss-Legendre panels, bisected until the local two-level
estimate meets the requested relative tolerance.  Angular integrals use the
uniform trapezoid rule on [0, 2pi), which is exact for trigonometric
polynomials of degree below the node count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonFiniteError, QuadratureError

_RULE_ORDER = 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_RULE_ORDER)


def _panel(f: Callable, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = f(mid + half * _GL_NODES)
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = mid + half * _GL_NODES[~np.isfinite(vals)][0]
        raise NonFiniteError(f"non-finite integrand sample at x={bad!r}", where=bad)
    return half * float(np.dot(_GL_WEIGHTS, vals))


def adaptive_integral(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    max_depth: int = 48,
    interval_id=None,
) -> tuple[float, float]:
    """Integrate ``f`` over [a, b], returning (value, error estimate).

    ``f`` must accept a 1D numpy array of abscissae.  Panels are split until
    |GL(panel) - GL(left) - GL(right)| passes its share of the tolerance: a
    width-proportional part plus a small flat floor (2^-12 of the scale per
    panel).  The floor is what lets jump discontinuities terminate; without
    it the error and the budget of the jump panel shrink at the same rate.
    Raises QuadratureError (carrying the partial value) if a panel cannot
    converge within ``max_depth`` bisections.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    coarse = _panel(f, a, b)
    scale = max(abs(coarse), 1e-300)
    total = 0.0
    err_total = 0.0
    # stack of (lo, hi, coarse value, depth)
    stack = [(a, b, coarse, 0)]
    while stack:
        lo, hi, val, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        refined = left + right
        err = abs(refined - val)
        running = max(scale, abs(total) + abs(refined))
        budget = rel_tol * running * ((hi - lo) / (b - a) + 2.0 ** -12)
        if err <= budget or err <= 1e-300:
            total += refined
            err_total += err
        elif depth >= max_depth:
            raise QuadratureError(
                f"panel [{lo}, {hi}] failed to converge after {depth} bisections",
                partial=total + refined,
                interval=interval_id,
            )
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total, err_total


def angular_nodes(n: int) -> tuple[np.ndarray, float]:
    """Uniform nodes on [0, 2pi) and the common trapezoid weight 2pi/n."""
    if n < 8:
        raise ValueError("angular quadrature needs at least 8 nodes")
    return 2.0 * np.pi * np.arange(n) / n, 2.0 * np.pi / n

