"""Gauss-Legendre panel quadrature and the periodic angular rule.

All radial/line integrals in the package go through ``adaptive_integral``:
fixed-order Gauss-Legendre panels, bisected until the local two-level
estimate meets the requested relative tolerance.  It takes a sequence of k
intervals that share one integrand, returns their k values, and bisects
them together: each round pops one panel from every interval that still has
one and samples both halves of all of them in one call of the integrand.
Each interval keeps its own depth-first stack, scale and running total, so
its value is the one a bisection of that interval alone gives, bit for bit.
Angular integrals use the uniform trapezoid rule on [0, 2pi), which is
exact for trigonometric polynomials of degree below the node count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonFiniteError, QuadratureError

_RULE_ORDER = 15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_RULE_ORDER)


def _panels(f: Callable, lo: list, hi: list) -> list:
    """The Gauss-Legendre values of the panels [lo_i, hi_i] from one call of
    ``f``; a panel with a non-finite sample gets its NonFiniteError instead.
    The weighted sums stay one np.dot per panel: a stacked product sums in
    another order."""
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
    half = [0.5 * (b - a) for a, b in zip(lo, hi)]
    x = np.array(mid)[:, None] + np.array(half)[:, None] * _GL_NODES
    vals = np.ascontiguousarray(np.asarray(f(x.ravel()), dtype=float).reshape(x.shape))
    finite = np.isfinite(vals)
    out = []
    for m, h, row, ok in zip(mid, half, vals, finite.all(axis=1)):
        if ok:
            out.append(h * float(np.dot(_GL_WEIGHTS, row)))
        else:
            bad = m + h * _GL_NODES[~np.isfinite(row)][0]
            out.append(NonFiniteError(f"non-finite integrand sample at x={bad!r}", where=bad))
    return out


def adaptive_integral(
    f: Callable,
    a,
    b,
    rel_tol: float = 1e-8,
    max_depth: int = 48,
    interval_id=None,
) -> np.ndarray:
    """Integrate ``f`` over each interval [a_i, b_i], returning the values.

    ``a`` and ``b`` are sequences of k interval ends, and ``interval_id``
    may give one id per interval.  ``f`` must accept a 1D numpy array of
    abscissae and act on each point alone.  Panels are split until
    |GL(panel) - GL(left) - GL(right)| passes its share of the tolerance: a
    width-proportional part plus a small flat floor (2^-12 of the scale per
    panel).  The floor is what lets jump discontinuities terminate; without
    it the error and the budget of the jump panel shrink at the same rate.
    Raises QuadratureError (carrying the partial value and the interval's
    id) if a panel cannot converge within ``max_depth`` bisections, and
    NonFiniteError at a non-finite sample.  Such a failure stops its
    interval and every later one; the others finish, and the failure of the
    first interval that failed is raised.
    """
    lo, hi = (np.asarray(e, dtype=float).tolist() for e in np.broadcast_arrays(a, b))
    for x, y in zip(lo, hi):
        if not y > x:
            raise ValueError(f"empty integration interval [{x}, {y}]")
    k = len(lo)
    ids = [None] * k if interval_id is None else list(interval_id)
    totals = [0.0] * k
    scales = [0.0] * k
    failed = k  # index of the first interval that failed
    failure = None
    # per interval, a stack of (lo, hi, coarse value, depth)
    stacks = [[] for _ in range(k)]
    for i, coarse in enumerate(_panels(f, lo, hi)):
        if isinstance(coarse, Exception):
            failed, failure = i, coarse
            break
        scales[i] = max(abs(coarse), 1e-300)
        stacks[i].append((lo[i], hi[i], coarse, 0))
    while True:
        live = [i for i in range(failed) if stacks[i]]
        if not live:
            break
        popped = [stacks[i].pop() for i in live]
        edges = []
        for p_lo, p_hi, _, _ in popped:
            mid = 0.5 * (p_lo + p_hi)
            edges += ((p_lo, mid), (mid, p_hi))
        children = _panels(f, *zip(*edges))
        for n, (i, (p_lo, p_hi, val, depth)) in enumerate(zip(live, popped)):
            left, right = children[2 * n], children[2 * n + 1]
            bad = left if isinstance(left, Exception) else right
            if isinstance(bad, Exception):
                failed, failure = i, bad
                break
            mid = edges[2 * n][1]
            refined = left + right
            err = abs(refined - val)
            running = max(scales[i], abs(totals[i]) + abs(refined))
            budget = rel_tol * running * ((p_hi - p_lo) / (hi[i] - lo[i]) + 2.0 ** -12)
            if err <= budget or err <= 1e-300:
                totals[i] += refined
            elif depth >= max_depth:
                failed, failure = i, QuadratureError(
                    f"panel [{p_lo}, {p_hi}] failed to converge after {depth} bisections",
                    partial=totals[i] + refined,
                    interval=ids[i],
                )
                break
            else:
                stacks[i].append((p_lo, mid, left, depth + 1))
                stacks[i].append((mid, p_hi, right, depth + 1))
    if failure is not None:
        raise failure
    return np.array(totals)


def angular_nodes(n: int) -> tuple[np.ndarray, float]:
    """Uniform nodes on [0, 2pi) and the common trapezoid weight 2pi/n."""
    if n < 8:
        raise ValueError("angular quadrature needs at least 8 nodes")
    return 2.0 * np.pi * np.arange(n) / n, 2.0 * np.pi / n
