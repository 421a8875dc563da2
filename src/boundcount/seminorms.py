"""Sequence and function seminorms controlling the eigenvalue counts.

The central object is the sequence zhat(G): the integral of G over (-1, 1)
followed by |t|-weighted integrals over the exponentially growing shells
e^{j-1} < |t| < e^j.  Its weak-l1 quasinorm, together with the L1(R+, Lp(S))
norm of the non-radial part, makes up the bound functional B; the counting
estimate asserts N_- <= 1 + C(p) alpha B with an unspecified constant, so
only B and empirical ratios are ever reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .potentials import Decomposition, EffectivePotential, PotentialSpec, decompose, effective_potential
from .quadrature import adaptive_integral, angular_nodes

# default_window spans this fraction of the distinct thresholds above the floor
WINDOW_TAIL_FRACTION = 0.3
# l1lp_norm's tail check integrates this many units of t beyond each end
L1LP_TAIL_MARGIN = 6.0


@dataclass(frozen=True)
class ZhatSequence:
    """Truncated sequence zhat_0..zhat_J with per-entry quadrature errors.

    Entry 0 integrates G over (-1, 1); entry j >= 1 integrates |t| G(t) over
    e^{j-1} < |t| < e^j (both signs of t summed).
    """

    values: np.ndarray
    errors: np.ndarray

    @property
    def truncation_index(self) -> int:
        return self.values.size - 1

    def __len__(self):
        return self.values.size

    def __getitem__(self, j):
        return self.values[j]


def _split_integral(f: Callable, a: float, b: float, cuts, rel_tol: float,
                    interval_id=None) -> tuple[float, float]:
    """adaptive_integral over [a, b] in pieces split at the ``cuts`` inside
    it: a jump between a panel's outermost node and its edge is invisible to
    the bisection estimate, so the jumps of f must be panel edges."""
    points = [a, *sorted(c for c in cuts if a < c < b), b]
    value = err = 0.0
    for lo, hi in zip(points, points[1:]):
        v, e = adaptive_integral(f, lo, hi, rel_tol, interval_id=interval_id)
        value += v
        err += e
    return value, err


def _jumps(G) -> tuple[tuple, list]:
    """Where G may jump: the support edges it carries, in t, and those at
    |t| > 1 as positions s = ln|t| of the shell integrals."""
    edges = G.edges if isinstance(G, EffectivePotential) else ()
    return edges, [math.log(abs(t)) for t in edges if abs(t) > 1.0]


def zhat(G: EffectivePotential | Callable, J: int = 40, rel_tol: float = 1e-8) -> ZhatSequence:
    """Compute zhat_0..zhat_J.

    Shell integrals are evaluated in s = ln|t| (unit-length panels), where
    int |t| G dt per side becomes int e^{2s} [G(e^s) + G(-e^s)] ds.  Panels
    are split at the support edges G carries.
    """
    if J < 1:
        raise ValueError("truncation index J must be >= 1")
    g = G if callable(G) else G.func
    edges, cuts = _jumps(G)
    values = np.zeros(J + 1)
    errors = np.zeros(J + 1)
    try:
        values[0], errors[0] = _split_integral(g, -1.0, 1.0, edges, rel_tol, interval_id=0)
    except QuadratureError as exc:
        raise QuadratureError(f"zhat entry 0 did not converge: {exc}", interval=0) from exc

    def shell(s):
        t = np.exp(s)
        return np.exp(2.0 * s) * (np.asarray(g(t), dtype=float) + np.asarray(g(-t), dtype=float))

    for j in range(1, J + 1):
        try:
            values[j], errors[j] = _split_integral(shell, float(j - 1), float(j), cuts,
                                                   rel_tol, interval_id=j)
        except QuadratureError as exc:
            raise QuadratureError(f"zhat entry {j} did not converge: {exc}", interval=j) from exc
    return ZhatSequence(values=values, errors=errors)


def n_plus(eps: float, x) -> int:
    """Number of entries with |x_j| > eps (strict)."""
    if not eps > 0:
        raise ValueError("threshold must be positive")
    return int(np.count_nonzero(np.abs(np.asarray(x, dtype=float)) > eps))


def weak_quasinorm(x, q: float = 1.0) -> float:
    """sup over eps > 0 of eps * n_plus(eps, x)^{1/q}.

    For a finite sequence this equals max_j j^{1/q} a_j with a the
    non-increasing rearrangement of |x| (1-based), the value approached just
    below each jump threshold.
    """
    if q < 1:
        raise ValueError("weak-lq exponent must satisfy q >= 1")
    a = np.sort(np.abs(np.asarray(x, dtype=float)))[::-1]
    a = a[a > 0]
    if a.size == 0:
        return 0.0
    ranks = np.arange(1, a.size + 1, dtype=float)
    return float(np.max(a * ranks ** (1.0 / q)))


@dataclass(frozen=True)
class WeakNormReport:
    """Quasinorm plus window-based estimates of the eps->0 functionals.

    ``delta_upper``/``delta_lower`` estimate limsup/liminf of
    eps * n_plus(eps)^{1/q} from thresholds inside the window; they are
    truncation-aware estimates, never claimed as limits.
    """

    q: float
    quasinorm: float
    delta_upper: float
    delta_lower: float
    epsilon_window: tuple[float, float]
    truncation_caveat: bool = True

    def __post_init__(self):
        if not (self.delta_lower <= self.delta_upper + 1e-15
                and self.delta_upper <= self.quasinorm + 1e-12 * max(1.0, self.quasinorm)):
            raise AssertionError("delta_lower <= delta_upper <= quasinorm violated")


def delta_functionals(x, q: float = 1.0, window: tuple[float, float] | None = None
                      ) -> tuple[float, float]:
    """(max, min) of eps * n_plus(eps, x)^{1/q} over jump thresholds inside
    the window.

    eps n_plus(eps) is piecewise linear and increasing between jumps, so its
    window extrema sit at the jumps: the maximum is approached just below a
    jump value (counting entries >= it), the minimum attained at the jump
    itself (strict count).  A window containing no jumps reports (0, 0): the
    sequence has no spectral content at those scales.  ``window`` defaults to
    the thresholds produced by the last 30% of the entries, staying above the
    truncation floor.
    """
    a = np.abs(np.asarray(x, dtype=float))
    if window is None:
        window = default_window(x)
    lo, hi = float(window[0]), float(window[1])
    if not (0 < lo <= hi):
        raise ValueError(f"invalid epsilon window [{lo}, {hi}]")

    jumps = np.unique(a[(a >= lo) & (a <= hi)])
    if jumps.size == 0:
        return 0.0, 0.0
    candidates_max = [v * np.count_nonzero(a >= v) ** (1.0 / q) for v in jumps]  # eps -> v-
    candidates_min = []
    for v in jumps:
        strict = int(np.count_nonzero(a > v))
        candidates_min.append(v * strict ** (1.0 / q) if strict else 0.0)        # eps = v
    return float(max(candidates_max)), float(min(candidates_min))


def default_window(x) -> tuple[float, float]:
    """Epsilon window over the smallest WINDOW_TAIL_FRACTION of the distinct
    nonzero thresholds strictly above the truncation floor.

    For a decaying sequence this is the set of thresholds its last entries
    produce; entries that underflowed to zero never widen the window."""
    a = np.abs(np.asarray(x, dtype=float))
    distinct = np.unique(a[a > 0])
    if distinct.size == 0:
        raise ValueError("cannot build an epsilon window for an all-zero sequence")
    if distinct.size == 1:
        v = float(distinct[0])
        return v * (1.0 - 1e-9), v
    above = distinct[1:]  # strictly above the floor
    k = max(1, int(math.ceil(WINDOW_TAIL_FRACTION * above.size)))
    return float(above[0]), float(above[k - 1])


def weak_norm_report(x, q: float = 1.0, window: tuple[float, float] | None = None
                     ) -> WeakNormReport:
    if window is None:
        window = default_window(x)
    upper, lower = delta_functionals(x, q, window)
    return WeakNormReport(q=q, quasinorm=weak_quasinorm(x, q),
                          delta_upper=upper, delta_lower=lower,
                          epsilon_window=(float(window[0]), float(window[1])))


def l1lp_norm(f, p: float = 2.0, n_theta: int = 256,
              t_lo: float = -30.0, t_hi: float = 30.0,
              rel_tol: float = 1e-8) -> float:
    """int_0^inf ( int_S |f(r,theta)|^p dtheta )^{1/p} r dr.

    ``f`` may be a Decomposition (its non-radial part is used) or a
    broadcasting evaluator f(r, theta).  The radial integral runs in t = ln r
    over [t_lo, t_hi] with adaptive panels; a trailing check integrates
    L1LP_TAIL_MARGIN further units on each side and raises QuadratureError
    (carrying the partial value and the tail bound) if the tails are not
    negligible.
    """
    if not p > 1:
        raise ValueError("L1Lp norm needs p > 1")
    if isinstance(f, Decomposition):
        if f.is_radial:
            return 0.0
        func = f.v_nrad
        if f.spec.support is not None:
            lo, hi = f.spec.support
            if hi > 0:
                t_hi = min(t_hi, math.log(hi) + 1.0)
            if lo > 0:
                t_lo = max(t_lo, math.log(lo) - 1.0)
    else:
        func = f
    theta, w = angular_nodes(n_theta)

    def integrand(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        r = np.exp(t)
        vals = np.abs(np.asarray(func(r[:, None], theta[None, :]), dtype=float))
        inner = (w * np.sum(vals ** p, axis=-1)) ** (1.0 / p)
        return np.exp(2.0 * t) * inner

    value, _ = adaptive_integral(integrand, t_lo, t_hi, rel_tol)
    scale = max(abs(value), 1e-300)
    tail_hi, _ = adaptive_integral(integrand, t_hi, t_hi + L1LP_TAIL_MARGIN, 1e-4)
    tail_lo, _ = adaptive_integral(integrand, t_lo - L1LP_TAIL_MARGIN, t_lo, 1e-4)
    tail = tail_hi + tail_lo
    if tail > 100.0 * rel_tol * scale:
        raise QuadratureError(
            f"L1Lp radial integral has a non-negligible tail beyond [{t_lo}, {t_hi}]",
            partial=value, tail_bound=tail)
    return value + tail


def weyl_coefficient(spec_or_G, n_theta: int = 256,
                     rel_tol: float = 1e-8, max_shells: int = 600) -> float:
    """(4 pi)^-1 int_{R^2} V dx, computed as (1/2) int G dt.

    Accepts a PotentialSpec, a Decomposition, or an EffectivePotential; the
    substitution convention makes (4 pi)^-1 int V dx = (1/2) int_R G(t) dt.
    The |t| > 1 part is summed over unit shells in s = ln|t| (reaching t up
    to e^max_shells), so integrable tails as slow as 1/(t^2 ln t) still
    settle; panels are split at the support edges G carries.
    QuadratureError means the integral genuinely fails to converge and the
    coefficient is meaningless.
    """
    if isinstance(spec_or_G, PotentialSpec):
        G = effective_potential(decompose(spec_or_G, n_theta))
    elif isinstance(spec_or_G, Decomposition):
        G = effective_potential(spec_or_G)
    else:
        G = spec_or_G
    g = G.func if isinstance(G, EffectivePotential) else G
    edges, cuts = _jumps(G)
    value, _ = _split_integral(g, -1.0, 1.0, edges, rel_tol)

    def shell(s):
        t = np.exp(s)
        return np.exp(s) * (np.asarray(g(t), dtype=float) + np.asarray(g(-t), dtype=float))

    quiet = 0
    for j in range(1, max_shells + 1):
        sj, _ = _split_integral(shell, float(j - 1), float(j), cuts, rel_tol, interval_id=j)
        value += sj
        quiet = quiet + 1 if sj <= rel_tol * max(abs(value), 1e-300) else 0
        if quiet >= 2:
            return 0.5 * value
    raise QuadratureError("int V dx did not converge within the shell budget",
                          partial=0.5 * value, tail_bound=None)


def bound_functional(dec: Decomposition, G: EffectivePotential | None = None,
                     p: float = 2.0, J: int = 40, n_theta: int | None = None,
                     rel_tol: float = 1e-8) -> float:
    """B = ||V_nrad||_{L1 Lp} + ||zhat(G)||_{1,inf}.

    The counting estimate reads N_- <= 1 + C(p) alpha B with C(p) unknown;
    callers report B and empirical ratios, never a fabricated constant.
    """
    if G is None:
        G = effective_potential(dec)
    nt = n_theta if n_theta is not None else dec.n_theta
    nrad = l1lp_norm(dec, p=p, n_theta=nt, rel_tol=rel_tol)
    zh = zhat(G, J=J, rel_tol=rel_tol)
    return nrad + weak_quasinorm(zh.values, 1.0)
