"""Sequence and function seminorms controlling the eigenvalue counts.

The central object is the sequence zhat(G): the integral of G over (-1, 1)
followed by |t|-weighted integrals over the exponentially growing shells
e^{j-1} < |t| < e^j.  Its weak-l1 quasinorm, together with the L1(R+, Lp(S))
norm of the non-radial part, makes up the bound functional B; the counting
estimate asserts N_- <= 1 + C(p) alpha B with an unspecified constant, so
only B and empirical ratios are ever reported.

zhat, the Weyl coefficient and the L1Lp norm integrate over the line t = ln r
by one rule, ``_line_pieces``: the piece over (-1, 1), then unit shells in
s = ln|t|, each split at the integrand's support edges.  zhat keeps J + 1
pieces and bisects its J shells together, in one batched quadrature call;
the other two add shells one at a time until two in a row are quiet, within
MAX_SHELLS (|t| up to e^600), so tails as slow as 1/(t^2 ln t) settle and
nothing past the stopping shell is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .potentials import Decomposition, EffectivePotential, effective_potential
from .quadrature import adaptive_integral, angular_nodes

# default_window spans this fraction of the distinct thresholds above the floor
WINDOW_TAIL_FRACTION = 0.3
# relative tolerance of every integral over the line
REL_TOL = 1e-8
# shells a converging line integral may use before it gives up
MAX_SHELLS = 600


def _split_integrals(f: Callable, spans, cuts, ids) -> list[float]:
    """int f over each span (a, b), all by one adaptive_integral call, each
    span in pieces split at the ``cuts`` inside it: a jump between a panel's
    outermost node and its edge is invisible to the bisection estimate, so
    the jumps of f must be panel edges.  A QuadratureError's ``interval`` is
    the id of the span that did not converge."""
    lo, hi, owner = [], [], []
    for n, (a, b) in enumerate(spans):
        points = [a, *sorted({c for c in cuts if a < c < b}), b]
        lo += points[:-1]
        hi += points[1:]
        owner += [n] * (len(points) - 1)
    pieces = adaptive_integral(f, lo, hi, REL_TOL, interval_id=[ids[n] for n in owner])
    values = [0.0] * len(spans)
    for n, piece in zip(owner, pieces.tolist()):
        values[n] += piece
    return values


def _line_pieces(g: Callable, edges, power: float) -> tuple[float, Callable]:
    """The pieces of an integral of g over the line.

    First int_{-1}^{1} g dt, then a function giving, for shells j = 1, 2, ...,
    int_{j-1}^{j} e^{power s} [g(e^s) + g(-e^s)] ds, which is the part
    e^{j-1} < |t| < e^j of int |t|^{power-1} g dt.  The shells asked for
    together are bisected together.  Panels are split at the ``edges``, the
    t where g may jump.
    """
    centre, = _split_integrals(g, [(-1.0, 1.0)], edges, [0])
    cuts = [math.log(abs(t)) for t in edges if abs(t) > 1.0]

    def shell(s):
        t = np.exp(s)
        return np.exp(power * s) * (np.asarray(g(t), dtype=float) + np.asarray(g(-t), dtype=float))

    return centre, lambda js: _split_integrals(
        shell, [(float(j - 1), float(j)) for j in js], cuts, js)


def _line_integral(g: Callable, edges, what: str) -> float:
    """int_R g dt, adding shells one at a time until two in a row are quiet;
    past MAX_SHELLS, QuadratureError carrying the partial sum."""
    value, shells = _line_pieces(g, edges, 1.0)
    quiet = 0
    for j in range(1, MAX_SHELLS + 1):
        sj, = shells([j])
        value += sj
        quiet = quiet + 1 if sj <= REL_TOL * max(abs(value), 1e-300) else 0
        if quiet >= 2:
            return value
    raise QuadratureError(f"{what} did not converge within {MAX_SHELLS} shells", partial=value)


def zhat(G: EffectivePotential, J: int = 40) -> np.ndarray:
    """The truncated sequence zhat_0..zhat_J: the first J + 1 pieces of the
    line with weight |t|.  Entry 0 integrates G over (-1, 1); entry j >= 1
    integrates |t| G(t) over e^{j-1} < |t| < e^j, both signs of t summed.
    A QuadratureError's ``interval`` is the entry that did not converge."""
    if J < 1:
        raise ValueError("truncation index J must be >= 1")
    centre, shells = _line_pieces(G.func, G.edges, 2.0)
    return np.array([centre, *shells(range(1, J + 1))])


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
    truncation-aware estimates, never claimed as limits.  An all-zero
    sequence has no thresholds: every value is 0 and the window is None.
    """

    q: float
    quasinorm: float
    delta_upper: float
    delta_lower: float
    epsilon_window: tuple[float, float] | None
    truncation_caveat: bool = True

    def __post_init__(self):
        if not (self.delta_lower <= self.delta_upper + 1e-15
                and self.delta_upper <= self.quasinorm + 1e-12 * max(1.0, self.quasinorm)):
            raise AssertionError("delta_lower <= delta_upper <= quasinorm violated")


def delta_functionals(x, q: float, window: tuple[float, float]) -> tuple[float, float]:
    """(max, min) of eps * n_plus(eps, x)^{1/q} over jump thresholds inside
    the window.

    eps n_plus(eps) is piecewise linear and increasing between jumps, so its
    window extrema sit at the jumps: the maximum is approached just below a
    jump value (counting entries >= it), the minimum attained at the jump
    itself (strict count).  A window containing no jumps reports (0, 0): the
    sequence has no spectral content at those scales.
    """
    a = np.abs(np.asarray(x, dtype=float))
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


def weak_norm_report(x, q: float = 1.0) -> WeakNormReport:
    """The quasinorm and the delta functionals over ``default_window(x)``;
    an all-zero ``x`` reports 0 for all three and no window."""
    quasinorm = weak_quasinorm(x, q)
    if quasinorm == 0.0:
        return WeakNormReport(q=q, quasinorm=0.0, delta_upper=0.0, delta_lower=0.0,
                              epsilon_window=None)
    window = default_window(x)
    upper, lower = delta_functionals(x, q, window)
    return WeakNormReport(q=q, quasinorm=quasinorm, delta_upper=upper, delta_lower=lower,
                          epsilon_window=(float(window[0]), float(window[1])))


def l1lp_norm(dec: Decomposition, p: float = 2.0, n_theta: int = 256) -> float:
    """||V_nrad||_{L1(R+, Lp(S))} = int_0^inf ( int_S |V_nrad(r,theta)|^p dtheta )^{1/p} r dr,
    the line integral of ||e^{2t} V_nrad(e^t, .)||_p (n_theta-node periodic
    rule; ``Decomposition.nrad_effective``, so no r = e^t overflows).
    QuadratureError means the norm is infinite or too slow to settle."""
    if not p > 1:
        raise ValueError("L1Lp norm needs p > 1")
    if dec.is_radial:
        return 0.0
    theta, w = angular_nodes(n_theta)
    form, edges = dec.nrad_effective(theta)

    def integrand(t):
        # scaled by the largest |value| at each t, so that |V_nrad|^p neither
        # underflows on a slow tail far out on the line nor overflows
        a = np.abs(form(t))
        top = np.max(a, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = top * (w * np.sum((a / top) ** p, axis=0)) ** (1.0 / p)
        return np.where(top > 0, inner, 0.0)

    return _line_integral(integrand, edges, "the L1Lp norm")


def weyl_coefficient(G: EffectivePotential) -> float:
    """(4 pi)^-1 int_{R^2} V dx = (1/2) int_R G(t) dt.  QuadratureError (its
    ``partial`` a partial int G dt) means the integral fails to converge and
    the coefficient is meaningless."""
    return 0.5 * _line_integral(G.func, G.edges, "int G dt")


def bound_functional(dec: Decomposition, G: EffectivePotential | None = None,
                     p: float = 2.0, J: int = 40, n_theta: int | None = None) -> float:
    """B = ||V_nrad||_{L1 Lp} + ||zhat(G)||_{1,inf}.

    The counting estimate reads N_- <= 1 + C(p) alpha B with C(p) unknown;
    callers report B and empirical ratios, never a fabricated constant.
    """
    if G is None:
        G = effective_potential(dec)
    nt = n_theta if n_theta is not None else dec.n_theta
    return l1lp_norm(dec, p=p, n_theta=nt) + weak_quasinorm(zhat(G, J=J), 1.0)
