"""Coupling-constant sweeps and empirical asymptotics checks.

True limsup/liminf of N_-/alpha^q are not computable at desk scale; the
declared estimators are trailing-window extrema over a geometric alpha grid,
always labeled as estimates.  The two-term comparison and the boundedness
check are report-only: they quantify discrepancies, they do not assert.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .potentials import PotentialSpec, decompose, effective_potential
from .seminorms import bound_functional, weyl_coefficient
from .spectra1d import Grid1D, GridPolicy, certified_counts, count_M, radial_counts
from .spectra2d import DEFAULT_MAX_DIMENSION, count_2d_auto

__all__ = [
    "SweepResult", "LimitEstimate", "sweep", "estimate_limits",
    "check_as2", "check_estim", "check_prop_add",
    "write_sweep_csv", "read_sweep_csv", "write_plot_files",
]


@dataclass(frozen=True)
class SweepResult:
    """Counts along a geometric alpha grid, with per-alpha certification."""

    alphas: np.ndarray
    n2d: np.ndarray
    n_tilde: np.ndarray
    n_m: np.ndarray
    converged: np.ndarray
    weyl: float
    bound_b: float
    p: float
    label: str = "sweep"

    def __post_init__(self):
        if np.any(np.diff(self.alphas) <= 0):
            raise ValueError("alpha grid must be strictly increasing")


@dataclass(frozen=True)
class LimitEstimate:
    """Trailing-window extrema of N/alpha^q: an honest stand-in for
    limsup/liminf, never claimed to be the limit."""

    upper: float
    lower: float
    q: float
    window_fraction: float
    window_size: int

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.upper + self.lower)


def sweep(spec: PotentialSpec, alpha_min: float, alpha_max: float, points: int,
          policy: GridPolicy | None = None, p: float = 2.0, n_theta: int = 256,
          J: int = 40, max_dimension: int = DEFAULT_MAX_DIMENSION,
          threads: int = 1, label: str | None = None) -> SweepResult:
    """Count N_-(H), N_-(H~) and N_-(M) along a geometric alpha grid.

    Radial potentials decouple into channel sums: each domain-doubling level
    counts every alpha it still has to certify in one batched Sturm pass
    (``radial_counts``), so ``threads`` has no effect on radial specs.
    Non-radial ones go through the block systems with channel-cutoff
    escalation, each block pass giving both N_-(H) and N_-(H~) and each
    alpha's passes continued from one level to the next; each level maps the
    alphas it still has to certify over one pool of ``threads`` worker
    threads kept for the whole sweep.  A non-converged alpha is
    flagged, not fatal.
    """
    if not (0 < alpha_min < alpha_max):
        raise ValueError("need 0 < alpha_min < alpha_max")
    if points < 4:
        raise ValueError("a sweep needs at least 4 points")
    policy = policy or GridPolicy()
    alphas = np.geomspace(alpha_min, alpha_max, points)
    dec = decompose(spec, n_theta)
    G = effective_potential(dec)
    weyl = weyl_coefficient(G)
    bound_b = bound_functional(dec, G, p=p, J=J, n_theta=n_theta)

    cutoff_ok = np.ones(points, dtype=bool)
    passes = {}  # per alpha still pending, its block passes, continued level by level

    def coupled(grid: Grid1D, i: int) -> tuple[int, int, int]:
        alpha = alphas[i]
        (n2d, _, ok_a), (n_tilde, _, ok_b) = count_2d_auto(
            spec, alpha, grid, n_theta=n_theta, max_dimension=max_dimension,
            passes=passes[i])
        cutoff_ok[i] &= ok_a and ok_b
        return n2d, n_tilde, count_M(G, alpha, grid)

    # worker threads start only on the first submitted task
    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        mapper = pool.map if threads > 1 else map

        def level_counts(grid: Grid1D, pending: list) -> list:
            if spec.is_radial:
                return radial_counts(G(grid.interior), alphas[pending], grid).tolist()
            nonlocal passes
            passes = {i: passes.get(i, {}) for i in pending}
            return list(mapper(lambda i: coupled(grid, i), pending))

        results = certified_counts(level_counts, points, policy)
    n2d, n_tilde, n_m = np.array([r.count for r in results], dtype=np.int64).T
    converged = np.array([r.converged for r in results], dtype=bool) & cutoff_ok
    return SweepResult(alphas=alphas, n2d=n2d, n_tilde=n_tilde, n_m=n_m,
                       converged=converged, weyl=weyl, bound_b=bound_b, p=p,
                       label=label or spec.label)


def estimate_limits(alphas, counts, q: float = 1.0, window_fraction: float = 0.3
                    ) -> LimitEstimate:
    """Max and min of N_i / alpha_i^q over the trailing window."""
    alphas = np.asarray(alphas, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if alphas.size == 0:
        raise ValueError("empty series")
    if not 0 < window_fraction <= 1:
        raise ValueError("window_fraction must lie in (0, 1]")
    w = max(2, int(math.ceil(window_fraction * alphas.size)))
    w = min(w, alphas.size)
    ratios = counts[-w:] / alphas[-w:] ** q
    return LimitEstimate(upper=float(np.max(ratios)), lower=float(np.min(ratios)),
                         q=q, window_fraction=window_fraction, window_size=w)


@dataclass(frozen=True)
class As2Report:
    """Two-term comparison: window limits of N_-(H)/alpha against
    weyl + window limits of N_-(M)/alpha, upper to upper, lower to lower."""

    weyl: float
    limits_2d: LimitEstimate
    limits_m: LimitEstimate
    rel_upper: float
    rel_lower: float

    def to_dict(self):
        return {
            "weyl": self.weyl,
            "n2d_over_alpha": {"upper": self.limits_2d.upper, "lower": self.limits_2d.lower},
            "n_m_over_alpha": {"upper": self.limits_m.upper, "lower": self.limits_m.lower},
            "rel_discrepancy_upper": self.rel_upper,
            "rel_discrepancy_lower": self.rel_lower,
        }


def check_as2(result: SweepResult, window_fraction: float = 0.3) -> As2Report:
    """Report-only comparison of the two-term structure of the counts."""
    if not np.isfinite(result.weyl):
        raise ValueError("Weyl coefficient is not finite")
    lim2d = estimate_limits(result.alphas, result.n2d, 1.0, window_fraction)
    limm = estimate_limits(result.alphas, result.n_m, 1.0, window_fraction)
    target_u = result.weyl + limm.upper
    target_l = result.weyl + limm.lower
    rel_u = abs(lim2d.upper - target_u) / max(abs(target_u), 1e-300)
    rel_l = abs(lim2d.lower - target_l) / max(abs(target_l), 1e-300)
    return As2Report(weyl=result.weyl, limits_2d=lim2d, limits_m=limm,
                     rel_upper=rel_u, rel_lower=rel_l)


@dataclass(frozen=True)
class EstimReport:
    """Empirical constant for N_- <= 1 + C alpha B and its stability."""

    empirical_c: float
    top_decade_variation: float
    bound_b: float
    used_alphas: int
    all_converged: bool

    def to_dict(self):
        return {
            "empirical_C": self.empirical_c,
            "top_decade_variation": self.top_decade_variation,
            "bound_B": self.bound_b,
            "alphas_used": self.used_alphas,
            "all_converged": self.all_converged,
        }


def check_estim(result: SweepResult) -> EstimReport:
    """empirical_C = max over converged alpha of (N_-(H) - 1) / (alpha B),
    with its relative variation over the top decade of swept alpha."""
    if result.bound_b <= 0:
        if np.any(result.n2d > 1):
            raise ValueError("bound functional vanishes but counts exceed 1: "
                             "hypotheses violated or numerics wrong")
        return EstimReport(0.0, 0.0, result.bound_b, 0, bool(np.all(result.converged)))
    mask = result.converged.copy()
    if not np.any(mask):
        mask = np.ones_like(mask)
    alphas = result.alphas[mask]
    ratios = (result.n2d[mask] - 1.0) / (alphas * result.bound_b)
    top = alphas >= alphas[-1] / 10.0
    r_top = ratios[top]
    mid = 0.5 * (np.max(r_top) + np.min(r_top))
    variation = float((np.max(r_top) - np.min(r_top)) / mid) if mid > 0 else 0.0
    return EstimReport(empirical_c=float(np.max(ratios)),
                       top_decade_variation=variation,
                       bound_b=result.bound_b, used_alphas=int(alphas.size),
                       all_converged=bool(np.all(result.converged)))


@dataclass(frozen=True)
class PropAddReport:
    """Window estimates of N/alpha^q for the 1D family and the 2D counts,
    for potentials whose zhat sits in weak-lq with q > 1 (its quasinorm is
    ``weak_quasinorm(zhat(G, J), q)``)."""

    q: float
    limits_m: LimitEstimate
    limits_2d: LimitEstimate

    def to_dict(self):
        return {
            "q": self.q,
            "n_m_over_alpha_q": {"upper": self.limits_m.upper, "lower": self.limits_m.lower},
            "n2d_over_alpha_q": {"upper": self.limits_2d.upper, "lower": self.limits_2d.lower},
        }


def check_prop_add(result: SweepResult, q: float, window_fraction: float = 0.3
                   ) -> PropAddReport:
    """Report the alpha^-q scaling of the sweep's counts (the screening regime)."""
    if not q > 1:
        raise ValueError("the scaling check needs q > 1")
    return PropAddReport(q=q,
                         limits_m=estimate_limits(result.alphas, result.n_m, q, window_fraction),
                         limits_2d=estimate_limits(result.alphas, result.n2d, q, window_fraction))


# ----------------------------------------------------------------------
# sweep serialization (CSV with commented metadata header)


def write_sweep_csv(result: SweepResult, path) -> None:
    lines = [
        f"# label={result.label}",
        f"# weyl={result.weyl!r}",
        f"# bound_b={result.bound_b!r}",
        f"# p={result.p!r}",
        "alpha,n2d,n_tilde,n_m,n2d_over_alpha,converged",
    ]
    for i in range(result.alphas.size):
        a = float(result.alphas[i])
        lines.append(f"{a!r},{int(result.n2d[i])},{int(result.n_tilde[i])},"
                     f"{int(result.n_m[i])},{float(result.n2d[i] / a)!r},"
                     f"{int(result.converged[i])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# what each metadata value and data field of a sweep CSV must be
_META_RULES = {"weyl": (math.isfinite, "finite"),
               "bound_b": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
               "p": (lambda v: 1 < v < math.inf, "finite and > 1")}
_FIELDS = (("alpha", float, lambda v: 0 < v < math.inf, "finite and > 0"),
           ("n2d", int, lambda v: v >= 0, "an integer >= 0"),
           ("n_tilde", int, lambda v: v >= 0, "an integer >= 0"),
           ("n_m", int, lambda v: v >= 0, "an integer >= 0"),
           ("n2d_over_alpha", float, math.isfinite, "finite"),
           ("converged", int, lambda v: v in (0, 1), "0 or 1"))


def read_sweep_csv(path) -> SweepResult:
    """Read a CSV written by ``write_sweep_csv``.  A malformed file raises
    ConfigError naming the file and the line: a row without six fields or
    with a value out of its rule (_FIELDS), a missing or bad weyl, bound_b
    or p line, alphas that do not strictly increase, or no rows at all."""
    meta = {"label": "sweep"}
    rows = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason})") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("alpha,"):
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            if key in _META_RULES:
                accepts, rule = _META_RULES[key]
                meta[key] = _parse_value(val, float, accepts, f"{key} (must be {rule})",
                                         path, lineno)
            elif key == "label":
                meta[key] = val
            continue
        parts = line.split(",")
        if len(parts) != len(_FIELDS):
            raise ConfigError(f"{path}:{lineno}: expected {len(_FIELDS)} fields "
                              f"({','.join(name for name, *_ in _FIELDS)}), got {len(parts)}")
        row = [_parse_value(text, kind, accepts, f"{name} (must be {rule})", path, lineno)
               for text, (name, kind, accepts, rule) in zip(parts, _FIELDS)]
        if rows and not row[0] > rows[-1][0]:
            raise ConfigError(f"{path}:{lineno}: alpha {row[0]!r} does not increase "
                              f"(previous {rows[-1][0]!r})")
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no sweep rows found")
    missing = [key for key in _META_RULES if key not in meta]
    if missing:
        raise ConfigError(f"{path}: no '# {missing[0]}=' line")
    alphas, n2d, n_tilde, n_m, _, converged = zip(*rows)
    return SweepResult(
        alphas=np.array(alphas), n2d=np.array(n2d, dtype=np.int64),
        n_tilde=np.array(n_tilde, dtype=np.int64), n_m=np.array(n_m, dtype=np.int64),
        converged=np.array(converged, dtype=bool),
        weyl=meta["weyl"], bound_b=meta["bound_b"], p=meta["p"], label=meta["label"])


def _parse_value(text: str, kind: type, accepts, what: str, path, lineno: int):
    """``text`` as a ``kind`` that ``accepts`` allows, or ConfigError naming ``what``."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not accepts(value):
        raise ConfigError(f"{path}:{lineno}: bad {what}: {text.strip()!r}")
    return value


def write_plot_files(result: SweepResult, directory) -> list:
    """Two-column gnuplot-ready series derived from the sweep."""
    import os

    os.makedirs(directory, exist_ok=True)
    series = {
        "n2d_over_alpha.dat": result.n2d / result.alphas,
        "n_tilde_over_alpha.dat": result.n_tilde / result.alphas,
        "n_m_over_alpha.dat": result.n_m / result.alphas,
        "n2d.dat": result.n2d.astype(float),
    }
    written = []
    for name, ys in series.items():
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            for a, y in zip(result.alphas, ys):
                fh.write(f"{float(a)!r} {float(y)!r}\n")
        written.append(path)
    return written
