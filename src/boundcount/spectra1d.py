"""Finite-difference 1D operators -d^2/dt^2 + W(t) and exact inertia counts.

Everything is a symmetric tridiagonal matrix on a uniform grid with
Dirichlet ends; negative eigenvalues are counted exactly (for the matrix)
by the Sturm pivot recurrence, so no eigenvalues are ever computed.  The
interior constraint phi(0) = 0 deletes the t = 0 node, splitting the matrix
into two independent half-line blocks.  Every count goes through one
batched kernel that advances all of its matrices node by node.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, NumericalError
from .potentials import EffectivePotential

log = logging.getLogger(__name__)

# retry shift applied when the pivot recurrence hits an exact zero
ZERO_PIVOT_SHIFT = -1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [t_min, t_max] with n nodes including the endpoints."""

    t_min: float
    t_max: float
    n: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("grid needs t_min < t_max")
        if self.n < 3:
            raise ValueError("grid needs at least 3 nodes")

    @property
    def h(self) -> float:
        return (self.t_max - self.t_min) / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n)

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]

    @property
    def zero_index(self) -> int | None:
        """Index of the node at t = 0 within the interior array, if any."""
        interior = self.interior
        k = int(np.argmin(np.abs(interior)))
        return k if abs(interior[k]) < 1e-12 else None

    @property
    def has_node_at_zero(self) -> bool:
        return self.zero_index is not None

    @classmethod
    def symmetric(cls, t_half: float, n: int) -> "Grid1D":
        """[-t_half, t_half] with an odd node count, so t = 0 is a node."""
        if n % 2 == 0:
            n += 1
        return cls(-float(t_half), float(t_half), int(n))


@dataclass(frozen=True)
class GridPolicy:
    """Truncation policy: base symmetric grid plus domain-doubling checks.

    Certification doubles the half-width (h fixed) until the requested number
    of successive count agreements is seen; runs that never stabilize are
    flagged, not rejected.
    """

    t_half: float = 30.0
    n: int = 6001
    max_doublings: int = 3
    agreements: int = 2

    def base_grid(self) -> Grid1D:
        return Grid1D.symmetric(self.t_half, self.n)

    def level_grid(self, level: int) -> Grid1D:
        """Level ``level`` doubles the half-width that many times on the base
        grid's spacing h (an even ``n`` is rounded up once, at the base)."""
        base = self.base_grid()
        return Grid1D.symmetric(self.t_half * 2 ** level, (base.n - 1) * 2 ** level + 1)


@dataclass(frozen=True)
class CountResult:
    """A count plus its truncation certification trail."""

    count: int
    converged: bool
    levels: tuple = field(default_factory=tuple)

    def to_dict(self):
        return {"count": self.count, "converged": self.converged,
                "levels": [{"t_half": th, "n": n, "count": c} for th, n, c in self.levels]}


def certified_counts(counts_on_grid: Callable[[Grid1D, list], Sequence], size: int,
                     policy: GridPolicy) -> list[CountResult]:
    """Domain-doubling certification of ``size`` items at once (h is kept
    fixed).

    ``counts_on_grid(grid, pending)`` returns the values of the items in
    ``pending`` on that grid, one comparable value (a count or a tuple of
    counts) per item.  An item is certified once its value repeats
    ``policy.agreements`` times in a row, and leaves the batch then.
    """
    trails: list[list] = [[] for _ in range(size)]
    results: list = [None] * size
    pending = list(range(size))
    for level in range(policy.max_doublings + 1):
        if not pending:
            break
        grid = policy.level_grid(level)
        for i, value in zip(pending, counts_on_grid(grid, pending)):
            trails[i].append((grid.t_max, grid.n, value))
        still = []
        for i in pending:
            recent = [value for _, _, value in trails[i][-(policy.agreements + 1):]]
            stable = (len(recent) == policy.agreements + 1
                      and all(r == recent[0] for r in recent))
            if stable:
                results[i] = CountResult(recent[-1], True, tuple(trails[i]))
            else:
                still.append(i)
        pending = still
    for i in pending:
        counts = [value for _, _, value in trails[i]]
        log.info("count did not stabilize after %d domain doublings: %s",
                 policy.max_doublings, counts)
        results[i] = CountResult(counts[-1], False, tuple(trails[i]))
    return results


def certified_count(count_on_grid: Callable[[Grid1D], int], policy: GridPolicy) -> CountResult:
    """Run ``count_on_grid`` on domain-doubled grids until the count repeats
    ``policy.agreements`` times in a row (h is kept fixed)."""
    return certified_counts(lambda grid, pending: [int(count_on_grid(grid))], 1, policy)[0]


# Node-chunk length of the pivot kernel: the largest array it builds spans
# rows x NODE_CHUNK, never rows x nodes.
NODE_CHUNK = 256


@dataclass(frozen=True)
class _ExplicitRows:
    """Row source over diagonals given in full, shape (rows, n)."""

    diags: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.diags.shape

    def block(self, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return np.ascontiguousarray(self.diags[rows, lo:hi].T)


@dataclass(frozen=True)
class _ChannelRows:
    """Row source kin + (m^2 - alpha G(t_i)), one (m, alpha) pair per row,
    built node chunk by node chunk from the shared samples of G."""

    kin: float
    m2: np.ndarray
    alphas: np.ndarray
    gvals: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.m2.size, self.gvals.size

    def block(self, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return self.kin + (self.m2[rows] - np.multiply.outer(self.gvals[lo:hi], self.alphas[rows]))


def _pivot_pass(source, rows: np.ndarray, offsq: np.ndarray, shift: float,
                cut: int | None, cut_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One node-major pivot sweep q_i = (d_i - shift) - offsq[i-1] / q_{i-1}
    over ``rows`` of ``source``.  In the rows ``cut_rows`` (positions within
    ``rows``) the node ``cut`` is decoupled: both its couplings are zero and
    its own pivot is neither counted nor checked.  Returns (negative counts,
    rows that hit an exact zero pivot)."""
    n = source.shape[1]
    counts = np.zeros(rows.size, dtype=np.int64)
    hit_zero = np.zeros(rows.size, dtype=bool)
    if cut is None:
        cut = -2  # matches no node
    tmp = np.empty(rows.size)
    prev = None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, n, NODE_CHUNK):
            hi = min(lo + NODE_CHUNK, n)
            q = source.block(rows, lo, hi)
            if shift:
                q -= shift
            couple = offsq[lo - 1:hi - 1].tolist() if lo else [0.0] + offsq[:hi - 1].tolist()
            for j in range(hi - lo):
                qj = q[j]
                if prev is not None:
                    np.divide(couple[j], prev, out=tmp)
                    if lo + j == cut or lo + j == cut + 1:
                        tmp[cut_rows] = 0.0
                    np.subtract(qj, tmp, out=qj)
                prev = qj
            negative = q < 0
            zero = q == 0.0
            if lo <= cut < hi:
                negative[cut - lo, cut_rows] = False
                zero[cut - lo, cut_rows] = False
            counts += np.count_nonzero(negative, axis=0)
            hit_zero |= zero.any(axis=0)
    return counts, hit_zero


def _pivot_counts(source, offsq, shift: float = 0.0, cut: int | None = None,
                  cut_rows: Sequence[int] = ()) -> np.ndarray:
    """Negative-eigenvalue counts of every row of ``source``: the batched
    Sturm kernel behind every 1D count and the radial 2D counts.

    Rows share the squared offdiagonals (a scalar or one value per node
    pair).  Exact zero pivots are a measure-zero event; only the affected
    rows are recomputed at the fixed shift ZERO_PIVOT_SHIFT and the
    perturbation is logged, which keeps repeated runs deterministic.
    """
    n_rows, n = source.shape
    offsq = np.broadcast_to(np.asarray(offsq, dtype=float), (max(n - 1, 0),))
    cut_rows = np.asarray(cut_rows, dtype=np.intp)
    rows = np.arange(n_rows)
    counts, hit_zero = _pivot_pass(source, rows, offsq, shift, cut, cut_rows)
    if np.any(hit_zero):
        redo_rows = np.flatnonzero(hit_zero)
        log.warning("Sturm recurrence hit exact zero pivots in %d row(s); "
                    "retrying at shift %g", redo_rows.size, shift + ZERO_PIVOT_SHIFT)
        redo_cut = np.flatnonzero(np.isin(redo_rows, cut_rows))
        redo, again = _pivot_pass(source, redo_rows, offsq, shift + ZERO_PIVOT_SHIFT,
                                  cut, redo_cut)
        if np.any(again):
            raise NumericalError("zero pivot persisted after the fixed perturbation")
        counts[redo_rows] = redo
    return counts


def tridiagonal_negative_count(diag, offdiag, shift: float = 0.0) -> int:
    """Exact count of eigenvalues below ``shift`` for one symmetric
    tridiagonal matrix (Sylvester inertia via the Sturm pivot recurrence)."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.size == 0:
        return 0
    if offdiag.size != max(diag.size - 1, 0):
        raise ValueError("offdiagonal length must be len(diag) - 1")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise NonFiniteError("matrix entries must be finite")
    return int(_pivot_counts(_ExplicitRows(diag[None, :]), offdiag * offdiag, shift)[0])


def block_negative_counts(diags: np.ndarray, offsq: float, cut: int | None = None) -> np.ndarray:
    """Counts of tridiagonals given row by row in ``diags`` that share the
    squared offdiagonal ``offsq``; with ``cut``, row 0 loses that node."""
    return _pivot_counts(_ExplicitRows(np.asarray(diags, dtype=float)), offsq,
                         cut=cut, cut_rows=[0] if cut is not None else ())


def _channel_diags(G, alpha: float, ms: Sequence[int], grid: Grid1D) -> np.ndarray:
    gvals = np.asarray(G(grid.interior), dtype=float)
    kin = 2.0 / (grid.h * grid.h)
    m2 = np.asarray([float(m * m) for m in ms])
    return kin + (m2[:, None] - alpha * gvals[None, :])


def channel_row_counts(gvals: np.ndarray, grid: Grid1D, alphas, ms,
                       cut_rows: Sequence[int] = ()) -> np.ndarray:
    """Counts of the channel operators -w'' + m^2 w - alpha G w, one (alpha,
    m) pair per row, all in one kernel call on the samples ``gvals`` of G
    at the interior nodes of ``grid``.  In ``cut_rows`` the t = 0 node is
    deleted, which splits that row into the two half-line blocks of M."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size and float(np.min(alphas)) < 0:
        raise ValueError("coupling must be non-negative")
    cut = None
    if len(cut_rows):
        cut = grid.zero_index
        if cut is None:
            raise ValueError("deleting t=0 needs a grid node at t=0")
    m2 = np.asarray([float(m * m) for m in ms])
    source = _ChannelRows(kin=2.0 / (grid.h * grid.h), m2=m2, alphas=alphas,
                          gvals=np.asarray(gvals, dtype=float))
    off = -1.0 / grid.h ** 2
    return _pivot_counts(source, off * off, cut=cut, cut_rows=cut_rows)


def _g_samples(G, grid: Grid1D) -> np.ndarray:
    return np.asarray(G(grid.interior), dtype=float)


def count_M(G: EffectivePotential | Callable, alpha: float, grid: Grid1D) -> int:
    """N_-( -phi'' - alpha G phi ), phi(0) = 0: the sum of the two half-line
    Dirichlet blocks obtained by deleting the t = 0 node."""
    if not grid.has_node_at_zero:
        raise ValueError("count_M needs a grid node at t=0")
    return int(channel_row_counts(_g_samples(G, grid), grid, [alpha], [0], cut_rows=[0])[0])


def count_channel(G: EffectivePotential | Callable, alpha: float, m: int, grid: Grid1D) -> int:
    """N_-( -w'' + m^2 w - alpha G w ) on the truncated line, Dirichlet ends."""
    return int(channel_row_counts(_g_samples(G, grid), grid, [alpha], [int(m)])[0])


def count_channels(G, alpha: float, ms: Sequence[int], grid: Grid1D) -> np.ndarray:
    """Batched channel counts sharing one potential evaluation; row-for-row
    identical to count_channel on the same grid."""
    ms = list(ms)
    if not ms:
        return np.zeros(0, dtype=np.int64)
    return channel_row_counts(_g_samples(G, grid), grid, np.full(len(ms), float(alpha)), ms)


def radial_m_max(gvals: np.ndarray, alpha: float) -> int:
    """Smallest m with m^2 >= alpha max_i G(t_i) for the samples ``gvals``:
    every radial channel beyond it is positive definite on that grid."""
    sup = float(np.max(gvals)) if gvals.size else 0.0
    if sup <= 0 or alpha <= 0:
        return 0
    return int(math.ceil(math.sqrt(alpha * sup)))


def radial_counts(G: EffectivePotential | Callable, alphas, grid: Grid1D) -> np.ndarray:
    """(N_-(H), N_-(H~), N_-(M)) of a radial potential for every alpha on
    one grid, shape (len(alphas), 3), from a single kernel call.

    Each alpha contributes the channels m = 0..m_max (cutoff from the grid
    maximum of G), every m >= 1 weighted twice for its cos and sin copies,
    plus the m = 0 row with the t = 0 node deleted, which is M.  The
    constrained count is N_-(M) plus the m >= 1 channels.
    """
    return radial_sample_counts(_g_samples(G, grid), alphas, grid)


def radial_sample_counts(gvals: np.ndarray, alphas, grid: Grid1D) -> np.ndarray:
    """radial_counts on the samples ``gvals`` of G at the interior nodes of
    ``grid``."""
    alphas = np.asarray(alphas, dtype=float)
    if not grid.has_node_at_zero:
        raise ValueError("radial counts need a grid node at t=0")
    if alphas.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    tops = [radial_m_max(gvals, float(alpha)) for alpha in alphas]
    # per alpha: the M row, then the channels m = 0..m_max
    ms = np.concatenate([np.arange(-1, top + 1) for top in tops]).clip(min=0)
    sizes = np.asarray(tops) + 2
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    counts = channel_row_counts(gvals, grid, np.repeat(alphas, sizes), ms, cut_rows=starts)
    n_m = counts[starts]
    pairs = np.add.reduceat(np.where(ms >= 1, 2 * counts, 0), starts)
    n_2d = np.add.reduceat(np.where(ms == 0, counts, 0), starts) - n_m + pairs
    return np.stack([n_2d, n_m + pairs, n_m], axis=1)


def birman_schwinger_1d(G: EffectivePotential | Callable, eps: float, grid: Grid1D) -> int:
    """n_+(eps, F_G) for the 1D Birman-Schwinger operator with Rayleigh
    quotient int G w^2 / int w'^2 on { w(0) = 0 }.

    Counted as the negative inertia of (stiffness - (1/eps) mass_G) on the
    constrained grid, which is float for float the matrix of
    count_M(G, 1/eps).  The Dirichlet stiffness is positive definite by
    construction, so no singular fallback is needed.
    """
    if not eps > 0:
        raise ValueError("threshold must be positive")
    if not grid.has_node_at_zero:
        raise ValueError("Birman-Schwinger grid needs a node at t=0")
    return count_M(G, 1.0 / eps, grid)
