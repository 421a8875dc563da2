"""Finite-difference 1D operators -d^2/dt^2 + W(t) and exact inertia counts.

Everything is a symmetric tridiagonal matrix on a uniform grid with
Dirichlet ends; negative eigenvalues are counted exactly (for the matrix)
by the Sturm pivot recurrence, so no eigenvalues are ever computed.  The
interior constraint phi(0) = 0 deletes the t = 0 node, splitting the matrix
into two independent half-line blocks.  Every count goes through one
batched kernel, a split pass: each row is cut at a centre node (t = 0, which
every count but a single channel's needs; that one cuts a grid without it
at the middle node), its two halves run inward from their Dirichlet ends as
stacked rows of one node loop of half the grid's length, and the centre's
pivot closes the row.  The halves alone are the matrix with that node
deleted, so one pass gives both a channel's count and, for m = 0, the
count of the half-line blocks.  The pass also returns each half's last
pivot: the 2D block pass (spectra2d) runs its free tails, one row per
channel, through the same kernel and couples them to the dense slices by
those pivots.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import MatrixSizeError, NonFiniteError, NumericalError
from .potentials import EffectivePotential

log = logging.getLogger(__name__)

# retry shift applied when the pivot recurrence hits an exact zero
ZERO_PIVOT_SHIFT = -1e-12
# Node ceiling of every grid, domain-doubling levels included, against 48001
# for the largest grid the default policy or the tests use.
MAX_NODES = 10_000_000
# Row ceiling of one batched Sturm call (the rows of every alpha of a radial
# count, one per channel), against a few hundred in a sweep to alpha = 2000:
# each step chunk of the kernel then spans at most 2 x 100000 x NODE_CHUNK
# floats (0.4 GB).
MAX_STURM_ROWS = 100_000


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [t_min, t_max] with n nodes including the endpoints."""

    t_min: float
    t_max: float
    n: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("grid needs t_min < t_max")
        if not 3 <= self.n <= MAX_NODES:
            raise ValueError(f"grid needs 3 to {MAX_NODES} nodes, got {self.n}")
        h2 = self.h * self.h
        if not (h2 > 0 and 0 < 1.0 / h2 < math.inf):
            raise ValueError(f"grid spacing h = {self.h!r} is out of range "
                             "(1/h^2 must be finite and nonzero)")

    @property
    def h(self) -> float:
        return (self.t_max - self.t_min) / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        """The n nodes, centred: (t_min + t_max) / 2 + (k - (n - 1) / 2) h.
        Node k steps from the centre is then k h whatever the width, so a
        domain-doubling level (same h, twice the half-width) holds the
        previous level's nodes bit for bit, and a symmetric grid's t = 0 node
        is exactly 0.0; a block pass carried from one level to the next
        relies on both."""
        return 0.5 * (self.t_min + self.t_max) + (np.arange(self.n) - 0.5 * (self.n - 1)) * self.h

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

    def __post_init__(self):
        # a bad spacing fails on the base grid: every level has its h
        spans = self.base_grid().n - 1
        # the top level has (spans << max_doublings) + 1 nodes (level_grid);
        # past bit_length doublings that is beyond the ceiling uncomputed
        if (self.max_doublings >= MAX_NODES.bit_length()
                or (spans << self.max_doublings) + 1 > MAX_NODES):
            raise ValueError(f"domain-doubling level {self.max_doublings} of a {spans + 1}-node "
                             f"base grid exceeds the ceiling of {MAX_NODES} nodes")

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


# Step-chunk length of the pivot kernel: the largest array it builds spans
# rows x NODE_CHUNK, never rows x nodes.
NODE_CHUNK = 256


@dataclass(frozen=True)
class _ExplicitRows:
    """Row source over diagonals given in full, shape (rows, n)."""

    diags: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.diags.shape

    def block(self, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.diags[np.ix_(rows, nodes)].T)


@dataclass(frozen=True)
class _ChannelRows:
    """Row source kin + (m^2 - alpha G(t_i)), one (m, alpha) pair per row,
    built step chunk by step chunk from the shared samples of G."""

    kin: float
    m2: np.ndarray
    alphas: np.ndarray
    gvals: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.m2.size, self.gvals.size

    def block(self, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        return self.kin + (self.m2[rows] - np.multiply.outer(self.gvals[nodes], self.alphas[rows]))


def _pivot_pass(source, rows: np.ndarray, offsq, centre: int, shift: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One split (twisted) pivot sweep over ``rows`` of ``source``.

    Each row is cut at the node ``centre``.  Its two halves run inward from
    their Dirichlet ends as stacked rows of one node loop, the left half
    q_i = (d_i - shift) - offsq[i-1] / q_{i-1} over nodes 0..centre-1 and the
    right half q_i = (d_i - shift) - offsq[i] / q_{i+1} over nodes
    n-1..centre+1, and the row closes with the centre's pivot
    q_c = (d_c - shift) - offsq[c-1] / q_{c-1} - offsq[c] / q_{c+1}.
    Step s eliminates node centre - steps + s on the left and
    centre + steps - s on the right; the shorter half starts with padding
    nodes of pivot +inf, which couple to nothing.  ``offsq`` is a scalar or
    one value per node pair.

    Returns (negative counts of the whole rows, negative counts of the two
    halves, rows whose halves hit an exact zero pivot, rows whose centre
    pivot is exactly zero, the last pivot of each half: the left halves',
    then the right halves', +inf for an empty half)."""
    n = source.shape[1]
    steps = max(centre, n - 1 - centre)
    width = 2 * rows.size
    halves = np.zeros(width, dtype=np.int64)
    hit_zero = np.zeros(width, dtype=bool)
    tmp = np.empty(width)
    prev = np.full(width, np.inf)
    per_node = np.ndim(offsq) > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, steps, NODE_CHUNK):
            hi = min(lo + NODE_CHUNK, steps)
            step = np.arange(lo, hi)
            nodes = np.stack((centre - steps + step, centre + steps - step), axis=1)
            q = source.block(rows, nodes.clip(0, n - 1).ravel()).reshape(hi - lo, width)
            q[nodes[:, 0] < 0, :rows.size] = np.inf
            q[nodes[:, 1] > n - 1, rows.size:] = np.inf
            if shift:
                q -= shift
            if per_node:
                pairs = np.stack((nodes[:, 0] - 1, nodes[:, 1]), axis=1).clip(0, n - 2)
                couple = np.repeat(offsq[pairs], rows.size, axis=1)
            else:
                couple = [offsq] * (hi - lo)
            for j in range(hi - lo):
                qj = q[j]
                np.divide(couple[j], prev, out=tmp)
                np.subtract(qj, tmp, out=qj)
                prev = qj
            halves += np.count_nonzero(q < 0, axis=0)
            hit_zero |= (q == 0.0).any(axis=0)
        q_c = source.block(rows, np.array([centre]))[0]
        if shift:
            q_c -= shift
        if centre > 0:
            q_c -= (offsq[centre - 1] if per_node else offsq) / prev[:rows.size]
        if centre < n - 1:
            q_c -= (offsq[centre] if per_node else offsq) / prev[rows.size:]
    halves = halves[:rows.size] + halves[rows.size:]
    return (halves + (q_c < 0), halves, hit_zero[:rows.size] | hit_zero[rows.size:],
            q_c == 0.0, prev)


def _pivot_counts(source, offsq, centre: int | None = None, shift: float = 0.0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(Negative-eigenvalue counts of every row of ``source``, the same
    counts with the node ``centre`` deleted): the batched Sturm kernel
    behind every 1D count and the radial 2D counts.  ``centre`` defaults to
    the middle node.

    Rows share the squared offdiagonals (a scalar or one value per node
    pair).  Exact zero pivots are a measure-zero event; only the affected
    rows are recomputed at the fixed shift ZERO_PIVOT_SHIFT and the
    perturbation is logged, which keeps repeated runs deterministic.  A zero
    at the centre alone redoes only the row's full count: the count with the
    centre deleted never reads that pivot.
    """
    n_rows, n = source.shape
    offsq = np.asarray(offsq, dtype=float) if np.ndim(offsq) else float(offsq)
    if centre is None:
        centre = n // 2
    full, halves, zero_halves, zero_centre, _ = _pivot_pass(source, np.arange(n_rows), offsq,
                                                            centre, shift)
    if np.any(zero_halves | zero_centre):
        redo_rows = np.flatnonzero(zero_halves | zero_centre)
        log.warning("Sturm recurrence hit exact zero pivots in %d row(s); "
                    "retrying at shift %g", redo_rows.size, shift + ZERO_PIVOT_SHIFT)
        redo_full, redo_halves, again_halves, again_centre, _ = _pivot_pass(
            source, redo_rows, offsq, centre, shift + ZERO_PIVOT_SHIFT)
        if np.any(again_halves | again_centre):
            raise NumericalError("zero pivot persisted after the fixed perturbation")
        full[redo_rows] = redo_full
        halves[redo_rows] = np.where(zero_halves[redo_rows], redo_halves, halves[redo_rows])
    return full, halves


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
    return int(_pivot_counts(_ExplicitRows(diag[None, :]), offdiag * offdiag, shift=shift)[0][0])


def _zero_node(grid: Grid1D) -> int:
    """The interior index of the t = 0 node, which every count that deletes
    it or ends at it needs: ValueError on a grid without one."""
    zero = grid.zero_index
    if zero is None:
        raise ValueError("this count needs a grid node at t = 0")
    return zero


def _channel_diags(G: EffectivePotential, alpha: float, ms: Sequence[int], grid: Grid1D
                   ) -> np.ndarray:
    gvals = G(grid.interior)
    kin = 2.0 / (grid.h * grid.h)
    m2 = np.asarray([float(m * m) for m in ms])
    return kin + (m2[:, None] - alpha * gvals[None, :])


def channel_row_counts(gvals: np.ndarray, grid: Grid1D, alphas, ms
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Counts of the channel operators -w'' + m^2 w - alpha G w, one (alpha,
    m) pair per row, all in one kernel call on the samples ``gvals`` of G
    at the interior nodes of ``grid``: (the counts, the counts with the
    t = 0 node deleted).  The second are the two half-line blocks, so for
    m = 0 the count of M; on a grid without a t = 0 node they delete the
    middle interior node instead."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size and float(np.min(alphas)) < 0:
        raise ValueError("coupling must be non-negative")
    m2 = np.asarray([float(m * m) for m in ms])
    source = _ChannelRows(kin=2.0 / (grid.h * grid.h), m2=m2, alphas=alphas,
                          gvals=np.asarray(gvals, dtype=float))
    off = -1.0 / grid.h ** 2
    return _pivot_counts(source, off * off, grid.zero_index)


def count_M(G: EffectivePotential, alpha: float, grid: Grid1D) -> int:
    """N_-( -phi'' - alpha G phi ), phi(0) = 0: the sum of the two half-line
    Dirichlet blocks obtained by deleting the t = 0 node."""
    _zero_node(grid)
    return int(channel_row_counts(G(grid.interior), grid, [alpha], [0])[1][0])


def count_channel(G: EffectivePotential, alpha: float, m: int, grid: Grid1D) -> int:
    """N_-( -w'' + m^2 w - alpha G w ) on the truncated line, Dirichlet ends."""
    return int(channel_row_counts(G(grid.interior), grid, [alpha], [int(m)])[0][0])


def count_channels(G: EffectivePotential, alpha: float, ms: Sequence[int], grid: Grid1D
                   ) -> np.ndarray:
    """Batched channel counts sharing one potential evaluation; row-for-row
    identical to count_channel on the same grid."""
    ms = list(ms)
    if not ms:
        return np.zeros(0, dtype=np.int64)
    return channel_row_counts(G(grid.interior), grid, np.full(len(ms), float(alpha)), ms)[0]


def check_sturm_rows(rows: int, what: str) -> None:
    """MatrixSizeError when ``what`` needs more than MAX_STURM_ROWS rows."""
    if rows > MAX_STURM_ROWS:
        raise MatrixSizeError(f"{what} need {rows} Sturm rows, above the ceiling of "
                              f"{MAX_STURM_ROWS}; use a smaller coupling or fewer points")


def radial_m_max(gvals: np.ndarray, alpha: float) -> int:
    """Smallest m with m^2 >= alpha max_i G(t_i) for the samples ``gvals``:
    every radial channel beyond it is positive definite on that grid (an
    overflowing product reads as the largest float, whose cutoff is still
    beyond every ceiling)."""
    sup = float(np.max(gvals)) if gvals.size else 0.0
    if sup <= 0 or alpha <= 0:
        return 0
    return int(math.ceil(math.sqrt(min(alpha * sup, sys.float_info.max))))


def radial_counts(gvals: np.ndarray, alphas, grid: Grid1D) -> np.ndarray:
    """(N_-(H), N_-(H~), N_-(M)) of a radial potential for every alpha on
    one grid, shape (len(alphas), 3), from a single kernel call on the
    samples ``gvals`` of G at the interior nodes of ``grid``.

    Each alpha contributes the channels m = 0..m_max (cutoff from the grid
    maximum of G), every m >= 1 weighted twice for its cos and sin copies.
    N_-(M) is the m = 0 row's count with the t = 0 node deleted, which the
    kernel's split pass gives with the full count, and the constrained
    count is N_-(M) plus the m >= 1 channels.  More than MAX_STURM_ROWS
    channels in all raise MatrixSizeError before any row is built.
    """
    alphas = np.asarray(alphas, dtype=float)
    _zero_node(grid)
    if alphas.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    tops = [radial_m_max(gvals, float(alpha)) for alpha in alphas]
    check_sturm_rows(sum(tops) + len(tops), "the radial channels")
    ms = np.concatenate([np.arange(top + 1) for top in tops])
    starts = np.concatenate(([0], np.cumsum(np.asarray(tops) + 1)[:-1]))
    full, halves = channel_row_counts(gvals, grid, np.repeat(alphas, np.asarray(tops) + 1), ms)
    n_m = halves[starts]
    pairs = np.add.reduceat(np.where(ms >= 1, 2 * full, 0), starts)
    return np.stack([full[starts] + pairs, n_m + pairs, n_m], axis=1)


def birman_schwinger_1d(G: EffectivePotential, eps: float, grid: Grid1D) -> int:
    """n_+(eps, F_G) for the 1D Birman-Schwinger operator with Rayleigh
    quotient int G w^2 / int w'^2 on { w(0) = 0 }.

    Counted as the negative inertia of (stiffness - (1/eps) mass_G) on the
    constrained grid, which is float for float the matrix of
    count_M(G, 1/eps).  The Dirichlet stiffness is positive definite by
    construction, so no singular fallback is needed.
    """
    if not eps > 0:
        raise ValueError("threshold must be positive")
    return count_M(G, 1.0 / eps, grid)
