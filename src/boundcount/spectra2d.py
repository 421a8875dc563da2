"""2D operators -Delta - alpha V via angular Fourier reduction.

In (t = ln r, angular mode) coordinates the quadratic form
int (|grad u|^2 - alpha V |u|^2) dx becomes block-tridiagonal: per-channel
1D operators -d^2/dt^2 + m^2 - alpha e^{2t} Vhat_0(e^t) on the diagonal,
and diagonal-in-t couplings -alpha e^{2t} Vhat_{m-m'}(e^t) between modes.
Complex modes are paired into cos/sin channels so every matrix is real
symmetric, and negative eigenvalues are counted exactly by a block
Schur-complement recursion (the block analogue of the Sturm sweep).  A pivot
block D that Cholesky factors counts 0 without eigh if ||D||_1 ||D^-1||_1 <
CONDITION_LIMIT: that bounds kappa_2(D), keeping D clear of the singular guard.

Each side of the t = 0 slice c is eliminated from c outward, and a pass
keeps that state from one domain-doubling level to the next: the level grids
nest bit for bit, so each level factors only the slices it adds.  An advance
of a side is balanced: two chains run toward the middle of the new segment,
one continuing the side's state (which carries F, c's coupling to its
current slice: F_1 = -e I with e = 1/h^2, and F_{k+1} = e F_k X_k for the
pivot inverses X_k, each adding -F X F^T to c's block), one from the
segment's outer end.  A run of end slices without residual is a free tail,
whatever its diagonal: its pivots are diagonal, s_{j+1} = d_{j+1} - e^2 /
s_j, the Sturm recurrence of each channel.  Both tails are the halves of one
split pass of the batched Sturm kernel (spectra1d), a row per channel, where
only an exact zero pivot is singular; the last live slice meets each tail's
last pivot.  A block-diagonal system is the same pass with both sides all
tail.

The constrained operator H~ deletes the t = 0 node of the constant channel,
which is the discrete form of the mean-zero condition int u(1, theta)
dtheta = 0; removing that single row restores the full operator, hence
the rank-one sandwich count_tilde <= count_full <= count_tilde + 1.  One
block pass, which factors the t = 0 slice last, gives both counts: every
earlier step is a Schur complement onto that slice, so deleting its constant
row at the end is exact.  A 2D count therefore needs a grid with a node at
t = 0, as every GridPolicy grid has, and raises ValueError on any other.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import MatrixSizeError, NumericalError
from .potentials import EffectivePotential, PotentialSpec, decompose, effective_potential
from .spectra1d import (Grid1D, ZERO_PIVOT_SHIFT, _channel_diags, _ExplicitRows, _pivot_pass,
                        _zero_node, radial_counts, radial_m_max)

log = logging.getLogger(__name__)

DEFAULT_MAX_DIMENSION = 12000
# Ceiling on B x n_int of a radial system, which max_dimension does not bound
# (its count is one Sturm pass over the channels): 3 arrays of that many
# floats, 240 MB, against 29 channels on 5999 slices for the largest the
# tests assemble.
MAX_RADIAL_DIMENSION = 10_000_000

# Coupled channel cutoff: modes added above the Gershgorin bound and the
# highest declared Fourier mode, then per escalation while the count changes.
CUTOFF_GUARD = 4
ESCALATION_STEP = 2
MAX_ESCALATIONS = 4
CONDITION_LIMIT = 1e12  # of a pivot block's ||D||_1 ||D^-1||_1, for the Cholesky path
GATHER_SLICES = 32  # pivot blocks a block pass builds per gather, bounding its memory


@dataclass(frozen=True)
class ChannelSet:
    """Symmetric set of angular modes -m_max..m_max, realized as real
    channels (const, cos m, sin m)."""

    m_max: int

    def __post_init__(self):
        if self.m_max < 0:
            raise ValueError("m_max must be >= 0")

    @property
    def channels(self) -> list[tuple[str, int]]:
        return [("const", 0)] + [(kind, m) for m in range(1, self.m_max + 1)
                                 for kind in ("cos", "sin")]

    @property
    def size(self) -> int:
        return 2 * self.m_max + 1


def radial_cutoff_m_max(G: EffectivePotential, alpha: float, grid: Grid1D) -> int:
    """Smallest m with m^2 >= alpha max_i G(t_i): for radial potentials the
    channel matrix K + diag(m^2 - alpha G) is then positive definite, so all
    omitted channels are provably empty at the matrix level."""
    return radial_m_max(G(grid.interior), alpha)


def coupled_cutoff_m_max(spec: PotentialSpec, alpha: float, grid: Grid1D,
                         n_theta: int = 256) -> int:
    """Channel cutoff for non-radial potentials: a Gershgorin-style bound on
    the total angular coupling, plus the highest declared Fourier mode and a
    guard band.  Under-truncation remains detectable by escalation."""
    hint = spec.angular_mode_hint()
    k_probe = hint if hint is not None else max(8, n_theta // 8)
    t = grid.interior
    vhat = spec.angular_coefficients(np.exp(t), k_probe, n_theta)
    with np.errstate(over="ignore"):
        weight = np.exp(2.0 * t)
    row = np.abs(vhat[:, 0].real) + 2.0 * np.sum(np.abs(vhat[:, 1:]), axis=-1)
    live = row > 0
    sup = float(np.max(weight[live] * row[live])) if np.any(live) else 0.0
    base = radial_m_max(np.array([sup]), alpha)  # the same rule on the coupling bound
    return base + (hint if hint is not None else k_probe) + CUTOFF_GUARD


def system_dimension(m_max: int, grid: Grid1D, constrained: bool) -> int:
    """Order of the assembled system: 2 m_max + 1 channels on every interior
    node, less the constant channel's t = 0 row when constrained."""
    return ChannelSet(m_max).size * (grid.n - 2) - (1 if constrained else 0)


@cache
def _pair_table(channel_set: ChannelSet) -> Callable[[np.ndarray], np.ndarray]:
    """How each channel pair (a, b) couples, decided once per channel set.

    Returns the gather that maps mode rows x = [p | q] (p_k = Re Vhat_k with
    p_0 = 0, since mode 0 lives in the diagonal; q_k = -Im Vhat_k; k = 0..2
    m_max; one row per slice) to their angular residuals, entrywise
    R = c1 x[..., i1] + c2 x[..., i2].  An absent second term reads -0.0 * p_0
    = -0.0, the exact additive identity, so every entry keeps the value, bit
    for bit, of the pair's own formula.
    """
    K = 2 * channel_set.m_max + 1
    m = np.array([mode for _, mode in channel_set.channels])
    sin = np.array([kind == "sin" for kind, _ in channel_set.channels])[:, None]
    both, diff = m[:, None] + m, np.abs(m[:, None] - m)
    const = (m[:, None] == 0) | (m == 0)
    uses_q = sin != sin.T  # const-sin and cos-sin pairs read q
    # first term: sqrt2 p_n or sqrt2 q_n beside the constant channel (p_0 = 0
    # between two constants), q_{m+n} for cos-sin, p_|m-n| for equal kinds
    i1 = np.where(uses_q, K + both, diff)
    c1 = np.where(const, math.sqrt(2.0), 1.0)
    # second term: +p_{m+n} for cos-cos, -p_{m+n} for sin-sin, and
    # sign(m_sin - m_cos) q_|m-n| for cos-sin when m != n
    same = ~const & ~uses_q
    split = ~const & uses_q & (diff > 0)
    i2 = np.where(same, both, np.where(split, K + diff, 0))
    c2 = np.where(same, np.where(sin, -1.0, 1.0),
                  np.where(split, np.sign(np.where(sin, 1, -1) * (m[:, None] - m)), -0.0))
    return lambda x: c1 * x[..., i1] + c2 * x[..., i2]


@dataclass(frozen=True)
class BlockSystem2D:
    """Assembled block-tridiagonal form of the 2D quadratic form.

    ``chan_diag[b, i]`` holds 2/h^2 + m_b^2 - alpha G(t_i); the non-radial
    angular residual (everything beyond mode 0) enters through the p/q mode
    arrays and is scaled by -alpha e^{2t_i} slice by slice.  The system is
    that of H; H~ is the same system less the constant channel's row at
    the t = 0 slice.
    """

    grid: Grid1D
    channel_set: ChannelSet
    alpha: float
    chan_diag: np.ndarray          # [B, n_int]
    pmodes: np.ndarray             # [n_int, 2 m_max + 1] Re Vhat_k, column 0 zero
    qmodes: np.ndarray             # [n_int, 2 m_max + 1] (1/2pi) int V sin k theta

    @cached_property
    def has_residual(self) -> np.ndarray:
        """[n_int] whether each slice has an angular residual: a mode above 0
        that does not vanish."""
        return np.any(self.pmodes[:, 1:] != 0.0, 1) | np.any(self.qmodes[:, 1:] != 0.0, 1)

    @property
    def is_block_diagonal(self) -> bool:
        return not self.has_residual.any()

    @property
    def dimension(self) -> int:
        return system_dimension(self.channel_set.m_max, self.grid, False)

    def angular_residual(self, slices: slice | np.ndarray = slice(None)) -> np.ndarray:
        """R(r_i) = A(r_i) - p_0(r_i) I of the given slices (all by default), [n, B, B];
        from modes k >= 1 only, so it vanishes identically for radial potentials."""
        return _pair_table(self.channel_set)(np.hstack((self.pmodes[slices], self.qmodes[slices])))

    def blocks(self, shift: float = 0.0, slices: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Dense diagonal blocks of the given slices (all by default), [n, B, B],
        from one gather; a slice whose modes above 0 all vanish gets no
        residual, nor an overflowing e^{2t} times zero."""
        diag = self.chan_diag[:, slices].T - shift
        D = np.where(np.eye(diag.shape[1], dtype=bool), diag[:, :, None], 0.0)
        live = self.has_residual[slices]
        if live.any():
            rows = np.arange(len(self.pmodes))[slices][live]
            R = self.angular_residual(rows)  # scaled in place to alpha (e^{2t} R)
            R *= np.array([math.exp(2.0 * t) for t in self.grid.interior[rows]])[:, None, None]
            R *= self.alpha
            D[live] -= R
        return D

    def to_dense(self, max_dimension: int = DEFAULT_MAX_DIMENSION) -> np.ndarray:
        """Materialize the full symmetric matrix (slice-major ordering)."""
        if self.dimension > max_dimension:
            raise MatrixSizeError(
                f"dense dimension {self.dimension} exceeds ceiling {max_dimension}; "
                "use fewer channels or a coarser grid")
        n_int, B = self.chan_diag.shape[1], self.channel_set.size
        A = np.zeros((self.dimension, self.dimension))
        A.reshape(n_int, B, n_int, B)[np.arange(n_int), :, np.arange(n_int), :] = self.blocks()
        # each channel couples to itself on the neighbouring slices through -1/h^2
        k = np.arange(B, self.dimension)
        A[k - B, k] = A[k, k - B] = -1.0 / self.grid.h ** 2
        return A


def assemble_full_2d(spec: PotentialSpec, alpha: float, grid: Grid1D,
                     channels: ChannelSet | int | None = None,
                     n_theta: int = 256, max_dimension: int = DEFAULT_MAX_DIMENSION
                     ) -> BlockSystem2D:
    """Assemble the discretized quadratic form of H_{alpha V}.  A coupled
    system of more than ``max_dimension`` rows, or a radial one of more than
    MAX_RADIAL_DIMENSION, raises MatrixSizeError before its arrays are built."""
    if alpha < 0:
        raise ValueError("coupling must be non-negative")
    G = effective_potential(decompose(spec, n_theta))
    if channels is None:
        channels = (radial_cutoff_m_max(G, alpha, grid) if spec.is_radial
                    else coupled_cutoff_m_max(spec, alpha, grid, n_theta))
    channel_set = channels if isinstance(channels, ChannelSet) else ChannelSet(int(channels))
    B = channel_set.size
    n_int = grid.n - 2
    # radial systems stay block-diagonal (all free tail: one Sturm pass over
    # the channels; radial count_2d_auto counts assemble none), so the
    # dense-dimension ceiling applies to coupled systems only
    ceiling = MAX_RADIAL_DIMENSION if spec.is_radial else max_dimension
    if B * n_int > ceiling:
        raise MatrixSizeError(
            f"system dimension {B * n_int} exceeds ceiling {ceiling}; use fewer channels or "
            "a coarser grid" + ("" if spec.is_radial else " (the ceiling is configurable)"))
    ms = [m for _, m in channel_set.channels]
    chan_diag = _channel_diags(G, alpha, ms, grid)
    if spec.is_radial:
        pmodes = np.zeros((n_int, 2 * channel_set.m_max + 1))
        qmodes = np.zeros_like(pmodes)
    else:
        with np.errstate(over="ignore"):
            radii = np.exp(grid.interior)
        vhat = spec.angular_coefficients(radii, 2 * channel_set.m_max, n_theta)
        pmodes = vhat.real.copy()
        qmodes = (-vhat.imag).copy()
        pmodes[:, 0] = 0.0  # mode 0 lives in chan_diag via G
    return BlockSystem2D(grid=grid, channel_set=channel_set, alpha=alpha,
                         chan_diag=chan_diag, pmodes=pmodes, qmodes=qmodes)


class _SingularPivot(Exception):
    pass


def _negatives(w: np.ndarray, where: Sequence[int]) -> int:
    """Negative count of a stack of dense pivot blocks with eigenvalues ``w``
    [n, B]; a nearly singular block (its smallest |eigenvalue| at most 1e-14
    of its largest) raises _SingularPivot naming its slice ``where[i]`` (an
    empty one counts 0)."""
    a = np.abs(w)
    wmax = a.max(-1, initial=0.0)
    near = (wmax == 0.0) | (a.min(-1, initial=np.inf) <= 1e-14 * wmax)
    if w.shape[-1] and near.any():
        raise _SingularPivot(f"near-singular pivot block at slice {where[int(np.argmax(near))]}")
    return int(np.count_nonzero(w < 0))


def _eigh_inverses(D: np.ndarray, where: Sequence[int]) -> tuple[int, np.ndarray]:
    """(negatives, inverses) of a stack of pivot blocks D by eigh, under the
    guard of _negatives."""
    w, U = np.linalg.eigh(D)
    return _negatives(w, where), (U / w[:, None, :]) @ np.swapaxes(U, 1, 2)


def _pivot_inverses(D: np.ndarray, where: np.ndarray) -> tuple[int, np.ndarray]:
    """(negatives, inverses) of a stack of pivot blocks D: 0 when Cholesky factors it and every
    ||D||_1 ||D^-1||_1 < CONDITION_LIMIT, otherwise eigh's count under the guard of _negatives."""
    try:
        np.linalg.cholesky(D)
        inv = np.linalg.inv(D)
    except np.linalg.LinAlgError:
        pass
    else:
        if np.all(np.abs(D).sum(-2).max(-1) * np.abs(inv).sum(-2).max(-1) < CONDITION_LIMIT):
            return 0, inv
    return _eigh_inverses(D, where)


def _free_tail(sys: BlockSystem2D, side: np.ndarray) -> int:
    """Length of the free tail of a side (slice indices from its outer end
    inward): the run of slices from that end without residual."""
    live = sys.has_residual[side]
    return side.size if not live.any() else int(np.argmax(live))


def _step_blocks(sys: BlockSystem2D, shift: float, order: np.ndarray, sizes: list[int]):
    """The pivot blocks of each step of an elimination order (``sizes`` slices
    a step), gathered whole steps at a time, up to GATHER_SLICES slices a
    gather (a larger step is gathered alone)."""
    bounds = [0, *np.cumsum(sizes).tolist()]
    first = 0
    while first < len(sizes):
        last = first + 1
        while last < len(sizes) and bounds[last + 1] - bounds[first] <= GATHER_SLICES:
            last += 1
        D = sys.blocks(shift, order[bounds[first]:bounds[last]])
        yield from np.split(D, np.subtract(bounds[first + 1:last], bounds[first]))
        first = last


@dataclass
class _Side:
    """One side of the separator slice c once the slices at offsets 1..reach
    from c are eliminated (offset k is the slice k steps from c): Y = e^2 X
    for X the inverse of the Schur complement onto the slice at offset reach,
    F the coupling of c to the slice at offset reach + 1, and lost, what
    these slices took from c's block.  A Schur complement does not depend on
    the order of elimination, so neither does this state, as long as the
    slice at offset reach goes last."""

    reach: int
    Y: np.ndarray
    F: np.ndarray
    lost: np.ndarray

    @staticmethod
    def fresh(B: int, e: float) -> "_Side":
        """Nothing eliminated yet: F is the plain coupling -e I."""
        return _Side(0, np.zeros((B, B)), -e * np.eye(B), np.zeros((B, B)))


def _rows(sys: BlockSystem2D, at: list[int]) -> tuple[np.ndarray, ...]:
    """What the pivot blocks of the slices ``at`` are built from."""
    return sys.grid.interior[at], sys.chan_diag[:, at], sys.pmodes[at], sys.qmodes[at]


@dataclass
class _Carried:
    """Both sides of c after one level (negatives: of every pivot they
    eliminated), and the system's rows at c and at each side's reach."""

    negatives: int
    sides: list[_Side]
    grid: Grid1D
    alpha: float
    rows: tuple

    def continues(self, sys: BlockSystem2D, c: int) -> bool:
        """Whether ``sys`` holds this state's slices unchanged: the same h
        and coupling on a grid at least as wide, and the same rows, bit for
        bit, at c and at each side's reach."""
        old, grid = self.grid, sys.grid
        reach = [side.reach for side in self.sides]
        return (grid.h == old.h and sys.alpha == self.alpha
                and grid.t_min <= old.t_min and grid.t_max >= old.t_max
                and c - reach[0] >= 0 and c + reach[1] < sys.chan_diag.shape[1]
                and all(np.array_equal(a, b) for a, b in
                        zip(_rows(sys, [c - reach[0], c, c + reach[1]]), self.rows)))


def _level_pass(sys: BlockSystem2D, shift: float,
                carried: _Carried | None) -> tuple[int, int, _Carried]:
    """(N_-(H), N_-(H~), the state to carry) of one system: see _BlockPass.

    Each side of c is eliminated from c outward up to the slice before its
    last live slice (the slices before its free tail), continuing
    ``carried`` when it holds that side's first slices; both free tails go
    by one split pass of the Sturm kernel _pivot_pass, whose last pivots
    the last live slices meet.  An exact zero tail pivot raises
    _SingularPivot, as a nearly singular dense block does.

    An advance of a side from offset r to offset t, beyond two slices,
    takes t as a separator E: chain A continues the side's state from r + 1,
    chain B starts at E's inner neighbour carrying E's coupling F_E = -e I,
    and the two meet at the middle slice m, whose pivot T = D_m - Y_A - Y_B
    goes through eigh.  c gains -F T^-1 F^T, E's block loses F_E T^-1 F_E^T,
    and c couples to E through C = -F T^-1 F_E^T; E's pivot P then gives the
    side's new state Y = e^2 P^-1, F = e C P^-1 and lost += C P^-1 C^T."""
    e = 1.0 / sys.grid.h ** 2
    esq = e * e
    n_int, B = sys.chan_diag.shape[1], sys.channel_set.size
    c = sys.grid.zero_index
    lost = np.zeros((B, B))  # what the slices of both sides take from c's block
    sides = (np.arange(c - 1, -1, -1), np.arange(c + 1, n_int))  # side[k - 1]: offset k
    tails = [_free_tail(sys, side[::-1]) for side in sides]
    lives = [side.size - tail for side, tail in zip(sides, tails)]
    # both free tails, in grid order about c, as the halves of one split
    # Sturm pass with a row per channel; c's own pivot is not read
    nodes = np.r_[:tails[0], c, n_int - tails[1]:n_int]
    _, halves, hit_zero, _, last = _pivot_pass(_ExplicitRows(sys.chan_diag[:, nodes]),
                                               np.arange(B), esq, tails[0], shift)
    if hit_zero.any():
        raise _SingularPivot("exact zero pivot in a free tail")
    total = int(halves.sum())
    taken = np.split(esq * (1.0 / last), 2)  # what each tail takes from the slice it meets
    if carried is not None and (not carried.continues(sys, c) or any(
            max(live - 1, 0) < state.reach for live, state in zip(lives, carried.sides))):
        carried = None
    states = [_Side.fresh(B, e) for _ in sides] if carried is None else carried.sides
    negatives_carried = 0 if carried is None else carried.negatives
    # plan each side's advance from offset r to t: chains as (slices, start),
    # chain A of side s at chains[first[s]] and its chain B, if any, after
    # it; meetings as (side, m, E)
    chains, first, meets, reach = [], [], [], []
    for s, (side, live, state) in enumerate(zip(sides, lives, states)):
        r, t = state.reach, max(live - 1, state.reach)
        reach.append(t)
        first.append(len(chains))
        if t - r <= 2:
            chains.append((side[r:t], state))
            continue
        a = (t - r - 1) // 2
        chains += [(side[r:r + a], state), (side[t - 2:r + a:-1], _Side.fresh(B, e))]
        meets.append((s, side[r + a], side[t - 1]))
    # longest chains first, so that the chains still running are prefixes;
    # step k eliminates slice k of every chain that long
    rank = sorted(range(len(chains)), key=lambda j: chains[j][0].size, reverse=True)
    row_of = {j: i for i, j in enumerate(rank)}
    Y = np.array([chains[j][1].Y for j in rank]).reshape(-1, B, B)
    F = np.array([chains[j][1].F for j in rank]).reshape(-1, B, B)
    L = np.array([chains[j][1].lost for j in rank]).reshape(-1, B, B)
    table = np.full((len(rank), max((chain[0].size for chain in chains), default=0)), -1)
    for row, j in zip(table, rank):
        row[:chains[j][0].size] = chains[j][0]
    running = table.T >= 0
    finals = [s for s, live in enumerate(lives) if live]
    groups = [*(column[keep] for column, keep in zip(table.T, running)),
              [m for _, m, _ in meets], [E for _, _, E in meets],
              [sides[s][lives[s] - 1] for s in finals] + [c]]
    sizes = [len(group) for group in groups]
    order = np.concatenate(groups).astype(np.intp)
    blocks = _step_blocks(sys, shift, order, sizes)
    at = 0
    for size, D in zip(sizes[:-3], blocks):
        idx = order[at:at + size]
        at += size
        D -= Y[:size]
        negatives, inv = _pivot_inverses(D, idx)
        negatives_carried += negatives
        np.multiply(inv, esq, out=Y[:size])
        G = F[:size] @ inv
        L[:size] += G @ np.swapaxes(F[:size], 1, 2)
        np.multiply(G, e, out=F[:size])
    D_meet, D_sep, D_last = next(blocks), next(blocks), next(blocks)
    new = [_Side(t, Y[row_of[j]], F[row_of[j]], L[row_of[j]]) for t, j in zip(reach, first)]
    if meets:
        ja = [row_of[first[s]] for s, _, _ in meets]
        jb = [row_of[first[s] + 1] for s, _, _ in meets]
        negatives, T = _eigh_inverses(D_meet - Y[ja] - Y[jb], order[at:at + len(meets)])
        negatives_carried += negatives
        FA, FB = F[ja] @ T, F[jb] @ T
        lost_a = L[ja] + FA @ np.swapaxes(F[ja], 1, 2)
        C = -FA @ np.swapaxes(F[jb], 1, 2)
        D_sep -= L[jb] + FB @ np.swapaxes(F[jb], 1, 2)
        negatives, P = _pivot_inverses(D_sep, order[at + len(meets):at + 2 * len(meets)])
        negatives_carried += negatives
        CP = C @ P
        for i, (s, _, _) in enumerate(meets):
            new[s] = _Side(reach[s], esq * P[i], e * CP[i], lost_a[i] + CP[i] @ C[i].T)
    total += negatives_carried
    for s, live in enumerate(lives):
        if not live:
            lost += np.diag(taken[s])  # a side that is all free tail (or empty: 0)
    if finals:
        T = D_last[:-1] - np.array([new[s].Y for s in finals])
        for i, s in enumerate(finals):
            T[i] -= np.diag(taken[s])  # 0 without a tail
            lost += new[s].lost
        negatives, T = _eigh_inverses(T, order[-len(finals) - 1:-1])
        total += negatives
        Z = np.array([new[s].F for s in finals])
        lost += np.sum(Z @ T @ np.swapaxes(Z, 1, 2), 0)
    D_c = D_last[-1] - lost
    full = total + _negatives(np.linalg.eigvalsh(D_c)[None], [c])
    tilde = total + _negatives(np.linalg.eigvalsh(D_c[1:, 1:])[None], [c])
    return full, tilde, _Carried(negatives_carried, new, sys.grid, sys.alpha,
                                 _rows(sys, [c - reach[0], c, c + reach[1]]))


class _BlockPass:
    """The coupled block pass of one channel set, carried from one
    domain-doubling level to the next.

    The inertia of the block-tridiagonal matrix is the sum of the inertias
    of its pivot blocks, in any elimination order.  Both sides of the
    separator slice c, the t = 0 slice, are eliminated onto c, which is
    factored last: whole for N_-(H), without its constant channel for
    N_-(H~).  Every earlier step is a Schur
    complement onto c, and c's constant row is part of no other pivot, so
    deleting it at the end is exact.  Each side is eliminated from c
    outward, so the state it reaches on one level is the start of the next
    level's, whose grid holds every slice of this one, bit for bit: each
    level factors only the slices it adds (see _level_pass).  A level that
    does not continue the state (another h or coupling, rows that differ, a
    side whose live part shrank) starts afresh.

    Every chain of both sides steps together, one stacked LAPACK call a step;
    positive-definite stacks with ||D||_1 ||D^-1||_1 < CONDITION_LIMIT skip
    eigh: that product bounds kappa_2(D), so the guard could not stop on
    them.  A nearly singular pivot block, or an exact zero pivot in a free
    tail, restarts the level from a fresh state at the shift
    ZERO_PIVOT_SHIFT, which the pass keeps for later levels; a second one
    raises NumericalError.  The free tails' rows are one matrix, so they
    take one shift, not one per row as the 1D counts do."""

    def __init__(self):
        self.shift = 0.0
        self.carried: _Carried | None = None

    def count(self, sys: BlockSystem2D) -> tuple[int, int]:
        try:
            full, tilde, self.carried = _level_pass(sys, self.shift, self.carried)
        except _SingularPivot as exc:
            self.carried = None
            if self.shift:
                raise NumericalError(f"singular pivot persisted under shift: {exc}") from exc
            log.warning("%s; retrying with shift %g", exc, ZERO_PIVOT_SHIFT)
            self.shift = ZERO_PIVOT_SHIFT
            return self.count(sys)
        return full, tilde


def count_full_2d(sys: BlockSystem2D, passes: dict | None = None) -> tuple[int, int]:
    """Exact negative-eigenvalue counts (N_-(H), N_-(H~)) of the assembled
    system from one pass; ValueError on a grid without a t = 0 node.

    ``passes``, kept by the caller from one domain-doubling level to the
    next, holds the pass of each channel cutoff (m_max), which continues the
    previous level's elimination: the counts are the same with it or
    without it.  A nearly singular pivot block, or an exact zero pivot in a
    free tail, re-runs the level, for both counts, at the shift
    ZERO_PIVOT_SHIFT, which a carried pass keeps for the later levels."""
    _zero_node(sys.grid)
    if passes is None:
        return _BlockPass().count(sys)
    return passes.setdefault(sys.channel_set.m_max, _BlockPass()).count(sys)


def count_radial_2d(G: EffectivePotential, alpha: float, grid: Grid1D) -> int:
    """N_- of the 2D operator for the radial potential whose effective
    potential is G: the sum of channel counts over |m| <= m_max, with the
    cutoff chosen so omitted channels are positive definite by construction
    (``radial_counts``' first column)."""
    return int(radial_counts(G(grid.interior), [alpha], grid)[0, 0])


def count_tilde(spec: PotentialSpec, alpha: float, grid: Grid1D,
                channels: ChannelSet | int | None = None, n_theta: int = 256,
                max_dimension: int = DEFAULT_MAX_DIMENSION) -> int:
    """N_- of the constrained operator (mean of u over the unit circle
    vanishes): the constant channel loses its t = 0 node."""
    sys = assemble_full_2d(spec, alpha, grid, channels, n_theta, max_dimension=max_dimension)
    return count_full_2d(sys)[1]


def birman_schwinger_2d(spec: PotentialSpec, eps: float, grid: Grid1D,
                        channels: ChannelSet | int | None = None, n_theta: int = 256,
                        max_dimension: int = DEFAULT_MAX_DIMENSION) -> int:
    """n_+(eps, B_V): negatives of (constrained stiffness - (1/eps) V-mass).

    This is the constrained count at coupling 1/eps, which is exactly the
    shifted-inertia formulation of the generalized eigenvalue count.
    """
    if not eps > 0:
        raise ValueError("threshold must be positive")
    return count_tilde(spec, 1.0 / eps, grid, channels, n_theta, max_dimension)


def count_2d_auto(spec: PotentialSpec, alpha: float, grid: Grid1D, n_theta: int = 256,
                  max_dimension: int = DEFAULT_MAX_DIMENSION, passes: dict | None = None
                  ) -> tuple[tuple[int, int, bool], tuple[int, int, bool]]:
    """(count, m_max used, channel cutoff certified) for N_-(H) and N_-(H~).

    Radial specs use the provable cutoff and count through the batched rows
    of ``radial_counts``, the rows a radial sweep counts.  Non-radial specs
    count again with ESCALATION_STEP extra modes until the count stops
    changing, each count by its own rule over one cache of passes that each
    give both counts; failure to stabilize is flagged, never silently
    accepted.  ``passes`` (see count_full_2d), kept by the caller across the
    domain-doubling levels of one spec and alpha, lets each level continue
    the previous level's pass of every m_max.
    """
    if spec.is_radial:
        gvals = effective_potential(decompose(spec, n_theta))(grid.interior)
        full, tilde, _ = radial_counts(gvals, [alpha], grid)[0]
        m_max = radial_m_max(gvals, alpha)
        return (int(full), m_max, True), (int(tilde), m_max, True)
    start = coupled_cutoff_m_max(spec, alpha, grid, n_theta)

    @cache
    def run(mm: int) -> tuple[int, int]:
        return count_full_2d(assemble_full_2d(spec, alpha, grid, ChannelSet(mm), n_theta,
                                              max_dimension=max_dimension), passes)

    def escalate(which: int) -> tuple[int, int, bool]:
        m_max = start
        for _ in range(MAX_ESCALATIONS):
            if run(m_max)[which] == run(m_max + ESCALATION_STEP)[which]:
                return run(m_max)[which], m_max, True
            m_max += ESCALATION_STEP
        log.info("channel cutoff did not stabilize at m_max=%d for alpha=%g (%s)",
                 m_max, alpha, ("N(H)", "N(H~)")[which])
        return run(m_max)[which], m_max, False

    return escalate(0), escalate(1)


# ----------------------------------------------------------------------
# Hardy ratios and the quadratic-form inequality


def hardy_ratio(f, which: str, grid: Grid1D) -> float:
    """Discrete ratio of weighted L2 mass to Dirichlet energy.

    which='F0': f is a radial profile omega(t) with the t = 0 node removed
    (the discrete phi(1) = 0 condition); weight (|x| ln|x|)^-2, i.e. 1/t^2
    in substitution coordinates.  The sharp constant of the underlying 1D
    Hardy inequality makes the ratio at most 4.

    which='F1': f is a list of (kind, m, omega) channel profiles with m >= 1
    (zero angular mean); weight |x|^-2, ratio at most 1.
    """
    h = grid.h
    nodes = grid.nodes
    if which == "F0":
        zero = _zero_node(grid)
        vals = np.asarray(f(nodes), dtype=float).copy()
        vals[0] = vals[-1] = 0.0
        vals[zero + 1] = 0.0  # interior index -> node index
        interior = vals[1:-1]
        t = grid.interior
        mask = np.arange(t.size) != zero
        weighted = h * float(np.sum(interior[mask] ** 2 / t[mask] ** 2))
        dirichlet = float(np.sum(np.diff(vals) ** 2)) / h
        if dirichlet == 0.0:
            raise ValueError("zero Dirichlet energy")
        return weighted / dirichlet
    if which == "F1":
        weighted = 0.0
        dirichlet = 0.0
        for kind, m, func in f:
            if m == 0:
                raise ValueError("F1 test functions must have zero angular mean (m >= 1)")
            vals = np.asarray(func(nodes), dtype=float).copy()
            vals[0] = vals[-1] = 0.0
            mass = h * float(np.sum(vals[1:-1] ** 2))
            weighted += mass
            dirichlet += float(np.sum(np.diff(vals) ** 2)) / h + m * m * mass
        if dirichlet == 0.0:
            raise ValueError("zero Dirichlet energy")
        return weighted / dirichlet
    raise ValueError(f"unknown Hardy class {which!r} (expected 'F0' or 'F1')")


def potential_form(spec: PotentialSpec, channel_profiles: Sequence[tuple[str, int, Callable]],
                   grid: Grid1D, n_theta: int = 256) -> float:
    """b_V[u] = int V |u|^2 dx for u given by real channel profiles."""
    m_max = max((m for _, m, _ in channel_profiles), default=0)
    channel_set = ChannelSet(m_max)
    order = {c: i for i, c in enumerate(channel_set.channels)}
    t = grid.interior
    with np.errstate(over="ignore"):
        radii = np.exp(t)
    vhat = spec.angular_coefficients(radii, 2 * m_max, n_theta)
    p0 = vhat[:, 0].real
    modes = np.hstack((vhat.real, -vhat.imag))
    modes[:, 0] = 0.0  # the residual's rows: mode 0 enters through p0 below
    U = np.zeros((channel_set.size, t.size))
    for kind, m, func in channel_profiles:
        U[order[(kind, m)]] += np.asarray(func(t), dtype=float)
    A = _pair_table(channel_set)(modes) + np.eye(channel_set.size) * p0[:, None, None]
    return grid.h * sum(math.exp(2.0 * ti) * float(u @ Ai @ u) for ti, Ai, u in zip(t, A, U.T))


def qform_check(spec: PotentialSpec, f0: Callable, f1: Sequence[tuple[str, int, Callable]],
                grid: Grid1D, n_theta: int = 256) -> tuple[float, float]:
    """Evaluate b_V[f0 + f1] against 2 (b_V[f0] + b_V[f1]).

    The inequality lhs <= rhs holds pointwise for V >= 0; for radial V the
    cross term vanishes because the non-radial component is orthogonal to
    functions of |x|.
    """
    combined = [("const", 0, f0)] + list(f1)
    lhs = potential_form(spec, combined, grid, n_theta)
    b0 = potential_form(spec, [("const", 0, f0)], grid, n_theta)
    b1 = potential_form(spec, list(f1), grid, n_theta)
    return lhs, 2.0 * (b0 + b1)
