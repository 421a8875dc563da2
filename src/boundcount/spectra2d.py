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

Where the potential has underflowed to zero, a run of end slices without
residual and with one diagonal is a free tail: its pivots are diagonal,
s_{j+1} = d - e^2 / s_j with e = 1/h^2, one vector step a slice, each
checked by the same singular guard as an eigh pivot.  The rest of each side
is eliminated by two chains that meet at its middle slice: one from the
tail's edge, one from the t = 0 slice's neighbour, which carries F, the
t = 0 slice's coupling to its current slice (F_1 = -e I, F_{k+1} = e F_k X_k
for the pivot inverses X_k; each adds -F X F^T to the t = 0 block).

The constrained operator H~ deletes the t = 0 node of the constant channel,
which is the discrete form of the mean-zero condition int u(1, theta)
dtheta = 0; removing that single row restores the full operator, hence
the rank-one sandwich count_tilde <= count_full <= count_tilde + 1.  One
block pass, which factors the t = 0 slice last, gives both counts: every
earlier step is a Schur complement onto that slice, so deleting its constant
row at the end is exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import MatrixSizeError, NumericalError
from .potentials import (Decomposition, EffectivePotential, PotentialSpec, RadialProfile,
                         RadialPotential, decompose, effective_potential)
from .spectra1d import (Grid1D, ZERO_PIVOT_SHIFT, _channel_diags, block_negative_counts,
                        channel_row_counts, radial_m_max, radial_sample_counts)

log = logging.getLogger(__name__)

DEFAULT_MAX_DIMENSION = 12000

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


def radial_cutoff_m_max(G: EffectivePotential | Callable, alpha: float, grid: Grid1D) -> int:
    """Smallest m with m^2 >= alpha max_i G(t_i): for radial potentials the
    channel matrix K + diag(m^2 - alpha G) is then positive definite, so all
    omitted channels are provably empty at the matrix level."""
    return radial_m_max(np.asarray(G(grid.interior), dtype=float), alpha)


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
    base = int(math.ceil(math.sqrt(alpha * sup))) if sup > 0 and alpha > 0 else 0
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
    is_block_diagonal: bool

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
        if not self.is_block_diagonal:
            live = np.any(np.hstack((self.pmodes[slices, 1:], self.qmodes[slices, 1:])), 1)
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
                     n_theta: int = 256, max_dimension: int = DEFAULT_MAX_DIMENSION,
                     dec: Decomposition | None = None,
                     G: EffectivePotential | None = None) -> BlockSystem2D:
    """Assemble the discretized quadratic form of H_{alpha V}."""
    if alpha < 0:
        raise ValueError("coupling must be non-negative")
    if dec is None:
        dec = decompose(spec, n_theta)
    if G is None:
        G = effective_potential(dec)
    if channels is None:
        channels = (radial_cutoff_m_max(G, alpha, grid) if spec.is_radial
                    else coupled_cutoff_m_max(spec, alpha, grid, n_theta))
    channel_set = channels if isinstance(channels, ChannelSet) else ChannelSet(int(channels))
    B = channel_set.size
    n_int = grid.n - 2
    # radial systems stay block-diagonal (one pivot pass over the channels,
    # no dense work; radial count_2d_auto counts assemble none), so the
    # dense-dimension ceiling applies to coupled systems only
    if not spec.is_radial and B * n_int > max_dimension:
        raise MatrixSizeError(
            f"system dimension {B * n_int} exceeds ceiling {max_dimension}; "
            "use fewer channels or a coarser grid (the ceiling is configurable)")
    ms = [m for _, m in channel_set.channels]
    chan_diag = _channel_diags(G, alpha, ms, grid)
    if spec.is_radial:
        pmodes = np.zeros((n_int, 2 * channel_set.m_max + 1))
        qmodes = np.zeros_like(pmodes)
        block_diag = True
    else:
        with np.errstate(over="ignore"):
            radii = np.exp(grid.interior)
        vhat = spec.angular_coefficients(radii, 2 * channel_set.m_max, n_theta)
        pmodes = vhat.real.copy()
        qmodes = (-vhat.imag).copy()
        pmodes[:, 0] = 0.0  # mode 0 lives in chan_diag via G
        block_diag = bool(np.all(pmodes == 0.0) and np.all(qmodes == 0.0))
    return BlockSystem2D(grid=grid, channel_set=channel_set, alpha=alpha,
                         chan_diag=chan_diag, pmodes=pmodes, qmodes=qmodes,
                         is_block_diagonal=block_diag)


class _SingularPivot(Exception):
    pass


def _negatives(w: np.ndarray, where: Sequence[int]) -> int:
    """Negative count of a stack of pivot blocks with eigenvalues ``w`` [n, B]
    (a diagonal pivot's own entries); a nearly singular block raises
    _SingularPivot naming its slice ``where[i]`` (an empty one counts 0)."""
    a = np.abs(w)
    wmax = a.max(-1, initial=0.0)
    near = (wmax == 0.0) | (a.min(-1, initial=np.inf) <= 1e-14 * wmax)
    if w.shape[-1] and near.any():
        raise _SingularPivot(f"near-singular pivot block at slice {where[int(np.argmax(near))]}")
    return int(np.count_nonzero(w < 0))


def _count_block_diagonal(sys: BlockSystem2D) -> tuple[int, int | None]:
    """Both counts of a block-diagonal system (pinned channel sets,
    ``count_tilde`` and the verification suites) in one kernel call: a pivot
    sweep per channel, and one of the constant channel cut at t = 0."""
    off = -1.0 / sys.grid.h ** 2
    zero = sys.grid.zero_index
    counts = block_negative_counts(np.vstack((sys.chan_diag[:1], sys.chan_diag)), off * off,
                                   cut=zero)
    full = int(np.sum(counts[1:]))
    return full, None if zero is None else full - int(counts[1]) + int(counts[0])


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
    w, U = np.linalg.eigh(D)
    return _negatives(w, where), (U / w[:, None, :]) @ np.swapaxes(U, 1, 2)


def _free_tail(sys: BlockSystem2D, side: np.ndarray) -> int:
    """Length of the free tail of a side (slice indices from its outer end
    inward): the run of slices from that end without residual whose
    ``chan_diag`` column equals the end slice's."""
    free = ~np.any(np.hstack((sys.pmodes[side, 1:], sys.qmodes[side, 1:])), 1)
    free &= np.all(sys.chan_diag[:, side] == sys.chan_diag[:, side[:1]], 0)
    return side.size if free.all() else int(np.argmin(free))


def _tail_inverse(d: np.ndarray, esq: float, where: np.ndarray) -> tuple[int, np.ndarray]:
    """(negatives, last pivot's inverse) of a free tail whose slices all have
    the diagonal block diag(d): its pivots are diagonal, s_1 = d and
    s_{j+1} = d - esq / s_j, and each goes through the guard of _negatives."""
    s = np.empty((where.size, d.size))
    s[0] = d
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(1, where.size):  # past an exact zero the guard below stops the pass
            s[j] = d - esq / s[j - 1]
    negatives = _negatives(s, where)
    return negatives, 1.0 / s[-1]


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


def _count_block_tridiagonal(sys: BlockSystem2D, shift: float = 0.0) -> tuple[int, int | None]:
    """Block Schur-complement sweep: the inertia of the block-tridiagonal
    matrix is the sum of the inertias of its pivot blocks, in any
    elimination order.  Both sides of the separator slice c (the t = 0
    slice, or the last slice without a t = 0 node) are eliminated onto c,
    which is factored last: whole for N_-(H), without its constant channel
    for N_-(H~).  Every earlier step is a Schur complement onto c, and c's
    constant row is part of no other pivot, so deleting it at the end is
    exact.

    A side's free tail (see _free_tail) is eliminated by the scalar
    recurrence of _tail_inverse.  The rest of a side, of three slices or
    more, is eliminated by two chains meeting at its middle slice m: the
    outer one from the tail's edge, starting from the tail's inverse, and
    the inner one from c's neighbour, which carries F, c's coupling to its
    current slice (F_1 = -e I with e = 1/h^2; a pivot with inverse X adds
    -F X F^T to c's block and turns F into e F X).  m's pivot T = D_m - e^2
    X_outer - e^2 X_inner goes through eigh and adds -F T^-1 F^T to c.  A
    shorter side keeps one chain, and a side that is all tail hands its
    inverse straight to c.  The chains of both sides step together, one
    stacked LAPACK call a step; positive-definite stacks with ||D||_1
    ||D^-1||_1 < CONDITION_LIMIT skip eigh: that product bounds kappa_2(D),
    so the guard could not stop on them."""
    e = 1.0 / sys.grid.h ** 2
    esq = e * e
    n_int, B = sys.chan_diag.shape[1], sys.channel_set.size
    zero = sys.grid.zero_index
    c = n_int - 1 if zero is None else zero
    total = 0
    lost = np.zeros((B, B))  # what eliminating both sides takes from c's block
    plans = []  # (side past its free tail, e^2 x its starting inverse, outer chain's length)
    for side in (np.arange(c), np.arange(n_int - 1, c, -1)):
        if not side.size:
            continue
        tail = _free_tail(sys, side)
        start = np.zeros((B, B))
        if tail:
            negatives, inverse = _tail_inverse(sys.chan_diag[:, side[0]] - shift, esq,
                                               side[:tail])
            total += negatives
            start = np.diag(esq * inverse)
        rest = side[tail:]
        if rest.size:
            plans.append((rest, start, rest.size // 2 if rest.size > 2 else rest.size))
        else:
            lost += start
    # longest chains first, so that the chains still running are prefixes
    plans.sort(key=lambda plan: (plan[2], plan[0].size), reverse=True)
    outer, inner, ends, meets = [], [], [], []  # meets: (slice, its outer chain, its inner chain)
    for rest, _, mid in plans:
        outer.append(rest[:mid])
        if mid == rest.size:
            ends.append(len(outer) - 1)
        else:
            meets.append((rest[mid], len(outer) - 1, len(inner)))
            inner.append(rest[:mid:-1])
    # step k eliminates slice k of every chain that long, outer chains first
    chains = np.full((len(outer) + len(inner), max((o.size for o in outer), default=0)), -1)
    for row, chain in zip(chains, outer + inner):
        row[:chain.size] = chain
    running = chains.T >= 0
    order = np.concatenate((chains.T[running], [m for m, _, _ in meets] + [c]))
    sizes = running.sum(1).tolist() + [len(meets) + 1]
    # e^2 X for the last pivot of each outer and inner chain; F and the sum of
    # F X F^T (what c loses) of each inner chain
    Xo = np.array([start for _, start, _ in plans]).reshape(-1, B, B)
    Xi = np.zeros((len(inner), B, B))
    F = np.tile(-e * np.eye(B), (len(inner), 1, 1))
    FXF = np.zeros_like(Xi)
    blocks = _step_blocks(sys, shift, order, sizes)
    at = 0
    for size, a, D in zip(sizes, running[:, :len(outer)].sum(1).tolist(), blocks):
        idx, b = order[at:at + size], size - a
        at += size
        D[:a] -= Xo[:a]
        D[a:] -= Xi[:b]
        negatives, inv = _pivot_inverses(D, idx)
        total += negatives
        np.multiply(inv[:a], esq, out=Xo[:a])
        if b:
            np.multiply(inv[a:], esq, out=Xi[:b])
            G = F[:b] @ inv[a:]
            FXF[:b] += G @ np.swapaxes(F[:b], 1, 2)
            np.multiply(G, e, out=F[:b])
    D = next(blocks)
    lost += np.sum(Xo[ends], 0) + np.sum(FXF, 0)
    if meets:
        where, jo, ji = (list(column) for column in zip(*meets))
        w, U = np.linalg.eigh(D[:-1] - Xo[jo] - Xi[ji])
        total += _negatives(w, where)
        Z = F[ji] @ U
        lost += np.sum((Z / w[:, None, :]) @ np.swapaxes(Z, 1, 2), 0)
    D_c = D[-1] - lost
    full = total + _negatives(np.linalg.eigvalsh(D_c)[None], [c])
    return full, None if zero is None else total + _negatives(
        np.linalg.eigvalsh(D_c[1:, 1:])[None], [c])


def count_full_2d(sys: BlockSystem2D) -> tuple[int, int | None]:
    """Exact negative-eigenvalue counts (N_-(H), N_-(H~)) of the assembled
    system from one pass; N_-(H~) is None on a grid without a t = 0 node.
    A nearly singular pivot block re-runs the whole pass, for both counts,
    at the shift ZERO_PIVOT_SHIFT."""
    if sys.is_block_diagonal:
        return _count_block_diagonal(sys)
    try:
        return _count_block_tridiagonal(sys)
    except _SingularPivot as exc:
        log.warning("%s; retrying with shift %g", exc, ZERO_PIVOT_SHIFT)
        try:
            return _count_block_tridiagonal(sys, shift=ZERO_PIVOT_SHIFT)
        except _SingularPivot as exc2:
            raise NumericalError(f"singular pivot persisted under shift: {exc2}") from exc2


def count_radial_2d(v_rad: RadialProfile | EffectivePotential | Callable,
                    alpha: float, grid: Grid1D, m_max: int | None = None) -> int:
    """N_- of the 2D operator for a radial potential: the sum of channel
    counts over |m| <= m_max, with the cutoff chosen so omitted channels are
    positive definite by construction."""
    G = v_rad
    if isinstance(v_rad, RadialProfile):
        G = effective_potential(decompose(RadialPotential(profile=v_rad)))
    gvals = np.asarray(G(grid.interior), dtype=float)
    if m_max is None:
        m_max = radial_m_max(gvals, alpha)
    counts = channel_row_counts(gvals, grid, np.full(m_max + 1, float(alpha)),
                                np.arange(m_max + 1))
    return int(counts[0] + 2 * np.sum(counts[1:]))


def count_tilde(spec: PotentialSpec, alpha: float, grid: Grid1D,
                channels: ChannelSet | int | None = None, n_theta: int = 256,
                max_dimension: int = DEFAULT_MAX_DIMENSION) -> int:
    """N_- of the constrained operator (mean of u over the unit circle
    vanishes): the constant channel loses its t = 0 node."""
    if not grid.has_node_at_zero:
        raise ValueError("the constrained count needs a grid node at t=0")
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
                  max_dimension: int = DEFAULT_MAX_DIMENSION
                  ) -> tuple[tuple[int, int, bool], tuple[int, int, bool]]:
    """(count, m_max used, channel cutoff certified) for N_-(H) and N_-(H~).

    Radial specs use the provable cutoff and count through the batched rows
    of ``radial_counts``, the rows a radial sweep counts.  Non-radial specs
    count again with ESCALATION_STEP extra modes until the count stops
    changing, each count by its own rule over one cache of passes that each
    give both counts; failure to stabilize is flagged, never silently
    accepted.
    """
    if not grid.has_node_at_zero:
        raise ValueError("count_2d_auto needs a grid node at t=0")
    dec = decompose(spec, n_theta)
    G = effective_potential(dec)
    if spec.is_radial:
        gvals = G(grid.interior)
        full, tilde, _ = radial_sample_counts(gvals, [alpha], grid)[0]
        m_max = radial_m_max(gvals, alpha)
        return (int(full), m_max, True), (int(tilde), m_max, True)
    start = coupled_cutoff_m_max(spec, alpha, grid, n_theta)

    @cache
    def run(mm: int) -> tuple[int, int]:
        return count_full_2d(assemble_full_2d(spec, alpha, grid, ChannelSet(mm), n_theta,
                                              max_dimension=max_dimension, dec=dec, G=G))

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
        if not grid.has_node_at_zero:
            raise ValueError("F0 ratio needs a grid node at t=0")
        vals = np.asarray(f(nodes), dtype=float).copy()
        vals[0] = vals[-1] = 0.0
        i0 = grid.zero_index + 1  # interior index -> node index
        vals[i0] = 0.0
        interior = vals[1:-1]
        t = grid.interior
        mask = np.arange(t.size) != grid.zero_index
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
