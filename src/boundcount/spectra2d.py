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

The constrained operator H~ deletes the t = 0 node of the constant channel,
which is the discrete form of the mean-zero condition int u(1, theta)
dtheta = 0; removing that single row restores the full operator, hence
the rank-one sandwich count_tilde <= count_full <= count_tilde + 1.  One
block pass, which factors the t = 0 slice last, gives both counts.
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


def _negatives(w: np.ndarray, where: int) -> int:
    """Negative count of a pivot block with eigenvalues ``w``; a nearly
    singular block raises _SingularPivot (an empty one counts 0)."""
    wmax = float(np.max(np.abs(w), initial=0.0))
    if w.size and (wmax == 0.0 or float(np.min(np.abs(w))) <= 1e-14 * wmax):
        raise _SingularPivot(f"near-singular pivot block at slice {where}")
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
        if np.all(np.linalg.norm(D, 1, (1, 2)) * np.linalg.norm(inv, 1, (1, 2)) < CONDITION_LIMIT):
            return 0, inv
    w, U = np.linalg.eigh(D)
    return sum(map(_negatives, w, where)), (U / w[:, None, :]) @ np.swapaxes(U, 1, 2)


def _count_block_tridiagonal(sys: BlockSystem2D, shift: float = 0.0) -> tuple[int, int | None]:
    """Block Schur-complement sweep: the inertia of the block-tridiagonal
    matrix is the sum of the inertias of its pivot blocks, in any
    elimination order.  Slices go from both ends toward the t = 0 slice, the
    two sides stacked into one LAPACK call a step, and that slice is factored
    last: whole for N_-(H), without its constant channel (a row no other pivot
    reads) for N_-(H~); without a t = 0 node the sweep ends at the last slice.
    Positive-definite pivots with ||D||_1 ||D^-1||_1 < CONDITION_LIMIT skip
    eigh: that product bounds kappa_2(D), so the guard could not stop on them."""
    esq = (1.0 / sys.grid.h ** 2) ** 2
    n_int, B = sys.chan_diag.shape[1], sys.channel_set.size
    zero = sys.grid.zero_index
    last = n_int - 1 if zero is None else zero
    ons = [slice(0 if k < last else 1, 2 if k < n_int - 1 - last else 1)
           for k in range(max(last, n_int - 1 - last))]
    steps = [np.array((k, n_int - 1 - k))[on] for k, on in enumerate(ons)]
    order = np.concatenate(steps + [np.array([last])])
    blocks = (D for start in range(0, order.size, GATHER_SLICES)
              for D in sys.blocks(shift, order[start:start + GATHER_SLICES]))
    # the inverse before each side's first slice is zero: it subtracts exactly nothing
    inv, total = np.zeros((2, B, B)), 0
    for on, idx in zip(ons, steps):
        D = np.array([next(blocks) for _ in idx])
        negatives, inv[on] = _pivot_inverses(D - esq * inv[on], idx)
        total += negatives
    D_last = next(blocks) - esq * inv[0] - esq * inv[1]
    full = total + _negatives(np.linalg.eigvalsh(D_last), last)
    return full, None if zero is None else total + _negatives(
        np.linalg.eigvalsh(D_last[1:, 1:]), last)


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
