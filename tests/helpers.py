"""Independent numerical oracles shared across test modules."""

import math

import numpy as np

from boundcount.errors import NonFiniteError, QuadratureError
from boundcount.quadrature import _GL_NODES, _GL_WEIGHTS


def shooting_negative_count(G, t_max=40.0, steps=400000):
    """Oscillation-count oracle for -u'' = alpha G u on (0, inf), u(0) = 0.

    RK4 integration of the zero-energy solution; its number of zeros in
    (0, inf) equals the number of negative eigenvalues of the half-line
    Dirichlet operator.  Beyond compactly supported G the solution is affine,
    adding one final zero iff u and u' leave the support with opposite signs.
    """
    h = t_max / steps
    u, v = 0.0, 1.0
    t = 0.0
    zeros = 0
    prev_sign = 0.0

    def rhs(t, u, v):
        return v, -float(G(np.array([t]))[0]) * u

    for _ in range(steps):
        k1u, k1v = rhs(t, u, v)
        k2u, k2v = rhs(t + h / 2, u + h / 2 * k1u, v + h / 2 * k1v)
        k3u, k3v = rhs(t + h / 2, u + h / 2 * k2u, v + h / 2 * k2v)
        k4u, k4v = rhs(t + h, u + h * k3u, v + h * k3v)
        u += h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += h
        s = math.copysign(1.0, u) if u != 0 else 0.0
        if prev_sign != 0 and s != 0 and s != prev_sign:
            zeros += 1
        if s != 0:
            prev_sign = s
    if u * v < 0:
        zeros += 1
    return zeros


def dense_negative_count(diag, offdiag):
    """Full symmetric eigendecomposition count, the Sturm sweep's oracle."""
    n = len(diag)
    A = np.diag(np.asarray(diag, dtype=float))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = offdiag[i]
    return int(np.sum(np.linalg.eigvalsh(A) < 0))


def reference_sturm_pass(diag, offsq, shift=0.0, centre=None):
    """Scalar split Sturm pivot recurrence for one tridiagonal, the batched
    kernel's reference.  The row is cut at ``centre`` (default the middle
    node): the left half runs q_i = (d_i - shift) - offsq[i-1] / q_{i-1}
    from node 0 up, the right half q_i = (d_i - shift) - offsq[i] / q_{i+1}
    from the last node down, and the centre closes the row with
    q_c = (d_c - shift) - offsq[c-1] / q_{c-1} - offsq[c] / q_{c+1}.
    Returns (negative pivots, negative pivots of the halves, whether a half
    pivot was exactly zero, whether the centre pivot was, the last pivots
    of the left and the right half, +inf for an empty half)."""
    n = len(diag)
    c = n // 2 if centre is None else centre
    halves, zero, last = 0, False, []
    q_c = np.float64(diag[c]) - shift
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for half in (range(c), range(n - 1, c, -1)):
            q = prev = None
            for i in half:
                d = np.float64(diag[i]) - shift
                q = d if q is None else d - np.float64(offsq[min(i, prev)]) / q
                prev = i
                halves += bool(q < 0)
                zero |= bool(q == 0.0)
            if q is not None:
                q_c = q_c - np.float64(offsq[min(c, prev)]) / q
            last.append(np.inf if q is None else q)
    return halves + bool(q_c < 0), halves, zero, bool(q_c == 0.0), tuple(last)


def reference_sturm_count(diag, offsq, shift=0.0, centre=None):
    """(Count, count with the centre deleted) by reference_sturm_pass, each
    recounted at the kernel's fixed retry shift when a pivot it reads was
    exactly zero: the full count on any zero, the deleted count on a zero
    in a half."""
    full, halves, zero_halves, zero_centre, _ = reference_sturm_pass(diag, offsq, shift, centre)
    if zero_halves or zero_centre:
        redo = reference_sturm_pass(diag, offsq, shift - 1e-12, centre)
        assert not (redo[2] or redo[3]), "zero pivot persisted in the reference"
        full = redo[0]
        if zero_halves:
            halves = redo[1]
    return full, halves


def reference_radial_values(G, alpha, grid):
    """(N_-(H), N_-(H~), N_-(M)) of a radial potential on one grid by the
    scalar recurrence, each channel m >= 1 counted once per cos/sin copy and
    N_-(M) the m = 0 channel with its t = 0 node deleted."""
    gvals = np.asarray(G(grid.interior), dtype=float)
    h = grid.h
    kin = 2.0 / (h * h)
    off = -1.0 / h ** 2
    offsq = np.full(gvals.size - 1, off * off)
    sup = float(np.max(gvals))
    m_max = int(math.ceil(math.sqrt(alpha * sup))) if sup > 0 and alpha > 0 else 0
    ms = [0] + [m for k in range(1, m_max + 1) for m in (k, k)]
    counts = [reference_sturm_count(kin + (float(m * m) - alpha * gvals), offsq,
                                    centre=grid.zero_index) for m in ms]
    full = [c[0] for c in counts]
    n_m = counts[0][1]
    return sum(full), n_m + sum(full[1:]), n_m


def reference_radial_sweep(G, alphas, policy):
    """Per-alpha domain-doubling certification of reference_radial_values:
    a list of ((n2d, n_tilde, n_m), converged, levels run)."""
    out = []
    for alpha in alphas:
        history = []
        result = None
        for level in range(policy.max_doublings + 1):
            history.append(reference_radial_values(G, float(alpha), policy.level_grid(level)))
            recent = history[-(policy.agreements + 1):]
            if len(recent) == policy.agreements + 1 and all(r == recent[0] for r in recent):
                result = (history[-1], True, len(history))
                break
        out.append(result or (history[-1], False, len(history)))
    return out


def reference_angular_residual(channels, p, q):
    """Per-pair construction of the angular residual R for one slice's mode
    rows p_k = Re Vhat_k and q_k = -Im Vhat_k, the pair table's reference."""
    B = len(channels)
    R = np.zeros((B, B))
    sqrt2 = math.sqrt(2.0)
    for a in range(B):
        kind_a, m = channels[a]
        for b in range(a, B):
            kind_b, n = channels[b]
            if kind_a == "const" and kind_b == "const":
                val = 0.0
            elif kind_a == "const":
                val = sqrt2 * (p[n] if kind_b == "cos" else q[n])
            elif kind_a == "cos" and kind_b == "cos":
                val = (p[abs(m - n)] if m != n else 0.0) + p[m + n]
            elif kind_a == "sin" and kind_b == "sin":
                val = (p[abs(m - n)] if m != n else 0.0) - p[m + n]
            else:
                # one cos (mode mc), one sin (mode ms)
                mc, ms = (m, n) if kind_a == "cos" else (n, m)
                val = q[ms + mc]
                if ms != mc:
                    val += math.copysign(1.0, ms - mc) * q[abs(ms - mc)]
            R[a, b] = val
            R[b, a] = val
    return R


def reference_slice_blocks(sys_, shift=0.0):
    """The diagonal blocks of a BlockSystem2D built slice by slice, each from
    the per-pair residual: the one-gather blocks' reference."""
    t = sys_.grid.interior
    blocks = []
    for i in range(t.size):
        D = np.diag(sys_.chan_diag[:, i] - shift)
        if not sys_.is_block_diagonal:
            if np.any(sys_.pmodes[i, 1:] != 0.0) or np.any(sys_.qmodes[i, 1:] != 0.0):
                R = reference_angular_residual(sys_.channel_set.channels, sys_.pmodes[i],
                                               sys_.qmodes[i])
                D = D - sys_.alpha * (math.exp(2.0 * t[i]) * R)
        blocks.append(D)
    return np.array(blocks)


class ReferenceSingularPivot(Exception):
    pass


def _reference_negatives(w):
    wmax = float(np.max(np.abs(w), initial=0.0))
    if w.size and (wmax == 0.0 or float(np.min(np.abs(w))) <= 1e-14 * wmax):
        raise ReferenceSingularPivot
    return int(np.count_nonzero(w < 0))


def _reference_block_sweep(sys_, shift):
    esq = (1.0 / sys_.grid.h ** 2) ** 2
    blocks = reference_slice_blocks(sys_, shift)
    n_int = len(blocks)
    last = sys_.grid.zero_index
    total = 0
    D_last = blocks[last].copy()
    for order in (range(last), range(n_int - 1, last, -1)):
        prev_inv = None
        for i in order:
            D = blocks[i].copy()
            if prev_inv is not None:
                D -= esq * prev_inv
            w, U = np.linalg.eigh(D)
            total += _reference_negatives(w)
            prev_inv = (U / w) @ U.T
        if prev_inv is not None:
            D_last -= esq * prev_inv
    full = total + _reference_negatives(np.linalg.eigvalsh(D_last))
    return full, total + _reference_negatives(np.linalg.eigvalsh(D_last[1:, 1:]))


def reference_block_pass(sys_):
    """(N_-(H), N_-(H~)) of a coupled BlockSystem2D by an eigh of every
    pivot block, one side after the other toward the t = 0 slice, re-run
    with the diagonal raised by 1e-12 on a nearly singular pivot: the block
    kernel's reference.  Raises ReferenceSingularPivot when that does not help."""
    try:
        return _reference_block_sweep(sys_, 0.0)
    except ReferenceSingularPivot:
        return _reference_block_sweep(sys_, -1e-12)


def _reference_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _GL_NODES), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = mid + half * _GL_NODES[~np.isfinite(vals)][0]
        raise NonFiniteError(f"non-finite integrand sample at x={bad!r}", where=bad)
    return half * float(np.dot(_GL_WEIGHTS, vals))


def reference_adaptive_integral(f, a, b, rel_tol=1e-8, max_depth=48, interval_id=None):
    """Depth-first bisection of one interval, two integrand calls per panel:
    the batched adaptive_integral's reference, which must reproduce its
    value and failures for each interval bit for bit."""
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    coarse = _reference_panel(f, a, b)
    scale = max(abs(coarse), 1e-300)
    total = 0.0
    stack = [(a, b, coarse, 0)]
    while stack:
        lo, hi, val, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _reference_panel(f, lo, mid)
        right = _reference_panel(f, mid, hi)
        refined = left + right
        err = abs(refined - val)
        running = max(scale, abs(total) + abs(refined))
        budget = rel_tol * running * ((hi - lo) / (b - a) + 2.0 ** -12)
        if err <= budget or err <= 1e-300:
            total += refined
        elif depth >= max_depth:
            raise QuadratureError(
                f"panel [{lo}, {hi}] failed to converge after {depth} bisections",
                partial=total + refined,
                interval=interval_id,
            )
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def reference_each_interval(f, a, b, rel_tol=1e-8, max_depth=48, interval_id=None):
    """adaptive_integral's batched signature served by reference_adaptive_integral,
    one interval after the other."""
    ids = [interval_id] * len(a) if interval_id is None else list(interval_id)
    return np.array([reference_adaptive_integral(f, float(lo), float(hi), rel_tol, max_depth, i)
                     for lo, hi, i in zip(a, b, ids)])


def _reference_split_integral(f, a, b, cuts, rel_tol=1e-8, interval_id=None):
    points = [a, *sorted({c for c in cuts if a < c < b}), b]
    value = 0.0
    for lo, hi in zip(points, points[1:]):
        value += reference_adaptive_integral(f, lo, hi, rel_tol, interval_id=interval_id)
    return value


def _reference_jumps(G):
    return G.func, G.edges, [math.log(abs(t)) for t in G.edges if abs(t) > 1.0]


def reference_zhat(G, J):
    """zhat_0..zhat_J as a loop of J fixed shells in s = ln|t|, each split at
    G's support edges: the shell rule's reference for zhat."""
    g, edges, cuts = _reference_jumps(G)
    values = np.zeros(J + 1)
    values[0] = _reference_split_integral(g, -1.0, 1.0, edges, interval_id=0)

    def shell(s):
        t = np.exp(s)
        return np.exp(2.0 * s) * (np.asarray(g(t), dtype=float) + np.asarray(g(-t), dtype=float))

    for j in range(1, J + 1):
        values[j] = _reference_split_integral(shell, float(j - 1), float(j), cuts,
                                              interval_id=j)
    return values


def reference_weyl(G, rel_tol=1e-8, max_shells=600):
    """(1/2) int G dt as a loop over shells until two in a row are quiet:
    the shell rule's reference for the Weyl coefficient."""
    g, edges, cuts = _reference_jumps(G)
    value = _reference_split_integral(g, -1.0, 1.0, edges)

    def shell(s):
        t = np.exp(s)
        return np.exp(s) * (np.asarray(g(t), dtype=float) + np.asarray(g(-t), dtype=float))

    quiet = 0
    for j in range(1, max_shells + 1):
        sj = _reference_split_integral(shell, float(j - 1), float(j), cuts)
        value += sj
        quiet = quiet + 1 if sj <= rel_tol * max(abs(value), 1e-300) else 0
        if quiet >= 2:
            return 0.5 * value
    raise AssertionError("reference Weyl loop did not converge")
