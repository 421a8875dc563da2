"""Independent numerical oracles shared across test modules."""

import math

import numpy as np


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


def reference_sturm_pass(diag, offsq, shift=0.0, cut=None):
    """Scalar Sturm pivot recurrence for one tridiagonal, the batched kernel's
    reference: pivots q_i = (d_i - shift) - offsq[i-1] / q_{i-1}.  With
    ``cut`` that node is deleted and the rest counted as two blocks.
    Returns (negative pivots, whether a pivot was exactly zero)."""
    n = len(diag)
    blocks = [range(n)] if cut is None else [range(cut), range(cut + 1, n)]
    count, zero = 0, False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for block in blocks:
            q = None
            for i in block:
                d = np.float64(diag[i]) - shift
                q = d if q is None else d - np.float64(offsq[i - 1]) / q
                count += bool(q < 0)
                zero |= bool(q == 0.0)
    return count, zero


def reference_sturm_count(diag, offsq, shift=0.0, cut=None):
    """reference_sturm_pass, recounted at the kernel's fixed retry shift when
    a pivot was exactly zero."""
    count, zero = reference_sturm_pass(diag, offsq, shift, cut)
    if zero:
        count, zero = reference_sturm_pass(diag, offsq, shift - 1e-12, cut)
        assert not zero, "zero pivot persisted in the reference"
    return count


def reference_radial_values(G, alpha, grid):
    """(N_-(H), N_-(H~), N_-(M)) of a radial potential on one grid by the
    scalar recurrence, each channel m >= 1 counted once per cos/sin copy."""
    gvals = np.asarray(G(grid.interior), dtype=float)
    h = grid.h
    kin = 2.0 / (h * h)
    off = -1.0 / h ** 2
    offsq = np.full(gvals.size - 1, off * off)
    sup = float(np.max(gvals))
    m_max = int(math.ceil(math.sqrt(alpha * sup))) if sup > 0 and alpha > 0 else 0
    ms = [0] + [m for k in range(1, m_max + 1) for m in (k, k)]
    counts = [reference_sturm_count(kin + (float(m * m) - alpha * gvals), offsq) for m in ms]
    n_m = reference_sturm_count(kin + (0.0 - alpha * gvals), offsq, cut=grid.zero_index)
    return sum(counts), n_m + sum(counts[1:]), n_m


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
