"""Reference values computed apart from boundcount.

Nothing here imports the package: potentials are evaluated from their closed
forms, matrices are built from scratch, and counts come from LAPACK (dense
``numpy.linalg.eigvalsh`` for small matrices, tridiagonal bisection through
``scipy.linalg.eigvalsh_tridiagonal`` for the long channel matrices of the
sweeps).

SciPy is imported inside the functions that use it, so that importing this
module loads none of it: the benchmark reads its own peak memory after the
measured rounds and before any reference value is computed.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)


# ----------------------------------------------------------------------
# closed-form radial profiles, as (V(r), G(t) = e^{2t} V(e^t))


def profile_G(doc: dict):
    """Effective potential G(t) of a radial profile or family document."""
    shape = doc.get("shape") or doc.get("family")
    p = doc.get("params", doc)
    if shape == "gaussian":
        a, w = p["amplitude"], p["width"]
        return lambda t: a * np.exp(2.0 * t - np.exp(2.0 * t) / (w * w))
    if shape in ("disk", "disk_well"):
        d, R = p["depth"], p["radius"]
        return lambda t: np.where(t <= math.log(R), d * np.exp(2.0 * np.minimum(t, math.log(R))),
                                  0.0)
    if shape == "log_borderline":
        c = p["c"]
        return lambda t: c / ((1.0 + t * t) * (1.0 + np.log1p(np.abs(t))))
    raise ValueError(f"no closed form for {shape!r}")


def profile_V(doc: dict):
    shape = doc.get("shape") or doc.get("family")
    p = doc.get("params", doc)
    if shape == "gaussian":
        return lambda r: p["amplitude"] * np.exp(-(r / p["width"]) ** 2)
    raise ValueError(f"no closed form for {shape!r}")


def profile_weyl(doc: dict) -> float:
    """(4 pi)^-1 int V dx of a radial profile."""
    shape = doc.get("shape") or doc.get("family")
    p = doc.get("params", doc)
    if shape == "gaussian":
        return p["amplitude"] * p["width"] ** 2 / 4.0
    if shape in ("disk", "disk_well"):
        return p["depth"] * p["radius"] ** 2 / 4.0
    if shape == "log_borderline":
        from scipy import integrate
        g = profile_G(doc)
        half, _ = integrate.quad(lambda t: float(g(np.float64(t))), 0.0, np.inf, limit=400)
        neg, _ = integrate.quad(lambda t: float(g(np.float64(-t))), 0.0, np.inf, limit=400)
        return 0.5 * (half + neg)
    raise ValueError(f"no closed form for {shape!r}")


def profile_zeta0(doc: dict) -> float:
    """int_{-1}^{1} G dt of a radial profile: closed forms for the Gaussian
    and the disk, ``scipy.integrate.quad`` for log_borderline."""
    shape = doc.get("shape") or doc.get("family")
    p = doc.get("params", doc)
    if shape == "gaussian":
        a, w = p["amplitude"], p["width"]
        return 0.5 * a * w * w * (math.exp(-math.exp(-2.0) / w ** 2)
                                  - math.exp(-math.exp(2.0) / w ** 2))
    if shape in ("disk", "disk_well"):
        top = min(1.0, math.log(p["radius"]))
        return 0.5 * p["depth"] * (math.exp(2.0 * top) - math.exp(-2.0)) if top > -1.0 else 0.0
    if shape == "log_borderline":
        from scipy import integrate
        G = profile_G(doc)
        val, _ = integrate.quad(lambda t: float(G(np.float64(t))), -1.0, 1.0,
                                points=[0.0], limit=200, epsabs=1e-13, epsrel=1e-11)
        return val
    raise ValueError(f"no closed form for {shape!r}")


# ----------------------------------------------------------------------
# potentials given by real Fourier modes: mode (m, kind, profile) adds
# 2 trig(m theta) profile(r), mode 0 adds profile(r)


def fourier_V(modes):
    parts = [(m["m"], m.get("kind", "cos"), profile_V(m["profile"])) for m in modes]

    def V(r, theta):
        out = 0.0
        for m, kind, f in parts:
            trig = 1.0 if m == 0 else 2.0 * (np.cos(m * theta) if kind == "cos"
                                             else np.sin(m * theta))
            out = out + trig * f(r)
        return out
    return V


def fourier_l1l2(modes) -> float:
    """L1(R+, L2(S)) norm of the non-radial part for one Gaussian mode:
    (int |2 b e^{-r^2/w^2} trig|^2 dtheta)^{1/2} integrated against r dr."""
    nonradial = [m for m in modes if m["m"] > 0]
    if not nonradial:
        return 0.0
    if len(nonradial) > 1 or nonradial[0]["profile"]["shape"] != "gaussian":
        raise ValueError("closed form covers one Gaussian mode")
    prof = nonradial[0]["profile"]
    return SQRT_PI * prof["amplitude"] * prof["width"] ** 2


# ----------------------------------------------------------------------
# tabulated potentials: the periodic piecewise-linear interpolant in theta
# has the sample mean as its angular mean, and is linear in ln r


def table_mean_profile(r_grid, values):
    lr = np.log(r_grid)
    means = values.mean(axis=1)
    return lambda r: np.interp(np.log(r), lr, means)


# ----------------------------------------------------------------------
# eigenvalue counts


def dense_count(matrix: np.ndarray) -> int:
    return int(np.count_nonzero(np.linalg.eigvalsh(matrix) < 0.0))


def tridiag_dense(diag, off) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def line_count_dense(G, alpha: float, t_min: float, t_max: float, n: int,
                     m: int | None) -> int:
    """N_- of -d^2/dt^2 (+ m^2) - alpha G on the interior nodes of a uniform
    grid, Dirichlet ends; with m None the t = 0 node is deleted as well."""
    t = np.linspace(t_min, t_max, n)[1:-1]
    h = (t_max - t_min) / (n - 1)
    diag = 2.0 / h ** 2 + (0 if m is None else m * m) - alpha * G(t)
    off = np.full(t.size - 1, -1.0 / h ** 2)
    if m is not None:
        return dense_count(tridiag_dense(diag, off))
    k = int(np.argmin(np.abs(t)))
    return (dense_count(tridiag_dense(diag[:k], off[:k - 1]))
            + dense_count(tridiag_dense(diag[k + 1:], off[k + 1:])))


def tridiag_count(diag, off_value: float) -> int:
    """Eigenvalues below 0 of a tridiagonal with constant offdiagonal, by
    LAPACK bisection (the matrices are too long for a dense solve).  The
    number of eigenvalues in (lower, 0] that LAPACK's stebz returns comes
    from its Sturm counts at the two ends, so it is exact whatever the
    tolerance; the tolerance is the width of the interval, which leaves the
    eigenvalues themselves unrefined and makes the call about 30 times
    faster."""
    from scipy import linalg
    if diag.size == 0:
        return 0
    if diag.size == 1:
        return int(diag[0] < 0)
    lower = float(np.min(diag)) - 2.0 * abs(off_value) - 1.0
    if lower >= 0:
        return 0
    off = np.full(diag.size - 1, off_value)
    w = linalg.eigvalsh_tridiagonal(diag, off, select="v", select_range=(lower, 0.0),
                                    tol=-lower, lapack_driver="stebz")
    return int(w.size)


def _line(G, alpha: float, t_half: float, n: int):
    """Interior nodes, diagonal of -d^2/dt^2 - alpha G and the offdiagonal on
    the symmetric grid [-t_half, t_half] with n nodes."""
    t = np.linspace(-t_half, t_half, n)[1:-1]
    h = 2.0 * t_half / (n - 1)
    return t, 2.0 / h ** 2 - alpha * G(t), -1.0 / h ** 2


def channel_count(G, alpha: float, t_half: float, n: int, m: int) -> int:
    """N_- of channel m >= 1, -d^2/dt^2 + m^2 - alpha G, on the symmetric grid."""
    _, base, off = _line(G, alpha, t_half, n)
    return tridiag_count(base + m * m, off)


def radial_counts(G, alpha: float, t_half: float, n: int) -> tuple[int, int, int]:
    """(N_-(H), N_-(H~), N_-(M)) of a radial potential on the symmetric grid
    [-t_half, t_half] with n nodes: channel m counts twice for m >= 1, and
    channels with m^2 >= alpha max G are positive definite."""
    t, base, off = _line(G, alpha, t_half, n)
    m_top = int(math.ceil(math.sqrt(max(alpha * float(np.max(G(t))), 0.0))))
    per_m = [tridiag_count(base + m * m, off) for m in range(m_top + 1)]
    k = int(np.argmin(np.abs(t)))
    n_m = tridiag_count(base[:k], off) + tridiag_count(base[k + 1:], off)
    rest = 2 * sum(per_m[1:])
    return per_m[0] + rest, n_m + rest, n_m


def disk_bessel_count(alpha: float, depth: float, radius: float) -> int:
    """Bound states of -Delta - alpha d 1_{|x|<R}: 1 + #{j_{1,k} < x} +
    2 sum_{m>=1} #{j_{m-1,k} < x} with x = R sqrt(alpha d)."""
    from scipy import special
    x = radius * math.sqrt(alpha * depth)

    def below(order):
        k = int(x / math.pi) + 3
        return int(np.count_nonzero(special.jn_zeros(order, k) < x))

    total = 1 + below(1)
    m = 1
    while True:
        c = below(m - 1)
        if c == 0:
            return total
        total += 2 * c
        m += 1


def coupled_dense_count(V, alpha: float, t_half: float, n: int, m_max: int,
                        constrained: bool, n_theta: int = 64) -> int:
    """N_- of the 2D form in (t = ln r, real angular channel) coordinates:
    channels 1/sqrt(2pi), cos(m theta)/sqrt(pi), sin(m theta)/sqrt(pi) for
    m <= m_max; slice blocks (2/h^2 + m^2) I - alpha e^{2t} A(r), A the
    matrix of multiplication by V(r, .); neighbouring slices coupled by
    -1/h^2 in each channel.  ``constrained`` deletes the constant channel at
    t = 0."""
    t = np.linspace(-t_half, t_half, n)[1:-1]
    h = 2.0 * t_half / (n - 1)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    basis = [np.full(n_theta, 1.0 / math.sqrt(2.0 * math.pi))]
    ms = [0]
    for m in range(1, m_max + 1):
        basis += [np.cos(m * theta) / SQRT_PI, np.sin(m * theta) / SQRT_PI]
        ms += [m, m]
    basis = np.array(basis)
    B = len(ms)
    dim = B * t.size
    A = np.zeros((dim, dim))
    w = 2.0 * np.pi / n_theta
    kinetic = np.diag(2.0 / h ** 2 + np.array(ms, float) ** 2)
    for i, ti in enumerate(t):
        mult = (basis * V(math.exp(ti), theta)) @ basis.T * w
        sl = slice(i * B, (i + 1) * B)
        A[sl, sl] = kinetic - alpha * math.exp(2 * ti) * mult
        if i + 1 < t.size:
            for b in range(B):
                A[i * B + b, (i + 1) * B + b] = A[(i + 1) * B + b, i * B + b] = -1.0 / h ** 2
    if constrained:
        k = int(np.argmin(np.abs(t)))
        keep = np.ones(dim, dtype=bool)
        keep[k * B] = False
        A = A[np.ix_(keep, keep)]
    return dense_count(A)


# ----------------------------------------------------------------------
# sweep report statistics, from their definitions


def window(alphas, counts, q=1.0, fraction=0.3):
    w = min(max(2, int(math.ceil(fraction * len(alphas)))), len(alphas))
    ratios = np.asarray(counts[-w:], float) / np.asarray(alphas[-w:], float) ** q
    return float(ratios.max()), float(ratios.min())


def as2(alphas, n2d, n_m, weyl, fraction=0.3) -> dict:
    up2, lo2 = window(alphas, n2d, 1.0, fraction)
    upm, lom = window(alphas, n_m, 1.0, fraction)
    return {"rel_discrepancy_upper": abs(up2 - (weyl + upm)) / abs(weyl + upm),
            "rel_discrepancy_lower": abs(lo2 - (weyl + lom)) / abs(weyl + lom),
            "n2d_over_alpha": {"upper": up2, "lower": lo2},
            "n_m_over_alpha": {"upper": upm, "lower": lom}}


def estim(alphas, n2d, bound_b) -> dict:
    alphas = np.asarray(alphas, float)
    ratios = (np.asarray(n2d, float) - 1.0) / (alphas * bound_b)
    top = ratios[alphas >= alphas[-1] / 10.0]
    mid = 0.5 * (top.max() + top.min())
    return {"empirical_C": float(ratios.max()),
            "top_decade_variation": float((top.max() - top.min()) / mid)}
