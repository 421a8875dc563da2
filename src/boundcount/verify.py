"""Seeded verification suites for the structural matrix-level identities.

Each suite draws reproducible random cases, checks an exact identity or a
sharp inequality, and reports per-case lines.  These are the same checks
the test suite runs, packaged for the command line: `verify --suite ...`
exits nonzero when an invariant fails.

The Hardy bounds used here are the sharp constants of the underlying
one-dimensional inequalities in substitution coordinates: 4 for the radial
class with a node at r = 1 (log weight) and 1 for the zero-mean class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potentials import (EffectivePotential, FourierSumPotential, RadialPotential, decompose,
                         effective_potential, gaussian_profile)
from .spectra1d import Grid1D, birman_schwinger_1d, count_M
from .spectra2d import (ChannelSet, assemble_full_2d, birman_schwinger_2d, count_full_2d,
                        count_radial_2d, hardy_ratio)

HARDY_BOUND_F0 = 4.0
HARDY_BOUND_F1 = 1.0
HARDY_TOLERANCE = 0.02


@dataclass
class SuiteReport:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def record(self, ok: bool, message: str):
        self.passed &= ok
        self.lines.append(("PASS" if ok else "FAIL") + "  " + message)


def random_bump_potential(rng: np.random.Generator) -> EffectivePotential:
    """Random non-negative 1D potential: a few Gaussian bumps in t."""
    k = int(rng.integers(1, 4))
    amps = rng.uniform(0.2, 2.0, k)
    centers = rng.uniform(-3.0, 3.0, k)
    widths = rng.uniform(0.4, 2.0, k)

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a, c, w in zip(amps, centers, widths):
            out += a * np.exp(-((t - c) / w) ** 2)
        return out

    return EffectivePotential(func=g, label="random_bumps")


def random_fourier_spec(rng: np.random.Generator) -> FourierSumPotential:
    """Random non-negative potential A e^{-(r/w)^2} (1 + sum eps_k trig(k theta))
    with sum |eps_k| <= 0.9."""
    amp = float(rng.uniform(0.5, 2.0))
    width = float(rng.uniform(0.7, 1.5))
    n_modes = int(rng.integers(1, 4))
    eps = rng.uniform(0.1, 0.9, n_modes)
    eps *= 0.9 / max(1.0, eps.sum())
    modes = [(0, gaussian_profile(amp, width), "cos")]
    for k in range(1, n_modes + 1):
        kind = "cos" if rng.random() < 0.5 else "sin"
        modes.append((k, gaussian_profile(amp * eps[k - 1] / 2.0, width), kind))
    return FourierSumPotential(modes=modes)


def _band_limited_profile(rng: np.random.Generator, t_half: float, odd: bool):
    """Smooth random profile on [-t_half, t_half]; ``odd`` forces a zero at t=0."""
    n_terms = 8
    coeffs = rng.normal(size=n_terms)
    freqs = rng.uniform(0.1, 1.2, n_terms)
    phases = rng.uniform(0, 2 * np.pi, n_terms)
    sigma = rng.uniform(2.0, t_half / 3.0)

    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c, w, ph in zip(coeffs, freqs, phases):
            out += c * np.cos(w * t + ph)
        out *= np.exp(-(t / sigma) ** 2)
        if odd:
            out *= t
        return out

    return f


def suite_hardy(seed: int = 1234, cases: int = 50,
                grid: Grid1D | None = None) -> SuiteReport:
    """Discrete Hardy ratios against the sharp bounds 4 (F0) and 1 (F1)."""
    grid = grid or Grid1D.symmetric(30.0, 6001)
    rng = np.random.default_rng(seed)
    report = SuiteReport("hardy")
    for i in range(cases):
        f0 = _band_limited_profile(rng, grid.t_max, odd=True)
        r0 = hardy_ratio(f0, "F0", grid)
        ok0 = r0 <= HARDY_BOUND_F0 * (1.0 + HARDY_TOLERANCE)
        report.record(ok0, f"F0 case {i:02d}: ratio={r0:.6f} <= {HARDY_BOUND_F0}*(1+{HARDY_TOLERANCE})")
        n_ch = int(rng.integers(1, 4))
        chans = []
        for _ in range(n_ch):
            m = int(rng.integers(1, 7))
            kind = "cos" if rng.random() < 0.5 else "sin"
            chans.append((kind, m, _band_limited_profile(rng, grid.t_max, odd=False)))
        r1 = hardy_ratio(chans, "F1", grid)
        ok1 = r1 <= HARDY_BOUND_F1 * (1.0 + HARDY_TOLERANCE)
        report.record(ok1, f"F1 case {i:02d}: ratio={r1:.6f} <= {HARDY_BOUND_F1}*(1+{HARDY_TOLERANCE})")
    return report


def dense_bs_count(spec, eps: float, grid: Grid1D, m_max: int) -> int:
    """n_+(eps, B_V) without the block pass: the eigenvalues lambda > eps of
    V u = lambda K u, K the system at alpha = 0 (stiffness) and V = K less the
    system at alpha = 1 (V-mass), less the constant channel's t = 0 row."""
    channels = ChannelSet(m_max)
    K = assemble_full_2d(spec, 0.0, grid, channels).to_dense()
    V = K - assemble_full_2d(spec, 1.0, grid, channels).to_dense()
    keep = np.arange(K.shape[0]) != grid.zero_index * channels.size
    K, V = K[np.ix_(keep, keep)], V[np.ix_(keep, keep)]
    L = np.linalg.cholesky(K)
    # L^-1 V L^-T, whose eigenvalues are the generalized ones
    return int(np.count_nonzero(np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, V).T)) > eps))


def suite_bs(seed: int = 1234, cases: int = 20) -> SuiteReport:
    """Birman-Schwinger threshold counts equal the Sturm count of M in 1D,
    and ``dense_bs_count`` in 2D."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("bs")
    grid1 = Grid1D.symmetric(12.0, 1201)
    for i in range(cases):
        G = random_bump_potential(rng)
        alpha = float(np.exp(rng.uniform(np.log(0.5), np.log(60.0))))
        lhs = birman_schwinger_1d(G, 1.0 / alpha, grid1)
        rhs = count_M(G, alpha, grid1)
        report.record(lhs == rhs, f"1D case {i:02d}: n_+(1/a)={lhs} vs N_-(M)={rhs} (alpha={alpha:.3f})")
    grid2 = Grid1D.symmetric(4.0, 81)  # with m_max 2, order 394: small for dense LAPACK
    for i in range(cases):
        spec = random_fourier_spec(rng)
        alpha = float(np.exp(rng.uniform(np.log(1.0), np.log(40.0))))
        lhs = birman_schwinger_2d(spec, 1.0 / alpha, grid2, channels=2)
        rhs = dense_bs_count(spec, 1.0 / alpha, grid2, 2)
        report.record(lhs == rhs, f"2D case {i:02d}: n_+(1/a)={lhs} vs dense={rhs} (alpha={alpha:.3f})")
    return report


def suite_sandwich(seed: int = 1234, cases: int = 12) -> SuiteReport:
    """Rank-one sandwich: N_-(H~) <= N_-(H) <= N_-(H~) + 1, exactly."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("sandwich")
    grid = Grid1D.symmetric(8.0, 321)
    for i in range(cases):
        spec = random_fourier_spec(rng)
        alpha = float(np.exp(rng.uniform(np.log(1.0), np.log(40.0))))
        full, tilde = count_full_2d(assemble_full_2d(spec, alpha, grid))
        ok = tilde <= full <= tilde + 1
        report.record(ok, f"case {i:02d}: tilde={tilde}, full={full} (alpha={alpha:.3f})")
    return report


def suite_radial_consistency(seed: int = 1234, cases: int = 10) -> SuiteReport:
    """For radial specs the full assembled count equals the channel sum."""
    rng = np.random.default_rng(seed)
    report = SuiteReport("radial-consistency")
    grid = Grid1D.symmetric(10.0, 801)
    for i in range(cases):
        amp = float(rng.uniform(0.5, 3.0))
        width = float(rng.uniform(0.6, 1.6))
        spec = RadialPotential(profile=gaussian_profile(amp, width))
        alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(80.0))))
        full = count_full_2d(assemble_full_2d(spec, alpha, grid))[0]
        channel_sum = count_radial_2d(effective_potential(decompose(spec)), alpha, grid)
        report.record(full == channel_sum,
                      f"case {i:02d}: block count={full}, channel sum={channel_sum} (alpha={alpha:.3f})")
    return report


SUITES = {
    "hardy": suite_hardy,
    "bs": suite_bs,
    "sandwich": suite_sandwich,
    "radial-consistency": suite_radial_consistency,
}


def run_suite(name: str, seed: int = 1234) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)
