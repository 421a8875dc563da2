"""Non-negative potentials on R^2 and their radial reduction.

A potential is described declaratively (radial profile, real Fourier sum,
product with an angular factor, or a tabulated grid).  The operations here
split V into its angular mean and the zero-mean remainder, and push the
radial part through the logarithmic substitution r = e^t to produce the
effective one-dimensional potential G(t) = e^{2t} V_rad(e^t).

The printed source formula for G carries e^{2|t|}; the substitution that
justifies it forces e^{2t} (the measure change is r dr = e^{2t} dt).  Both
conventions are available; "substitution" is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteError
from .quadrature import angular_nodes

# exp(2t) overflows beyond this; generic profiles cannot be pushed further
_T_OVERFLOW = 354.0

SUBSTITUTION = "substitution"
LITERAL_ABS = "literal-abs"

# validate_nonnegative's diagnostic grid: CHECK_N_R log-spaced radii over
# CHECK_R_RANGE (clipped to a declared support) times CHECK_N_THETA angles
CHECK_N_R = 48
CHECK_N_THETA = 64
CHECK_R_RANGE = (math.exp(-6), math.exp(6))


@dataclass(frozen=True)
class RadialProfile:
    """Vectorized radial evaluator with optional decay information.

    ``support`` declares an annulus outside which the profile is zero; it is
    what lets G(t) be evaluated at arbitrarily large |t| without overflow.
    ``effective_1d`` is an optional exact evaluator of e^{2t} f(e^t) for
    profiles whose 1D form is known in closed form.
    """

    func: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None
    effective_1d: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = "custom"

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            if self.support is None:
                vals = np.asarray(self.func(r), dtype=float)
            else:
                # func is only asked about radii inside the support
                lo, hi = self.support
                inside = (r >= lo) & (r <= hi)
                vals = np.zeros(r.shape)
                vals[inside] = self.func(r[inside])
        if not np.all(np.isfinite(vals)):
            bad = np.asarray(r)[~np.isfinite(vals)].flat[0]
            raise NonFiniteError(f"radial profile '{self.label}' non-finite at r={bad}", where=bad)
        return vals


def zero_profile() -> RadialProfile:
    return RadialProfile(lambda r: np.zeros_like(r), support=(0.0, 0.0),
                         effective_1d=lambda t: np.zeros_like(np.asarray(t, float)),
                         label="zero")


def gaussian_profile(amplitude: float = 1.0, width: float = 1.0) -> RadialProfile:
    """amplitude * exp(-(r/width)^2); effective form decays double-exponentially."""
    a, w = float(amplitude), float(width)

    def g_direct(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            expo = 2.0 * t - np.exp(2.0 * t) / (w * w)
            return a * np.exp(expo)

    return RadialProfile(lambda r: a * np.exp(-(r / w) ** 2),
                         effective_1d=g_direct, label="gaussian")


def ring_profile(value: float, r_lo: float, r_hi: float) -> RadialProfile:
    """Constant ``value`` on the closed annulus [r_lo, r_hi], zero outside."""
    if not (0.0 <= r_lo < r_hi):
        raise ConfigError(f"ring profile needs 0 <= r_lo < r_hi, got [{r_lo}, {r_hi}]")
    v = float(value)
    t_lo = -np.inf if r_lo == 0.0 else math.log(r_lo)
    t_hi = math.log(r_hi)

    def g_direct(t):
        t = np.asarray(t, dtype=float)
        inside = (t >= t_lo) & (t <= t_hi)
        safe = np.minimum(t, t_hi)
        return np.where(inside, v * np.exp(2.0 * safe), 0.0)

    return RadialProfile(lambda r: np.where((r >= r_lo) & (r <= r_hi), v, 0.0),
                         support=(r_lo, r_hi), effective_1d=g_direct, label="ring")


def disk_profile(depth: float, radius: float) -> RadialProfile:
    return ring_profile(depth, 0.0, radius)


def inverse_square_ring(value: float, r_lo: float, r_hi: float) -> RadialProfile:
    """value * r^-2 on [r_lo, r_hi]: the effective potential is a flat window."""
    if not (0.0 < r_lo < r_hi):
        raise ConfigError(f"inverse-square ring needs 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
    v = float(value)
    t_lo, t_hi = math.log(r_lo), math.log(r_hi)

    def g_direct(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= t_lo) & (t <= t_hi), v, 0.0)

    return RadialProfile(lambda r: np.where((r >= r_lo) & (r <= r_hi), v / (r * r), 0.0),
                         support=(r_lo, r_hi), effective_1d=g_direct, label="inverse_square_ring")


def log_borderline_profile(c: float = 1.0) -> RadialProfile:
    """c * r^-2 (1+ln^2 r)^-1 (1+ln(1+|ln r|))^-1.

    The borderline family: the induced sequence zhat_j decays like 1/j, so it
    sits in weak-l1 but not in its separable subspace (non-Weyl behavior).
    """
    cc = float(c)

    def g_direct(t):
        t = np.asarray(t, dtype=float)
        return cc / ((1.0 + t * t) * (1.0 + np.log1p(np.abs(t))))

    def v_rad(r):
        lr = np.log(r)
        return cc / (r * r * (1.0 + lr * lr) * (1.0 + np.log1p(np.abs(lr))))

    return RadialProfile(v_rad, effective_1d=g_direct, label="log_borderline")


# ----------------------------------------------------------------------
# potential specifications


class PotentialSpec:
    """Base class: a non-negative potential V(r, theta) on R^2.

    ``support`` declares an annulus outside which V vanishes.  Subclasses
    implement ``eval_polar`` (vectorized, broadcasting) and
    ``angular_coefficients`` (complex Fourier modes of V(r, .)).
    """

    support: tuple[float, float] | None = None
    label: str = "potential"

    def eval_polar(self, r, theta) -> np.ndarray:
        raise NotImplementedError

    def angular_mode_hint(self) -> int | None:
        """Highest angular Fourier mode, when structurally known."""
        return None

    @property
    def is_radial(self) -> bool:
        hint = self.angular_mode_hint()
        return hint is not None and hint == 0

    def angular_coefficients(self, r, k_max: int, n_theta: int) -> np.ndarray:
        """Complex modes Vhat_k(r) = (2pi)^-1 int V(r,theta) e^{-ik theta} dtheta.

        Returns an array of shape r.shape + (k_max+1,) for k = 0..k_max; the
        negative modes follow from Vhat_{-k} = conj(Vhat_k) since V is real.
        Uniform sampling is exact for trigonometric polynomials, with the
        aliasing guard n_theta >= 4 k_max enforced for sampled variants.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if k_max > 0 and n_theta < 4 * k_max:
            raise ConfigError(
                f"aliasing guard violated: {n_theta} angular nodes for k_max={k_max} (need >= {4 * k_max})")
        theta, _ = angular_nodes(n_theta)
        samples = self.eval_polar(r[:, None], theta[None, :])
        if not np.all(np.isfinite(samples)):
            i, j = np.argwhere(~np.isfinite(samples))[0]
            raise NonFiniteError(
                f"non-finite potential sample at r={r[i]}, theta={theta[j]}",
                where=(float(r[i]), float(theta[j])))
        out = np.zeros(r.shape + (k_max + 1,), dtype=complex)
        mean = np.mean(samples, axis=-1)
        out[..., 0] = mean
        if k_max > 0:
            # higher modes from the mean-subtracted samples: couplings depend
            # on the non-radial part only
            spectrum = np.fft.rfft(samples - mean[..., None], axis=-1) / n_theta
            out[..., 1:] = spectrum[..., 1:k_max + 1]
        return out


@dataclass
class RadialPotential(PotentialSpec):
    """V(r, theta) = profile(r)."""

    profile: RadialProfile = field(default_factory=zero_profile)
    label: str = "radial"

    def __post_init__(self):
        self.support = self.profile.support

    def eval_polar(self, r, theta):
        r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
        return self.profile(r) * np.ones_like(theta)

    def angular_mode_hint(self):
        return 0

    def angular_coefficients(self, r, k_max, n_theta):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros(r.shape + (k_max + 1,), dtype=complex)
        out[..., 0] = self.profile(r)
        return out


@dataclass
class FourierSumPotential(PotentialSpec):
    """Real Fourier sum: mode (0, c0) gives c0(r); mode (m, c, 'cos') adds
    2 cos(m theta) c(r); kind 'sin' adds 2 sin(m theta) c(r).

    With this convention the complex mode coefficients are Vhat_{+-m} = c(r)
    for 'cos' and -+ i c(r) for 'sin'.  Non-negativity of the sum is the
    caller's responsibility (validated by sampling at construction time via
    the config loader).
    """

    modes: Sequence[tuple[int, RadialProfile, str]] = ()
    label: str = "fourier_sum"

    def __post_init__(self):
        seen = set()
        cleaned = []
        for entry in self.modes:
            m, prof, kind = (entry if len(entry) == 3 else (*entry, "cos"))
            if m < 0 or (m == 0 and kind != "cos"):
                raise ConfigError(f"invalid Fourier mode ({m}, {kind})")
            if kind not in ("cos", "sin"):
                raise ConfigError(f"unknown angular kind {kind!r}")
            if (m, kind) in seen:
                raise ConfigError(f"duplicate Fourier mode ({m}, {kind})")
            seen.add((m, kind))
            cleaned.append((int(m), prof, kind))
        self.modes = tuple(cleaned)
        sups = [p.support for _, p, _ in self.modes]
        if sups and all(s is not None for s in sups):
            self.support = (min(s[0] for s in sups), max(s[1] for s in sups))

    def eval_polar(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = None
        for m, prof, kind in self.modes:
            radial = prof(r)
            if m == 0:
                term = radial * np.ones_like(theta)
            elif kind == "cos":
                term = 2.0 * np.cos(m * theta) * radial
            else:
                term = 2.0 * np.sin(m * theta) * radial
            out = term if out is None else out + term
        if out is None:
            r2, t2 = np.broadcast_arrays(r, theta)
            return np.zeros_like(r2, dtype=float)
        return out

    def angular_mode_hint(self):
        return max((m for m, _, _ in self.modes), default=0)

    def angular_coefficients(self, r, k_max, n_theta):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros(r.shape + (k_max + 1,), dtype=complex)
        for m, prof, kind in self.modes:
            if m > k_max:
                continue
            vals = prof(r)
            if m == 0:
                out[..., 0] += vals
            elif kind == "cos":
                out[..., m] += vals
            else:
                out[..., m] += -1j * vals
        return out


@dataclass
class ProductPotential(PotentialSpec):
    """V(r, theta) = profile(r) * a(theta), the angular factor given by
    uniform samples and evaluated by trigonometric interpolation."""

    profile: RadialProfile = field(default_factory=zero_profile)
    angular_samples: np.ndarray = field(default_factory=lambda: np.ones(8))
    label: str = "product"

    def __post_init__(self):
        samples = np.asarray(self.angular_samples, dtype=float)
        if samples.ndim != 1 or samples.size < 8:
            raise ConfigError("angular factor needs at least 8 uniform samples")
        self.angular_samples = samples
        n = samples.size
        self._ahat = np.fft.rfft(samples) / n  # band-limited by construction
        self.support = self.profile.support

    def angular_factor(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        n = self.angular_samples.size
        k = np.arange(self._ahat.size)
        phases = np.exp(1j * np.tensordot(theta, k, axes=0))
        weights = np.full(self._ahat.size, 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0  # Nyquist mode is not doubled
        return np.real(phases @ (weights * self._ahat))

    def eval_polar(self, r, theta):
        return self.profile(np.asarray(r, float)) * self.angular_factor(theta)

    def angular_mode_hint(self):
        return self._ahat.size - 1

    def angular_coefficients(self, r, k_max, n_theta):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros(r.shape + (k_max + 1,), dtype=complex)
        vals = self.profile(r)
        n = self.angular_samples.size
        for k in range(min(k_max, self._ahat.size - 1) + 1):
            coef = self._ahat[k]
            if n % 2 == 0 and k == self._ahat.size - 1:
                coef = 0.5 * coef  # Nyquist cosine splits evenly over +-k
            out[..., k] = vals * coef
        return out


@dataclass
class TabulatedPotential(PotentialSpec):
    """Samples on an (r, theta) product grid, bilinear in (ln r, theta).

    Evaluation outside the radial range raises DomainError unless ``support``
    is declared, in which case the potential is zero there.  Silent
    extrapolation is deliberately not offered.
    """

    r_grid: np.ndarray = field(default_factory=lambda: np.array([0.5, 1.0, 2.0]))
    theta_grid: np.ndarray = field(default_factory=lambda: np.linspace(0, 2 * np.pi, 9)[:-1])
    values: np.ndarray = field(default_factory=lambda: np.zeros((3, 8)))
    support: tuple[float, float] | None = None
    label: str = "tabulated"

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.theta_grid = np.asarray(self.theta_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.r_grid) <= 0) or self.r_grid[0] <= 0:
            raise ConfigError("tabulated r grid must be positive and increasing")
        if self.values.shape != (self.r_grid.size, self.theta_grid.size):
            raise ConfigError(
                f"tabulated values shape {self.values.shape} does not match "
                f"grid ({self.r_grid.size}, {self.theta_grid.size})")
        if np.any(self.values < 0):
            raise ConfigError("tabulated potential has negative samples")
        self._log_r = np.log(self.r_grid)

    def angular_mode_hint(self):
        """0 when every radius holds one value at all angles (the table is
        radial), otherwise unknown."""
        return 0 if np.all(self.values == self.values[:, :1]) else None

    def eval_polar(self, r, theta):
        r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
        shape = r.shape
        r = np.atleast_1d(r).ravel()
        theta = np.atleast_1d(theta).ravel()
        out = np.zeros_like(r)
        inside = (r >= self.r_grid[0]) & (r <= self.r_grid[-1])
        if not np.all(inside):
            if self.support is None:
                bad = r[~inside].flat[0]
                raise DomainError(
                    f"r={bad} outside tabulated range [{self.r_grid[0]}, {self.r_grid[-1]}] "
                    "and no support annulus declared")
            # declared support: zero outside the table
        if np.any(inside):
            rr = r[inside]
            th = self.theta_grid
            tt = np.mod(theta[inside], 2.0 * np.pi)
            # periodic: below the first node, interpolate from the last one across 2pi
            tt = np.where(tt < th[0], tt + 2.0 * np.pi, tt)
            lx = np.log(rr)
            i = np.clip(np.searchsorted(self._log_r, lx) - 1, 0, self.r_grid.size - 2)
            wx = (lx - self._log_r[i]) / (self._log_r[i + 1] - self._log_r[i])
            ntheta = th.size
            j = np.clip(np.searchsorted(th, tt) - 1, 0, ntheta - 1)
            j_next = (j + 1) % ntheta
            th_hi = np.where(j == ntheta - 1, 2.0 * np.pi + th[0], th[(j + 1) % ntheta])
            wy = (tt - th[j]) / (th_hi - th[j])
            vals = ((1 - wx) * (1 - wy) * self.values[i, j]
                    + wx * (1 - wy) * self.values[i + 1, j]
                    + (1 - wx) * wy * self.values[i, j_next]
                    + wx * wy * self.values[i + 1, j_next])
            out[inside] = vals
        return out.reshape(shape)


# ----------------------------------------------------------------------
# operations


def radial_part(spec: PotentialSpec, r, n_theta: int = 256) -> np.ndarray:
    """Angular mean (2pi)^-1 int V(r, theta) dtheta via the periodic rule.

    Exact for radial specs and, up to round-off, for any trigonometric
    polynomial of degree below the node count.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0):
        raise DomainError("radial_part needs r > 0")
    vals = spec.angular_coefficients(r_arr, 0, n_theta)[..., 0].real
    return vals if np.ndim(r) else float(vals[0])


@dataclass(frozen=True)
class Decomposition:
    """Radial mean and zero-mean remainder of a potential."""

    spec: PotentialSpec
    v_rad: RadialProfile
    n_theta: int

    @property
    def is_radial(self) -> bool:
        return self.spec.is_radial

    def v_nrad(self, r, theta) -> np.ndarray:
        return self.spec.eval_polar(r, theta) - self.v_rad(np.asarray(r, dtype=float))


def _exact_radial_profile(spec: PotentialSpec) -> RadialProfile | None:
    """The angular mean in declarative form, when the variant provides it.

    Matches the quadrature route float for float (these variants return the
    declared mode-0 coefficient from angular_coefficients), and keeps decay
    metadata so G(t) stays evaluable at the huge |t| the shell integrals
    reach."""
    if isinstance(spec, RadialPotential):
        return spec.profile
    if isinstance(spec, FourierSumPotential):
        for m, prof, _ in spec.modes:
            if m == 0:
                return prof
        return zero_profile()
    if isinstance(spec, ProductPotential):
        a0 = float(spec._ahat[0].real)
        prof = spec.profile
        hook = None
        if prof.effective_1d is not None:
            base = prof.effective_1d
            hook = lambda t: a0 * np.asarray(base(t), dtype=float)
        return RadialProfile(lambda r: prof(r) * a0, support=prof.support,
                             effective_1d=hook, label=f"{prof.label}*mean")
    return None


def decompose(spec: PotentialSpec, n_theta: int = 256) -> Decomposition:
    """Split V into V_rad (angular mean) and V_nrad = V - V_rad."""
    v_rad = _exact_radial_profile(spec)
    if v_rad is None:
        v_rad = RadialProfile(lambda r: radial_part(spec, r, n_theta),
                              support=spec.support, label=f"{spec.label}:radial_part")
    return Decomposition(spec=spec, v_rad=v_rad, n_theta=n_theta)


@dataclass(frozen=True)
class EffectivePotential:
    """The 1D potential G(t) >= 0 induced by a radial profile.

    convention "substitution": G(t) = e^{2t} v_rad(e^t) (measure-consistent);
    convention "literal-abs":  G(t) = e^{2|t|} v_rad(e^t).
    ``edges`` are the t-positions of the profile's support edges, where G
    may jump; integrals over t split their panels there.
    """

    func: Callable[[np.ndarray], np.ndarray]
    convention: str = SUBSTITUTION
    label: str = "G"
    edges: tuple[float, ...] = ()

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        vals = np.asarray(self.func(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = t[~np.isfinite(np.asarray(vals))].flat[0]
            raise NonFiniteError(f"effective potential non-finite at t={bad}", where=bad)
        return vals

    @classmethod
    def from_callable(cls, func, convention: str = SUBSTITUTION, label: str = "G"):
        return cls(func=func, convention=convention, label=label)


def _substitution_G(v_rad: RadialProfile) -> Callable:
    if v_rad.effective_1d is not None:
        return v_rad.effective_1d
    t_hi_support = None
    if v_rad.support is not None:
        t_hi_support = math.log(v_rad.support[1]) if v_rad.support[1] > 0 else -np.inf

    def G(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        if t_hi_support is not None:
            live = t <= t_hi_support
        else:
            if np.any(t > _T_OVERFLOW):
                raise DomainError(
                    "cannot evaluate e^{2t} v_rad(e^t) beyond t=354 for a profile "
                    "with no declared support or effective_1d form")
            live = np.ones_like(t, dtype=bool)
        if np.any(live):
            tl = t[live]
            with np.errstate(over="ignore", under="ignore"):
                out[live] = np.exp(2.0 * tl) * v_rad(np.exp(tl))
        return out

    return G


def effective_potential(dec: Decomposition, convention: str = SUBSTITUTION) -> EffectivePotential:
    """Build G from a decomposition under the requested convention."""
    if convention not in (SUBSTITUTION, LITERAL_ABS):
        raise ConfigError(f"unknown effective-potential convention {convention!r}")
    base = _substitution_G(dec.v_rad)
    if convention == SUBSTITUTION:
        func = base
    else:
        def func(t):
            t = np.asarray(t, dtype=float)
            # e^{2|t|} = e^{2t} * e^{-4 min(t, 0)}
            return base(t) * np.exp(-4.0 * np.minimum(t, 0.0))
    support = dec.v_rad.support or ()
    return EffectivePotential(func=func, convention=convention,
                              label=f"G[{dec.spec.label}]",
                              edges=tuple(math.log(r) for r in support if r > 0))


def validate_nonnegative(spec: PotentialSpec) -> None:
    """Sample V on a diagnostic (ln r, theta) grid; negative values are a
    configuration error.  Sampling proves nothing but catches user mistakes."""
    r_lo, r_hi = CHECK_R_RANGE
    if spec.support is not None:
        lo, hi = spec.support
        r_lo = max(r_lo, lo) if lo > 0 else r_lo
        r_hi = min(r_hi, hi) if hi > 0 else r_hi
        if not r_lo < r_hi:
            return
    radii = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), CHECK_N_R))
    theta, _ = angular_nodes(CHECK_N_THETA)
    vals = spec.eval_polar(radii[:, None], theta[None, :])
    if np.any(vals < -1e-12 * max(1.0, float(np.max(np.abs(vals))))):
        i, j = np.argwhere(vals < 0)[0]
        raise ConfigError(
            f"potential '{spec.label}' is negative at r={radii[i]:.6g}, "
            f"theta={theta[j]:.6g}: V={vals[i, j]:.6g}")


# ----------------------------------------------------------------------
# builtin families (the JSON-facing catalog)


def disk_well(depth: float, radius: float) -> PotentialSpec:
    if depth < 0 or radius <= 0:
        raise ConfigError("disk_well needs depth >= 0 and radius > 0")
    return RadialPotential(profile=disk_profile(depth, radius), label="disk_well")


def gaussian_well(amplitude: float, width: float) -> PotentialSpec:
    if amplitude < 0 or width <= 0:
        raise ConfigError("gaussian needs amplitude >= 0 and width > 0")
    return RadialPotential(profile=gaussian_profile(amplitude, width), label="gaussian")


def log_borderline(c: float) -> PotentialSpec:
    if c <= 0:
        raise ConfigError("log_borderline needs c > 0")
    return RadialPotential(profile=log_borderline_profile(c), label="log_borderline")


def fourier_sum(modes: Sequence[tuple[int, RadialProfile, str]]) -> PotentialSpec:
    return FourierSumPotential(modes=modes)


def annulus_tabulated(path) -> PotentialSpec:
    """Load r,theta,value CSV rows sampled on a product grid; a relative
    ``path`` resolves against the working directory."""
    try:
        rows = np.loadtxt(path, delimiter=",", comments="#")
    except OSError as exc:
        raise ConfigError(f"cannot read table {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: expected CSV rows r,theta,value ({exc})") from exc
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ConfigError(f"{path}: expected CSV rows r,theta,value")
    r_vals = np.unique(rows[:, 0])
    th_vals = np.unique(rows[:, 1])
    if r_vals.size * th_vals.size != rows.shape[0]:
        raise ConfigError(f"{path}: samples do not form a complete (r, theta) product grid")
    table = np.full((r_vals.size, th_vals.size), np.nan)
    i = np.searchsorted(r_vals, rows[:, 0])
    j = np.searchsorted(th_vals, rows[:, 1])
    table[i, j] = rows[:, 2]
    if np.any(np.isnan(table)):
        raise ConfigError(f"{path}: duplicate or missing grid entries")
    return TabulatedPotential(r_grid=r_vals, theta_grid=th_vals, values=table,
                              support=(float(r_vals[0]), float(r_vals[-1])),
                              label="annulus_tabulated")
