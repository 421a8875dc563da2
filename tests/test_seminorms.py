"""zhat sequence, weak-l1 machinery, L1Lp norm, Weyl coefficient, bound B."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import boundcount as bc
from boundcount import seminorms
from boundcount.errors import NonFiniteError, QuadratureError
from boundcount.quadrature import angular_nodes
from boundcount.seminorms import default_window
from helpers import reference_each_interval, reference_weyl, reference_zhat


def brute_force_quasinorm(x, q):
    """Independent evaluation: scan eps just below every jump plus a dense grid."""
    a = np.abs(np.asarray(x, dtype=float))
    a = a[a > 0]
    if a.size == 0:
        return 0.0
    candidates = np.concatenate([a * (1 - 1e-12), np.linspace(a.min() / 2, a.max(), 2000)])
    best = 0.0
    for eps in candidates:
        n = int(np.count_nonzero(a > eps))
        if n:
            best = max(best, eps * n ** (1.0 / q))
    return best


# ---------------------------------------------------------------- zhat


def test_zhat_zero_potential():
    zh = bc.zhat(bc.EffectivePotential(lambda t: np.zeros_like(np.asarray(t, float))), J=6)
    assert np.all(zh == 0.0)


def test_zhat_unit_window():
    G = bc.EffectivePotential(
        lambda t: ((np.asarray(t) > -1) & (np.asarray(t) < 1)).astype(float))
    zh = bc.zhat(G, J=5)
    assert zh[0] == pytest.approx(2.0, rel=1e-12)
    assert np.all(zh[1:] == pytest.approx(0.0, abs=1e-12))


def test_zhat_inverse_square_gives_constant_shells():
    # |t| G = 1/|t| on |t| > 1: each shell integrates to 2 (ln of the ratio e)
    G = bc.EffectivePotential(
        lambda t: np.where(np.abs(t) > 1.0, 1.0 / np.maximum(t * t, 1e-300), 0.0))
    zh = bc.zhat(G, J=10)
    assert zh[0] == pytest.approx(0.0, abs=1e-12)
    assert zh[1:] == pytest.approx(np.full(10, 2.0), rel=1e-9)


def test_zhat_borderline_decay_and_oracle():
    def g(t):
        t = np.asarray(t, dtype=float)
        return 1.0 / ((1.0 + t * t) * (1.0 + np.log1p(np.abs(t))))

    zh = bc.zhat(bc.EffectivePotential(g), J=40)
    j = np.arange(5, 41)
    assert np.all(zh[5:] * j >= 0.5)
    assert np.all(zh[5:] * j <= 2.0)
    # adaptive scipy oracle on two shells
    for jj in (3, 7):
        lo, hi = math.exp(jj - 1), math.exp(jj)
        ref = 2.0 * quad(lambda t: t * g(np.array([t]))[0], lo, hi, limit=500)[0]
        assert zh[jj] == pytest.approx(ref, rel=1e-7)


def test_zhat_additive_in_G():
    g1 = lambda t: np.exp(-np.asarray(t, float) ** 2)
    g2 = lambda t: 1.0 / (1.0 + np.asarray(t, float) ** 4)
    z1 = bc.zhat(bc.EffectivePotential(g1), J=8)
    z2 = bc.zhat(bc.EffectivePotential(g2), J=8)
    z12 = bc.zhat(bc.EffectivePotential(lambda t: g1(t) + g2(t)), J=8)
    assert z12 == pytest.approx(z1 + z2, abs=1e-10)


def test_zhat_requires_positive_truncation():
    with pytest.raises(ValueError):
        bc.zhat(bc.EffectivePotential(lambda t: np.zeros_like(t)), J=0)


# ---------------------------------------------------------------- n_plus / quasinorm


def test_n_plus_examples():
    assert bc.n_plus(0.5, [1.0, 0.4, 0.6]) == 2
    assert bc.n_plus(1.0, [1.0, 1.0, 1.0]) == 0  # strict
    assert bc.n_plus(0.1, [1.0 / j for j in range(1, 101)]) == 9


def test_weak_quasinorm_examples():
    assert bc.weak_quasinorm([1.0, 0.0, 0.0], 1.0) == 1.0
    for n in (5, 50, 500):
        assert bc.weak_quasinorm([1.0 / j for j in range(1, n + 1)], 1.0) == pytest.approx(1.0)
    assert bc.weak_quasinorm([j ** -0.5 for j in range(1, 300)], 2.0) == pytest.approx(1.0)


def test_weak_quasinorm_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        x = rng.lognormal(0.0, 1.5, n) * rng.choice([-1, 1], n)
        if rng.random() < 0.3:
            x[rng.integers(0, n)] = x[0]  # inject ties
        q = float(rng.choice([1.0, 1.5, 2.0]))
        assert bc.weak_quasinorm(x, q) == pytest.approx(brute_force_quasinorm(x, q), rel=1e-9)


def test_quasi_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        x = rng.lognormal(0, 1, n)
        y = rng.lognormal(0, 1, n)
        lhs = bc.weak_quasinorm(x + y, 1.0)
        rhs = 2.0 * (bc.weak_quasinorm(x, 1.0) + bc.weak_quasinorm(y, 1.0))
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------- delta functionals


def test_delta_below_support_is_zero():
    x = [1.0, 0.5, 0.25]
    upper, lower = bc.delta_functionals(x, 1.0, window=(1e-6, 1e-4))
    assert upper == 0.0 and lower == 0.0


def test_delta_harmonic_window():
    x = [1.0 / j for j in range(1, 201)]
    upper, lower = bc.delta_functionals(x, 1.0, window=(1 / 80, 1 / 20))
    assert upper == pytest.approx(1.0, rel=0.05)
    assert lower == pytest.approx(1.0, rel=0.05)


def test_delta_block_sequence_oscillates():
    # geometric blocks: thresholds 4^-k with cumulative count round(0.8 * 4^k)
    # make eps * n_plus swing between ~0.8 (below jumps) and ~0.2 (above)
    levels = range(1, 8)
    values = []
    prev = 0
    for k in levels:
        total = round(0.8 * 4 ** k)
        values.extend([4.0 ** -k] * (total - prev))
        prev = total
    x = np.array(values)
    window = (4.0 ** -6, 4.0 ** -3)  # small-k levels are rounding-dominated
    upper, lower = bc.delta_functionals(x, 1.0, window=window)
    assert upper == pytest.approx(0.8, rel=0.05)
    assert lower == pytest.approx(0.2, rel=0.05)
    # brute-force scan of eps * n_plus over the window
    eps_grid = np.geomspace(window[0], window[1], 40000)
    phi = np.array([e * bc.n_plus(e, x) for e in eps_grid])
    assert upper >= phi.max() - 1e-9
    assert lower <= phi.min() + 1e-9


def test_delta_empty_window_rejected():
    with pytest.raises(ValueError):
        bc.delta_functionals([1.0], 1.0, window=(0.5, 0.1))


def test_weak_norm_report_ordering():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.lognormal(0, 1, int(rng.integers(3, 60)))
        rep = bc.weak_norm_report(x, 1.0)
        assert rep.delta_lower <= rep.delta_upper <= rep.quasinorm + 1e-12
        lo, hi = rep.epsilon_window
        assert 0 < lo <= hi


def test_weak_norm_report_of_a_zero_sequence():
    rep = bc.weak_norm_report(np.zeros(21), 1.0)
    assert (rep.quasinorm, rep.delta_upper, rep.delta_lower) == (0.0, 0.0, 0.0)
    assert rep.epsilon_window is None
    with pytest.raises(ValueError):
        default_window(np.zeros(21))


def test_default_window_tracks_tail():
    x = np.array([1.0 / j for j in range(1, 41)])
    lo, hi = default_window(x)
    assert lo > x[-1] - 1e-15
    assert hi <= 1.0


# ---------------------------------------------------------------- L1Lp norm


def mode_spec(*modes):
    """Fourier sum of (m, profile, kind) modes with no m = 0 profile: V_nrad is
    the whole sum, whose sign these tests do not need."""
    return bc.decompose(bc.fourier_sum(list(modes)))


def divergent_profile():
    """A profile whose effective form is 1/(1+|t|): int G dt diverges like ln|t|."""
    return bc.RadialProfile(
        lambda r: 1.0 / (r * r * (1.0 + np.abs(np.log(r)))),
        effective_1d=lambda t: 1.0 / (1.0 + np.abs(np.asarray(t, float))), label="divergent")


def test_l1lp_radial_factorizes():
    # V_nrad = cos(theta) e^{-r^2}: (int |cos|^p dtheta)^{1/p}, by the same
    # periodic rule, times int e^{-r^2} r dr = 1/2
    dec = mode_spec((1, bc.gaussian_profile(0.5, 1.0), "cos"))
    theta, w = angular_nodes(256)
    for p in (2.0, 3.0):
        inner = w * np.sum(np.abs(np.cos(theta)) ** p)
        assert bc.l1lp_norm(dec, p=p) == pytest.approx(inner ** (1.0 / p) * 0.5, rel=1e-10)
    # cos and sin of one mode: int (cos + sin)^2 dtheta = 2 pi
    both = mode_spec((1, bc.gaussian_profile(0.5, 1.0), "cos"),
                     (1, bc.gaussian_profile(0.5, 1.0), "sin"))
    assert bc.l1lp_norm(both) == pytest.approx(math.sqrt(2.0 * math.pi) * 0.5, rel=1e-10)


def test_l1lp_cosine_ring_frozen_value():
    # V_nrad = cos(theta) 1_{[1,2]}(r): inner integral sqrt(pi), radial
    # int_1^2 r dr = 3/2; the support jumps are panel edges
    val = bc.l1lp_norm(mode_spec((1, bc.ring_profile(0.5, 1.0, 2.0), "cos")), p=2.0)
    assert val == pytest.approx(math.sqrt(math.pi) * 1.5, rel=1e-12)
    assert val == pytest.approx(2.658680776358274, rel=1e-7)


@pytest.mark.parametrize("profile, radial", [
    (bc.disk_profile(0.5, 1.5), 1.5 ** 2 / 2),
    (bc.ring_profile(0.5, 0.5, 2.0), (2.0 ** 2 - 0.5 ** 2) / 2),
    (bc.inverse_square_ring(0.5, 0.3, 3.0), math.log(10.0)),
])
def test_l1lp_jumps_are_panel_edges(profile, radial):
    # V_nrad = cos(theta) f(r) with f jumping at its support edges: the norm
    # is sqrt(pi) int f r dr, and the jumps must not cost accuracy
    dec = mode_spec((1, profile, "cos"))
    assert bc.l1lp_norm(dec, p=2.0) == pytest.approx(math.sqrt(math.pi) * radial, rel=1e-12)


def test_l1lp_zero_and_homogeneous_and_monotone():
    assert bc.l1lp_norm(mode_spec((1, bc.gaussian_profile(0.0, 1.0), "cos")), p=2.0) == 0.0
    v1 = bc.l1lp_norm(mode_spec((1, bc.gaussian_profile(0.25, 1.0), "cos")), p=2.0)
    v2 = bc.l1lp_norm(mode_spec((1, bc.gaussian_profile(0.5, 1.0), "cos")), p=2.0)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-10)
    # an orthogonal mode on the same profile can only grow the L2(S) norm
    bigger = bc.l1lp_norm(mode_spec((1, bc.gaussian_profile(0.25, 1.0), "cos"),
                                    (2, bc.gaussian_profile(0.25, 1.0), "sin")), p=2.0)
    assert bigger >= v1


def test_l1lp_product_and_table_match_the_fourier_form():
    # 1 + cos(theta) as an angular factor is the Fourier mode (1, 1/2 profile, cos)
    theta = 2 * np.pi * np.arange(16) / 16
    product = bc.decompose(bc.ProductPotential(profile=bc.gaussian_profile(1.0, 1.0),
                                               angular_samples=1.0 + np.cos(theta)))
    fourier = mode_spec((1, bc.gaussian_profile(0.5, 1.0), "cos"))
    assert bc.l1lp_norm(product) == pytest.approx(bc.l1lp_norm(fourier), rel=1e-12)
    # a table constant in r on its annulus: its angular norm times int_{1/2}^2 r dr,
    # with the table's edges as panel edges and nothing evaluated beyond them
    table = bc.decompose(bc.TabulatedPotential(
        r_grid=np.array([0.5, 1.0, 2.0]), theta_grid=theta,
        values=np.outer(np.ones(3), 1.0 + np.cos(theta)), support=(0.5, 2.0)))
    nodes, w = angular_nodes(256)
    inner = math.sqrt(w * np.sum(table.v_nrad(np.ones(1), nodes) ** 2))
    assert bc.l1lp_norm(table) == pytest.approx(inner * (2.0 ** 2 - 0.5 ** 2) / 2, rel=1e-12)


def test_l1lp_radial_decomposition_shortcut():
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    assert bc.l1lp_norm(dec, p=2.0) == 0.0


def test_l1lp_log_borderline_mode_settles():
    # a non-radial part decaying like 1/(t^2 ln t) in t: finite, and within
    # reach of the shells (0.5 cos(theta) G with G the c = 1 effective form)
    spec = bc.fourier_sum([(0, bc.log_borderline_profile(1.0), "cos"),
                           (1, bc.log_borderline_profile(0.25), "cos")])
    g = lambda t: 1.0 / ((1.0 + t * t) * (1.0 + math.log1p(t)))
    line = 2.0 * (quad(g, 0, 1)[0] + quad(g, 1, np.inf, limit=800)[0])
    assert bc.l1lp_norm(bc.decompose(spec), p=2.0) == pytest.approx(
        0.5 * math.sqrt(math.pi) * line, rel=1e-7)


def test_l1lp_tail_failure_carries_partial():
    # a non-radial part whose effective form is 1/(1+|t|): the norm is infinite
    with pytest.raises(QuadratureError) as info:
        bc.l1lp_norm(mode_spec((1, divergent_profile(), "cos")), p=2.0)
    assert info.value.partial is not None and info.value.partial > 0


# ---------------------------------------------------------------- Weyl coefficient


def weyl(spec):
    return bc.weyl_coefficient(bc.effective_potential(bc.decompose(spec)))


def test_weyl_examples():
    assert weyl(bc.disk_well(1.0, 1.0)) == pytest.approx(0.25, rel=1e-10)
    assert weyl(bc.gaussian_well(1.0, 1.0)) == pytest.approx(0.25, rel=1e-8)
    assert weyl(bc.disk_well(2.0, 1.0)) == pytest.approx(0.5, rel=1e-10)


def test_weyl_linearity():
    a = weyl(bc.gaussian_well(1.0, 1.0))
    b = weyl(bc.disk_well(1.0, 1.5))
    both = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos")])
    assert weyl(both) == pytest.approx(a, rel=1e-9)
    assert b == pytest.approx(0.25 * 1.5 ** 2, rel=1e-10)


@pytest.mark.parametrize("radius", [0.998, 1.002, 1.003, 1.133])
def test_disk_jump_off_the_panel_edges(radius):
    # G jumps at t = ln R, just beside the t = 0 panel edge for R near 1
    G = bc.effective_potential(bc.decompose(bc.disk_well(1.0, radius)))
    assert bc.weyl_coefficient(G) == pytest.approx(radius ** 2 / 4, rel=1e-9)
    zhat0 = (min(radius, math.e) ** 2 - math.exp(-2.0)) / 2
    assert bc.zhat(G, J=3)[0] == pytest.approx(zhat0, rel=1e-9)


def test_ring_jumps_split_the_line_and_the_shells():
    # edges at t = ln 0.5 inside (-1, 1) and t = ln 5 inside the first shell
    G = bc.effective_potential(bc.decompose(bc.RadialPotential(
        profile=bc.ring_profile(1.0, 0.5, 5.0))))
    assert bc.weyl_coefficient(G) == pytest.approx((5.0 ** 2 - 0.5 ** 2) / 4, rel=1e-9)
    zh = bc.zhat(G, J=3)
    assert zh[0] == pytest.approx((math.e ** 2 - 0.5 ** 2) / 2, rel=1e-9)

    def primitive(t):  # of t e^{2t}
        return math.exp(2 * t) * (2 * t - 1) / 4

    assert zh[1] == pytest.approx(primitive(math.log(5.0)) - primitive(1.0), rel=1e-9)
    assert not np.any(zh[2:])


def test_edges_at_opposite_t_share_one_shell_cut():
    # a ring on [e^-2, e^2] jumps at t = -2 and t = 2, both at s = ln 2
    G = bc.effective_potential(bc.decompose(bc.RadialPotential(
        profile=bc.ring_profile(1.0, math.exp(-2.0), math.exp(2.0)))))
    assert bc.weyl_coefficient(G) == pytest.approx((math.exp(4) - math.exp(-4)) / 4, rel=1e-9)
    assert bc.zhat(G, J=3)[1] > 0


def test_weyl_borderline_slow_tail_converges():
    G = bc.effective_potential(bc.decompose(bc.log_borderline(1.0)))
    val = bc.weyl_coefficient(G)
    shells = quad(lambda t: G(np.array([t]))[0], -1, 1, limit=200)[0]
    tail = quad(lambda t: G(np.array([t]))[0], 1, np.inf, limit=800)[0]
    assert val == pytest.approx(0.5 * (shells + 2 * tail), rel=1e-5)


def test_weyl_divergent_raises():
    G = bc.EffectivePotential(divergent_profile().effective_1d)
    with pytest.raises(QuadratureError) as info:
        bc.weyl_coefficient(G)
    assert info.value.partial > 0


# ---------------------------------------------------------------- one shell rule


def reference_Gs():
    """G's of every shape the line integrals meet: smooth, jumps at and off
    the panel edges, flat windows, slow tails, and one without support
    edges; then the families of the benchmark's norms requests, with
    parameters off 1."""
    radial = [bc.gaussian_well(1.0, 1.0), bc.disk_well(1.0, 0.998), bc.disk_well(1.0, 1.0),
              bc.disk_well(1.0, 1.133), bc.RadialPotential(profile=bc.ring_profile(1.0, 0.5, 5.0)),
              bc.RadialPotential(profile=bc.inverse_square_ring(1.0, 0.3, 3.0)),
              bc.log_borderline(1.0), bc.gaussian_well(0.93, 1.17), bc.disk_well(1.13, 1.0),
              bc.log_borderline(1.7)]
    Gs = [bc.effective_potential(bc.decompose(spec)) for spec in radial]
    return Gs + [bc.EffectivePotential(lambda t: 1.0 / (1.0 + np.asarray(t, float) ** 4))]


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("G", reference_Gs())
def test_shell_rule_matches_the_reference_loops_bit_for_bit(G):
    assert bits(bc.zhat(G, J=40)) == bits(reference_zhat(G, 40))
    assert bits(bc.weyl_coefficient(G)) == bits(reference_weyl(G))


@pytest.mark.parametrize("mode", [(1, "cos"), (2, "sin")])
def test_l1lp_and_bound_match_one_interval_at_a_time_bit_for_bit(monkeypatch, mode):
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.07, 0.91), "cos"),
                           (mode[0], bc.gaussian_profile(0.31, 0.91), mode[1])])
    dec = bc.decompose(spec)
    batched = bc.l1lp_norm(dec), bc.bound_functional(dec)
    assert batched[0] > 0
    monkeypatch.setattr(seminorms, "adaptive_integral", reference_each_interval)
    assert bits(batched) == bits([bc.l1lp_norm(dec), bc.bound_functional(dec)])


def _failing_G(nan_shell, singular_shell):
    """NaN on the middle of one shell; a log singularity, large but finite at
    a shell edge so that bisection reaches its depth limit, on another."""
    edge = float(singular_shell)

    def g(t):
        with np.errstate(divide="ignore"):
            s = np.log(np.abs(np.asarray(t, dtype=float)))
        spike = np.where(np.abs(s - edge) < 0.5, 1.0 / (np.abs(s - edge) + 1e-30), 0.0)
        return np.where(np.abs(s - (nan_shell - 0.5)) < 0.3, np.nan, spike)
    return g


@pytest.mark.parametrize("nan_shell,singular_shell,error", [
    (3, 6, NonFiniteError), (8, 3, QuadratureError)])
def test_zhat_raises_the_reference_error_of_its_first_failing_shell(
        nan_shell, singular_shell, error):
    G = bc.EffectivePotential(_failing_G(nan_shell, singular_shell))
    with pytest.raises(error) as batched:
        bc.zhat(G, J=10)
    with pytest.raises(error) as ref:
        reference_zhat(G, 10)
    assert type(batched.value) is type(ref.value)
    assert str(batched.value) == str(ref.value)
    # repr tells floats apart bit for bit
    for attr in ("where", "interval", "partial"):
        assert repr(getattr(batched.value, attr, None)) == repr(getattr(ref.value, attr, None))
    if error is QuadratureError:
        assert batched.value.interval == singular_shell
        assert "failed to converge after 48 bisections" in str(batched.value)


# ---------------------------------------------------------------- bound functional


def test_bound_functional_radial_window():
    prof = bc.inverse_square_ring(1.0, math.exp(-1.0), math.e)
    dec = bc.decompose(bc.RadialPotential(profile=prof))
    assert bc.bound_functional(dec, p=2.0, J=10) == pytest.approx(2.0, rel=1e-9)


def test_bound_functional_pure_nonradial():
    # V = cos(theta) 1_{[1,2]}(r): vanishing radial part, declared as the
    # single Fourier mode 2 cos(theta) * (1/2) 1_{[1,2]}
    spec = bc.fourier_sum([(1, bc.ring_profile(0.5, 1.0, 2.0), "cos")])
    dec = bc.decompose(spec, n_theta=128)
    G = bc.effective_potential(dec)
    zh = bc.zhat(G, J=5)
    assert np.all(zh == 0.0)
    val = bc.bound_functional(dec, G, p=2.0, J=5)
    assert val == pytest.approx(math.sqrt(math.pi) * 1.5, rel=1e-7)


def test_bound_functional_zero_potential():
    dec = bc.decompose(bc.disk_well(0.0, 1.0))
    assert bc.bound_functional(dec, p=2.0, J=5) == 0.0
