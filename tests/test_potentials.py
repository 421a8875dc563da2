"""Potential evaluation, angular decomposition, and the effective potential."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import boundcount as bc
from boundcount.config import _PROFILES
from boundcount.errors import ConfigError, DomainError
from boundcount.potentials import PotentialSpec, zero_profile


class TrigPolyPotential(PotentialSpec):
    """Generic-path spec (no special-cased modes): V = g(r) (1 + cos theta)^2."""

    label = "trig_poly"

    def eval_polar(self, r, theta):
        r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
        return np.exp(-r * r) * (1.0 + np.cos(theta)) ** 2


def test_eval_radial():
    spec = bc.RadialPotential(profile=bc.RadialProfile(lambda r: np.exp(-r)))
    assert spec.eval_polar(1.0, np.pi) == pytest.approx(math.exp(-1.0))


# one profile of every config shape, with a support edge inside (0.3, 3) where
# the shape has one
SHAPE_PARAMS = {
    "gaussian": {"amplitude": 1.3, "width": 0.8},
    "ring": {"value": 0.7, "r_lo": 0.5, "r_hi": 2.0},
    "inverse_square_ring": {"value": 0.9, "r_lo": 0.4, "r_hi": 2.5},
    "disk": {"depth": 1.1, "radius": 1.5},
    "log_borderline": {"c": 0.6},
}


def bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("shape", sorted(_PROFILES))
def test_radial_potential_is_the_fourier_sum_of_its_one_mode(shape):
    assert set(SHAPE_PARAMS) == set(_PROFILES)
    prof = _PROFILES[shape][0](**SHAPE_PARAMS[shape])
    radial = bc.RadialPotential(profile=prof)
    fsum = bc.fourier_sum([(0, prof, "cos")])
    assert radial.profile is prof
    r = np.geomspace(0.05, 20.0, 37)
    theta = np.linspace(0.0, 2.0 * np.pi, 11)
    for k_max in (0, 6):
        coeffs = radial.angular_coefficients(r, k_max, 32)
        assert bits(coeffs) == bits(fsum.angular_coefficients(r, k_max, 32))
        # the mode-0 row is the profile, every other mode is zero
        assert bits(coeffs[:, 0].real) == bits(prof(r)) and not np.any(coeffs[:, 1:])
        assert not np.any(coeffs[:, 0].imag)
    values = radial.eval_polar(r[:, None], theta[None, :])
    assert bits(values) == bits(fsum.eval_polar(r[:, None], theta[None, :]))
    assert bits(values) == bits(np.broadcast_to(prof(r)[:, None], values.shape))
    assert bits(bc.decompose(radial).v_rad(r)) == bits(bc.decompose(fsum).v_rad(r))
    # the closed form in t survives: no e^t is taken at |t| = 1e6
    t = np.concatenate([-np.geomspace(1e6, 1e-3, 40), [0.0], np.geomspace(1e-3, 1e6, 40)])
    G = bc.effective_potential(bc.decompose(radial))
    assert bits(G(t)) == bits(bc.effective_potential(bc.decompose(fsum))(t))
    assert bits(G(t)) == bits(prof.effective_1d(t))
    assert radial.support == fsum.support == prof.support
    assert radial.is_radial and fsum.is_radial


def test_eval_fourier_sum_convention():
    spec = bc.fourier_sum([(0, bc.RadialProfile(lambda r: np.ones_like(r)), "cos"),
                           (1, bc.RadialProfile(lambda r: np.ones_like(r)), "cos")])
    # mode (1, c) contributes 2 cos(theta) c(r)
    assert spec.eval_polar(2.0, 0.0) == pytest.approx(3.0)
    assert spec.eval_polar(2.0, np.pi / 2) == pytest.approx(1.0)


def test_eval_tabulated_constant_and_domain():
    r_grid = np.array([0.5, 1.0, 2.0, 4.0])
    th_grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    spec = bc.TabulatedPotential(r_grid=r_grid, theta_grid=th_grid,
                                 values=np.full((4, 16), 3.0))
    assert spec.eval_polar(1.3, 2.0) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        spec.eval_polar(10.0, 0.0)
    spec_sup = bc.TabulatedPotential(r_grid=r_grid, theta_grid=th_grid,
                                     values=np.full((4, 16), 3.0), support=(0.5, 4.0))
    assert spec_sup.eval_polar(10.0, 0.0) == 0.0


def test_tabulated_interpolates_periodically_below_the_first_node():
    # cell-centred theta nodes (k + 1/2) 2pi/8, a single 1 per row
    r_grid = np.array([0.5, 1.0, 2.0])
    th_grid = (np.arange(8) + 0.5) * 2 * np.pi / 8
    values = np.zeros((3, 8))
    values[0, 0] = values[1, 7] = values[2, 3] = 1.0
    spec = bc.TabulatedPotential(r_grid=r_grid, theta_grid=th_grid, values=values,
                                 support=(0.5, 2.0))
    assert spec.eval_polar(1.0, 0.0) == pytest.approx(0.5)
    assert spec.eval_polar(1.0, 2 * np.pi - 1e-12) == pytest.approx(0.5)
    assert bc.radial_part(spec, np.array([0.5, 0.8, 1.0, 1.7])) == pytest.approx(0.125)
    dec = bc.decompose(spec)
    radii = np.array([0.6, 1.0, 1.5])
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    nrad = dec.v_nrad(radii[:, None], theta[None, :])
    assert np.max(np.abs(np.mean(nrad, axis=-1))) < 1e-12


def test_tabulated_shape_mismatch_rejected():
    with pytest.raises(ConfigError):
        bc.TabulatedPotential(r_grid=np.array([1.0, 2.0]),
                              theta_grid=np.linspace(0, 2 * np.pi, 8, endpoint=False),
                              values=np.zeros((3, 8)))


def test_radial_part_kills_zero_mean_cosine():
    spec = bc.fourier_sum([(0, bc.RadialProfile(lambda r: np.ones_like(r)), "cos"),
                           (1, bc.RadialProfile(lambda r: np.ones_like(r)), "cos")])
    assert bc.radial_part(spec, 3.7) == pytest.approx(1.0, abs=1e-14)


def test_radial_part_exact_for_radial():
    prof = bc.gaussian_profile(2.0, 1.3)
    spec = bc.RadialPotential(profile=prof)
    r = 1.234
    assert bc.radial_part(spec, r) == float(prof(np.array([r]))[0])


def test_radial_part_product_potential():
    # V = r e^{-r} (2 + sin theta): angular mean at r=1 is 2/e
    class ProductLike(PotentialSpec):
        label = "relike"

        def eval_polar(self, r, theta):
            r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
            return r * np.exp(-r) * (2.0 + np.sin(theta))

    spec = ProductLike()
    got = bc.radial_part(spec, 1.0, n_theta=64)
    assert got == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
    oracle = quad(lambda th: 1.0 * math.exp(-1.0) * (2.0 + math.sin(th)), 0, 2 * math.pi)[0] / (2 * math.pi)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_decompose_radial_gives_zero_nrad():
    spec = bc.gaussian_well(1.0, 1.0)
    dec = bc.decompose(spec)
    assert dec.is_radial
    r = np.array([0.3, 1.0, 2.5])
    th = np.linspace(0, 2 * np.pi, 9)
    assert np.max(np.abs(dec.v_nrad(r[:, None], th[None, :]))) == 0.0


def test_decompose_pure_cosine_keeps_everything_nonradial():
    class PureCos(PotentialSpec):
        label = "purecos"

        def eval_polar(self, r, theta):
            r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
            return np.cos(theta) / (1.0 + r ** 4)

    spec = PureCos()
    dec = bc.decompose(spec, n_theta=64)
    r = np.array([0.5, 1.0, 3.0])
    assert np.max(np.abs(dec.v_rad(r))) <= 1e-15
    th = np.linspace(0, 2 * np.pi, 7)
    assert dec.v_nrad(r[:, None], th[None, :]) == pytest.approx(
        spec.eval_polar(r[:, None], th[None, :]), abs=1e-14)


def test_decompose_linearity_example():
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                           (1, bc.gaussian_profile(0.5, 1.0), "cos")])
    dec = bc.decompose(spec)
    r = np.array([0.7, 1.4])
    assert dec.v_rad(r) == pytest.approx(np.exp(-r * r), rel=1e-14)
    th = np.array([0.0, 1.0, 2.0])
    expected = np.cos(th)[None, :] * np.exp(-r * r)[:, None]
    assert dec.v_nrad(r[:, None], th[None, :]) == pytest.approx(expected, rel=1e-13)


def test_recompose_and_zero_mean_invariants():
    from boundcount.quadrature import angular_nodes

    rng = np.random.default_rng(42)
    spec = TrigPolyPotential()
    dec = bc.decompose(spec, n_theta=128)
    radii = np.exp(rng.uniform(-2, 2, 64))
    theta, _ = angular_nodes(128)
    recomposed = dec.v_rad(radii)[:, None] + dec.v_nrad(radii[:, None], theta[None, :])
    direct = spec.eval_polar(radii[:, None], theta[None, :])
    assert np.max(np.abs(recomposed - direct)) <= 1e-13
    means = np.mean(dec.v_nrad(radii[:, None], theta[None, :]), axis=-1)
    assert np.max(np.abs(means)) <= 1e-13 * max(1.0, float(np.max(direct)))


def test_effective_potential_flat_window():
    prof = bc.inverse_square_ring(1.0, 1.0, math.e)
    dec = bc.decompose(bc.RadialPotential(profile=prof))
    G = bc.effective_potential(dec)
    assert G(np.array([0.5]))[0] == 1.0
    assert G(np.array([-0.2]))[0] == 0.0
    assert G(np.array([1.2]))[0] == 0.0


def test_effective_potential_gaussian_value():
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    assert G(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_effective_potential_log_profile_closed_form():
    # v_rad = r^-2 (1 + ln^2 r)^-1  ->  G(t) = (1 + t^2)^-1 under substitution
    prof = bc.RadialProfile(lambda r: 1.0 / (r * r * (1.0 + np.log(r) ** 2)))
    dec = bc.decompose(bc.RadialPotential(profile=prof))
    G = bc.effective_potential(dec)
    t = np.linspace(-20, 20, 41)
    assert G(t) == pytest.approx(1.0 / (1.0 + t * t), rel=1e-12)


def test_measure_change_identity():
    # int_a^b V_rad(r) r dr == int_{ln a}^{ln b} G(t) dt
    rng = np.random.default_rng(7)
    prof = bc.gaussian_profile(1.7, 0.9)
    dec = bc.decompose(bc.RadialPotential(profile=prof))
    G = bc.effective_potential(dec)
    for _ in range(6):
        a = float(np.exp(rng.uniform(-2.0, 0.5)))
        b = a * float(np.exp(rng.uniform(0.2, 2.0)))
        lhs = quad(lambda r: float(prof(np.array([r]))[0]) * r, a, b, limit=200)[0]
        rhs = quad(lambda t: float(G(np.array([t]))[0]), math.log(a), math.log(b), limit=200)[0]
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_nonnegativity_validation_catches_bad_fourier_sum():
    bad = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                          (1, bc.gaussian_profile(2.0, 1.0), "cos")])
    with pytest.raises(ConfigError):
        bc.validate_nonnegative(bad)
    good = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                           (1, bc.gaussian_profile(0.4, 1.0), "cos")])
    bc.validate_nonnegative(good)


def test_generic_effective_potential_refuses_unbounded_t():
    prof = bc.RadialProfile(lambda r: 1.0 / (1.0 + r))  # no support, no 1d form
    dec = bc.decompose(bc.RadialPotential(profile=prof))
    G = bc.effective_potential(dec)
    with pytest.raises(DomainError):
        G(np.array([400.0]))


def test_product_potential_roundtrip():
    samples = 1.0 + 0.5 * np.cos(np.linspace(0, 2 * np.pi, 16, endpoint=False))
    spec = bc.ProductPotential(profile=bc.gaussian_profile(1.0, 1.0),
                               angular_samples=samples)
    th = np.array([0.0, 0.9, np.pi])
    vals = spec.eval_polar(np.array([[1.0]]), th[None, :])[0]
    assert vals == pytest.approx(np.exp(-1.0) * (1.0 + 0.5 * np.cos(th)), rel=1e-12)
    dec = bc.decompose(spec)
    assert dec.v_rad(np.array([1.0]))[0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_zero_profile_is_zero_everywhere():
    prof = zero_profile()
    assert np.all(prof(np.array([0.1, 1.0, 10.0])) == 0.0)
