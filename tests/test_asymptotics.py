"""Sweeps, window limit estimates, and the empirical reports."""

import numpy as np
import pytest

import boundcount as bc

from helpers import reference_radial_sweep


@pytest.fixture(scope="module")
def gaussian_sweep():
    spec = bc.gaussian_well(1.0, 1.0)
    policy = bc.GridPolicy(t_half=15.0, n=3001, max_doublings=2, agreements=1)
    return bc.sweep(spec, 20.0, 200.0, 8, policy=policy, label="gauss-test")


def test_estimate_limits_constant_ratio():
    alphas = np.geomspace(10, 1000, 20)
    counts = 0.7 * alphas
    est = bc.estimate_limits(alphas, counts, 1.0, 0.3)
    assert est.upper == pytest.approx(0.7)
    assert est.lower == pytest.approx(0.7)


def test_estimate_limits_rounded_series():
    alphas = np.geomspace(100, 5000, 30)
    counts = np.round(0.37 * alphas)
    est = bc.estimate_limits(alphas, counts, 1.0, 0.3)
    assert est.upper == pytest.approx(0.37, rel=0.01)
    assert est.lower == pytest.approx(0.37, rel=0.01)
    quad = bc.estimate_limits(alphas, np.round(0.05 * alphas ** 2), 2.0, 0.3)
    assert quad.midpoint == pytest.approx(0.05, rel=0.01)


def test_estimate_limits_validation():
    with pytest.raises(ValueError):
        bc.estimate_limits([], [], 1.0)
    with pytest.raises(ValueError):
        bc.estimate_limits([1.0], [1.0], 1.0, window_fraction=0.0)


def test_homogeneity_alpha_potential_product():
    # doubling the amplitude at alpha equals the original at 2 alpha
    grid = bc.Grid1D.symmetric(12.0, 1201)
    single = bc.decompose(bc.disk_well(1.0, 1.0))
    double = bc.decompose(bc.disk_well(2.0, 1.0))
    G1 = bc.effective_potential(single)
    G2 = bc.effective_potential(double)
    for alpha in (7.0, 19.0, 53.0):
        assert bc.count_M(G2, alpha, grid) == bc.count_M(G1, 2.0 * alpha, grid)
        assert bc.count_radial_2d(G2, alpha, grid) == bc.count_radial_2d(G1, 2.0 * alpha, grid)


def test_sweep_zero_potential_all_zero():
    spec = bc.disk_well(0.0, 1.0)
    policy = bc.GridPolicy(t_half=4.0, n=201, max_doublings=1, agreements=1)
    res = bc.sweep(spec, 1.0, 10.0, 4, policy=policy)
    assert np.all(res.n2d == 0) and np.all(res.n_tilde == 0) and np.all(res.n_m == 0)
    rep = bc.check_as2(res)
    assert rep.rel_upper == 0.0 and rep.rel_lower == 0.0
    est = bc.check_estim(res)
    assert est.empirical_c == 0.0


def test_sweep_series_monotone_and_sandwiched(gaussian_sweep):
    res = gaussian_sweep
    assert np.all(np.diff(res.n2d) >= 0)
    assert np.all(np.diff(res.n_m) >= 0)
    assert np.all(res.n_tilde <= res.n2d)
    assert np.all(res.n2d <= res.n_tilde + 1)
    assert np.all(res.converged)


@pytest.mark.parametrize("spec", [bc.gaussian_well(1.0, 1.0), bc.disk_well(1.0, 1.0)],
                         ids=["gaussian", "disk"])
def test_radial_sweep_matches_per_alpha_reference(spec):
    # a short domain makes the certification level depend on alpha
    policy = bc.GridPolicy(t_half=2.0, n=41, max_doublings=3, agreements=2)
    res = bc.sweep(spec, 5.0, 60.0, 12, policy=policy, J=10)
    G = bc.effective_potential(bc.decompose(spec))
    want = reference_radial_sweep(G, res.alphas, policy)
    got = [((int(a), int(b), int(c)), bool(ok))
           for a, b, c, ok in zip(res.n2d, res.n_tilde, res.n_m, res.converged)]
    assert got == [(values, ok) for values, ok, _ in want]
    assert any(ok and levels == 4 for _, ok, levels in want)  # certified on level 3


def test_radial_sweep_without_certification_reports_level_zero():
    spec = bc.gaussian_well(1.0, 1.0)
    policy = bc.GridPolicy(t_half=2.0, n=41, max_doublings=0)
    res = bc.sweep(spec, 5.0, 60.0, 6, policy=policy, J=10)
    G = bc.effective_potential(bc.decompose(spec))
    want = reference_radial_sweep(G, res.alphas, policy)
    assert [(int(a), int(b), int(c)) for a, b, c in zip(res.n2d, res.n_tilde, res.n_m)] == [
        values for values, _, _ in want]
    assert not np.any(res.converged)
    assert all(levels == 1 for _, _, levels in want)


def test_sweep_validation():
    spec = bc.disk_well(1.0, 1.0)
    with pytest.raises(ValueError):
        bc.sweep(spec, 10.0, 1.0, 4)
    with pytest.raises(ValueError):
        bc.sweep(spec, 1.0, 10.0, 3)


# V = e^{-r^2} (1 + cos theta)
COUPLED_SPEC = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                               (1, bc.gaussian_profile(0.5, 1.0), "cos")])
COUPLED_POLICY = bc.GridPolicy(t_half=4.0, n=81, max_doublings=1, agreements=1)


@pytest.fixture(scope="module")
def coupled_sweep():
    return bc.sweep(COUPLED_SPEC, 10.0, 60.0, 4, policy=COUPLED_POLICY, J=10)


def test_sweep_threads_deterministic(coupled_sweep):
    res2 = bc.sweep(COUPLED_SPEC, 10.0, 60.0, 4, policy=COUPLED_POLICY, J=10, threads=2)
    assert np.array_equal(res2.n2d, coupled_sweep.n2d)
    assert np.array_equal(res2.n_tilde, coupled_sweep.n_tilde)
    assert np.array_equal(res2.n_m, coupled_sweep.n_m)
    assert np.array_equal(res2.converged, coupled_sweep.converged)


def test_coupled_sweep_matches_per_alpha_certified_counts(coupled_sweep):
    # with one doubling and one agreement every quantity runs both levels, so
    # certifying each alone gives the joint rule of the sweep
    G = bc.effective_potential(bc.decompose(COUPLED_SPEC))
    for i, alpha in enumerate(coupled_sweep.alphas):
        cutoff_ok = []

        def auto(tilde, alpha=alpha):
            def count(grid):
                n, _, ok = bc.count_2d_auto(COUPLED_SPEC, alpha, grid)[tilde]
                cutoff_ok.append(ok)
                return n
            return count

        full = bc.certified_count(auto(False), COUPLED_POLICY)
        tilde = bc.certified_count(auto(True), COUPLED_POLICY)
        n_m = bc.certified_count(lambda grid: bc.count_M(G, alpha, grid), COUPLED_POLICY)
        assert (coupled_sweep.n2d[i], coupled_sweep.n_tilde[i], coupled_sweep.n_m[i]) == (
            full.count, tilde.count, n_m.count)
        assert coupled_sweep.converged[i] == (
            full.converged and tilde.converged and n_m.converged and all(cutoff_ok))


def test_check_estim_on_gaussian(gaussian_sweep):
    rep = bc.check_estim(gaussian_sweep)
    assert rep.empirical_c > 0
    assert rep.bound_b == pytest.approx(gaussian_sweep.bound_b)
    assert rep.top_decade_variation < 0.5


def test_check_estim_rejects_inconsistent_bound():
    res = bc.SweepResult(alphas=np.array([1.0, 2.0, 4.0, 8.0]),
                         n2d=np.array([2, 3, 5, 9]),
                         n_tilde=np.array([2, 3, 5, 9]),
                         n_m=np.array([0, 0, 0, 0]),
                         converged=np.ones(4, dtype=bool),
                         weyl=0.1, bound_b=0.0, p=2.0)
    with pytest.raises(ValueError):
        bc.check_estim(res)


def test_check_prop_add_finite_support():
    prof = bc.inverse_square_ring(1.0, 1.0, np.e)
    dec = bc.decompose(bc.RadialPotential(profile=prof))
    G = bc.effective_potential(dec)
    grid = bc.Grid1D.symmetric(10.0, 2001)
    alphas = np.geomspace(20.0, 400.0, 10)
    counts = np.array([bc.count_M(G, a, grid) for a in alphas])
    rep = bc.check_prop_add(G, 2.0, (alphas, counts), J=10)
    assert rep.limits_m.upper <= 0.01  # N = O(sqrt(alpha)) dies under alpha^-2
    assert np.isfinite(rep.quasinorm_q)


def test_check_prop_add_heavy_tail_family():
    # zhat_j ~ 2/sqrt(j): in weak-l2 but the weak-l1 estimate diverges with J
    def g(t):
        t = np.asarray(t, dtype=float)
        return 1.0 / ((1.0 + t * t) * np.sqrt(1.0 + np.log1p(np.abs(t))))

    G = bc.EffectivePotential.from_callable(g)
    z20 = bc.zhat(G, J=20).values
    z40 = bc.zhat(G, J=40).values
    assert bc.weak_quasinorm(z40, 2.0) == pytest.approx(bc.weak_quasinorm(z20, 2.0), rel=0.05)
    assert bc.weak_quasinorm(z40, 1.0) > 1.3 * bc.weak_quasinorm(z20, 1.0)
    grid = bc.Grid1D.symmetric(30.0, 3001)
    alphas = np.geomspace(10.0, 100.0, 6)
    counts = np.array([bc.count_M(G, a, grid) for a in alphas])
    rep = bc.check_prop_add(G, 2.0, (alphas, counts))
    assert rep.limits_m.lower > 0
    assert np.isfinite(rep.limits_m.upper)
    with pytest.raises(ValueError):
        bc.check_prop_add(G, 1.0, (alphas, counts))


def test_csv_round_trip(tmp_path, gaussian_sweep):
    path = tmp_path / "sweep.csv"
    bc.write_sweep_csv(gaussian_sweep, path)
    back = bc.read_sweep_csv(path)
    assert np.array_equal(back.n2d, gaussian_sweep.n2d)
    assert np.array_equal(back.n_tilde, gaussian_sweep.n_tilde)
    assert np.array_equal(back.n_m, gaussian_sweep.n_m)
    assert np.array_equal(back.converged, gaussian_sweep.converged)
    assert back.alphas == pytest.approx(gaussian_sweep.alphas)
    assert back.weyl == pytest.approx(gaussian_sweep.weyl)
    assert back.bound_b == pytest.approx(gaussian_sweep.bound_b)
    assert back.label == "gauss-test"


def test_plot_files(tmp_path, gaussian_sweep):
    written = bc.write_plot_files(gaussian_sweep, tmp_path / "plots")
    assert len(written) == 4
    data = np.loadtxt(written[0])
    assert data.shape == (gaussian_sweep.alphas.size, 2)
    assert data[:, 1] == pytest.approx(gaussian_sweep.n2d / gaussian_sweep.alphas)


def test_check_as2_gaussian_structure(gaussian_sweep):
    rep = bc.check_as2(gaussian_sweep)
    assert rep.weyl == pytest.approx(0.25, rel=1e-6)
    # fast-decaying radial potential: the 1D margin dies and the 2D ratio
    # tracks the Weyl coefficient already at desk alphas
    assert rep.limits_m.upper <= 0.05
    assert abs(rep.limits_2d.midpoint - rep.weyl) <= 0.15 * rep.weyl
    assert rep.rel_upper < 0.5 and rep.rel_lower < 0.5
    d = rep.to_dict()
    assert set(d) == {"weyl", "n2d_over_alpha", "n_m_over_alpha",
                      "rel_discrepancy_upper", "rel_discrepancy_lower"}
