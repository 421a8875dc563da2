"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
and timings.  Every tolerance is pinned here; the sweeps are desk-scale
experiments with certified (or explicitly uncertified, for the borderline
family) truncations.
"""

import math
import time

import numpy as np
import pytest

import boundcount as bc
from boundcount.verify import suite_hardy, suite_sandwich
from helpers import dense_negative_count, shooting_negative_count

SEED = 20260810


def report(criterion, ok, details, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status} ({time.monotonic() - t0:.1f}s): {details}")
    assert ok, f"criterion {criterion}: {details}"


# ---------------------------------------------------------------- shared sweeps


@pytest.fixture(scope="module")
def gaussian_sweep():
    # 16 points per decade over [100, 2000]
    points = math.ceil(16 * math.log10(2000 / 100)) + 1
    spec = bc.gaussian_well(1.0, 1.0)
    return bc.sweep(spec, 100.0, 2000.0, points,
                    policy=bc.GridPolicy(t_half=30.0, n=6001, max_doublings=3, agreements=2),
                    label="gaussian")


@pytest.fixture(scope="module")
def disk_sweep():
    points = math.ceil(16 * math.log10(2000 / 100)) + 1
    spec = bc.disk_well(1.0, 1.0)
    return bc.sweep(spec, 100.0, 2000.0, points,
                    policy=bc.GridPolicy(t_half=30.0, n=6001, max_doublings=3, agreements=2),
                    label="disk")


@pytest.fixture(scope="module")
def nonradial_sweep():
    # V = (1 + cos theta) e^{-r^2}: block systems with channel escalation
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                           (1, bc.gaussian_profile(0.5, 1.0), "cos")])
    return bc.sweep(spec, 100.0, 1000.0, 12,
                    policy=bc.GridPolicy(t_half=8.0, n=1601, max_doublings=1, agreements=1),
                    max_dimension=500000, label="nonradial")


@pytest.fixture(scope="module")
def borderline_sweep():
    # the far tail of this family binds at |t| ~ e^{4 alpha c}; no affordable
    # truncation certifies, so the run is deliberately uncertified (flagged)
    spec = bc.log_borderline(1.0)
    return bc.sweep(spec, 20.0, 200.0, 16,
                    policy=bc.GridPolicy(t_half=240.0, n=48001, max_doublings=0),
                    label="borderline")


# ---------------------------------------------------------------- criteria


def test_criterion_1_sturm_oracle_equivalence():
    """100 random tridiagonals (n <= 400): Sturm count == dense count, exact."""
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 401))
        diag = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
        off = rng.normal(0.0, rng.uniform(0.5, 2.0), n - 1)
        if bc.tridiagonal_negative_count(diag, off) != dense_negative_count(diag, off):
            mismatches += 1
    elapsed = time.monotonic() - t0
    report("1 (Sturm oracle)", mismatches == 0 and elapsed < 30.0,
           f"100 systems, {mismatches} mismatches, {elapsed:.1f}s (budget 30s)", t0)


def test_criterion_2_birman_schwinger_identities():
    """n_+(1/alpha, BS operator) equals the coupled count, exactly, 20+20 cases."""
    t0 = time.monotonic()
    from boundcount.verify import random_bump_potential, random_fourier_spec

    rng = np.random.default_rng(SEED + 1)
    grid1 = bc.Grid1D.symmetric(12.0, 1201)
    bad = []
    for i in range(20):
        G = random_bump_potential(rng)
        alpha = float(np.exp(rng.uniform(np.log(0.5), np.log(60.0))))
        a = bc.birman_schwinger_1d(G, 1.0 / alpha, grid1)
        b = bc.count_M(G, alpha, grid1)
        if a != b:
            bad.append(("1d", i, a, b))
    grid2 = bc.Grid1D.symmetric(6.0, 161)
    for i in range(20):
        spec = random_fourier_spec(rng)
        alpha = float(np.exp(rng.uniform(np.log(1.0), np.log(40.0))))
        a = bc.birman_schwinger_2d(spec, 1.0 / alpha, grid2)
        b = bc.count_tilde(spec, alpha, grid2)
        if a != b:
            bad.append(("2d", i, a, b))
    elapsed = time.monotonic() - t0
    report("2 (Birman-Schwinger identities)", not bad and elapsed < 120.0,
           f"20 1D + 20 2D exact identities, failures={bad}, {elapsed:.1f}s (budget 120s)", t0)


def test_criterion_3_rank_one_sandwich(gaussian_sweep, disk_sweep, nonradial_sweep,
                                        borderline_sweep):
    """tilde <= full <= tilde + 1 on dedicated random runs and on every sweep."""
    t0 = time.monotonic()
    suite = suite_sandwich(seed=SEED + 2, cases=12)
    sweeps_ok = all(
        np.all(s.n_tilde <= s.n2d) and np.all(s.n2d <= s.n_tilde + 1)
        for s in (gaussian_sweep, disk_sweep, nonradial_sweep, borderline_sweep))
    report("3 (rank-one sandwich)", suite.passed and sweeps_ok,
           f"12 random systems + all 4 sweep series ({sum(s.alphas.size for s in (gaussian_sweep, disk_sweep, nonradial_sweep, borderline_sweep))} alpha points)", t0)


def test_criterion_4_radial_channel_consistency():
    """10 radial specs: assembled block count == channel sum, exactly."""
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    grid = bc.Grid1D.symmetric(10.0, 801)
    bad = []
    for i in range(10):
        if i % 2 == 0:
            prof = bc.gaussian_profile(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.6, 1.6)))
        else:
            prof = bc.disk_profile(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.7, 2.0)))
        spec = bc.RadialPotential(profile=prof)
        alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(80.0))))
        sys_ = bc.assemble_full_2d(spec, alpha, grid, max_dimension=10 ** 6)
        full = bc.count_full_2d(sys_)[0]
        chans = bc.count_radial_2d(bc.effective_potential(bc.decompose(spec)), alpha, grid)
        if full != chans:
            bad.append((i, full, chans))
    elapsed = time.monotonic() - t0
    report("4 (radial consistency)", not bad and elapsed < 120.0,
           f"10 specs exact, failures={bad}, {elapsed:.1f}s (budget 120s)", t0)


def test_criterion_5_hardy_suites():
    """50 seeded test functions per class against the sharp discrete bounds.

    The weighted-mass-to-Dirichlet ratio is bounded by the sharp constant of
    the underlying 1D inequality: 4 for the radial log-weight class (the
    often-quoted 1/4 belongs on the other side of that inequality; the
    profile t e^{-t^2} alone already has ratio 4/3) and 1 for the
    zero-angular-mean class, each with the 2% discretization allowance.
    """
    t0 = time.monotonic()
    rep = suite_hardy(seed=SEED + 4, cases=50)
    f0 = [float(line.split("ratio=")[1].split(" ")[0]) for line in rep.lines if "F0" in line]
    f1 = [float(line.split("ratio=")[1].split(" ")[0]) for line in rep.lines if "F1" in line]
    elapsed = time.monotonic() - t0
    report("5 (Hardy suites)", rep.passed and elapsed < 60.0,
           f"F0 max ratio {max(f0):.4f} <= {4.0 * 1.02}, "
           f"F1 max ratio {max(f1):.4f} <= {1.0 * 1.02}, {elapsed:.1f}s (budget 60s)", t0)


def test_criterion_6_weyl_convergence(gaussian_sweep):
    """Gaussian sweep: trailing window of N/alpha within 15% of 1/4 and
    drifting toward it monotonically across three prefix windows."""
    t0 = time.monotonic()
    res = gaussian_sweep
    est = bc.estimate_limits(res.alphas, res.n2d, 1.0, 0.3)
    within = abs(est.midpoint - 0.25) <= 0.15 * 0.25
    # windows over growing prefixes (60%, 80%, 100% of the series); distances
    # to 1/4 must not grow beyond one-count resolution
    dists, slacks = [], []
    for frac in (0.6, 0.8, 1.0):
        k = max(4, int(round(frac * res.alphas.size)))
        e = bc.estimate_limits(res.alphas[:k], res.n2d[:k], 1.0, 0.3)
        dists.append(abs(e.midpoint - 0.25))
        slacks.append(1.0 / res.alphas[max(0, k - e.window_size)])
    monotone = all(dists[i + 1] <= dists[i] + slacks[i + 1] for i in range(2))
    report("6 (Weyl convergence)",
           bool(np.all(res.converged)) and within and monotone,
           f"window mid {est.midpoint:.4f} vs 0.25 (tol 15%), "
           f"drift distances {['%.4f' % d for d in dists]}, all alphas certified", t0)


def test_criterion_7_non_weyl_borderline(borderline_sweep):
    """log_borderline: weak-l1 content present (a), positive 1D margin (b),
    and the two-term structure of the 2D lower limit within 25% (c)."""
    t0 = time.monotonic()
    res = borderline_sweep
    G = bc.effective_potential(bc.decompose(bc.log_borderline(1.0)))
    J = 40
    zh = bc.zhat(G, J=J)
    qn = bc.weak_quasinorm(zh, 1.0)
    upper, lower = bc.delta_functionals(zh, 1.0, window=(1.0 / J, 1.0 / 5.0))
    part_a = np.isfinite(qn) and qn > 0 and lower > 0

    est_m = bc.estimate_limits(res.alphas, res.n_m, 1.0, 0.3)
    part_b = est_m.lower > 0

    rep = bc.check_as2(res)
    excess = rep.limits_2d.lower - res.weyl
    part_c = excess > 0 and rep.rel_lower <= 0.25
    report("7 (non-Weyl borderline)", part_a and part_b and part_c,
           f"(a) quasinorm={qn:.3f}, delta_lower={lower:.3f}>0; "
           f"(b) liminf-est n_m/alpha={est_m.lower:.3f}>0; "
           f"(c) 2D lower {rep.limits_2d.lower:.4f} exceeds weyl {res.weyl:.4f} "
           f"(excess {excess:+.4f}), two-term rel discrepancy {rep.rel_lower:.3f} <= 0.25", t0)


def test_criterion_8_empirical_boundedness(disk_sweep, gaussian_sweep, nonradial_sweep):
    """Empirical C for the counting estimate exists and is stable (<10%)
    over the top decade of swept alpha, for disk, Gaussian, and a non-radial
    spec, all at p = 2."""
    t0 = time.monotonic()
    details = []
    ok = True
    for res in (disk_sweep, gaussian_sweep, nonradial_sweep):
        rep = bc.check_estim(res)
        good = np.isfinite(rep.empirical_c) and rep.empirical_c > 0 and \
            rep.top_decade_variation < 0.10
        ok &= good
        details.append(f"{res.label}: C={rep.empirical_c:.4f} "
                       f"var={rep.top_decade_variation:.3f}")
    report("8 (empirical boundedness)", ok, "; ".join(details) + " (tol 10%)", t0)


def test_criterion_9_half_line_thresholds():
    """count_M for the unit window: 0/1/2 states at alpha = 1/4/25, verified
    against an independent shooting oracle (thresholds ((2k-1) pi/2)^2)."""
    t0 = time.monotonic()
    G = bc.EffectivePotential(
        lambda t: ((np.asarray(t) > 0) & (np.asarray(t) < 1)).astype(float))
    grid = bc.Grid1D.symmetric(30.0, 6001)
    got = {}
    ok = True
    for alpha, expected in ((1.0, 0), (4.0, 1), (25.0, 2)):
        count = bc.count_M(G, alpha, grid)
        # G is supported in (0,1); the solution is affine beyond, so a short
        # integration plus the affine-tail rule is exact
        oracle = shooting_negative_count(
            lambda t, a=alpha: a * G(t), t_max=1.5, steps=8000)
        got[alpha] = (count, oracle)
        ok &= count == expected == oracle
    elapsed = time.monotonic() - t0
    report("9 (half-line thresholds)", ok and elapsed < 10.0,
           f"alpha->(count, oracle): {got}, thresholds ((2k-1)pi/2)^2, "
           f"{elapsed:.1f}s (budget 10s)", t0)
