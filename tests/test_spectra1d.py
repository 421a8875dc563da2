"""1D discretization and exact inertia counting."""

import math

import numpy as np
import pytest

import boundcount as bc
from boundcount import spectra1d
from boundcount.errors import NonFiniteError

from helpers import (dense_negative_count, reference_sturm_count, reference_sturm_pass,
                     shooting_negative_count)


# ---------------------------------------------------------------- grids


def test_grid_properties():
    g = bc.Grid1D.symmetric(30.0, 6001)
    assert g.h == pytest.approx(0.01)
    assert g.has_node_at_zero
    assert g.interior.size == 5999
    assert abs(g.interior[g.zero_index]) < 1e-12
    off = bc.Grid1D(0.5, 3.5, 31)
    assert not off.has_node_at_zero
    with pytest.raises(ValueError):
        bc.Grid1D(1.0, 0.0, 10)


# ---------------------------------------------------------------- Sturm counts


def test_negative_count_simple_cases():
    assert bc.tridiagonal_negative_count([-1.0], []) == 1
    assert bc.tridiagonal_negative_count([1.0, 2.0], [0.5]) == 0
    assert bc.tridiagonal_negative_count([], []) == 0


def test_negative_count_rejects_nonfinite_entries():
    with pytest.raises(NonFiniteError):
        bc.tridiagonal_negative_count([1.0, np.nan], [0.5])
    with pytest.raises(NonFiniteError):
        bc.tridiagonal_negative_count([1.0, 2.0], [np.inf])


def test_negative_count_random_vs_dense():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(2, 250))
        diag = rng.normal(0.0, 2.0, n)
        off = rng.normal(0.0, 1.5, n - 1)
        assert bc.tridiagonal_negative_count(diag, off) == dense_negative_count(diag, off)


def test_zero_pivot_retry_is_deterministic():
    # [[1, 2], [2, 4]] has eigenvalues {0, 5}: the second pivot is exactly 0
    c1 = bc.tridiagonal_negative_count([1.0, 4.0], [2.0])
    c2 = bc.tridiagonal_negative_count([1.0, 4.0], [2.0])
    assert c1 == c2 == 0
    assert bc.tridiagonal_negative_count([0.0], []) == 0


def _zero_pivot_row(rng, n, at, offsq):
    """Random diagonal whose pivot at node ``at`` is exactly 0.0."""
    diag = rng.normal(0.0, 2.0, n)
    q = diag[0]
    for i in range(1, at):
        q = diag[i] - offsq[i - 1] / q
    diag[at] = offsq[at - 1] / q
    return diag


@pytest.mark.parametrize("n, cut", [(40, 17), (700, 255), (700, 256), (700, 511), (9, 0), (9, 8)])
def test_kernel_matches_scalar_reference(n, cut, caplog):
    # a batch longer than one node chunk when n = 700, cut on both sides of
    # a chunk boundary, rows forced onto exact zero pivots (before, at and
    # after the cut) and rows whose decoupled node itself is zero
    rng = np.random.default_rng(n + cut)
    offsq = rng.uniform(0.1, 3.0, n - 1)
    rows = [rng.normal(0.0, 2.0, n) for _ in range(5)]
    for at in {1, max(cut - 1, 1), min(cut + 2, n - 1), n - 1}:
        rows.append(_zero_pivot_row(rng, n, at, offsq))
    decoupled_zero = rng.normal(0.0, 2.0, n)
    decoupled_zero[cut] = 0.0
    rows.append(decoupled_zero)
    diags = np.array(rows)
    cut_rows = [0, 2, len(rows) - 2, len(rows) - 1]
    want = [reference_sturm_count(d, offsq, cut=cut if r in cut_rows else None)
            for r, d in enumerate(diags)]
    got = spectra1d._pivot_counts(spectra1d._ExplicitRows(diags), offsq, cut=cut,
                                  cut_rows=cut_rows)
    assert got.tolist() == want
    # only the rows that hit a zero are redone; a zero on the decoupled node is not one
    zeros = [reference_sturm_pass(d, offsq, cut=cut if r in cut_rows else None)[1]
             for r, d in enumerate(diags)]
    assert 0 < sum(zeros) and not zeros[-1]
    retried = [rec.getMessage() for rec in caplog.records if "zero pivots" in rec.getMessage()]
    assert retried == [f"Sturm recurrence hit exact zero pivots in {sum(zeros)} row(s); "
                       "retrying at shift -1e-12"]


def test_kernel_single_rows_match_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 600))
        diag = rng.normal(0.0, 2.0, n)
        off = rng.normal(0.0, 1.5, n - 1)
        assert bc.tridiagonal_negative_count(diag, off) == reference_sturm_count(diag, off * off)


def test_block_counts_split_only_the_cut_row():
    rng = np.random.default_rng(11)
    diags = rng.normal(0.0, 2.0, (4, 300))
    counts = spectra1d.block_negative_counts(diags, 0.8, cut=150)
    offsq = np.full(299, 0.8)
    assert counts.tolist() == [reference_sturm_count(diags[0], offsq, cut=150)] + [
        reference_sturm_count(d, offsq) for d in diags[1:]]


@pytest.mark.parametrize("n", [6000, 6001, 200, 201, 4, 3])
def test_level_grids_share_the_base_spacing(n):
    policy = bc.GridPolicy(t_half=30.0, n=n)
    base = policy.base_grid()
    assert policy.level_grid(0) == base
    for level in range(4):
        grid = policy.level_grid(level)
        assert grid.h == base.h
        assert grid.t_max == 30.0 * 2 ** level
        assert grid.has_node_at_zero


@pytest.mark.parametrize("t_half, n", [(30.0, 6001), (30.0, 6000), (6.0, 121), (8.0, 801),
                                        (2.0, 41), (0.7, 10), (1e-3, 3)])
def test_level_grids_nest_bit_for_bit(t_half, n):
    policy = bc.GridPolicy(t_half=t_half, n=n)
    for level in range(3):
        grid, outer = policy.level_grid(level), policy.level_grid(level + 1)
        # the grid's nodes, ends included, are the middle of the next level's
        k = (outer.n - grid.n) // 2
        assert outer.nodes[k:k + grid.n].tobytes() == grid.nodes.tobytes()
        assert grid.interior[grid.zero_index] == 0.0
        # a node k steps from the centre is k h, within a few ulp of linspace
        linspace = np.linspace(grid.t_min, grid.t_max, grid.n)
        assert np.max(np.abs(grid.nodes - linspace)) <= 8 * np.spacing(grid.t_max)


# ---------------------------------------------------------------- count_M and channels


@pytest.fixture(scope="module")
def window_G():
    return bc.EffectivePotential.from_callable(
        lambda t: ((np.asarray(t) > 0) & (np.asarray(t) < 1)).astype(float))


@pytest.fixture(scope="module")
def default_grid():
    return bc.Grid1D.symmetric(30.0, 6001)


def test_count_M_zero_coupling(window_G, default_grid):
    assert bc.count_M(window_G, 0.0, default_grid) == 0


def test_count_M_well_thresholds(window_G, default_grid):
    # half-line Dirichlet well binds its k-th state above ((2k-1) pi/2)^2
    assert bc.count_M(window_G, 1.0, default_grid) == 0
    assert bc.count_M(window_G, 4.0, default_grid) == 1
    assert bc.count_M(window_G, 25.0, default_grid) == 2


def test_count_M_matches_shooting_oracle(window_G, default_grid):
    for alpha in (1.0, 4.0, 25.0, 60.0):
        G_scaled = bc.EffectivePotential.from_callable(
            lambda t, a=alpha: a * window_G(t))
        assert bc.count_M(window_G, alpha, default_grid) == shooting_negative_count(
            G_scaled, t_max=1.5, steps=8000)


def test_count_M_needs_zero_node(window_G):
    with pytest.raises(ValueError):
        bc.count_M(window_G, 1.0, bc.Grid1D(0.5, 3.5, 31))


def test_count_channel_positivity_cutoff(default_grid):
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    alpha = 50.0
    sup = float(np.max(G(default_grid.interior)))
    m_cut = math.ceil(math.sqrt(alpha * sup))
    assert bc.count_channel(G, alpha, m_cut, default_grid) == 0
    assert bc.count_channel(G, alpha, m_cut + 3, default_grid) == 0
    assert bc.count_channel(G, alpha, 0, default_grid) > 0


def test_count_channel_dense_oracle():
    # disk potential: G(t) = e^{2t} for t < 0
    dec = bc.decompose(bc.disk_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    grid = bc.Grid1D.symmetric(12.0, 1201)
    for alpha, m in ((50.0, 0), (50.0, 3), (120.0, 1)):
        got = bc.count_channel(G, alpha, m, grid)
        t = grid.interior
        diag = 2.0 / grid.h ** 2 + (m * m - alpha * G(t))
        off = np.full(t.size - 1, -1.0 / grid.h ** 2)
        assert got == dense_negative_count(diag, off)


def test_count_channels_batch_matches_single(default_grid):
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    ms = [0, 1, 1, 2, 5]
    batch = bc.count_channels(G, 40.0, ms, default_grid)
    singles = [bc.count_channel(G, 40.0, m, default_grid) for m in ms]
    assert list(batch) == singles


def test_birman_schwinger_identity_random():
    from boundcount.verify import random_bump_potential

    rng = np.random.default_rng(99)
    grid = bc.Grid1D.symmetric(12.0, 1201)
    for _ in range(20):
        G = random_bump_potential(rng)
        alpha = float(np.exp(rng.uniform(np.log(0.5), np.log(60.0))))
        assert bc.birman_schwinger_1d(G, 1.0 / alpha, grid) == bc.count_M(G, alpha, grid)


def test_birman_schwinger_trivial_cases(default_grid):
    zero = bc.EffectivePotential.from_callable(lambda t: np.zeros_like(np.asarray(t, float)))
    assert bc.birman_schwinger_1d(zero, 0.1, default_grid) == 0
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    assert bc.birman_schwinger_1d(G, 1e9, default_grid) == 0


def test_count_M_monotone_in_alpha(window_G, default_grid):
    counts = [bc.count_M(window_G, a, default_grid) for a in np.geomspace(0.5, 200, 12)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_truncation_stability_gaussian():
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    base = bc.Grid1D.symmetric(30.0, 6001)
    doubled = bc.Grid1D.symmetric(60.0, 24001)  # domain doubled and h halved
    for alpha in (10.0, 100.0, 500.0):
        assert abs(bc.count_M(G, alpha, base) - bc.count_M(G, alpha, doubled)) <= 1


def test_certified_count_converges_for_decaying_potential():
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    policy = bc.GridPolicy(t_half=15.0, n=3001, max_doublings=3, agreements=2)
    res = bc.certified_count(lambda g: bc.count_M(G, 80.0, g), policy)
    assert res.converged
    assert res.count == bc.count_M(G, 80.0, policy.base_grid())


def test_certified_count_flags_spreading_states():
    # 1/(1+t^2) keeps binding further out as the domain grows at this coupling
    G = bc.EffectivePotential.from_callable(
        lambda t: 1.0 / (1.0 + np.asarray(t, float) ** 2))
    policy = bc.GridPolicy(t_half=2.0, n=201, max_doublings=2, agreements=2)
    res = bc.certified_count(lambda g: bc.count_M(G, 400.0, g), policy)
    assert not res.converged
    counts = [c for _, _, c in res.levels]
    assert counts[-1] > counts[0]


def test_empirical_bs_bound_running_sup_is_stable():
    """Threshold counts stay below a stable multiple of alpha * ||zhat||.

    n_+(1/alpha, F_G) = N_-(M_alphaG) <= C alpha ||zhat||_{1,inf}: the running
    sup of the ratio over a geometric sweep settles early, so it moves by
    well under 10% across the top decade.
    """
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    grid = bc.Grid1D.symmetric(30.0, 6001)
    zn = bc.weak_quasinorm(bc.zhat(G, J=30), 1.0)
    alphas = np.geomspace(5.0, 2000.0, 24)
    ratios = [bc.birman_schwinger_1d(G, 1.0 / a, grid) / (a * zn) for a in alphas]
    running = np.maximum.accumulate(ratios)
    top = alphas >= alphas[-1] / 10.0
    top_vals = running[top]
    assert (top_vals.max() - top_vals.min()) <= 0.10 * top_vals.max()
