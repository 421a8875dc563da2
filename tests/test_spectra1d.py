"""1D discretization and exact inertia counting."""

import math

import numpy as np
import pytest

import boundcount as bc
from boundcount import spectra1d
from boundcount.errors import NonFiniteError

from helpers import (dense_negative_count, reference_radial_values, reference_sturm_count,
                     reference_sturm_pass, shooting_negative_count)


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
    for n in [1, 2, 3, 4, 5, 6, 7] + [int(k) for k in rng.integers(8, 300, 23)]:
        diag = rng.normal(0.0, 2.0, n)
        off = rng.normal(0.0, 1.5, n - 1)
        assert bc.tridiagonal_negative_count(diag, off) == dense_negative_count(diag, off)


def _dense_counts(diag, offsq, centre):
    """(N_-, N_- with node ``centre`` deleted) of one tridiagonal by eigvalsh."""
    off = np.sqrt(offsq)
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    keep = np.arange(len(diag)) != centre
    return (int(np.sum(np.linalg.eigvalsh(A) < 0)),
            int(np.sum(np.linalg.eigvalsh(A[np.ix_(keep, keep)]) < 0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 50, 51, 255, 256, 257, 299, 300])
def test_split_kernel_matches_eigvalsh(n):
    # per-node offdiagonals (the right half reads them reversed), the middle
    # centre and off-middle ones, whose halves differ in length
    rng = np.random.default_rng(n)
    diags = rng.normal(0.0, 2.0, (4, n))
    offsq = rng.uniform(0.1, 3.0, n - 1)
    for centre in sorted({n // 2, 0, n - 1, int(rng.integers(n))}):
        full, halves = spectra1d._pivot_counts(spectra1d._ExplicitRows(diags), offsq,
                                               None if centre == n // 2 else centre)
        want = [_dense_counts(d, offsq, centre) for d in diags]
        assert list(zip(full.tolist(), halves.tolist())) == want, centre


@pytest.mark.parametrize("grid", [bc.Grid1D(-4.0, 4.0, 40), bc.Grid1D(0.5, 3.5, 31),
                                  bc.Grid1D(-3.0, 5.0, 700), bc.Grid1D(-2.5, 1.0, 4)])
def test_channel_counts_on_grids_without_a_zero_node(grid):
    # the kernel cuts at the middle interior node; with an even interior count
    # the halves differ in length
    assert grid.zero_index is None
    G = bc.effective_potential(bc.decompose(bc.gaussian_well(1.0, 1.0)))
    t = grid.interior
    off = np.full(t.size - 1, -1.0 / grid.h ** 2)
    for alpha, m in ((30.0, 0), (30.0, 2), (200.0, 1)):
        diag = 2.0 / grid.h ** 2 + (m * m - alpha * G(t))
        assert bc.count_channel(G, alpha, m, grid) == dense_negative_count(diag, off)


def test_zero_pivot_retry_is_deterministic():
    # [[1, 2], [2, 4]] has eigenvalues {0, 5}: the centre pivot is exactly 0
    c1 = bc.tridiagonal_negative_count([1.0, 4.0], [2.0])
    c2 = bc.tridiagonal_negative_count([1.0, 4.0], [2.0])
    assert c1 == c2 == 0
    assert bc.tridiagonal_negative_count([0.0], []) == 0


def _end_pivot(diag, offsq, nodes):
    """Pivot of the last of ``nodes`` when the recurrence runs along them from
    a Dirichlet end."""
    q = prev = None
    for i in nodes:
        q = diag[i] if q is None else diag[i] - offsq[min(i, prev)] / q
        prev = i
    return q


def _zero_pivot_row(rng, n, at, offsq, centre):
    """Random diagonal whose pivot at node ``at`` is exactly 0.0 in the split
    order cut at ``centre``: on the left half (``at`` < centre), on the right
    half (``at`` > centre) or at the centre itself."""
    while True:
        diag = rng.normal(0.0, 2.0, n)
        if at < centre:
            diag[at] = offsq[at - 1] / _end_pivot(diag, offsq, range(at))
            return diag
        if at > centre:
            diag[at] = offsq[at] / _end_pivot(diag, offsq, range(n - 1, at, -1))
            return diag
        # the centre: (d_c - left) - right must round to exactly 0
        left = offsq[at - 1] / _end_pivot(diag, offsq, range(at)) if at > 0 else 0.0
        right = (offsq[at] / _end_pivot(diag, offsq, range(n - 1, at, -1))
                 if at < n - 1 else 0.0)
        d = left + right
        for _ in range(4):
            if (d - left) - right == 0.0:
                diag[at] = d
                return diag
            d = np.nextafter(d, np.inf if (d - left) - right < 0 else -np.inf)


@pytest.mark.parametrize("n, cut", [(40, 17), (700, 255), (700, 256), (700, 511), (9, 0), (9, 8)])
def test_kernel_matches_scalar_reference(n, cut, caplog, monkeypatch):
    # rows cut at ``cut``: halves longer than one step chunk when n = 700,
    # halves of different lengths (padding across a chunk boundary at 511, an
    # empty half at 0 and 8), and rows forced onto exact zero pivots on the
    # left half, on the right half and at the centre
    rng = np.random.default_rng(n + cut)
    offsq = rng.uniform(0.1, 3.0, n - 1)
    rows = [rng.normal(0.0, 2.0, n) for _ in range(5)]
    at_nodes = sorted({1, max(cut - 1, 1), min(cut + 2, n - 1), n - 2, cut} - {0})
    for at in at_nodes:
        rows.append(_zero_pivot_row(rng, n, at, offsq, cut))
    diags = np.array(rows)
    passes = []
    real_pass = spectra1d._pivot_pass

    def spy(source, rows, *args):
        passes.append(rows.tolist())
        return real_pass(source, rows, *args)

    monkeypatch.setattr(spectra1d, "_pivot_pass", spy)
    full, halves = spectra1d._pivot_counts(spectra1d._ExplicitRows(diags), offsq, cut)
    want = [reference_sturm_count(d, offsq, centre=cut) for d in diags]
    assert list(zip(full.tolist(), halves.tolist())) == want
    # only the rows that hit a zero are redone, after one log line
    zeros = [r for r, d in enumerate(diags)
             if any(reference_sturm_pass(d, offsq, centre=cut)[2:4])]
    assert zeros == list(range(5, len(rows)))
    assert passes == [list(range(len(rows))), zeros]
    retried = [rec.getMessage() for rec in caplog.records if "zero pivots" in rec.getMessage()]
    assert retried == [f"Sturm recurrence hit exact zero pivots in {len(zeros)} row(s); "
                       "retrying at shift -1e-12"]


def test_a_zero_at_the_centre_keeps_the_deleted_count(caplog):
    # the left half is node 0 alone, with eigenvalue -1e-13: negative at
    # shift 0 and not at the retry shift -1e-12; node 1, the centre, closes
    # the row on an exact zero pivot
    offsq = np.array([0.7])
    diag = np.array([-1e-13, offsq[0] / -1e-13])
    full, halves = spectra1d._pivot_counts(spectra1d._ExplicitRows(diag[None, :]), offsq)
    assert "zero pivots in 1 row(s)" in caplog.text
    _, _, zero_halves, zero_centre, _ = reference_sturm_pass(diag, offsq)
    assert zero_centre and not zero_halves
    assert (int(full[0]), int(halves[0])) == reference_sturm_count(diag, offsq) == (1, 1)
    assert reference_sturm_pass(diag, offsq, -1e-12)[1] == 0


def test_kernel_single_rows_match_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 600))
        diag = rng.normal(0.0, 2.0, n)
        off = rng.normal(0.0, 1.5, n - 1)
        assert bc.tridiagonal_negative_count(diag, off) == reference_sturm_count(diag, off * off)[0]


def test_block_counts_give_both_counts_of_every_row():
    # rows sharing one scalar offdiagonal, as the 2D block pass's free tails
    # do, cut in the middle, unevenly (the shorter half starts with padding)
    # and at an end (cut 0 or 299: one half empty, all padding); each half's
    # last pivot is the scalar recurrence's, bit for bit
    rng = np.random.default_rng(11)
    diags = rng.normal(0.0, 2.0, (4, 300))
    source = spectra1d._ExplicitRows(diags)
    offsq = np.full(299, 0.8)
    for cut in (150, 40, 260, 0, 299):
        full, halves = spectra1d._pivot_counts(source, 0.8, cut)
        assert list(zip(full.tolist(), halves.tolist())) == [
            reference_sturm_count(d, offsq, centre=cut) for d in diags]
        *_, last = spectra1d._pivot_pass(source, np.arange(4), 0.8, cut, 0.0)
        want = np.array([reference_sturm_pass(d, offsq, centre=cut)[4] for d in diags])
        assert last.tobytes() == want.T.ravel().tobytes(), cut


@pytest.mark.parametrize("t_min, t_max, n", [(-1e308, 1e308, 5), (-1e200, 1e200, 41),
                                            (0.0, 1e-320, 5), (-1e-160, 1e-160, 3)])
def test_a_grid_needs_a_finite_nonzero_kinetic_entry(t_min, t_max, n):
    # 1/h^2 overflows, or h^2 does, or h^2 underflows to 0
    with pytest.raises(ValueError, match="grid spacing h = .* is out of range"):
        bc.Grid1D(t_min, t_max, n)
    with pytest.raises(ValueError, match="grid spacing h = .* is out of range"):
        bc.GridPolicy(t_half=t_max, n=n)
    assert bc.Grid1D(-1e150, 1e150, 5).h == 5e149


def test_grids_past_the_node_ceiling_are_rejected():
    # nothing is sampled at construction, so a grid at the ceiling costs nothing
    top = spectra1d.MAX_NODES
    assert bc.Grid1D(-1.0, 1.0, top).n == top
    with pytest.raises(ValueError, match="grid needs 3 to 10000000 nodes"):
        bc.Grid1D(-1.0, 1.0, top + 1)
    # (6000 << 10) + 1 nodes on level 10 fit, (6000 << 11) + 1 on level 11 do not
    assert bc.GridPolicy(t_half=30.0, n=6001, max_doublings=10).level_grid(10).n <= top
    for n, doublings in ((6001, 11), (3, 23), (3, 24), (3, 10 ** 30)):
        with pytest.raises(ValueError, match=f"^domain-doubling level {doublings} of a "
                                             f"{n}-node base grid exceeds the ceiling"):
            bc.GridPolicy(t_half=30.0, n=n, max_doublings=doublings)


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
    return bc.EffectivePotential(
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
        G_scaled = bc.EffectivePotential(lambda t, a=alpha: a * window_G(t))
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


@pytest.mark.parametrize("spec", [bc.gaussian_well(1.0, 1.0), bc.disk_well(1.0, 1.0),
                                  bc.log_borderline(1.0)], ids=["gaussian", "disk", "log"])
def test_radial_counts_match_the_reference_on_every_level(spec):
    # N_-(M) and N_-(H~) come from the halves of the m = 0 row, not a row of their own
    G = bc.effective_potential(bc.decompose(spec))
    policy = bc.GridPolicy(t_half=4.0, n=401, max_doublings=2)
    alphas = [0.5, 7.0, 40.0, 200.0]
    for level in range(policy.max_doublings + 1):
        grid = policy.level_grid(level)
        got = spectra1d.radial_counts(G(grid.interior), alphas, grid)
        assert got.tolist() == [list(reference_radial_values(G, a, grid)) for a in alphas]


def test_birman_schwinger_identity_random():
    from boundcount.verify import random_bump_potential

    rng = np.random.default_rng(99)
    grid = bc.Grid1D.symmetric(12.0, 1201)
    for _ in range(20):
        G = random_bump_potential(rng)
        alpha = float(np.exp(rng.uniform(np.log(0.5), np.log(60.0))))
        assert bc.birman_schwinger_1d(G, 1.0 / alpha, grid) == bc.count_M(G, alpha, grid)


def test_birman_schwinger_trivial_cases(default_grid):
    zero = bc.EffectivePotential(lambda t: np.zeros_like(np.asarray(t, float)))
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
    G = bc.EffectivePotential(lambda t: 1.0 / (1.0 + np.asarray(t, float) ** 2))
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
