"""2D block systems: assembly structure, exact counts, Hardy ratios."""

import dataclasses
import math

import numpy as np
import pytest

import boundcount as bc
from boundcount import spectra2d
from boundcount.errors import MatrixSizeError
from boundcount.potentials import PotentialSpec
from boundcount.verify import dense_bs_count, random_fourier_spec
from helpers import (ReferenceSingularPivot, _reference_block_sweep, reference_angular_residual,
                     reference_block_pass, reference_slice_blocks)


def dense_pair(sys_, shift=0.0):
    """(N_-, N_- without the constant channel's t = 0 row) of ``to_dense()``
    by eigvalsh, the second None on a grid without a t = 0 node."""
    A = sys_.to_dense(max_dimension=100000) - shift * np.eye(sys_.dimension)
    full = int(np.sum(np.linalg.eigvalsh(A) < 0))
    if sys_.grid.zero_index is None:
        return full, None
    keep = np.arange(sys_.dimension) != sys_.grid.zero_index * sys_.channel_set.size
    return full, int(np.sum(np.linalg.eigvalsh(A[np.ix_(keep, keep)]) < 0))


class SquaredCosine(PotentialSpec):
    """Generic quadrature path: V = e^{-r^2} (1 + cos theta)^2."""

    label = "squared_cosine"

    def eval_polar(self, r, theta):
        r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
        return np.exp(-r * r) * (1.0 + np.cos(theta)) ** 2


# ---------------------------------------------------------------- fourier modes


def test_fourier_modes_radial_vanish():
    spec = bc.gaussian_well(1.0, 1.0)
    vhat = spec.angular_coefficients(np.array([0.5, 1.0]), 4, 256)
    assert np.all(vhat[:, 1:] == 0.0)
    assert vhat[:, 0].real == pytest.approx(np.exp(-np.array([0.25, 1.0])))


def test_fourier_modes_single_cosine():
    g = bc.gaussian_profile(1.0, 1.0)
    spec = bc.fourier_sum([(1, g, "cos")])  # V = 2 cos(theta) g(r)
    r = np.array([0.8, 1.7])
    vhat = spec.angular_coefficients(r, 3, 256)
    assert vhat[:, 1].real == pytest.approx(g(r))
    assert np.all(vhat[:, [0, 2, 3]] == 0.0)


def test_fourier_modes_squared_cosine_expansion():
    # (1 + cos)^2 = 3/2 + 2 cos + (1/2) cos 2t: modes 3/2 g, g, g/4
    spec = SquaredCosine()
    r = np.array([0.6, 1.1])
    g = np.exp(-r * r)
    vhat = spec.angular_coefficients(r, 3, n_theta=64)
    assert vhat[:, 0].real == pytest.approx(1.5 * g, rel=1e-12)
    assert vhat[:, 1].real == pytest.approx(g, rel=1e-12)
    assert vhat[:, 2].real == pytest.approx(0.25 * g, rel=1e-12)
    assert np.abs(vhat[:, 3]) == pytest.approx(0.0, abs=1e-14)
    assert np.abs(vhat.imag) == pytest.approx(0.0, abs=1e-14)


def test_fourier_modes_aliasing_guard():
    spec = SquaredCosine()
    with pytest.raises(bc.ConfigError):
        spec.angular_coefficients(np.array([1.0]), 10, n_theta=16)


def test_fourier_modes_sin_convention():
    g = bc.gaussian_profile(1.0, 1.0)
    spec = bc.fourier_sum([(0, g, "cos"), (2, bc.gaussian_profile(0.3, 1.0), "sin")])
    r = np.array([1.0])
    vhat = spec.angular_coefficients(r, 2, 256)
    # 2 sin(2 theta) c(r) has Vhat_2 = -i c(r)
    assert vhat[0, 2] == pytest.approx(-1j * 0.3 * math.exp(-1.0))


# ---------------------------------------------------------------- assembly structure


def test_assemble_radial_is_block_diagonal():
    spec = bc.gaussian_well(1.0, 1.0)
    sys_ = bc.assemble_full_2d(spec, 20.0, bc.Grid1D.symmetric(6.0, 121))
    assert sys_.is_block_diagonal
    assert np.all(sys_.pmodes == 0.0) and np.all(sys_.qmodes == 0.0)


def test_assembled_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(21)
    grid = bc.Grid1D.symmetric(5.0, 81)
    for _ in range(3):
        spec = random_fourier_spec(rng)
        sys_ = bc.assemble_full_2d(spec, 9.0, grid)
        A = sys_.to_dense()
        assert np.array_equal(A, A.T)


def test_single_mode_couples_neighbors_only():
    g = bc.gaussian_profile(0.3, 1.0)
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"), (1, g, "cos")])
    grid = bc.Grid1D.symmetric(4.0, 41)
    sys_ = bc.assemble_full_2d(spec, 5.0, grid, channels=3)
    R = sys_.angular_residual()[sys_.chan_diag.shape[1] // 2]
    chans = sys_.channel_set.channels
    # mode-1 potential: only |m - m'| = 1 entries may be nonzero
    for a, (kind_a, m) in enumerate(chans):
        for b, (kind_b, n) in enumerate(chans):
            if abs(m - n) != 1:
                assert R[a, b] == 0.0


def random_trig_spec(rng, k_max):
    """Gaussian well plus random cos/sin modes up to k_max, so the residual
    reads both p_|m-n| and p_{m+n} (and their q counterparts)."""
    modes = [(0, bc.gaussian_profile(1.0, 1.0), "cos")]
    n = int(rng.integers(1, min(k_max, 5) + 1))
    for k in sorted(rng.choice(np.arange(1, k_max + 1), size=n, replace=False)):
        prof = bc.gaussian_profile(float(rng.uniform(0.02, 0.1)), float(rng.uniform(0.6, 1.4)))
        modes.append((int(k), prof, "cos" if rng.random() < 0.5 else "sin"))
    return bc.fourier_sum(modes)


def test_angular_residual_matches_per_pair_reference_bitwise():
    rng = np.random.default_rng(41)
    grid = bc.Grid1D.symmetric(4.0, 31)
    for m_max in range(9):
        for _ in range(2):
            spec = random_trig_spec(rng, max(2 * m_max, 1))
            sys_ = bc.assemble_full_2d(spec, 6.0, grid, channels=m_max, max_dimension=10 ** 6)
            residuals = sys_.angular_residual()
            chans = sys_.channel_set.channels
            for i in range(sys_.chan_diag.shape[1]):
                ref = reference_angular_residual(chans, sys_.pmodes[i], sys_.qmodes[i])
                assert residuals[i].tobytes() == ref.tobytes(), (m_max, i)


def test_potential_form_matches_per_pair_reference():
    rng = np.random.default_rng(43)
    grid = bc.Grid1D.symmetric(5.0, 81)
    t = grid.interior
    for m_max in (0, 1, 3):
        spec = random_trig_spec(rng, 2 * m_max + 1)
        profiles = [("const", 0, lambda t: np.exp(-t * t))]
        for m in range(1, m_max + 1):
            profiles += [("cos", m, lambda t, m=m: t * np.exp(-t * t / m)),
                         ("sin", m, lambda t, m=m: np.exp(-t * t / (m + 1)))]
        chans = bc.ChannelSet(m_max).channels
        vhat = spec.angular_coefficients(np.exp(t), 2 * m_max, 256)
        p = np.where(np.arange(2 * m_max + 1) == 0, 0.0, vhat.real)
        U = np.array([func(t) for _, _, func in profiles])
        total = 0.0
        for i in range(t.size):
            A = reference_angular_residual(chans, p[i], -vhat.imag[i]) \
                + np.eye(len(chans)) * vhat[i, 0].real
            total += math.exp(2.0 * t[i]) * float(U[:, i] @ A @ U[:, i])
        assert bc.potential_form(spec, profiles, grid) == grid.h * total


def test_coupling_blocks_ignore_radial_changes_bitwise():
    g1 = bc.gaussian_profile(1.0, 1.0)
    g2 = bc.gaussian_profile(2.5, 0.8)  # different radial part
    mode1 = bc.gaussian_profile(0.4, 1.0)
    grid = bc.Grid1D.symmetric(5.0, 101)
    sys_a = bc.assemble_full_2d(bc.fourier_sum([(0, g1, "cos"), (1, mode1, "cos")]),
                                7.0, grid, channels=4)
    sys_b = bc.assemble_full_2d(bc.fourier_sum([(0, g2, "cos"), (1, mode1, "cos")]),
                                7.0, grid, channels=4)
    assert np.array_equal(sys_a.pmodes[:, 1:], sys_b.pmodes[:, 1:])
    assert np.array_equal(sys_a.qmodes[:, 1:], sys_b.qmodes[:, 1:])


def test_coupling_blocks_sampled_path_stability():
    # generic quadrature path: adding a radial bump moves couplings by
    # round-off only
    class WithBump(PotentialSpec):
        label = "bumped"

        def __init__(self, bump):
            self.bump = bump

        def eval_polar(self, r, theta):
            r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
            return np.exp(-r * r) * (1.0 + 0.5 * np.cos(theta)) + self.bump * np.exp(-((r - 1) ** 2))

    r = np.array([0.7, 1.3])
    base = WithBump(0.0).angular_coefficients(r, 3, n_theta=64)
    bumped = WithBump(2.0).angular_coefficients(r, 3, n_theta=64)
    assert np.max(np.abs(base[:, 1:] - bumped[:, 1:])) <= 1e-14


def test_dimension_ceiling_enforced():
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                           (1, bc.gaussian_profile(0.4, 1.0), "cos")])
    with pytest.raises(MatrixSizeError):
        bc.assemble_full_2d(spec, 500.0, bc.Grid1D.symmetric(30.0, 6001))
    # radial systems stay block-diagonal and are exempt from the dense ceiling
    sys_ = bc.assemble_full_2d(bc.gaussian_well(1.0, 1.0), 500.0,
                               bc.Grid1D.symmetric(30.0, 6001))
    assert sys_.is_block_diagonal


# ---------------------------------------------------------------- exact counts


def test_count_full_trivial_zero_potential():
    spec = bc.disk_well(0.0, 1.0)
    grid = bc.Grid1D.symmetric(5.0, 101)
    sys_ = bc.assemble_full_2d(spec, 10.0, grid)
    assert bc.count_full_2d(sys_) == (0, 0)
    assert bc.count_tilde(spec, 10.0, grid) == 0


def test_count_radial_trivial_and_weyl_scale():
    dec = bc.decompose(bc.gaussian_well(1.0, 1.0))
    G = bc.effective_potential(dec)
    grid = bc.Grid1D.symmetric(30.0, 6001)
    assert bc.count_radial_2d(G, 0.0, grid) == 0
    assert bc.count_channel(G, 0.0, 0, grid) == 0
    # semiclassical scale: N ~ alpha/4 for the unit Gaussian at alpha = 400
    n = bc.count_radial_2d(G, 400.0, grid)
    assert abs(n - 100.0) <= 15.0


def test_count_full_matches_dense_oracle():
    rng = np.random.default_rng(5)
    grid = bc.Grid1D.symmetric(6.0, 121)
    for _ in range(5):
        spec = random_fourier_spec(rng)
        alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(30.0))))
        sys_ = bc.assemble_full_2d(spec, alpha, grid)
        assert bc.count_full_2d(sys_) == dense_pair(sys_)


def test_count_tilde_matches_dense_oracle():
    rng = np.random.default_rng(6)
    grid = bc.Grid1D.symmetric(6.0, 121)
    for _ in range(4):
        spec = random_fourier_spec(rng)
        alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(30.0))))
        sys_ = bc.assemble_full_2d(spec, alpha, grid)
        assert bc.count_tilde(spec, alpha, grid) == dense_pair(sys_)[1]
    with pytest.raises(ValueError):
        bc.count_tilde(spec, alpha, bc.Grid1D(-6.0, 6.0, 120))


def both_paths(sys_):
    """The system as assembled, and the same system through the block
    Schur sweep whatever its modes."""
    return sys_, dataclasses.replace(sys_, is_block_diagonal=False)


def test_pair_matches_dense_counts_for_every_channel_cutoff():
    rng = np.random.default_rng(19)
    grid = bc.Grid1D.symmetric(4.0, 41)
    for m_max in range(5):
        for _ in range(3):
            spec = random_trig_spec(rng, max(2 * m_max, 1))
            alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(30.0))))
            sys_ = bc.assemble_full_2d(spec, alpha, grid, channels=m_max)
            # m_max 0 keeps no mode above 0: block-diagonal, and through the
            # block sweep the t = 0 slice without its constant channel is empty
            assert sys_.is_block_diagonal == (m_max == 0)
            for path in both_paths(sys_):
                assert bc.count_full_2d(path) == dense_pair(sys_), (m_max, alpha)


def test_pair_of_a_non_radial_spec_with_zero_modes():
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                           (2, bc.gaussian_profile(0.0, 1.0), "sin")])
    grid = bc.Grid1D.symmetric(4.0, 61)
    sys_ = bc.assemble_full_2d(spec, 25.0, grid, channels=3)
    assert not spec.is_radial and sys_.is_block_diagonal
    want = dense_pair(sys_)
    assert want[0] > want[1] > 0
    for path in both_paths(sys_):
        assert bc.count_full_2d(path) == want


def test_pair_on_a_grid_without_a_zero_node():
    grid = bc.Grid1D(-4.0, 4.0, 40)
    assert grid.zero_index is None
    for spec in (bc.gaussian_well(1.0, 1.0), random_trig_spec(np.random.default_rng(23), 4)):
        sys_ = bc.assemble_full_2d(spec, 20.0, grid, channels=2)
        full, tilde = dense_pair(sys_)
        assert full > 0 and tilde is None
        for path in both_paths(sys_):
            assert bc.count_full_2d(path) == (full, None)


def test_block_sweep_retries_an_exactly_singular_pivot_at_the_shift(caplog):
    # slice 0 is diagonal with an exact zero: the first sweep stops there
    grid = bc.Grid1D.symmetric(2.0, 7)
    rng = np.random.default_rng(29)
    chan_diag = rng.uniform(-1.0, 3.0, (3, 5))
    chan_diag[:, 0] = [0.0, 1.5, -0.5]
    pmodes, qmodes = rng.uniform(-0.3, 0.3, (2, 5, 3))
    pmodes[:, 0] = 0.0
    pmodes[0] = qmodes[0] = 0.0
    sys_ = bc.BlockSystem2D(grid=grid, channel_set=bc.ChannelSet(1), alpha=2.0,
                            chan_diag=chan_diag, pmodes=pmodes, qmodes=qmodes,
                            is_block_diagonal=False)
    with caplog.at_level("WARNING", logger="boundcount.spectra2d"):
        got = bc.count_full_2d(sys_)
    assert "retrying with shift" in caplog.text
    assert got == dense_pair(sys_, shift=bc.spectra1d.ZERO_PIVOT_SHIFT)
    # a pivot that the shift itself makes exactly zero persists
    chan_diag[:, 0] = [bc.spectra1d.ZERO_PIVOT_SHIFT, 1.5e3, -0.5]
    with pytest.raises(bc.NumericalError):
        bc.count_full_2d(sys_)


def test_gathered_blocks_match_reference_slices_bytewise():
    rng = np.random.default_rng(47)
    grid = bc.Grid1D.symmetric(4.0, 31)
    zero_mode_slices = 0
    for m_max in range(9):
        for _ in range(2):
            spec = random_trig_spec(rng, max(2 * m_max, 1))
            sys_ = bc.assemble_full_2d(spec, 6.0, grid, channels=m_max, max_dimension=10 ** 6)
            if m_max:
                modes = np.hstack((sys_.pmodes[:, 1:], sys_.qmodes[:, 1:]))
                zero_mode_slices += int(np.sum(np.all(modes == 0.0, axis=1)))
            for path in both_paths(sys_):
                for shift in (0.0, bc.spectra1d.ZERO_PIVOT_SHIFT):
                    got = path.blocks(shift)
                    assert got.tobytes() == reference_slice_blocks(path, shift).tobytes()
    # Gaussian modes underflow far out, so coupled systems have slices without residual
    assert zero_mode_slices > 0
    # any set of slices, in any order, as the block pass asks for them
    sys_ = bc.assemble_full_2d(random_trig_spec(rng, 6), 6.0, bc.Grid1D.symmetric(3.0, 601),
                               channels=3)
    ref = reference_slice_blocks(sys_)
    assert sys_.blocks().tobytes() == ref.tobytes()
    for rows in (rng.permutation(599)[:100], np.array([598, 0, 299]), np.array([], int)):
        assert sys_.blocks(slices=rows).tobytes() == ref[rows].tobytes()


def test_block_pass_matches_reference_and_dense_on_every_grid_shape():
    rng = np.random.default_rng(53)
    grids = (bc.Grid1D.symmetric(4.0, 41),  # t = 0 in the middle: sides of equal length
             bc.Grid1D(-4.0, 4.0, 40),      # no t = 0 node: one side
             bc.Grid1D(-2.0, 5.0, 36),      # the right side longer
             bc.Grid1D(-5.0, 2.0, 36))      # the left side longer
    for grid in grids:
        for _ in range(3):
            spec = random_trig_spec(rng, 4)
            alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(60.0))))
            sys_ = bc.assemble_full_2d(spec, alpha, grid, channels=2)
            assert bc.count_full_2d(sys_) == reference_block_pass(sys_) == dense_pair(sys_)


def tail_lengths(sys_):
    """(slices, free-tail length) of each side of the separator slice: left
    (t < 0, from the first slice), then right (from the last slice)."""
    n_int, zero = sys_.chan_diag.shape[1], sys_.grid.zero_index
    c = n_int - 1 if zero is None else zero
    sides = (np.arange(c), np.arange(n_int - 1, c, -1))
    return [(side.size, spectra2d._free_tail(sys_, side) if side.size else 0) for side in sides]


def ring_spec(r_lo, r_hi):
    """A ring well with a sin mode on a narrower ring: both vanish exactly
    inside r_lo and outside r_hi, so slices there are free."""
    return bc.fourier_sum([(0, bc.ring_profile(1.0, r_lo, r_hi), "cos"),
                           (1, bc.ring_profile(0.4, 1.2 * r_lo, 0.75 * r_hi), "sin")])


def gauss_spec(width):
    return bc.fourier_sum([(0, bc.gaussian_profile(1.0, width), "cos"),
                           (1, bc.gaussian_profile(0.5, width), "cos")])


@pytest.mark.parametrize("spec, grid, want", [
    # the Gaussian underflows far out: a free tail on the right side only
    (gauss_spec(1.0), bc.Grid1D.symmetric(6.0, 61), [(29, 0), (29, 13)]),
    # free inside r_lo and outside r_hi: tails on both sides
    (ring_spec(0.5, 2.0), bc.Grid1D.symmetric(3.0, 41), [(19, 15), (19, 15)]),
    # a wide Gaussian touches every slice: no tail
    (gauss_spec(3.0), bc.Grid1D.symmetric(2.0, 31), [(14, 0), (14, 0)]),
    # free on all of t < 0: the left side is all tail, the right side splits
    (ring_spec(1.2, 2.0), bc.Grid1D.symmetric(3.0, 31), [(14, 14), (14, 11)]),
    # sides of one, two and three slices
    (gauss_spec(3.0), bc.Grid1D.symmetric(2.0, 5), [(1, 0), (1, 0)]),
    (gauss_spec(3.0), bc.Grid1D.symmetric(2.0, 7), [(2, 0), (2, 0)]),
    (gauss_spec(3.0), bc.Grid1D.symmetric(2.0, 9), [(3, 0), (3, 0)]),
    # no t = 0 node: one side, ending at the last slice, with and without a tail
    (ring_spec(0.5, 2.0), bc.Grid1D(-3.0, 3.0, 40), [(37, 14), (0, 0)]),
    (gauss_spec(1.0), bc.Grid1D(-3.0, 5.0, 40), [(37, 0), (0, 0)]),
])
def test_block_pass_matches_reference_and_dense_on_every_tail_shape(spec, grid, want):
    for alpha in (1.0, 30.0, 300.0, 3000.0):
        sys_ = bc.assemble_full_2d(spec, alpha, grid, channels=2)
        assert tail_lengths(sys_) == want
        assert bc.count_full_2d(sys_) == reference_block_pass(sys_) == dense_pair(sys_), alpha


def spy_negatives(monkeypatch):
    """Record, per stack of pivots counted under the guard (eigh's
    eigenvalues, or a free tail's diagonal pivots), its (slice, negatives)."""
    seen = []
    negatives = spectra2d._negatives

    def spy(w, where):
        seen.append([(int(i), int(np.count_nonzero(row < 0))) for i, row in zip(where, w)])
        return negatives(w, where)

    monkeypatch.setattr(spectra2d, "_negatives", spy)
    return seen


def test_block_pass_falls_back_to_eigh_mid_pass(monkeypatch):
    # a deep well inside the unit circle: at large alpha the pivots of the
    # left side's inner chain (from the t = 0 slice outward) are indefinite
    # while its outer chain's and the right side's stay positive
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 0.5), "cos"),
                           (1, bc.gaussian_profile(0.4, 0.5), "cos")])
    grid = bc.Grid1D.symmetric(4.0, 41)
    sys_ = bc.assemble_full_2d(spec, 300.0, grid, channels=3)
    seen = spy_negatives(monkeypatch)
    got = bc.count_full_2d(sys_)
    assert got == reference_block_pass(sys_) == dense_pair(sys_)
    n_int, zero = sys_.chan_diag.shape[1], grid.zero_index
    (_, left_tail), (_, right_tail) = tail_lengths(sys_)
    assert left_tail == 0 < right_tail
    # the right side's free tail first, under the tail guard; the t = 0
    # slice last, whole and without its constant channel
    *steps, meets, full, tilde = seen
    assert steps.pop(0) == [(n_int - 1 - j, 0) for j in range(right_tail)]
    assert full[0][0] == tilde[0][0] == zero
    assert sorted(i for i, _ in meets) == [9, 26]  # the middle slice of each side
    # of the 9 chain steps (the left side splits 9 + 1 + 9) some pass by
    # Cholesky; stacked ones where one chain has negatives and another has
    # none go through eigh
    assert 0 < len(steps) < 9
    assert any(max(k for _, k in step) > 0 and min(k for _, k in step) == 0 for step in steps)


def pivot_system(first, final, end_modes=0.0):
    """A coupled system on five slices whose first and final slices are
    diagonal, with these entries, up to modes of size ``end_modes``: without
    those modes each is a free tail of one slice, with them the first pivot
    of a chain.  The three slices between carry random modes."""
    rng = np.random.default_rng(59)
    chan_diag = rng.uniform(1.0, 3.0, (3, 5))
    chan_diag[:, 0], chan_diag[:, 4] = first, final
    pmodes, qmodes = rng.uniform(-0.3, 0.3, (2, 5, 3))
    pmodes[[0, 4]] = qmodes[[0, 4]] = end_modes
    pmodes[:, 0] = 0.0
    return bc.BlockSystem2D(grid=bc.Grid1D.symmetric(2.0, 7), channel_set=bc.ChannelSet(1),
                            alpha=2.0, chan_diag=chan_diag, pmodes=pmodes, qmodes=qmodes,
                            is_block_diagonal=False)


ILL_CONDITIONED_ENDS = pytest.mark.parametrize("first, final", [
    ([1.0, 3e-13, 2.0], [2.0, 3.0, 4.0]), ([2.0, 3.0, 4.0], [1.0, 3e-13, 2.0])])


def count_without_retry(monkeypatch, caplog, sys_):
    """count_full_2d of ``sys_``, checked to need no retry, and the
    (slice, negatives) of every stack of pivots it counted under the guard."""
    seen = spy_negatives(monkeypatch)
    with caplog.at_level("WARNING", logger="boundcount.spectra2d"):
        got = bc.count_full_2d(sys_)
    assert "retrying" not in caplog.text
    assert got == reference_block_pass(sys_) == dense_pair(sys_)
    return seen


@ILL_CONDITIONED_ENDS
def test_ill_conditioned_positive_pivot_goes_through_eigh(monkeypatch, caplog, first, final):
    # condition number 2 / 3e-13 ~ 7e12 on either side, as the first pivot of
    # a chain: Cholesky factors the first step's stack, but the condition
    # bound leaves it to eigh, whose guard passes it
    sys_ = pivot_system(first, final, end_modes=1e-30)
    assert tail_lengths(sys_) == [(2, 0), (2, 0)]
    np.linalg.cholesky(sys_.blocks()[[0, 4]])
    assert count_without_retry(monkeypatch, caplog, sys_)[0] == [(0, 0), (4, 0)]


@ILL_CONDITIONED_ENDS
def test_ill_conditioned_free_tail_pivot_passes_the_tail_guard(monkeypatch, caplog, first,
                                                              final):
    # the same pivots without modes: each end slice is a free tail of one
    # slice, whose diagonal pivot the tail guard passes
    sys_ = pivot_system(first, final)
    assert tail_lengths(sys_) == [(2, 1), (2, 1)]
    assert count_without_retry(monkeypatch, caplog, sys_)[:2] == [[(0, 0)], [(4, 0)]]


def test_nearly_singular_positive_pivot_still_retries_at_the_shift(caplog):
    # condition number 2 / 1.5e-14 >= 1e14: Cholesky factors it, the guard stops on it
    sys_ = pivot_system([1.0, 1.5e-14, 2.0], [2.0, 3.0, 4.0])
    np.linalg.cholesky(sys_.blocks()[[0, 4]])
    with caplog.at_level("WARNING", logger="boundcount.spectra2d"):
        got = bc.count_full_2d(sys_)
    assert "retrying with shift" in caplog.text
    shift = bc.spectra1d.ZERO_PIVOT_SHIFT
    assert got == reference_block_pass(sys_) == dense_pair(sys_, shift=shift)
    # the shift lifts slice 0 and makes the final slice nearly singular instead
    sys_ = pivot_system([1.0, 1.5e-14, 2.0], [2.0, shift + 1.5e-14, 4.0])
    np.linalg.cholesky(sys_.blocks(shift)[[0, 4]])
    with pytest.raises(bc.NumericalError):
        bc.count_full_2d(sys_)
    with pytest.raises(ReferenceSingularPivot):
        reference_block_pass(sys_)


def test_free_tail_pivot_that_reaches_zero_retries_at_the_shift(caplog):
    # h = 1/2, so e = 1/h^2 = 4, and a free tail of three slices whose
    # constant channel has d = 4: s_1 = 4 and s_2 = 4 - 16 / 4 = 0 exactly,
    # which the third tail pivot would divide by
    rng = np.random.default_rng(67)
    chan_diag = rng.uniform(5.0, 9.0, (3, 7))
    chan_diag[:, :3] = [[4.0], [6.0], [7.0]]
    pmodes, qmodes = rng.uniform(-0.3, 0.3, (2, 7, 3))
    pmodes[:3] = qmodes[:3] = 0.0
    pmodes[:, 0] = 0.0
    sys_ = bc.BlockSystem2D(grid=bc.Grid1D.symmetric(2.0, 9), channel_set=bc.ChannelSet(1),
                            alpha=2.0, chan_diag=chan_diag, pmodes=pmodes, qmodes=qmodes,
                            is_block_diagonal=False)
    assert tail_lengths(sys_) == [(3, 3), (3, 0)]
    with caplog.at_level("WARNING", logger="boundcount.spectra2d"):
        got = bc.count_full_2d(sys_)
    assert "near-singular pivot block at slice 1; retrying with shift" in caplog.text
    # the reference's own first sweep stops there too
    with pytest.raises(ReferenceSingularPivot):
        _reference_block_sweep(sys_, 0.0)
    shift = bc.spectra1d.ZERO_PIVOT_SHIFT
    assert got == reference_block_pass(sys_) == dense_pair(sys_, shift=shift)


def inner_chain_system(left, right):
    """A coupled system on nine slices, each side of four: an outer chain of
    two, the middle slice, and an inner chain of one (slice 3 on the left,
    5 on the right), whose diagonal blocks have these entries."""
    rng = np.random.default_rng(61)
    chan_diag = rng.uniform(1.0, 3.0, (3, 9))
    chan_diag[:, 3], chan_diag[:, 5] = left, right
    pmodes, qmodes = rng.uniform(-0.3, 0.3, (2, 9, 3))
    pmodes[[3, 5]] = qmodes[[3, 5]] = 0.0
    pmodes[:, 0] = 0.0
    return bc.BlockSystem2D(grid=bc.Grid1D.symmetric(2.0, 11), channel_set=bc.ChannelSet(1),
                            alpha=2.0, chan_diag=chan_diag, pmodes=pmodes, qmodes=qmodes,
                            is_block_diagonal=False)


def test_nearly_singular_inner_chain_pivot_retries_at_the_shift(caplog):
    # the first pivot of an inner chain is the plain block of the t = 0
    # slice's neighbour, here nearly singular.  The reference eliminates each
    # side from its outer end, so it never factors that block alone: only
    # the counts can be compared with it
    shift = bc.spectra1d.ZERO_PIVOT_SHIFT
    sys_ = inner_chain_system([1.0, 1.5e-14, 2.0], [2.0, 3.0, 4.0])
    assert tail_lengths(sys_) == [(4, 0), (4, 0)]
    with caplog.at_level("WARNING", logger="boundcount.spectra2d"):
        got = bc.count_full_2d(sys_)
    assert "near-singular pivot block at slice 3; retrying with shift" in caplog.text
    assert got == reference_block_pass(sys_) == dense_pair(sys_, shift=shift)
    # the shift lifts slice 3 and makes the right side's inner pivot singular
    sys_ = inner_chain_system([1.0, 1.5e-14, 2.0], [2.0, shift, 4.0])
    with pytest.raises(bc.NumericalError, match="at slice 5"):
        bc.count_full_2d(sys_)


def test_radial_consistency_exact():
    rng = np.random.default_rng(8)
    grid = bc.Grid1D.symmetric(10.0, 801)
    for _ in range(5):
        prof = bc.gaussian_profile(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.6, 1.5)))
        spec = bc.RadialPotential(profile=prof)
        alpha = float(np.exp(rng.uniform(np.log(2.0), np.log(80.0))))
        sys_ = bc.assemble_full_2d(spec, alpha, grid, max_dimension=10 ** 6)
        assert bc.count_full_2d(sys_)[0] == bc.count_radial_2d(
            prof, alpha, grid, m_max=sys_.channel_set.m_max)


def test_radial_tilde_equals_constrained_channel_sum():
    prof = bc.gaussian_profile(1.0, 1.0)
    spec = bc.RadialPotential(profile=prof)
    grid = bc.Grid1D.symmetric(10.0, 801)
    dec = bc.decompose(spec)
    G = bc.effective_potential(dec)
    for alpha in (10.0, 60.0):
        m_max = bc.radial_cutoff_m_max(G, alpha, grid)
        tilde = bc.count_tilde(spec, alpha, grid, channels=m_max, max_dimension=10 ** 6)
        ms = [m for k in range(1, m_max + 1) for m in (k, k)]
        expected = bc.count_M(G, alpha, grid) + int(np.sum(bc.count_channels(G, alpha, ms, grid)))
        assert tilde == expected


def test_sandwich_rank_one():
    rng = np.random.default_rng(13)
    grid = bc.Grid1D.symmetric(6.0, 161)
    for _ in range(8):
        spec = random_fourier_spec(rng)
        alpha = float(np.exp(rng.uniform(np.log(1.0), np.log(40.0))))
        sys_ = bc.assemble_full_2d(spec, alpha, grid)
        full, tilde = bc.count_full_2d(sys_)
        assert tilde == bc.count_tilde(spec, alpha, grid, channels=sys_.channel_set)
        assert tilde <= full <= tilde + 1


def test_birman_schwinger_2d_identity():
    # against the generalized eigenvalues of (V-mass, constrained stiffness)
    # by dense Cholesky and eigvalsh, on systems of order 394
    rng = np.random.default_rng(17)
    grid = bc.Grid1D.symmetric(4.0, 81)
    counts = []
    for _ in range(8):
        spec = random_fourier_spec(rng)
        eps = 1.0 / float(np.exp(rng.uniform(np.log(1.0), np.log(40.0))))
        counts.append(bc.birman_schwinger_2d(spec, eps, grid, channels=2))
        assert counts[-1] == dense_bs_count(spec, eps, grid, 2)
    assert any(counts)
    assert bc.birman_schwinger_2d(random_fourier_spec(rng), 1e9, grid, channels=2) == 0


def test_channel_escalation_flags_and_grows():
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                           (2, bc.gaussian_profile(0.45, 1.0), "cos")])
    grid = bc.Grid1D.symmetric(6.0, 161)
    (count, m_used, ok), (tilde, m_tilde, ok_tilde) = bc.count_2d_auto(spec, 30.0, grid)
    assert ok and ok_tilde
    assert tilde <= count <= tilde + 1
    # severely under-truncated channel set undercounts
    under = bc.count_full_2d(bc.assemble_full_2d(spec, 30.0, grid, channels=1))
    assert under[0] <= count and under[1] <= tilde


def test_monotone_in_alpha_and_potential():
    spec = bc.fourier_sum([(0, bc.gaussian_profile(1.0, 1.0), "cos"),
                           (1, bc.gaussian_profile(0.3, 1.0), "cos")])
    grid = bc.Grid1D.symmetric(6.0, 161)
    counts = [bc.count_2d_auto(spec, a, grid)[0][0] for a in (5.0, 10.0, 20.0, 40.0)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    bigger = bc.fourier_sum([(0, bc.gaussian_profile(1.3, 1.0), "cos"),
                             (1, bc.gaussian_profile(0.3, 1.0), "cos")])
    assert bc.count_2d_auto(bigger, 20.0, grid)[0][0] >= counts[2]


# ---------------------------------------------------------------- Hardy ratios


def test_hardy_f0_example_value():
    # continuum ratio is 4/3; deleting the t=0 node costs O(h) of weighted
    # mass, so the discrete value sits just below and converges from there
    f = lambda t: t * np.exp(-t * t)
    coarse = bc.hardy_ratio(f, "F0", bc.Grid1D.symmetric(30.0, 6001))
    fine = bc.hardy_ratio(f, "F0", bc.Grid1D.symmetric(30.0, 30001))
    assert coarse == pytest.approx(4.0 / 3.0, rel=0.01)
    assert abs(fine - 4.0 / 3.0) < abs(coarse - 4.0 / 3.0)
    assert fine == pytest.approx(4.0 / 3.0, rel=2e-3)
    assert coarse <= 4.0 * 1.02


def test_hardy_f1_smooth_channel():
    grid = bc.Grid1D.symmetric(30.0, 6001)
    ratio = bc.hardy_ratio([("cos", 1, lambda t: np.exp(-t * t))], "F1", grid)
    assert ratio <= 1.0 * 1.02
    wide = bc.hardy_ratio([("cos", 1, lambda t: np.exp(-(t / 8.0) ** 2))], "F1", grid)
    assert wide == pytest.approx(1.0, rel=0.05)  # spreading out saturates the bound


def test_hardy_scaling_invariance():
    grid = bc.Grid1D.symmetric(20.0, 2001)
    f = lambda t: t * np.exp(-t * t / 9.0)
    r1 = bc.hardy_ratio(f, "F0", grid)
    r2 = bc.hardy_ratio(lambda t: 2.0 * f(t), "F0", grid)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_hardy_errors():
    grid = bc.Grid1D.symmetric(20.0, 2001)
    with pytest.raises(ValueError):
        bc.hardy_ratio(lambda t: np.zeros_like(t), "F0", grid)
    with pytest.raises(ValueError):
        bc.hardy_ratio([("cos", 0, lambda t: np.exp(-t * t))], "F1", grid)
    with pytest.raises(ValueError):
        bc.hardy_ratio(lambda t: t, "F2", grid)


# ---------------------------------------------------------------- quadratic form


def test_qform_radial_cross_term_vanishes():
    spec = bc.gaussian_well(1.0, 1.0)
    grid = bc.Grid1D.symmetric(8.0, 401)
    f0 = lambda t: np.exp(-t * t)
    f1 = [("cos", 1, lambda t: t * np.exp(-t * t))]
    lhs, rhs = bc.qform_check(spec, f0, f1, grid)
    b0 = bc.potential_form(spec, [("const", 0, f0)], grid)
    b1 = bc.potential_form(spec, f1, grid)
    assert lhs == pytest.approx(b0 + b1, rel=1e-12)
    assert lhs <= rhs + 1e-12


def test_qform_f1_zero_reduces_to_f0():
    spec = bc.gaussian_well(1.0, 1.0)
    grid = bc.Grid1D.symmetric(6.0, 201)
    f0 = lambda t: np.exp(-t * t)
    lhs, rhs = bc.qform_check(spec, f0, [], grid)
    b0 = bc.potential_form(spec, [("const", 0, f0)], grid)
    assert lhs == pytest.approx(b0, rel=1e-13)
    assert rhs == pytest.approx(2.0 * b0, rel=1e-13)


def test_qform_inequality_random():
    rng = np.random.default_rng(31)
    grid = bc.Grid1D.symmetric(6.0, 201)
    for _ in range(25):
        spec = random_fourier_spec(rng)
        coeffs = rng.normal(size=4)
        f0 = lambda t, c=coeffs: c[0] * np.exp(-t * t) + c[1] * t * np.exp(-t * t / 4)
        f1 = [("cos", 1, lambda t, c=coeffs: c[2] * np.exp(-t * t / 2)),
              ("sin", 2, lambda t, c=coeffs: c[3] * np.exp(-t * t / 3))]
        lhs, rhs = bc.qform_check(spec, f0, f1, grid)
        assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
