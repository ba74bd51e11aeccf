import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusflow as tf
from torusflow import transport as tr
from torusflow.config import build_profile, parse_config, parse_config_dict
from torusflow.grid import minimal_image

from conftest import (
    cosine_density,
    exact_w2_permutation,
    lp_w2_sq,
    mode_amplitude,
    random_smooth_density,
    reference_circle_w2_sq,
    reference_jko_step,
    same_bits,
)


def atom_density(grid, cells, weights=None):
    """Near-atomic density supported on the given cells."""
    vals = np.full(grid.shape, 0.0)
    n_atoms = len(cells)
    weights = weights or [1.0 / n_atoms] * n_atoms
    for c, w in zip(cells, weights):
        vals[c] += w / grid.cell_volume
    return tf.normalize(tf.Density(grid, vals))


class TestCostMatrix:
    def test_two_cells(self):
        g = tf.make_grid(1, 2)
        c = tf.cost_matrix(g)
        np.testing.assert_allclose(c, [[0.0, 0.25], [0.25, 0.0]])

    def test_diagonal_zero_and_symmetry(self):
        g = tf.make_grid(2, 4)
        c = tf.cost_matrix(g)
        np.testing.assert_allclose(np.diag(c), 0.0)
        np.testing.assert_allclose(c, c.T)
        assert np.max(c) <= g.dim / 4 + 1e-15

    def test_neighbor_entry(self):
        g = tf.make_grid(1, 4)
        c = tf.cost_matrix(g)
        assert c[0, 1] == pytest.approx(0.0625)

    def test_read_only_and_shared(self):
        g = tf.make_grid(1, 8)
        c = tf.cost_matrix(g)
        assert not c.flags.writeable
        assert tf.cost_matrix(tf.make_grid(1, 8)) is c

    def test_size_guard(self):
        with pytest.raises(ValueError, match="cells"):
            tf.cost_matrix(tf.make_grid(2, 65))


class TestExactPermutation:
    def test_identity(self):
        assert exact_w2_permutation([0.1, 0.4], [0.1, 0.4]) == 0.0

    def test_antipodal_pair(self):
        assert exact_w2_permutation([0.0], [0.5]) == pytest.approx(0.25)

    def test_two_atoms(self):
        got = exact_w2_permutation([0.0, 0.5], [0.25, 0.75])
        assert got == pytest.approx(0.0625)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="8"):
            exact_w2_permutation(list(np.linspace(0, 0.9, 9)), list(np.linspace(0, 0.9, 9)))

    def test_2d_atoms(self):
        xs = [[0.0, 0.0]]
        ys = [[0.5, 0.5]]
        assert exact_w2_permutation(xs, ys) == pytest.approx(0.5)


class TestSinkhorn:
    def test_identical_marginals_entropic_floor(self):
        g = tf.make_grid(1, 64)
        rho = cosine_density(g, 0.4)
        res = tf.sinkhorn_w2(rho, rho, eps=1e-3, tol=1e-10)
        assert 0.0 <= res.w2_sq <= 1e-3 * (1 + np.log(g.cells))
        assert res.w2_sq <= 0.01

    def test_near_dirac_pair(self):
        g = tf.make_grid(1, 4)
        mu = atom_density(g, [0])
        nu = atom_density(g, [1])
        res = tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=1e-12)
        assert res.w2_sq == pytest.approx(0.0625, abs=1e-3)

    def test_symmetry(self):
        g = tf.make_grid(1, 32)
        rng = np.random.default_rng(8)
        mu = tf.normalize(tf.Density(g, 1 + 0.5 * rng.uniform(-1, 1, 32)))
        nu = tf.normalize(tf.Density(g, 1 + 0.5 * rng.uniform(-1, 1, 32)))
        ab = tf.sinkhorn_w2(mu, nu, eps=1e-3, tol=1e-12)
        ba = tf.sinkhorn_w2(nu, mu, eps=1e-3, tol=1e-12)
        assert abs(ab.w2_sq - ba.w2_sq) <= 1e-10

    def test_monotone_toward_exact_as_eps_decreases(self):
        g = tf.make_grid(1, 16)
        mu = atom_density(g, [1, 9])
        nu = atom_density(g, [4, 12])
        exact = exact_w2_permutation(
            [g.axis_centers[1], g.axis_centers[9]], [g.axis_centers[4], g.axis_centers[12]]
        )
        values = [
            tf.sinkhorn_w2(mu, nu, eps=eps, tol=1e-12).w2_sq
            for eps in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(exact, rel=1e-3)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(tf.transport, "_SINKHORN_MAX_ITER", 3)
        g = tf.make_grid(1, 32)
        mu = cosine_density(g, 0.5)
        nu = cosine_density(g, -0.5)
        res = tf.sinkhorn_w2(mu, nu, eps=1e-3, tol=1e-14)
        assert not res.converged
        assert res.plan_marginal_err > 1e-14

    def test_plan_marginals(self):
        g = tf.make_grid(1, 24)
        mu = cosine_density(g, 0.3)
        nu = cosine_density(g, -0.4)
        res = tf.sinkhorn_w2(mu, nu, eps=5e-4, tol=1e-11, return_plan=True)
        a = mu.values * g.cell_volume
        b = nu.values * g.cell_volume
        np.testing.assert_allclose(res.plan.sum(axis=1), a, atol=1e-9)
        np.testing.assert_allclose(res.plan.sum(axis=0), b, atol=1e-9)

    def test_unnormalized_rejected(self):
        g = tf.make_grid(1, 8)
        rho = cosine_density(g, 0.2)
        bad = tf.Density(g, rho.values * 2)
        with pytest.raises(ValueError, match="normalized"):
            tf.sinkhorn_w2(rho, bad, eps=1e-3)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, np.nan])
    def test_tol_outside_the_unit_interval_rejected(self, tol):
        # At tol = 1 every cell of a uniform density is at the mass floor.
        g = tf.make_grid(1, 4)
        rho = tf.Density(g, np.ones(4))
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            tf.sinkhorn_w2(rho, rho, eps=1e-2, tol=tol)

    def test_plan_with_empty_cells_is_full_size(self):
        # The solve runs on the supports; the plan is scattered back with
        # exact zeros on the rows and columns of the empty cells.
        g = tf.make_grid(1, 16)
        mu_vals = 1 + 0.5 * np.cos(2 * np.pi * g.axis_centers)
        nu_vals = 1 + 0.5 * np.sin(2 * np.pi * g.axis_centers)
        mu_vals[:4] = 0.0
        nu_vals[8:12] = 0.0
        mu = tf.normalize(tf.Density(g, mu_vals))
        nu = tf.normalize(tf.Density(g, nu_vals))
        tol = 1e-10
        res = tf.sinkhorn_w2(mu, nu, eps=1e-3, tol=tol, return_plan=True)
        assert res.converged
        assert res.plan.shape == (16, 16)
        assert np.all(res.plan[:4, :] == 0.0)
        assert np.all(res.plan[:, 8:12] == 0.0)
        assert np.max(np.abs(res.plan.sum(axis=1) - mu.values * g.cell_volume)) <= tol
        assert np.max(np.abs(res.plan.sum(axis=0) - nu.values * g.cell_volume)) <= tol
        assert res.w2_sq == pytest.approx(float(np.sum(res.plan * tf.cost_matrix(g))))


def two_bumps(n, center_a, center_b, width_a, width_b, weight):
    """Normalized mixture of two periodic Gaussian bumps on the n x n grid."""
    g = tf.make_grid(2, n)
    coords = np.meshgrid(g.axis_centers, g.axis_centers, indexing="ij")

    def bump(center, width):
        r2 = sum(minimal_image(x - x0) ** 2 for x, x0 in zip(coords, center))
        return np.exp(-r2 / (2.0 * width**2))

    vals = weight * bump(center_a, width_a) + (1.0 - weight) * bump(center_b, width_b)
    return vals / (vals.sum() * g.cell_volume)


# Two 16 x 16 pairs whose eps-ladder solves meet subnormal Gibbs entries.
BUMP_PAIRS = [
    (((0.25, 0.5), (0.75, 0.5), 0.08, 0.1, 0.5), ((0.3, 0.55), (0.7, 0.45), 0.08, 0.1, 0.5)),
    (((0.3, 0.3), (0.7, 0.6), 0.1, 0.12, 0.4), ((0.35, 0.25), (0.65, 0.7), 0.1, 0.12, 0.6)),
]


def bump_pair(index, cell_value=None, side=0):
    """Densities of one pair; cell_value, if given, replaces cell (0, 0) of
    mu (side 0) or nu (side 1) before both are normalized."""
    g = tf.make_grid(2, 16)
    pair = [two_bumps(16, *spec) for spec in BUMP_PAIRS[index]]
    if cell_value is not None:
        pair[side][0, 0] = cell_value
    return tuple(tf.normalize(tf.Density(g, values)) for values in pair)


def count_builds(monkeypatch):
    """The eps level of each Gibbs kernel sinkhorn_w2 builds from now on."""
    builds = []
    gibbs = tf.transport._gibbs

    def counted(*args):
        builds.append(args[3])
        return gibbs(*args)

    monkeypatch.setattr("torusflow.transport._gibbs", counted)
    return builds


class TestSinkhornUnderflow:
    @pytest.mark.parametrize("index", [0, 1])
    def test_flushed_kernel_gives_identical_results(self, monkeypatch, index):
        mu, nu = bump_pair(index)
        flushed = tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=1e-9, return_plan=True)
        monkeypatch.setattr(
            "torusflow.transport._gibbs",
            lambda f, g, c, level: np.exp((f[:, None] + g[None, :] - c) / level),
        )
        plain = tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=1e-9, return_plan=True)
        tiny = np.finfo(float).tiny
        assert np.any((plain.plan > 0) & (plain.plan < tiny))
        assert not np.any((flushed.plan > 0) & (flushed.plan < tiny))
        assert flushed.converged
        assert flushed.w2_sq == plain.w2_sq
        assert flushed.iterations == plain.iterations
        assert flushed.plan_marginal_err == plain.plan_marginal_err

    def test_underflow_on_the_first_level_raises(self, monkeypatch):
        # Without the ladder, exp(-c/eps) is 0 between the two supports.
        monkeypatch.setattr("torusflow.transport._eps_schedule", lambda eps, c_max: [eps])
        g = tf.make_grid(2, 4)
        mu, nu = atom_density(g, [(0, 0)]), atom_density(g, [(2, 2)])
        with pytest.raises(
            RuntimeError,
            match=r"sinkhorn kernel row of cell 0 \(mass 1\.000e\+00\) underflows at "
            r"eps level 1\.000e-04",
        ):
            tf.sinkhorn_w2(mu, nu, eps=1e-4)

    @pytest.mark.parametrize("mass", [1e-100, 1e-250, 1e-310])
    def test_near_empty_cell_matches_empty_cell(self, monkeypatch, mass):
        # A cell far below tol / cells is left out of the support, so in
        # either density the solve is the empty cell's, kernel builds included.
        builds = count_builds(monkeypatch)

        def solve(mu, nu):
            builds.clear()
            return tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=1e-9), list(builds)

        for index in (0, 1):
            for side in (0, 1):
                (got, got_builds), (want, want_builds) = (
                    solve(*bump_pair(index, value, side)) for value in (mass, 0.0)
                )
                assert got.converged
                assert got.w2_sq == want.w2_sq
                assert got.iterations == want.iterations
                assert got_builds == want_builds

    @pytest.mark.parametrize("mass", [1e-100, 1e-250])
    def test_near_empty_row_is_reset_before_each_build(self, monkeypatch, mass):
        # The near-empty row of mu's cell (0, 0) never needs a reset: the cell
        # is left out of the support, so each level builds its kernel once,
        # on the same levels as for the zero cell.
        builds = count_builds(monkeypatch)
        want = tf.sinkhorn_w2(*bump_pair(0, 0.0), eps=1e-4, tol=1e-9)
        want_builds = list(builds)
        builds.clear()
        got = tf.sinkhorn_w2(*bump_pair(0, mass), eps=1e-4, tol=1e-9)
        assert got.converged
        assert got.w2_sq == want.w2_sq
        assert builds == want_builds
        assert len(builds) <= 7

    @pytest.mark.parametrize("index, cell", [(0, (3, 5)), (0, (8, 8)), (1, (0, 0)), (1, (12, 4))])
    def test_near_empty_column_matches_empty_cell(self, monkeypatch, index, cell):
        # A near-empty cell of nu, wherever it lies, is left out as a zero
        # cell is: its column is never built, let alone rebuilt on every
        # iteration.
        mu, nu = bump_pair(index)
        values = nu.values.copy()
        values[cell] = 0.0
        want = tf.sinkhorn_w2(mu, tf.normalize(tf.Density(nu.grid, values)), eps=1e-4, tol=1e-9)
        values[cell] = 1e-300
        builds = count_builds(monkeypatch)
        got = tf.sinkhorn_w2(mu, tf.normalize(tf.Density(nu.grid, values)), eps=1e-4, tol=1e-9)
        assert got.converged
        assert got.w2_sq == pytest.approx(want.w2_sq, rel=1e-12)
        assert len(builds) <= 9

    @pytest.mark.parametrize("share, kept", [(0.5, False), (2.0, True)])
    def test_cells_at_the_mass_floor(self, share, kept):
        # The support is the cells with mass above tol / cells; a left-out
        # cell's row of the plan is zero and its mass counts as its error.
        tol = 1e-9
        # Density share * tol on cells of volume 1 / cells: mass share * tol / cells.
        mu, nu = bump_pair(0, share * tol)
        mass = mu.values[0, 0] * mu.grid.cell_volume
        res = tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=tol, return_plan=True)
        assert res.converged
        if kept:
            assert np.any(res.plan[0] > 0.0)
        else:
            assert np.all(res.plan[0] == 0.0)
            assert res.plan_marginal_err >= mass

    @pytest.mark.parametrize("index", [0, 1])
    def test_scaling_bound_absorption_converges(self, monkeypatch, index):
        # The w2_2d pairs never reach _SCALING_BOUND; at 1e10 their scalings
        # are absorbed into the potentials several times per solve.
        builds = count_builds(monkeypatch)
        want = tf.sinkhorn_w2(*bump_pair(index), eps=1e-4, tol=1e-9)
        levels = len(builds)
        builds.clear()
        monkeypatch.setattr(tf.transport, "_SCALING_BOUND", 1e10)
        got = tf.sinkhorn_w2(*bump_pair(index), eps=1e-4, tol=1e-9)
        assert len(builds) > levels
        assert got.converged
        assert got.w2_sq == pytest.approx(want.w2_sq, rel=0, abs=1e-9)

    def test_column_underflow_raises(self, monkeypatch):
        # One level at eps 1e-4 on 4 x 4 cells: the row of cell 0 reaches
        # itself, but the column of cell 10, (2, 2), reaches no row.
        monkeypatch.setattr("torusflow.transport._eps_schedule", lambda eps, c_max: [eps])
        g = tf.make_grid(2, 4)
        mu, nu = atom_density(g, [(0, 0)]), atom_density(g, [(0, 0), (2, 2)])
        with pytest.raises(
            RuntimeError,
            match=r"sinkhorn kernel column of cell 10 \(mass 5\.000e-01\) underflows at "
            r"eps level 1\.000e-04",
        ):
            tf.sinkhorn_w2(mu, nu, eps=1e-4)


def random_pair(n, index):
    """The index-th pair of 2-d random smooth densities drawn from rng 12345."""
    g = tf.make_grid(2, n)
    rng = np.random.default_rng(12345)
    for _ in range(2 * index):
        random_smooth_density(g, rng)
    return random_smooth_density(g, rng), random_smooth_density(g, rng)


class TestOverRelaxedSinkhorn:
    def test_kept_update_gains_dual_value(self):
        # On the block dual <mass, log x> - <x, k>, maximized by plain =
        # mass / k, a returned update gains at least _ASCENT of the plain
        # update's gain; far from plain the over-relaxed one would lose, and
        # the plain update comes back.
        rng = np.random.default_rng(3)
        mass = rng.uniform(0.5, 1.5, 12)
        mass /= mass.sum()

        def dual(x, k):
            return float(mass @ np.log(x) - x @ k)

        kept = replaced = 0
        for spread in (0.01, 0.3, 3.0) * 20:
            k = rng.uniform(0.5, 2.0, 12)
            plain = mass / k
            x = plain * np.exp(rng.normal(0.0, spread, 12))
            got = tf.transport._relaxed(x, plain, mass)
            gain = dual(got, k) - dual(x, k)
            assert gain >= tf.transport._ASCENT * (dual(plain, k) - dual(x, k)) - 1e-15
            if np.array_equal(got, plain):
                replaced += 1
            else:
                np.testing.assert_allclose(got, x * (plain / x) ** tf.transport._OMEGA)
                kept += 1
        assert kept and replaced

    def test_fast_path_bound_matches_omega_and_ascent(self):
        # Per cell, h((1 - omega) s) <= (1 - ascent) h(s) on |s| <= _FAST_LOG
        # and for every s > 0, with h(s) = expm1(s) - s; the bound is tight
        # to within 0.01 below zero.
        tr = tf.transport

        def excess(s):
            h = lambda t: np.expm1(t) - t  # noqa: E731
            return h((1.0 - tr._OMEGA) * s) - (1.0 - tr._ASCENT) * h(s)

        inside = np.linspace(-tr._FAST_LOG, tr._FAST_LOG, 100001)
        assert np.all(excess(inside[inside != 0.0]) < 0.0)
        assert np.all(excess(np.geomspace(1e-6, 50.0, 10001)) < 0.0)
        assert excess(-tr._FAST_LOG - 0.01) > 0.0
        assert tr._FAST_LO == np.exp(-tr._FAST_LOG) and tr._FAST_HI == np.exp(tr._FAST_LOG)

    def test_fast_path_never_keeps_what_the_dual_test_rejects(self, monkeypatch):
        # Blocks whose cells all lie within e^(+-_FAST_LOG) of plain, some
        # exactly at either edge, take the fast path; with it switched off the
        # dual-gain test keeps the same step, bit for bit.
        tr = tf.transport
        rng = np.random.default_rng(19)
        blocks = []
        for size in (1, 7, 256):
            for scale in (1.0, 0.3, 1e-3):
                mass = rng.uniform(0.1, 2.0, size)
                mass /= mass.sum()
                plain = 2.0 ** rng.integers(-40, 40, size).astype(float)
                q = np.exp(scale * rng.uniform(-tr._FAST_LOG, tr._FAST_LOG, size))
                edges = rng.integers(0, 3, size)
                q[edges == 1], q[edges == 2] = tr._FAST_LO, tr._FAST_HI
                blocks.append((plain * q, plain, mass))
            for edge in (tr._FAST_LO, tr._FAST_HI):
                mass = np.full(size, 1.0 / size)
                plain = np.ones(size)
                blocks.append((plain * edge, plain, mass))
        fast = [tr._relaxed(*block) for block in blocks]
        monkeypatch.setattr(tr, "_FAST_LO", np.inf)
        for (x, plain, mass), got in zip(blocks, fast):
            exact = tr._relaxed(x, plain, mass)
            assert not np.array_equal(exact, plain)
            assert same_bits(got, exact)

    def test_fast_path_skips_the_gains(self, monkeypatch):
        # With an unreachable ascent the dual-gain test rejects every step, so
        # a kept one came from the fast path: inside the band, never outside
        # it, and never with a NaN cell.
        tr = tf.transport
        monkeypatch.setattr(tr, "_ASCENT", np.inf)
        mass = np.full(4, 0.25)
        plain = np.ones(4)
        inside = np.array([tr._FAST_LO, 1.0, 1.1, tr._FAST_HI])
        assert not np.array_equal(tr._relaxed(inside, plain, mass), plain)
        for bad in (np.nextafter(tr._FAST_LO, 0.0), np.nextafter(tr._FAST_HI, 2.0), np.nan):
            outside = inside.copy()
            outside[2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert tr._relaxed(outside, plain, mass) is plain

    def test_fast_path_keeps_iteration_counts(self, monkeypatch):
        # The fast path only skips a test that would pass: the w2_2d solves
        # take the same iterations without it and agree to rounding.
        fast = [tf.sinkhorn_w2(*bump_pair(i), eps=1e-4, tol=1e-9) for i in (0, 1)]
        monkeypatch.setattr(tf.transport, "_FAST_LO", np.inf)
        for i, res in enumerate(fast):
            exact = tf.sinkhorn_w2(*bump_pair(i), eps=1e-4, tol=1e-9)
            assert res.iterations == exact.iterations
            assert res.w2_sq == pytest.approx(exact.w2_sq, rel=1e-12)

    @pytest.mark.parametrize(
        "pair, most",
        [
            # w2_2d: 613 and 632 iterations with warm-up levels solved to
            # 1e-7, 369 and 376 at 1e-4.
            (lambda: bump_pair(0), 400),
            (lambda: bump_pair(1), 400),
            # rng 12345, n = 8: 635, 4195 and 669 at 1e-7; 368, 3660 and 406.
            (lambda: random_pair(8, 0), 400),
            (lambda: random_pair(8, 1), 3850),
            (lambda: random_pair(8, 2), 440),
        ],
        ids=["w2_2d-0", "w2_2d-1", "n8-0", "n8-1", "n8-2"],
    )
    def test_iteration_counts(self, pair, most):
        mu, nu = pair()
        res = tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=1e-9)
        assert res.converged
        assert res.iterations <= most

    def test_w2_2d_pairs_iteration_count(self):
        # Plain scaling updates took 6152 + 4698 = 10850 iterations on the
        # two pairs; the values stay within 1.2e-8 of the linear program.
        results = [tf.sinkhorn_w2(*bump_pair(i), eps=1e-4, tol=1e-9) for i in (0, 1)]
        assert all(res.converged for res in results)
        assert sum(res.iterations for res in results) <= 0.3 * 10850
        for i, res in enumerate(results):
            assert res.w2_sq == pytest.approx(lp_w2_sq(*bump_pair(i)), rel=1e-6)

    def test_slow_random_pair_converges(self):
        # Plain updates took 106993 iterations on this pair, against 1300-6600
        # on its neighbours.
        mu, nu = random_pair(8, 1)
        res = tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=1e-9)
        assert res.converged
        assert res.iterations <= 106993 / 10
        assert res.w2_sq == pytest.approx(lp_w2_sq(mu, nu), rel=0.01)

    def test_random_n16_pair_converges(self):
        # Plain updates stopped unconverged at the 200000-iteration cap, so
        # species_w2_sq raised.
        mu, nu = random_pair(16, 0)
        (value,) = tf.species_w2_sq((mu,), (nu,))
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("omega", [1.8, 1.95])
    def test_safeguard_keeps_large_omega_converging(self, monkeypatch, omega):
        monkeypatch.setattr(tf.transport, "_OMEGA", omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = tf.sinkhorn_w2(*bump_pair(0), eps=1e-4, tol=1e-9, return_plan=True)
        assert res.converged
        assert np.all(np.isfinite(res.plan))

    def test_finite_scalings_alone_do_not_converge(self, monkeypatch):
        # Without the dual-gain test, omega 1.8 does not converge on this
        # pair from warm-up levels solved to 1e-7: the 2e-3 level uses up its
        # 5000-iteration budget, and the last level cycles through row errors
        # 2.5e-8, 2.1e-8 and 5.7e-8 up to the 200000-iteration cap, cut to
        # 12000 here.  (From the 1e-4 warm-up levels it happens to converge,
        # in 5551 iterations.)
        monkeypatch.setattr(tf.transport, "_OMEGA", 1.8)
        monkeypatch.setattr(tf.transport, "_ASCENT", -np.inf)
        monkeypatch.setattr(tf.transport, "_WARMUP_TOL", 1e-7)
        monkeypatch.setattr(tf.transport, "_SINKHORN_MAX_ITER", 12000)
        res = tf.sinkhorn_w2(*bump_pair(0), eps=1e-4, tol=1e-9)
        assert res.iterations == 12000
        assert not res.converged
        assert res.plan_marginal_err > 1e-8


class TestSpeciesW2:
    def test_matches_per_species_solves(self):
        # 2-d distances are the per-species Sinkhorn estimates at eps 1e-4.
        g = tf.make_grid(2, 6)
        rho_a = (cosine_density(g, 0.3), cosine_density(g, -0.2))
        rho_b = (cosine_density(g, -0.4), cosine_density(g, 0.1))
        got = tf.species_w2_sq(rho_a, rho_b)
        want = [tf.sinkhorn_w2(a, b, eps=1e-4, tol=1e-9).w2_sq for a, b in zip(rho_a, rho_b)]
        np.testing.assert_array_equal(got, want)

    def test_unconverged_solve_raises(self, unconverged_transport):
        g = tf.make_grid(2, 4)
        rho = (cosine_density(g, 0.3),)
        with pytest.raises(
            RuntimeError,
            match=r"species 0 transport did not converge \(marginal error 1\.000e\+00 "
            r"after 7 iterations, tol 1e-09\)",
        ):
            tf.species_w2_sq(rho, rho)


class TestCircleW2:
    """The exact 1-d branch of species_w2_sq."""

    @staticmethod
    def w2_sq(mu, nu):
        return float(tf.species_w2_sq((mu,), (nu,))[0])

    def test_matches_permutation_oracle(self):
        g = tf.make_grid(1, 16)
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(240):
            cells_a, cells_b = rng.integers(0, 16, size=(2, 6))
            want = exact_w2_permutation(g.axis_centers[cells_a], g.axis_centers[cells_b])
            got = self.w2_sq(atom_density(g, cells_a), atom_density(g, cells_b))
            worst = max(worst, abs(got - want))
        assert worst <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_linear_program(self, seed):
        g = tf.make_grid(1, 24)
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0, 1, size=(2, 24)) ** 2
        vals[:, rng.integers(0, 24, size=6)] = 0.0
        mu, nu = (tf.normalize(tf.Density(g, v)) for v in vals)
        assert self.w2_sq(mu, nu) == pytest.approx(lp_w2_sq(mu, nu), rel=1e-10)

    @pytest.mark.parametrize("i, j", [(0, 15), (15, 0), (1, 14), (3, 11), (2, 7), (5, 5)])
    def test_dirac_pairs(self, i, j):
        # (0, 15), (15, 0) and (1, 14) are nearest through 0; (3, 11) is antipodal.
        g = tf.make_grid(1, 16)
        x = g.axis_centers
        want = float(minimal_image(x[i] - x[j]) ** 2)
        assert self.w2_sq(atom_density(g, [i]), atom_density(g, [j])) == pytest.approx(
            want, rel=0, abs=1e-15
        )

    def test_symmetric_and_zero_on_the_diagonal(self):
        g = tf.make_grid(1, 40)
        rng = np.random.default_rng(5)
        mu = tf.normalize(tf.Density(g, 1 + 0.8 * rng.uniform(-1, 1, 40)))
        nu = tf.normalize(tf.Density(g, rng.uniform(0, 1, 40) ** 4))
        assert self.w2_sq(mu, nu) == pytest.approx(self.w2_sq(nu, mu), rel=0, abs=1e-15)
        assert self.w2_sq(mu, mu) == 0.0
        assert self.w2_sq(nu, nu) == 0.0

    def test_sinkhorn_sits_above_and_approaches(self):
        g = tf.make_grid(1, 32)
        mu = cosine_density(g, 0.5)
        nu = tf.normalize(tf.Density(g, 1 + 0.6 * np.sin(4 * np.pi * g.axis_centers)))
        exact = self.w2_sq(mu, nu)
        entropic = [tf.sinkhorn_w2(mu, nu, eps=eps, tol=1e-11).w2_sq for eps in (1e-3, 1e-4)]
        assert entropic[0] > entropic[1] > exact > 0.0

    def test_sinkhorn_not_called(self, unconverged_transport):
        g = tf.make_grid(1, 16)
        mu, nu = atom_density(g, [2, 9]), atom_density(g, [4, 12])
        want = exact_w2_permutation(g.axis_centers[[2, 9]], g.axis_centers[[4, 12]])
        got = tf.species_w2_sq((mu,), (nu,))
        assert got[0] == pytest.approx(want, rel=0, abs=1e-15)

    def test_input_checks(self):
        g = tf.make_grid(1, 8)
        rho = cosine_density(g, 0.2)
        with pytest.raises(ValueError, match="normalized"):
            self.w2_sq(rho, tf.Density(g, rho.values * 2))
        with pytest.raises(ValueError, match="different grids"):
            self.w2_sq(rho, cosine_density(tf.make_grid(1, 16), 0.2))

    @pytest.mark.parametrize(
        "fake",
        [
            pytest.param(lambda theta, *rest: (0.0, -1.0), id="slope-never-changes-sign"),
            pytest.param(lambda theta, *rest: (np.nan, theta), id="value-not-finite"),
        ],
    )
    def test_failed_optimality_check_raises(self, monkeypatch, fake):
        monkeypatch.setattr(tf.transport, "_shift_cost", fake)
        g = tf.make_grid(1, 8)
        rho = (cosine_density(g, 0.2),)
        with pytest.raises(RuntimeError, match="species 0 transport failed its optimality check"):
            tf.species_w2_sq(rho, rho)


@st.composite
def circle_density(draw, grid):
    """A 1-d density: a few atoms (one, a point mass, at the least) or
    arbitrary values with empty cells."""
    n = grid.shape[0]
    vals = np.zeros(n)
    if draw(st.booleans()):
        for cell in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            vals[cell] += 1.0
    else:
        mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
        vals[:] = draw(st.lists(mass, min_size=n, max_size=n))
        if not vals.any():
            vals[draw(st.integers(0, n - 1))] = 1.0
    return tf.normalize(tf.Density(grid, vals))


@st.composite
def circle_batch(draw):
    """1 to 6 pairs on grids of 2 to 128 cells; a quarter of them identical."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        grid = tf.make_grid(1, draw(st.integers(2, 128)))
        mu = draw(circle_density(grid))
        nu = mu if draw(st.integers(0, 3)) == 0 else draw(circle_density(grid))
        pairs.append((mu, nu))
    return pairs


def two_species_trajectory(seed, times, sparse_state=None):
    """Random 1-d two-species states with empty cells at each record time;
    species 1 of state ``sparse_state`` is the trajectory's only point mass."""
    rng = np.random.default_rng(seed)
    grid = tf.make_grid(1, 32)
    states = []
    for k in range(len(times)):
        state = []
        for i in range(2):
            vals = rng.uniform(0.0, 1.0, 32) ** 3
            vals[rng.integers(0, 32, size=8)] = 0.0
            if (k, i) == (sparse_state, 1):
                vals = np.where(np.arange(32) == 5, 1.0, 0.0)
            state.append(tf.normalize(tf.Density(grid, vals)))
        states.append(tuple(state))
    return tf.Trajectory(grid=grid, h=times[1] - times[0], times=times, states=states)


class TestCircleBatch:
    """One bisection serves every 1-d pair of a species_w2_sq call."""

    @settings(max_examples=150, deadline=None)
    @given(pairs=circle_batch())
    def test_matches_single_pair_search(self, pairs):
        got = tr._circle_w2_sq(pairs)
        assert same_bits(got, [reference_circle_w2_sq(mu, nu) for mu, nu in pairs])

    def test_stability_compare_matches_per_time_loop(self):
        times = np.linspace(0.0, 0.05, 11)
        traj_a = two_species_trajectory(0, times)
        traj_b = two_species_trajectory(1, times, sparse_state=4)
        series = tf.stability_compare(traj_a, traj_b, c_hat=2.0)
        pairs = zip(traj_a.states, traj_b.states)
        sums = np.array([np.sum(tf.species_w2_sq(a, b)) for a, b in pairs])
        assert same_bits(series.w2_sums, sums)
        assert same_bits(series.bounds, np.exp(8.0 * times) * sums[0] * 1.2)

    def test_failed_check_names_species_and_record_time(self, monkeypatch):
        times = np.linspace(0.0, 0.05, 11)
        traj_a = two_species_trajectory(0, times)
        traj_b = two_species_trajectory(1, times, sparse_state=4)
        shift_cost = tr._shift_cost

        def fake(theta, x, cum_a, y, cum_b):
            # Only the pair with the point mass fails.
            value, slope = shift_cost(theta, x, cum_a, y, cum_b)
            return (value, -1.0) if cum_b.size == 6 else (value, slope)

        monkeypatch.setattr(tr, "_shift_cost", fake)
        with pytest.raises(
            tf.transport.TransportCheckError,
            match=r"^species 1 transport failed its optimality check \(.*\) at time 0\.02$",
        ) as failure:
            tf.stability_compare(traj_a, traj_b, c_hat=2.0)
        assert failure.value.pair == 4
        with pytest.raises(RuntimeError, match=r"^species 1 transport failed .*\)$"):
            tf.species_w2_sq(traj_a.states[4], traj_b.states[4])


class TestJkoStep:
    def test_uniform_fixed_point(self):
        g = tf.make_grid(1, 32)
        uniform = tf.normalize(tf.Density(g, np.ones(32)))
        out, res = tf.jko_step(uniform, 1e-3, tf.InternalEnergy.entropy(), None, eps=5e-4)
        assert np.max(np.abs(out.values - 1.0)) <= 1e-10
        assert res.converged

    def test_single_step_heat_oracle(self):
        # Implicit-Euler spectral factor 1/(1 + 4 pi^2 h) at small amplitude.
        g = tf.make_grid(1, 128)
        h = 1e-3
        rho = cosine_density(g, 0.1)
        out, _ = tf.jko_step(rho, h, tf.InternalEnergy.entropy(), None, eps=5e-4, tol=1e-10)
        got = mode_amplitude(out.values)
        expected = 0.1 / (1 + 4 * np.pi**2 * h)
        assert got == pytest.approx(expected, rel=0.10)

    def test_cells_with_zero_prox_centre_stay_empty(self):
        # Zero on half the cells: within the step's scaling iterations the
        # prox centre underflows to 0 far from the support, where a prox
        # solve would reject it; those cells get no mass.
        g = tf.make_grid(1, 128)
        rho = tf.normalize(tf.Density(g, np.r_[np.full(64, 2.0), np.zeros(64)]))
        energy = tf.InternalEnergy.power(2.0)
        with pytest.raises(ValueError, match="prox center s must be positive"):
            reference_jko_step(rho, 1e-3, energy, None, eps=5e-4)
        out, res = tf.jko_step(rho, 1e-3, energy, None, eps=5e-4)
        assert res.converged and res.plan_marginal_err <= 1e-9
        assert np.all(np.isfinite(out.values)) and np.min(out.values) >= 0.0
        assert out.mass() == pytest.approx(1.0, abs=1e-13)
        empty = np.flatnonzero(out.values == 0.0)
        # The middle of the empty half, symmetric about it.
        assert 96 in empty and np.array_equal(empty, 191 - empty[::-1])
        assert np.all(out.values[:64] > 0)

    def test_output_mass_and_positivity(self):
        g = tf.make_grid(1, 64)
        rho = cosine_density(g, 0.9)
        out, _ = tf.jko_step(rho, 2e-3, tf.InternalEnergy.power(2.0), None, eps=5e-4)
        assert out.mass() == pytest.approx(1.0, abs=1e-13)
        assert np.min(out.values) >= 0.0

    def test_translation_equivariance(self):
        g = tf.make_grid(1, 48)
        rho = cosine_density(g, 0.5)
        pot = tf.ScalarField(g, 0.3 + 0.3 * np.cos(2 * np.pi * g.axis_centers))
        shift = 7
        rho_s = tf.Density(g, np.roll(rho.values, shift))
        pot_s = tf.ScalarField(g, np.roll(pot.values, shift))
        out, _ = tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), pot, eps=1e-3, tol=1e-12)
        out_s, _ = tf.jko_step(rho_s, 1e-3, tf.InternalEnergy.entropy(), pot_s, eps=1e-3, tol=1e-12)
        np.testing.assert_allclose(out_s.values, np.roll(out.values, shift), atol=1e-12)

    def test_energy_inequality_slack_vanishes_with_eps(self):
        # The minimizing-movement inequality holds up to a slack that shrinks
        # as the entropic parameter does.
        g = tf.make_grid(1, 64)
        h = 1e-3
        rho = cosine_density(g, 0.5)
        energy = tf.InternalEnergy.entropy()
        pot = tf.ScalarField(g, 0.5 + 0.5 * np.cos(2 * np.pi * g.axis_centers))
        vol = g.cell_volume

        def functional(dens):
            return energy.total(dens.values, vol) + float(
                np.sum(pot.values * dens.values) * vol
            )

        excesses = []
        for eps in (2e-3, 1e-3, 5e-4):
            out, res = tf.jko_step(rho, h, energy, pot, eps=eps, tol=1e-11)
            excess = functional(out) + res.w2_sq / (2 * h) - functional(rho)
            excesses.append(excess)
        assert excesses[0] > excesses[1] > excesses[2]
        assert excesses[2] <= 2e-3 / (4 * h) * 1.2

    def test_plain_variant_biased_debiased_not(self):
        # The symmetric correction removes the entropic blur of the output.
        g = tf.make_grid(1, 128)
        h, eps = 1e-3, 5e-4
        rho = cosine_density(g, 0.5)
        target = mode_amplitude(rho.values) / (1 + 4 * np.pi**2 * h)
        plain, _ = tf.jko_step(rho, h, tf.InternalEnergy.entropy(), None, eps=eps, debias=False)
        debiased, _ = tf.jko_step(rho, h, tf.InternalEnergy.entropy(), None, eps=eps, debias=True)
        err_plain = abs(mode_amplitude(plain.values) - target)
        err_debiased = abs(mode_amplitude(debiased.values) - target)
        assert err_debiased < 0.25 * err_plain

    @pytest.mark.parametrize("dim, rel", [(1, 2e-11), (2, 1e-12)], ids=["1d", "2d"])
    def test_step_matches_dense_sinkhorn_plan(self, dim, rel):
        # Given its two marginals and the kernel, the entropic plan is
        # unique: the step's implicit plan is the dense sinkhorn_w2 plan
        # between its two states at its eps, so its reported cost and
        # marginal error are that plan's.  The Euler-Lagrange checks rely on
        # this.  The step is debiased, as by default.
        if dim == 1:
            g = tf.make_grid(1, 64)
            rho = cosine_density(g, 0.5)
            pot = tf.ScalarField(g, 0.5 + 0.5 * np.cos(2 * np.pi * g.axis_centers))
            energy, eps = tf.InternalEnergy.entropy(), 5e-4
        else:
            g = tf.make_grid(2, 10)
            x, y = g.coordinate_grids()
            rho = tf.normalize(
                tf.Density(g, 1 + 0.4 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y + 0.3))
            )
            pot = tf.ScalarField(g, 0.2 * np.cos(2 * np.pi * (x + 2 * y)))
            energy, eps = tf.InternalEnergy.power(2.0), 4e-3
        out, res = tf.jko_step(rho, 1e-3, energy, pot, eps=eps, tol=1e-12)
        plan = tf.sinkhorn_w2(rho, out, eps=eps, tol=1e-13, return_plan=True).plan
        vol = g.cell_volume
        dense = float(np.sum(plan * tf.cost_matrix(g)))
        assert res.w2_sq == pytest.approx(dense, rel=rel)
        np.testing.assert_allclose(plan.sum(axis=1), rho.values.ravel() * vol, rtol=0, atol=1e-10)
        np.testing.assert_allclose(plan.sum(axis=0), out.values.ravel() * vol, rtol=0, atol=1e-10)
        assert res.plan is None
        assert res.plan_marginal_err <= 1e-10

    def test_2d_step_beyond_dense_cost_cap(self, monkeypatch):
        # 65^2 cells exceed the dense-cost cap; the step never builds that cost.
        def no_dense_cost(grid):
            raise AssertionError("jko_step built the dense cost matrix")

        monkeypatch.setattr(tf.transport, "cost_matrix", no_dense_cost)
        g = tf.make_grid(2, 65)
        assert g.cells > tf.transport._MAX_COST_CELLS
        x, y = g.coordinate_grids()
        rho = tf.normalize(tf.Density(g, 1 + 0.3 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)))
        out, res = tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), None, eps=1e-3)
        assert res.converged
        assert out.mass() == pytest.approx(1.0, abs=1e-12)
        assert res.plan is None

    def test_parameter_validation(self):
        g = tf.make_grid(1, 16)
        rho = cosine_density(g, 0.2)
        with pytest.raises(ValueError):
            tf.jko_step(rho, -1.0, tf.InternalEnergy.entropy(), None, eps=1e-3)
        with pytest.raises(ValueError, match="increase eps"):
            tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), None, eps=1e-8)
        other = tf.ScalarField(tf.make_grid(1, 8), np.ones(8))
        with pytest.raises(ValueError, match="potential grid"):
            tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), other, eps=1e-3)

    def test_unconverged_step_raises(self, monkeypatch):
        monkeypatch.setattr(tf.transport, "_JKO_MAX_ITER", 1)
        rho = cosine_density(tf.make_grid(1, 16), 0.2)
        with pytest.raises(RuntimeError, match="jko_step did not converge within 1 iterations"):
            tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), None, eps=1e-3)


def first_jko_step(name):
    """(rho, h, energy, eps) of the first step of configs/heat.json ("heat")
    or of one species of the pme2d benchmark at seed 0."""
    if name == "heat":
        return cosine_density(tf.make_grid(1, 128), 0.5), 1e-3, tf.InternalEnergy.entropy(), 5e-4
    grid = tf.make_grid(2, 48)
    if name == "pme-bump":
        spec, m = {"profile": "bump", "center": [0.5, 0.5], "width": 0.3}, 2.0
    else:
        spec, m = {"profile": "cosine", "amplitude": 0.4}, 1.5
    return build_profile(grid, spec), 2e-3, tf.InternalEnergy.power(m), 5.0 * grid.dx**2


class TestRelaxedJkoRows:
    """The mixed ``jko_step`` against the plain unmixed loop
    (``reference_jko_step(mixed=False)``)."""

    @pytest.mark.parametrize("name", ["heat", "pme-bump", "pme-cosine"])
    def test_lands_at_least_as_close_to_a_tight_solve(self, name):
        rho, h, energy, eps = first_jko_step(name)
        tight, _, _, _ = reference_jko_step(rho, h, energy, None, eps, tol=1e-13, mixed=False)
        plain, _, _, plain_iterations = reference_jko_step(rho, h, energy, None, eps, mixed=False)
        out, res = tf.jko_step(rho, h, energy, None, eps=eps)
        assert res.iterations <= plain_iterations
        assert np.max(np.abs(out.values - tight)) <= np.max(np.abs(plain - tight))

    @pytest.mark.parametrize("name", ["bump-2d", "entropy-potential-1d"])
    def test_mixed_rows_beat_both_loops(self, name):
        # The mixed step takes fewer iterations than the plain loop and
        # lands closer to a tight solve.
        if name == "bump-2d":
            g = tf.make_grid(2, 24)
            x, y = g.coordinate_grids()
            r2 = (x - 0.5) ** 2 + (y - 0.45) ** 2
            rho = tf.normalize(tf.Density(g, 1 + 0.4 * np.exp(-r2 / 0.18)))
            h, energy, potential, eps = 2e-3, tf.InternalEnergy.power(2.0), None, 5 * g.dx**2
        else:
            g = tf.make_grid(1, 64)
            rho = cosine_density(g, 0.4)
            potential = tf.ScalarField(g, 0.3 * np.sin(2 * np.pi * g.axis_centers))
            h, energy, eps = 1e-3, tf.InternalEnergy.entropy(), 1e-3
        tight, _, _, _ = reference_jko_step(rho, h, energy, potential, eps, tol=1e-13)
        out, res = tf.jko_step(rho, h, energy, potential, eps=eps)
        err = np.max(np.abs(out.values - tight))
        values, _, _, iterations = reference_jko_step(rho, h, energy, potential, eps, mixed=False)
        assert res.iterations < iterations
        assert err < np.max(np.abs(values - tight))


class TestJkoStepMatchesPreChangeLoop:
    """``jko_step`` reproduces the scaling loop written out plainly
    (``reference_jko_step``) bit for bit."""

    def check(self, rho, h, energy, potential, eps, debias=True, **loop):
        out, res = tf.jko_step(rho, h, energy, potential, eps=eps, debias=debias)
        values, w2_sq, err, iterations = reference_jko_step(
            rho, h, energy, potential, eps, debias=debias, **loop
        )
        assert same_bits(out.values, values)
        assert same_bits(res.w2_sq, w2_sq)
        assert same_bits(res.plan_marginal_err, err)
        assert res.iterations == iterations > 1
        return res

    def test_1d_entropy_with_potential(self):
        g = tf.make_grid(1, 48)
        potential = tf.ScalarField(g, 0.3 * np.sin(2 * np.pi * g.axis_centers) + 0.4)
        self.check(cosine_density(g, 0.4), 1e-3, tf.InternalEnergy.entropy(), potential, 1e-3)

    def test_2d_power(self):
        g = tf.make_grid(2, 10)
        x, y = g.coordinate_grids()
        potential = tf.ScalarField(g, 0.2 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
        rho = cosine_density(g, 0.3)
        self.check(rho, 2e-3, tf.InternalEnergy.power(1.5), potential, 5e-3)

    def test_plain_variant(self):
        g = tf.make_grid(1, 32)
        self.check(cosine_density(g, 0.5), 1e-3, tf.InternalEnergy.power(2.0), None, 2e-3, False)

    def test_singular_mixing_system(self, monkeypatch):
        # On step 77 of the porous-medium acceptance run a least-squares
        # system of the mixing is singular: that pass takes the plain update.
        g = tf.make_grid(1, 128)
        rho, energy = cosine_density(g, 0.5), tf.InternalEnergy.power(2.0)
        for _ in range(76):
            rho, _ = tf.jko_step(rho, 1e-3, energy, None, eps=5e-4)
        solve, singular = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        self.check(rho, 1e-3, energy, None, 5e-4)
        assert singular

    def test_half_empty_state_runs_the_plain_loop(self):
        # Its smallest mass is the floor, far below _MIX_MIN_RATIO of the
        # largest, so the step never mixes: it is the plain loop.
        g = tf.make_grid(1, 128)
        rho = tf.normalize(tf.Density(g, np.r_[np.full(64, 2.0), np.zeros(64)]))
        energy = tf.InternalEnergy.power(2.0)
        res = self.check(rho, 1e-3, energy, None, 5e-4, mixed=False, vacuum=True)
        assert res.log_scalings is None

    def test_2d_vacuum_state_runs_the_plain_loop(self):
        # A narrow bump leaves the corners at 6e-37 of the peak: the step
        # does not mix (535 iterations).
        g = tf.make_grid(2, 12)
        rho = build_profile(g, {"profile": "bump", "center": [0.5, 0.5], "width": 0.05})
        energy = tf.InternalEnergy.power(2.0)
        eps = tr._default_jko_eps(g)
        res = self.check(rho, 1e-3, energy, None, eps, mixed=False, vacuum=True)
        assert res.log_scalings is None and res.iterations == 535

    def test_zero_scaling_restarts_unmixed(self, monkeypatch):
        # Allowed to mix, the half-empty step mixes until a scaling hits 0.
        # No later pass would revive that cell, so the step restarts with
        # the plain loop and lands where that loop alone does.
        monkeypatch.setattr(tf.transport, "_MIX_MIN_RATIO", 0.0)
        g = tf.make_grid(1, 128)
        rho = tf.normalize(tf.Density(g, np.r_[np.full(64, 2.0), np.zeros(64)]))
        energy = tf.InternalEnergy.power(2.0)
        out, res = tf.jko_step(rho, 1e-3, energy, None, eps=5e-4)
        _, _, _, iterations = reference_jko_step(rho, 1e-3, energy, None, 5e-4, vacuum=True)
        values, w2_sq, err, unmixed = reference_jko_step(
            rho, 1e-3, energy, None, 5e-4, mixed=False, vacuum=True
        )
        assert same_bits(out.values, values)
        assert same_bits(res.w2_sq, w2_sq)
        assert same_bits(res.plan_marginal_err, err)
        assert res.iterations == iterations > unmixed

    @pytest.mark.parametrize("m", [1.5, 2.0])
    @pytest.mark.parametrize("with_potential", [False, True])
    def test_warm_start_matches_cold_loop(self, m, with_potential):
        # The warm-started prox moves the step only in the last bits.
        g = tf.make_grid(2, 12)
        x, y = g.coordinate_grids()
        potential = None
        if with_potential:
            potential = tf.ScalarField(g, 0.2 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
        rho = cosine_density(g, 0.4)
        energy = tf.InternalEnergy.power(m)
        out, res = tf.jko_step(rho, 2e-3, energy, potential, eps=5e-3)
        values, w2_sq, _, iterations = reference_jko_step(
            rho, 2e-3, energy, potential, 5e-3, warm=False
        )
        assert res.iterations == iterations > 1
        assert np.max(np.abs(out.values - values)) <= 1e-14
        assert res.w2_sq == pytest.approx(w2_sq, rel=1e-14, abs=0.0)


class TestJkoStepRowUpdate:
    """Every pass of ``jko_step`` takes the plain row update u = a / (K v)."""

    def test_never_takes_the_over_relaxed_update(self, monkeypatch):
        calls = []
        relaxed = tr._relaxed

        def spy(*args):
            calls.append(args)
            return relaxed(*args)

        monkeypatch.setattr(tr, "_relaxed", spy)
        g = tf.make_grid(1, 128)
        half_empty = tf.normalize(tf.Density(g, np.r_[np.full(64, 2.0), np.zeros(64)]))
        energy = tf.InternalEnergy.power(2.0)
        for rho in (half_empty, cosine_density(g, 0.5)):
            tf.jko_step(rho, 1e-3, energy, None, eps=5e-4)
        assert not calls
        # sinkhorn_w2 still takes it through the patched name.
        small = tf.make_grid(1, 16)
        tf.sinkhorn_w2(cosine_density(small, 0.5), cosine_density(small, 0.2), eps=1e-2)
        assert calls

    @pytest.mark.parametrize("name", ["heat1d", "pme2d"])
    def test_benchmark_start_states_mix(self, name):
        # The benchmark's JKO runs start from these states (pme2d's bump at
        # its narrowest seeded width); a first step that mixes returns its
        # log scalings, so no workload reaches the unmixed loop unseen.
        if name == "heat1d":
            cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "heat.json")
        else:
            bump = {"profile": "bump", "center": [0.5, 0.5], "width": 0.27}
            cosine = {"profile": "cosine", "amplitude": 0.45}
            cfg = parse_config_dict(
                {
                    "grid": {"dim": 2, "n": 48},
                    "species": [
                        {"energy": {"kind": "power", "m": 2.0}, "initial": bump},
                        {"energy": {"kind": "power", "m": 1.5}, "initial": cosine},
                    ],
                    "solver": "jko",
                    "horizon": 0.02,
                    "jko": {"h": 2e-3},
                }
            )
        prob = cfg.problem
        for rho, energy in zip(prob.rho0, prob.energies, strict=True):
            _, res = tf.jko_step(rho, prob.h, energy, None, eps=cfg.jko_eps)
            assert res.log_scalings is not None


class TestJkoStepGuess:
    """A mixed ``jko_step`` started from given log scalings (log v, log d)."""

    @staticmethod
    def two_steps(debias=True):
        # The second step of a 2-d power run, guessed from the first.
        g = tf.make_grid(2, 10)
        energy = tf.InternalEnergy.power(1.5)
        rho, res = tf.jko_step(cosine_density(g, 0.3), 2e-3, energy, None, eps=5e-3, debias=debias)
        return rho, energy, res.log_scalings

    @pytest.mark.parametrize("debias", [True, False])
    def test_matches_reference_loop_from_the_guess(self, debias):
        rho, energy, guess = self.two_steps(debias)
        out, res = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3, debias=debias, guess=guess)
        values, w2_sq, err, iterations = reference_jko_step(
            rho, 2e-3, energy, None, 5e-3, debias=debias, guess=guess
        )
        assert same_bits(out.values, values)
        assert same_bits(res.w2_sq, w2_sq)
        assert same_bits(res.plan_marginal_err, err)
        assert res.iterations == iterations > 1
        # The guess saves passes over a cold start.
        _, cold = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3, debias=debias)
        assert res.iterations < cold.iterations

    def test_returns_the_stopping_scalings(self):
        rho, energy, _ = self.two_steps()
        out, res = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3)
        assert res.log_scalings.shape == (2, rho.grid.cells)
        # Restarted from them, the same step stops at its second pass, the
        # first whose density change can pass the stop test, and lands well
        # within tol = 1e-9 of where it stopped.
        again, warm = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3, guess=res.log_scalings)
        assert warm.iterations == 2
        assert np.max(np.abs(again.values - out.values)) <= 1e-10

    def test_plain_step_keeps_d_at_one(self):
        rho, energy, guess = self.two_steps(debias=False)
        assert np.all(guess[1] == 0.0)
        # A guess's log d cannot move a step that never updates d.
        guess[1] = 5.0
        out, res = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3, debias=False, guess=guess)
        guess[1] = 0.0
        want, ref = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3, debias=False, guess=guess)
        assert same_bits(out.values, want.values) and res.iterations == ref.iterations
        assert np.all(res.log_scalings[1] == 0.0)

    def test_ignored_on_a_state_with_vacuum(self):
        g = tf.make_grid(1, 128)
        rho = tf.normalize(tf.Density(g, np.r_[np.full(64, 2.0), np.zeros(64)]))
        energy = tf.InternalEnergy.power(2.0)
        cold, res_cold = tf.jko_step(rho, 1e-3, energy, None, eps=5e-4)
        guess = np.full((2, g.cells), 0.5)
        out, res = tf.jko_step(rho, 1e-3, energy, None, eps=5e-4, guess=guess)
        assert same_bits(out.values, cold.values)
        assert res.iterations == res_cold.iterations
        assert res.log_scalings is None is res_cold.log_scalings

    def test_zero_scaling_restart_returns_no_scalings(self, monkeypatch):
        monkeypatch.setattr(tf.transport, "_MIX_MIN_RATIO", 0.0)
        g = tf.make_grid(1, 128)
        rho = tf.normalize(tf.Density(g, np.r_[np.full(64, 2.0), np.zeros(64)]))
        _, res = tf.jko_step(rho, 1e-3, tf.InternalEnergy.power(2.0), None, eps=5e-4)
        assert res.log_scalings is None

    def test_out_of_bound_guess_starts_cold(self):
        rho, energy, guess = self.two_steps()
        cold, res_cold = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3)
        guess[0, 3] = np.log(tr._SCALING_BOUND)
        out, res = tf.jko_step(rho, 2e-3, energy, None, eps=5e-3, guess=guess)
        assert same_bits(out.values, cold.values) and res.iterations == res_cold.iterations

    @pytest.mark.parametrize(
        "guess, match",
        [
            (np.zeros(16), "shape"),
            (np.zeros((2, 15)), "shape"),
            (np.zeros((3, 16)), "shape"),
            (np.r_[[np.zeros(16)], [np.r_[np.zeros(15), np.nan]]], "finite"),
            (np.r_[[np.zeros(16)], [np.r_[np.zeros(15), np.inf]]], "finite"),
        ],
    )
    def test_invalid_guess_rejected(self, guess, match):
        rho = cosine_density(tf.make_grid(1, 16), 0.2)
        with pytest.raises(ValueError, match=match):
            tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), None, eps=1e-3, guess=guess)

    def test_sinkhorn_carries_no_scalings(self):
        g = tf.make_grid(1, 16)
        res = tf.sinkhorn_w2(cosine_density(g, 0.2), cosine_density(g, 0.3), eps=1e-2)
        assert res.log_scalings is None


class TestJkoStepGuards:
    def test_scaling_bound_raises(self, monkeypatch):
        monkeypatch.setattr(tf.transport, "_SCALING_BOUND", 1e-300)
        rho = cosine_density(tf.make_grid(1, 16), 0.2)
        with pytest.raises(RuntimeError, match="jko_step scalings left the stable range"):
            tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), None, eps=1e-3)

    def test_nan_scalings_raise(self, monkeypatch):
        # A NaN proposal fails the scaling bound within two iterations.
        monkeypatch.setattr(
            "torusflow.transport.kl_prox",
            lambda energy, s, eps, tau, u, start=None: np.full_like(s, np.nan),
        )
        rho = cosine_density(tf.make_grid(1, 16), 0.2)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="left the stable range"):
            tf.jko_step(rho, 1e-3, tf.InternalEnergy.entropy(), None, eps=1e-3)
