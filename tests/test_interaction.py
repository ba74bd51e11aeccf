import numpy as np
import pytest

import torusflow as tf
from torusflow.grid import centered_grad_values
from torusflow.interaction import (
    _kernel_sums,
    _kernel_sums_bound,
    as_velocity_model,
    cosine_kernel,
    gaussian_bump_kernel,
)

from conftest import (
    all_pairs_lipschitz,
    circular_convolve_direct,
    cosine_density,
    same_bits,
    sampled_w2_lipschitz,
)


def random_drift(grid, rng):
    """One or two species coupled by random Gaussian bumps, cosines and zero
    kernels, in potential or velocity mode."""
    l = int(rng.integers(1, 3))
    comps = () if rng.random() < 0.5 else (grid.dim,)
    kernels = np.zeros((l, l) + comps + grid.shape)
    for entry in np.ndindex(kernels.shape[: -grid.dim]):
        if rng.random() < 0.2:
            continue
        amplitude = float(rng.uniform(-1.0, 1.0))
        if rng.random() < 0.5:
            sigma = float(rng.uniform(0.05, 0.3))
            kernels[entry] = gaussian_bump_kernel(grid, sigma, amplitude)
        else:
            kernels[entry] = cosine_kernel(grid, amplitude, int(rng.integers(1, 4)))
    if comps:
        return tf.DriftModel.velocity(grid, kernels)
    return tf.DriftModel.potential(grid, kernels)


def random_density(grid, seed):
    rng = np.random.default_rng(seed)
    vals = 1 + 0.5 * rng.uniform(-1, 1, grid.shape)
    return tf.normalize(tf.Density(grid, vals))


class TestConvolution:
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
    def test_transform_matches_direct_summation(self, dim, n):
        grid = tf.make_grid(dim, n)
        rng = np.random.default_rng(4)
        kernel = rng.standard_normal(grid.shape)
        rho = tf.Density(grid, rng.uniform(0, 2, grid.shape))
        model = tf.DriftModel.potential(grid, kernel[None, None])
        (fast,) = tf.potential_from_kernel(model, (rho,))
        slow = circular_convolve_direct(grid, kernel, rho.values)
        np.testing.assert_allclose(fast.values, slow, atol=1e-10)

    def test_cosine_half_amplitude(self):
        # cos kernel against 1 + 0.5 cos gives 0.25 cos.
        grid = tf.make_grid(1, 64)
        kernel = cosine_kernel(grid)
        model = tf.DriftModel.potential(grid, kernel[None, None])
        rho = cosine_density(grid, 0.5)
        (u,) = tf.potential_from_kernel(model, (rho,))
        expected = 0.25 * np.cos(2 * np.pi * grid.axis_centers)
        np.testing.assert_allclose(u.values, expected, atol=1e-12)


def direct_fields(model, rho):
    """sum_j K_ij * rho_j per species by direct summation, stacked like the
    model's kernels: (l, *shape) in potential mode, (l, dim, *shape) else."""
    grid = model.grid
    l = model.species_count
    out = np.zeros(model.kernels.shape[1:])
    for i in range(l):
        for j in range(l):
            if model.mode == "potential":
                out[i] += circular_convolve_direct(grid, model.kernels[i, j], rho[j].values)
            else:
                for a in range(grid.dim):
                    out[i, a] += circular_convolve_direct(
                        grid, model.kernels[i, j, a], rho[j].values
                    )
    return out


class TestSharedConvolutionPath:
    """potential_from_kernel and velocity_field against direct summation,
    with species 1 coupled to nothing (an all-zero kernel row)."""

    @staticmethod
    def model(dim, n, mode):
        grid = tf.make_grid(dim, n)
        rng = np.random.default_rng(7)
        tail = grid.shape if mode == "potential" else (dim,) + grid.shape
        kernels = rng.standard_normal((3, 3) + tail)
        kernels[1] = 0.0
        kernels[0, 2] = 0.0
        if mode == "potential":
            return tf.DriftModel.potential(grid, kernels)
        return tf.DriftModel.velocity(grid, kernels)

    @pytest.mark.parametrize("dim,n", [(1, 24), (2, 6)])
    def test_potential_mode(self, dim, n):
        model = self.model(dim, n, "potential")
        rho = tuple(random_density(model.grid, s) for s in range(3))
        expected = direct_fields(model, rho)
        potentials = tf.potential_from_kernel(model, rho)
        velocities = tf.velocity_field(model, rho)
        for i in range(3):
            np.testing.assert_allclose(potentials[i].values, expected[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                velocities[i].values,
                -centered_grad_values(model.grid, expected[i]),
                rtol=0,
                atol=1e-12,
            )
        np.testing.assert_array_equal(potentials[1].values, 0.0)

    @pytest.mark.parametrize("dim,n", [(1, 24), (2, 6)])
    def test_velocity_mode(self, dim, n):
        model = self.model(dim, n, "velocity")
        rho = tuple(random_density(model.grid, s) for s in range(3))
        expected = direct_fields(model, rho)
        velocities = tf.velocity_field(model, rho)
        for i in range(3):
            np.testing.assert_allclose(velocities[i].values, expected[i], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(velocities[1].values, 0.0)


class TestStackedRuns:
    """``_kernel_sums`` on stacked runs gives each run's own sums bit for
    bit, zero kernel entries included."""

    @pytest.mark.parametrize("mode", ["potential", "velocity"])
    @pytest.mark.parametrize("dim,n", [(1, 24), (2, 6)])
    def test_three_runs_match_solo_calls(self, mode, dim, n):
        model = TestSharedConvolutionPath.model(dim, n, mode)
        runs = np.stack(
            [[random_density(model.grid, 3 * r + s).values for s in range(3)] for r in range(3)]
        )
        stacked = _kernel_sums(model, runs)
        for r in range(3):
            solo = _kernel_sums(model, runs[r])
            assert same_bits(stacked[r], solo)
        if mode == "potential":
            np.testing.assert_array_equal(stacked[:, 1], 0.0)

    def test_all_zero_kernels_take_no_transform(self):
        grid = tf.make_grid(2, 6)
        model = tf.DriftModel.potential(grid, np.zeros((2, 2) + grid.shape))
        assert model._kernel_hats is None
        runs = np.stack(
            [[random_density(grid, 2 * r + s).values for s in range(2)] for r in range(3)]
        )
        np.testing.assert_array_equal(_kernel_sums(model, runs), np.zeros(runs.shape))


class TestPotential:
    def test_zero_kernel_gives_zero_potential(self):
        grid = tf.make_grid(1, 16)
        model = tf.DriftModel.potential(grid, np.zeros((1, 1, 16)))
        (u,) = tf.potential_from_kernel(model, (random_density(grid, 0),))
        np.testing.assert_array_equal(u.values, 0.0)

    def test_uniform_density_averages_kernel(self):
        grid = tf.make_grid(1, 32)
        kernel = gaussian_bump_kernel(grid, sigma=0.1)
        model = tf.DriftModel.potential(grid, kernel[None, None])
        uniform = tf.normalize(tf.Density(grid, np.ones(32)))
        (u,) = tf.potential_from_kernel(model, (uniform,))
        expected = float(np.sum(kernel) * grid.cell_volume)
        np.testing.assert_allclose(u.values, expected, atol=1e-13)

    def test_translation_equivariance(self):
        grid = tf.make_grid(1, 32)
        kernel = gaussian_bump_kernel(grid, sigma=0.08)
        model = tf.DriftModel.potential(grid, kernel[None, None])
        rho = random_density(grid, 2)
        (u,) = tf.potential_from_kernel(model, (rho,))
        shifted = tf.Density(grid, np.roll(rho.values, 5))
        (u_shifted,) = tf.potential_from_kernel(model, (shifted,))
        np.testing.assert_allclose(u_shifted.values, np.roll(u.values, 5), atol=1e-12)

    def test_mode_mismatch(self):
        grid = tf.make_grid(1, 8)
        model = tf.DriftModel.none(grid, mode="velocity")
        with pytest.raises(ValueError, match="mode mismatch"):
            tf.potential_from_kernel(model, (random_density(grid, 3),))


class TestVelocityField:
    def test_zero_kernel_zero_velocity(self):
        grid = tf.make_grid(1, 16)
        model = tf.DriftModel.none(grid)
        (v,) = tf.velocity_field(model, (random_density(grid, 4),))
        np.testing.assert_allclose(v.values, 0.0, atol=1e-13)

    def test_two_evaluation_paths_agree(self):
        # A velocity model built from the gradient kernels must reproduce the
        # potential route exactly.
        grid = tf.make_grid(1, 48)
        kernel = gaussian_bump_kernel(grid, sigma=0.1)
        pot = tf.DriftModel.potential(grid, kernel[None, None])
        vel = as_velocity_model(pot)
        rho = (random_density(grid, 5),)
        (v_pot,) = tf.velocity_field(pot, rho)
        (v_vel,) = tf.velocity_field(vel, rho)
        np.testing.assert_allclose(v_pot.values, v_vel.values, atol=1e-10)

    def test_odd_kernel_uniform_density(self):
        grid = tf.make_grid(1, 32)
        odd = np.sin(2 * np.pi * grid.offset_grids()[0])
        model = tf.DriftModel.velocity(grid, odd[None, None, None])
        uniform = tf.normalize(tf.Density(grid, np.ones(32)))
        (v,) = tf.velocity_field(model, (uniform,))
        np.testing.assert_allclose(v.values, 0.0, atol=1e-12)

    def test_potential_velocity_sums_to_zero(self):
        grid = tf.make_grid(1, 40)
        kernel = cosine_kernel(grid)
        model = tf.DriftModel.potential(grid, kernel[None, None])
        (v,) = tf.velocity_field(model, (random_density(grid, 6),))
        assert abs(np.sum(v.values) * grid.cell_volume) <= 1e-13


class TestConstants:
    def test_zero_model(self):
        grid = tf.make_grid(1, 32)
        consts = tf.estimate_constants(tf.DriftModel.none(grid))
        assert consts.lip_x == 0.0
        assert consts.lip_w2 == 0.0

    def test_cosine_gradient_bound(self):
        # W = cos(2 pi x) has velocity B = -W' = 2 pi sin(2 pi x), and
        # sup |B'| = 4 pi^2, up to the stencil correction.
        grid = tf.make_grid(1, 256)
        model = tf.DriftModel.potential(grid, cosine_kernel(grid)[None, None])
        consts = tf.estimate_constants(model)
        assert consts.lip_x == pytest.approx(4 * np.pi**2, rel=0.02)

    def test_2d_velocity_bounds(self):
        # B = (cos 2 pi x, 0): |grad B| = 2 pi |sin 2 pi x|, peaking at 2 pi.
        grid = tf.make_grid(2, 64)
        xs, _ = grid.offset_grids()
        kernels = np.zeros((1, 1, 2) + grid.shape)
        kernels[0, 0, 0] = np.cos(2 * np.pi * xs)
        consts = tf.estimate_constants(tf.DriftModel.velocity(grid, kernels))
        assert consts.lip_x == pytest.approx(2 * np.pi, rel=0.01)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 4)])
    def test_kernel_sums_finite_within_bound(self, dim, n):
        # The largest constant kernel whose bound is finite still gives
        # finite velocities for a point mass and for the uniform density.
        grid = tf.make_grid(dim, n)
        top = np.finfo(float).max / (dim * grid.cells**4) * 0.99
        kernels = np.full((1, 1, dim) + grid.shape, top)
        model = tf.DriftModel.velocity(grid, kernels)
        assert np.isfinite(_kernel_sums_bound(model))
        point = np.zeros(grid.shape)
        point.flat[0] = grid.cells
        for values in (point, np.ones(grid.shape)):
            (v,) = tf.velocity_field(model, (tf.Density(grid, values),))
            assert np.all(np.isfinite(v.values))
        with np.errstate(over="ignore"):
            assert not np.isfinite(_kernel_sums_bound(tf.DriftModel.velocity(grid, 2 * kernels)))

    def test_stability_constant_uses_velocity_form(self):
        grid = tf.make_grid(1, 64)
        model = tf.DriftModel.potential(grid, gaussian_bump_kernel(grid, 0.15)[None, None])
        consts = tf.estimate_constants(model)
        assert consts.c_hat > 0
        assert consts.c_hat == max(consts.lip_x, consts.lip_w2)
        # A potential model is bounded through its velocity form: lip_x is
        # the potential's Hessian bound sup |W''| = 1/sigma^2, not its
        # gradient bound sup |W'| = 1/(sigma sqrt(e)).
        assert consts == tf.estimate_constants(as_velocity_model(model))
        assert consts.lip_x == pytest.approx(1 / 0.15**2, rel=0.02)


class TestW2Lipschitz:
    """lip_w2 is a closed-form bound; sampled ratios and the brute-force
    Lipschitz constant over all cell pairs are references."""

    @pytest.mark.parametrize("seed", range(40))
    def test_bounds_sampled_ratio_1d(self, seed):
        # 1-d distances are exact, so no sampled ratio may exceed the bound.
        rng = np.random.default_rng(seed)
        model = random_drift(tf.make_grid(1, 32), rng)
        lip_w2 = tf.estimate_constants(model).lip_w2
        assert sampled_w2_lipschitz(model, pairs=3, seed=seed) <= lip_w2
        assert lip_w2 == pytest.approx(all_pairs_lipschitz(model), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_sampled_ratio_2d(self, seed):
        # 2-d distances are linear-programming values, feasible to 1e-10.
        rng = np.random.default_rng(100 + seed)
        model = random_drift(tf.make_grid(2, 8), rng)
        lip_w2 = tf.estimate_constants(model).lip_w2
        assert sampled_w2_lipschitz(model, pairs=2, seed=seed) <= lip_w2 * (1 + 1e-6)
        assert lip_w2 >= all_pairs_lipschitz(model)

    def test_diagonal_quotients_need_sqrt_dim(self):
        # cos 2 pi (x + y) changes fastest along the diagonal, where
        # neighbouring cells are sqrt(2) dx apart.
        grid = tf.make_grid(2, 8)
        xs, ys = grid.offset_grids()
        kernels = np.zeros((1, 1, 2) + grid.shape)
        kernels[0, 0, 0] = np.cos(2 * np.pi * (xs + ys))
        model = tf.DriftModel.velocity(grid, kernels)
        lip_w2 = tf.estimate_constants(model).lip_w2
        assert lip_w2 / np.sqrt(2) < all_pairs_lipschitz(model) <= lip_w2

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
    def test_potential_form_matches_velocity_form(self, dim, n):
        grid = tf.make_grid(dim, n)
        model = tf.DriftModel.potential(grid, gaussian_bump_kernel(grid, 0.15)[None, None])
        assert tf.estimate_constants(model).lip_w2 == pytest.approx(
            tf.estimate_constants(as_velocity_model(model)).lip_w2, rel=1e-15
        )

    def test_attained_by_neighbouring_point_masses(self):
        # Unit masses on two neighbouring cells sit dx apart, and their
        # velocities differ by a neighbour difference of the kernel.
        grid = tf.make_grid(1, 32)
        model = tf.DriftModel.velocity(grid, gaussian_bump_kernel(grid, 0.1)[None, None, None])
        lip_w2 = tf.estimate_constants(model).lip_w2
        ratios = []
        for p in range(grid.n):
            rho, nu = np.zeros(grid.n), np.zeros(grid.n)
            rho[p] = nu[(p + 1) % grid.n] = grid.n
            (v_rho,) = tf.velocity_field(model, (tf.Density(grid, rho),))
            (v_nu,) = tf.velocity_field(model, (tf.Density(grid, nu),))
            ratios.append(float(np.max(np.abs(v_rho.values - v_nu.values))) / grid.dx)
        assert max(ratios) == pytest.approx(lip_w2, rel=1e-12)
