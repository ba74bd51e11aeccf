import numpy as np
import pytest

import torusflow as tf
from torusflow.diagnostics import _pair_indices, default_ledger_slack, entropy_value
from torusflow.interaction import gaussian_bump_kernel

from conftest import (
    cosine_density,
    heat_problem,
    heat_values,
    lp_w2_sq,
    same_bits,
    spectral_heat_trajectory,
)


def uniform_problem(n=32, horizon=5e-3, h=1e-3, dim=1):
    grid = tf.make_grid(dim, n)
    return tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.entropy(),),
        drift=tf.DriftModel.none(grid),
        rho0=(tf.normalize(tf.Density(grid, np.ones(grid.shape))),),
        horizon=horizon,
        h=h,
    )


class TestEnergyLedger:
    def test_uniform_steady_no_flags(self):
        prob = uniform_problem()
        traj = tf.run_jko(prob, eps=1e-3)
        ledger = tf.energy_ledger(traj, prob)
        assert not ledger.flags.any()
        assert np.max(np.abs(np.diff(ledger.energy))) <= 1e-10

    def test_heat_run_no_flags_at_default_slack(self):
        prob = heat_problem(n=64, horizon=0.02, h=1e-3)
        traj = tf.run_jko(prob, eps=5e-4)
        ledger = tf.energy_ledger(traj, prob)
        assert not ledger.flags.any()

    def test_two_species_run_no_flags_at_default_slack(self):
        # The ledger sums the transport cost over species, so the default
        # slack must absorb one entropic floor per species.
        grid = tf.make_grid(1, 32)
        rho0 = cosine_density(grid, 0.3)
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.entropy(), tf.InternalEnergy.entropy()),
            drift=tf.DriftModel.none(grid, species=2),
            rho0=(rho0, rho0),
            horizon=5e-3,
            h=1e-3,
        )
        traj = tf.run_jko(prob, eps=5e-4)
        ledger = tf.energy_ledger(traj, prob)
        assert not np.any(ledger.flags)

    def test_corrupted_trajectory_flagged(self):
        prob = heat_problem(n=64, horizon=0.02, h=1e-3)
        traj = tf.run_jko(prob, eps=5e-4)
        traj.states[3], traj.states[4] = traj.states[4], traj.states[3]
        ledger = tf.energy_ledger(traj, prob)
        assert ledger.flags.any()

    def test_missing_w2_records_rejected(self):
        prob = heat_problem(n=32, horizon=2e-3, h=1e-3)
        traj = tf.run_parabolic(prob)
        with pytest.raises(ValueError, match="transport records"):
            tf.energy_ledger(traj, prob)

    def test_slack_override(self, monkeypatch):
        # energy_ledger takes its slack from default_ledger_slack alone.
        monkeypatch.setattr(tf.diagnostics, "default_ledger_slack", lambda *args: -1.0)
        prob = uniform_problem()
        traj = tf.run_jko(prob, eps=1e-3)
        ledger = tf.energy_ledger(traj, prob)
        assert ledger.slack == -1.0
        assert ledger.flags.all()

    def test_default_slack_formula(self):
        assert default_ledger_slack(5e-4, 1e-3, 1, 1) == pytest.approx(0.1275, abs=1e-3)


class TestHolder:
    def test_constant_trajectory_zero_ratio(self):
        prob = uniform_problem(horizon=3e-3)
        traj = tf.run_jko(prob, eps=1e-3)
        ratio = tf.holder_check(traj, sample_pairs=6)
        # identical states: only the entropic floor of the distance remains
        assert ratio <= 0.2

    def test_heat_ratio_finite(self):
        prob = heat_problem(n=64, horizon=0.01, h=1e-3)
        traj = tf.run_jko(prob, eps=5e-4)
        ratio = tf.holder_check(traj, sample_pairs=10)
        assert 0 < ratio < 10

    def test_matches_per_pair_loop(self):
        # One species_w2_sq call for all sampled pairs gives the per-pair
        # loop's value bit for bit.
        traj = tf.run_jko(heat_problem(n=64, horizon=0.01, h=1e-3), eps=5e-4)
        worst = 0.0
        for i, j in _pair_indices(len(traj.states), 10):
            w2sq = float(np.sum(tf.species_w2_sq(traj.states[i], traj.states[j])))
            dt = abs(traj.times[j] - traj.times[i])
            worst = max(worst, float(np.sqrt(w2sq) / np.sqrt(dt + traj.h)))
        assert same_bits(tf.holder_check(traj, sample_pairs=10), worst)

    def test_needs_two_states(self):
        prob = uniform_problem()
        traj = tf.run_jko(prob, eps=1e-3)
        traj.states = traj.states[:1]
        traj.times = traj.times[:1]
        with pytest.raises(ValueError):
            tf.holder_check(traj)

    def test_unconverged_solve_raises(self, unconverged_transport):
        # 2-d distances are Sinkhorn solves; 1-d ones are exact.
        traj = tf.run_jko(uniform_problem(n=4, horizon=3e-3, dim=2), eps=1e-3)
        with pytest.raises(RuntimeError, match="species 0 transport did not converge"):
            tf.holder_check(traj, sample_pairs=2)


class TestSobolev:
    def test_uniform_zero(self):
        grid = tf.make_grid(1, 32)
        rho = tf.normalize(tf.Density(grid, np.ones(32)))
        assert tf.sobolev_integrand(rho, 1.0) == 0.0

    def test_single_state_quadrature(self):
        # m = 2: integrand is the squared L2 norm of grad rho; for
        # rho = 1 + 0.5 cos(2 pi x) the exact integral is (0.5 * 2 pi)^2 / 2.
        grid = tf.make_grid(1, 256)
        rho = tf.Density(grid, heat_values(grid, 0.5, 0.0))
        exact = (0.5 * 2 * np.pi) ** 2 / 2
        assert tf.sobolev_integrand(rho, 2.0) == pytest.approx(exact, rel=0.02)

    def test_trajectory_sum(self):
        prob = heat_problem(n=64, horizon=5e-3, h=1e-3)
        traj = tf.run_jko(prob, eps=5e-4)
        total = tf.sobolev_estimate(traj, 1.0)
        assert total > 0
        per_state = sum(
            (traj.times[k] - traj.times[k - 1])
            * tf.sobolev_integrand(traj.states[k][0], 1.0)
            for k in range(1, len(traj.times))
        )
        assert total == pytest.approx(per_state)

    def test_exponent_validated(self):
        grid = tf.make_grid(1, 8)
        rho = tf.normalize(tf.Density(grid, np.ones(8)))
        with pytest.raises(ValueError):
            tf.sobolev_integrand(rho, 0.5)


class TestWeakResidual:
    def test_zero_test_function(self):
        prob = heat_problem(n=32, horizon=3e-3, h=1e-3)
        traj = tf.run_jko(prob, eps=1e-3)
        phi = tf.TestFunction(
            prob.grid, traj.times, np.zeros((len(traj.times),) + prob.grid.shape)
        )
        assert tf.weak_residual(traj, prob, phi) == 0.0

    def test_oracle_trajectory_small_residual(self):
        prob = heat_problem(n=128, horizon=0.05, h=1e-3)
        traj = spectral_heat_trajectory(prob)
        phi = tf.separable_test_function(prob.grid, traj.times)
        assert tf.weak_residual(traj, prob, phi) <= 5e-3

    def test_mass_corruption_detected(self):
        prob = heat_problem(n=64, horizon=0.02, h=1e-3)
        traj = spectral_heat_trajectory(prob)
        phi = tf.separable_test_function(prob.grid, traj.times, mean=1.0)
        base = tf.weak_residual(traj, prob, phi)
        for k in range(5, len(traj.states)):
            scaled = traj.states[k][0].values * 1.1
            traj.states[k] = (tf.Density(prob.grid, scaled),)
        worse = tf.weak_residual(traj, prob, phi)
        assert worse >= 10 * base

    def test_drift_term_matches_the_run(self):
        # A potential-drift run satisfies the weak form with its own drift
        # (-grad U through velocity_field) better than with the drift
        # removed or with the kernel negated.
        grid = tf.make_grid(1, 48)

        def problem(amplitude):
            kernels = gaussian_bump_kernel(grid, sigma=0.12, amplitude=amplitude)[None, None]
            return tf.Problem(
                grid=grid,
                energies=(tf.InternalEnergy.entropy(),),
                drift=tf.DriftModel.potential(grid, kernels),
                rho0=(cosine_density(grid, 0.4),),
                horizon=5e-3,
                h=1e-3,
            )

        prob = problem(0.4)
        traj = tf.run_jko(prob, eps=5e-4)
        phi = tf.separable_test_function(grid, traj.times, frequency=2)
        own = tf.weak_residual(traj, prob, phi)
        removed = tf.weak_residual(traj, problem(0.0), phi)
        negated = tf.weak_residual(traj, problem(-0.4), phi)
        assert own < removed
        assert own < negated

    def test_final_slice_must_vanish(self):
        grid = tf.make_grid(1, 16)
        times = np.array([0.0, 1e-3])
        vals = np.ones((2, 16))
        with pytest.raises(ValueError, match="vanish"):
            tf.TestFunction(grid, times, vals)

    def test_time_grid_mismatch(self):
        prob = heat_problem(n=32, horizon=3e-3, h=1e-3)
        traj = tf.run_jko(prob, eps=1e-3)
        other_times = traj.times[:-1]
        phi = tf.separable_test_function(prob.grid, other_times)
        with pytest.raises(ValueError, match="time grids"):
            tf.weak_residual(traj, prob, phi)


class TestStability:
    def _two_trajectories(self, shift_cells=0, kernels=None, dim=1, n=48):
        grid = tf.make_grid(dim, n)
        if kernels is None:
            drift = tf.DriftModel.none(grid, species=1)
        else:
            drift = tf.DriftModel.velocity(grid, kernels)
        base_vals = heat_values(grid, 0.6, 0.0)
        rho_a = tf.normalize(tf.Density(grid, base_vals))
        rho_b = tf.normalize(tf.Density(grid, np.roll(base_vals, shift_cells, axis=0)))
        mk = lambda rho: tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.power(2.0),),
            drift=drift,
            rho0=(rho,),
            horizon=0.02,
            h=5e-3,
        )
        traj_a = tf.run_parabolic(mk(rho_a))
        traj_b = tf.run_parabolic(mk(rho_b))
        return traj_a, traj_b

    def test_identical_trajectories(self):
        traj_a, traj_b = self._two_trajectories(shift_cells=0)
        series = tf.stability_compare(traj_a, traj_b, c_hat=0.0)
        assert np.max(series.w2_sums) <= 1e-3
        assert not series.flags.any()

    def test_initial_size_reported_exactly(self):
        traj_a, traj_b = self._two_trajectories(shift_cells=2)
        series = tf.stability_compare(traj_a, traj_b, c_hat=1.0)
        direct = lp_w2_sq(traj_a.states[0][0], traj_b.states[0][0])
        assert series.w2_sums[0] == pytest.approx(direct, rel=1e-10)
        assert series.bounds[0] == pytest.approx(series.w2_sums[0] * 1.2)
        assert not series.flags[0]

    def test_zero_drift_contraction(self):
        traj_a, traj_b = self._two_trajectories(shift_cells=2)
        series = tf.stability_compare(traj_a, traj_b, c_hat=0.0)
        # pure diffusion with a displacement-convex energy contracts W2, and
        # the 1-d distances are exact, so the series strictly decreases
        assert np.all(np.diff(series.w2_sums) < 0.0)
        assert not series.flags.any()

    def test_mismatched_inputs_rejected(self):
        traj_a, traj_b = self._two_trajectories(shift_cells=1)
        short = tf.Trajectory(
            grid=traj_b.grid,
            h=traj_b.h,
            times=traj_b.times[:-1],
            states=traj_b.states[:-1],
        )
        with pytest.raises(ValueError, match="time grids"):
            tf.stability_compare(traj_a, short, c_hat=1.0)

    def test_record_times_compared_at_their_spacing(self):
        # Records at 2e-10 and 4e-10 against 3e-10 and 6e-10 lie within
        # numpy's default absolute tolerance of 1e-8, but a third of an
        # interval apart.
        traj_a = tf.run_parabolic(heat_problem(n=16, horizon=4e-10, h=2e-10))
        traj_b = tf.run_parabolic(heat_problem(n=16, horizon=6e-10, h=3e-10))
        assert len(traj_a.times) == len(traj_b.times) == 3
        with pytest.raises(ValueError, match="time grids"):
            tf.stability_compare(traj_a, traj_b, c_hat=1.0)

    def test_unconverged_solve_raises(self, unconverged_transport):
        traj_a, traj_b = self._two_trajectories(shift_cells=1, dim=2, n=6)
        with pytest.raises(RuntimeError, match="species 0 transport did not converge"):
            tf.stability_compare(traj_a, traj_b, c_hat=1.0)


class TestEntropyValue:
    def test_zero_log_zero_convention(self):
        grid = tf.make_grid(1, 4)
        vals = np.array([4.0, 0.0, 0.0, 0.0])
        rho = tf.Density(grid, vals)
        assert entropy_value(rho) == pytest.approx(np.log(4.0))

    def test_uniform_entropy_zero(self):
        grid = tf.make_grid(1, 16)
        rho = tf.normalize(tf.Density(grid, np.ones(16)))
        assert entropy_value(rho) == pytest.approx(0.0, abs=1e-14)
