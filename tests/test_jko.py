import dataclasses

import numpy as np
import pytest

import torusflow as tf
from torusflow.interaction import gaussian_bump_kernel

from conftest import (
    barenblatt_l1,
    barenblatt_problem,
    cosine_density,
    heat_problem,
    mode_amplitude,
    same_bits,
    trig_vector_field,
)


def two_species_problem(grid, w12, w21, h=2e-3, horizon=0.01):
    kernels = np.zeros((2, 2) + grid.shape)
    kernels[0, 0] = gaussian_bump_kernel(grid, sigma=0.12, amplitude=0.4)
    kernels[1, 1] = gaussian_bump_kernel(grid, sigma=0.10, amplitude=0.3)
    kernels[0, 1] = w12
    kernels[1, 0] = w21
    drift = tf.DriftModel.potential(grid, kernels)
    rho_a = tf.normalize(tf.Density(grid, 1 + 0.4 * np.cos(2 * np.pi * grid.axis_centers)))
    rho_b = tf.normalize(tf.Density(grid, 1 + 0.4 * np.sin(2 * np.pi * grid.axis_centers)))
    return tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.power(2.0), tf.InternalEnergy.power(2.0)),
        drift=drift,
        rho0=(rho_a, rho_b),
        horizon=horizon,
        h=h,
    )


class TestRunJko:
    def test_uniform_steady_state(self):
        grid = tf.make_grid(1, 32)
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.entropy(),),
            drift=tf.DriftModel.none(grid),
            rho0=(tf.normalize(tf.Density(grid, np.ones(32))),),
            horizon=5e-3,
            h=1e-3,
        )
        traj = tf.run_jko(prob, eps=1e-3)
        for state in traj.states:
            assert np.max(np.abs(state[0].values - 1.0)) <= 1e-10

    def test_heat_mode_decay(self):
        prob = heat_problem(n=128, horizon=0.05, h=1e-3)
        traj = tf.run_jko(prob, eps=5e-4)
        k = int(round(0.05 / prob.h))
        got = mode_amplitude(traj.states[k][0].values)
        expected = 0.5 * np.exp(-4 * np.pi**2 * 0.05)
        assert got == pytest.approx(expected, rel=0.05)

    def test_step_count_convention(self):
        # One step per finite-volume record, so the last step is the first to
        # reach the horizon; one that is a multiple of h is not overshot.
        for horizon, steps in ((0.0105, 11), (0.05, 50)):
            prob = heat_problem(n=32, horizon=horizon, h=1e-3)
            traj = tf.run_jko(prob, eps=1e-3)
            fv = tf.run_parabolic(prob)
            assert prob.step_count == steps
            assert len(traj.times) == len(fv.times) == steps + 1
            assert traj.times[-1] == pytest.approx(steps * 1e-3)
        # The last horizon is a multiple of h: both routes end at it.
        assert abs(traj.times[-1] - fv.times[-1]) <= 1e-12

    @pytest.mark.parametrize(
        "energy",
        [tf.InternalEnergy.entropy(), tf.InternalEnergy.power(2.0)],
        ids=["entropy", "power"],
    )
    def test_constant_kernel_offset_moves_no_state(self, energy):
        # W + c shifts U by c times the unit mass, which the unit-mass step
        # absorbs: the potential needs no offset of its own.
        grid = tf.make_grid(1, 32)
        kernel = gaussian_bump_kernel(grid, sigma=0.1, amplitude=-1.0)
        runs, potentials = [], []
        for c in (0.0, 2.0):
            prob = tf.Problem(
                grid=grid,
                energies=(energy,),
                drift=tf.DriftModel.potential(grid, (kernel + c)[None, None]),
                rho0=(cosine_density(grid, 0.5),),
                horizon=5e-3,
                h=1e-3,
            )
            (u,) = tf.potential_from_kernel(prob.drift, prob.rho0)
            potentials.append(u.values)
            runs.append(tf.run_jko(prob, eps=1e-3).states)
        np.testing.assert_allclose(potentials[1] - potentials[0], 2.0, rtol=0, atol=1e-12)
        assert max_state_gap(*runs) <= 1e-8

    def test_porous_medium_energy_decreases(self):
        grid = tf.make_grid(1, 64)
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.power(2.0),),
            drift=tf.DriftModel.none(grid),
            rho0=(cosine_density(grid, 0.6),),
            horizon=0.01,
            h=1e-3,
        )
        traj = tf.run_jko(prob, eps=5e-4)
        totals = tf.energy_ledger(traj, prob).energy
        assert np.all(np.diff(totals) <= 1e-12)

    def test_mass_and_positivity_every_state(self):
        prob = heat_problem(n=64, horizon=0.01, h=1e-3)
        traj = tf.run_jko(prob, eps=5e-4)
        for state in traj.states:
            assert abs(state[0].mass() - 1.0) <= 1e-12
            assert np.min(state[0].values) >= 0.0

    def test_summed_transport_cost_bounded(self):
        # Summing the per-step dissipation inequality over the run:
        # sum_k w2_sq(k) <= 4h (E(rho0) - E(rho_N)) + N * 4h * slack.
        prob = heat_problem(n=64, horizon=0.02, h=1e-3)
        eps = 5e-4
        traj = tf.run_jko(prob, eps=eps)
        slack = tf.diagnostics.default_ledger_slack(eps, prob.h, 1, 1)
        totals = tf.energy_ledger(traj, prob).energy
        n_steps = len(traj.times) - 1
        bound = 4 * prob.h * (totals[0] - totals[-1]) + n_steps * 4 * prob.h * slack
        assert float(traj.w2_sq.sum()) <= bound

    def test_2d_uniform_steady_and_heat_decay(self):
        grid = tf.make_grid(2, 12)
        xs, _ = grid.coordinate_grids()
        rho0 = tf.normalize(tf.Density(grid, 1 + 0.4 * np.cos(2 * np.pi * xs)))
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.entropy(),),
            drift=tf.DriftModel.none(grid),
            rho0=(rho0,),
            horizon=4e-3,
            h=1e-3,
        )
        traj = tf.run_jko(prob, eps=2e-3, tol=1e-9)
        # the x-mode decays like the implicit heat step, independent of y
        final = traj.states[-1][0].values
        amp = 2 * np.abs(np.fft.fftn(final)[1, 0]) / grid.cells
        expected = 0.4 / (1 + 4 * np.pi**2 * prob.h) ** (len(traj.times) - 1)
        assert amp == pytest.approx(expected, rel=0.15)
        for state in traj.states:
            assert abs(state[0].mass() - 1.0) <= 1e-12

    def test_barenblatt_solution(self):
        # Vacuum around the support: the prox centre underflows to 0 in
        # empty cells, which stay empty.  The scheme is first order in h:
        # L1 2.85e-2 from the exact profile at h = 1e-3, 1.49e-2 at 5e-4.
        traj = tf.run_jko(barenblatt_problem(), eps=5e-4)
        assert barenblatt_l1(traj) <= 3.5e-2
        for (rho,) in traj.states:
            assert abs(rho.mass() - 1.0) <= 1e-12
            assert np.min(rho.values) >= 0.0

    def test_velocity_drift_rejected(self):
        grid = tf.make_grid(1, 16)
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.entropy(),),
            drift=tf.DriftModel.none(grid, mode="velocity"),
            rho0=(cosine_density(grid, 0.3),),
            horizon=2e-3,
            h=1e-3,
        )
        with pytest.raises(ValueError, match="potential"):
            tf.run_jko(prob, eps=1e-3)

    @pytest.mark.parametrize("case", ["rho0", "run_parabolic", "energy"])
    def test_wrong_types_are_type_errors(self, case):
        # A bare array for a Density, or a name for an InternalEnergy, is
        # refused by name and position before any attribute of it is read;
        # run_parabolic also names the run whose initial state it refuses.
        prob = heat_problem(n=16, horizon=2e-3, h=1e-3)
        with pytest.raises(TypeError) as raised:
            if case == "rho0":
                dataclasses.replace(prob, rho0=(np.ones(16),))
            elif case == "run_parabolic":
                tf.run_parabolic(prob, (np.ones(16),))
            else:
                dataclasses.replace(prob, energies=("entropy",))
        want = {
            "rho0": "rho0[0] must be a Density, not ndarray",
            "run_parabolic": "problem 1: rho0[0] must be a Density, not ndarray",
            "energy": "energies[0] must be an InternalEnergy, not str",
        }[case]
        assert str(raised.value) == want


class TestTimeStepOrder:
    """The h -> 0 limit that the existence proof takes, on configs/heat.json."""

    def test_heat_error_is_first_order_in_h(self):
        # Implicit Euler's factor (1 + 4 pi^2 h)^(-T/h) alone predicts +3.85%
        # at h = 1e-3, so the error at T is almost all time discretization;
        # it halves with h, and so does the final gap to the finite-volume
        # solution.
        horizon = 0.05
        target = 0.5 * np.exp(-4 * np.pi**2 * horizon)
        steps = (1e-3, 5e-4, 2.5e-4)
        errors, gaps = [], []
        for h in steps:
            prob = heat_problem(n=128, amplitude=0.5, horizon=horizon, h=h)
            jko = tf.run_jko(prob, eps=5e-4, tol=1e-9)
            par = tf.run_parabolic(prob, eps_reg=1e-3, cfl_safety=0.9)
            k = int(round(horizon / h))
            assert jko.times[k] == pytest.approx(horizon) == par.times[-1]
            final = jko.states[k][0].values
            errors.append(mode_amplitude(final) / target - 1.0)
            gaps.append(float(np.sum(np.abs(final - par.states[-1][0].values))) * prob.grid.dx)
        assert all(e > 0 for e in errors)
        order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 0.9 <= order <= 1.1
        assert gaps[0] > gaps[1] > gaps[2]


def stepwise(problem, eps, tol=1e-9, guessed=True):
    """States and total iterations of run_jko's loop through jko_step: cold
    steps, or with ``guessed`` each species' step started from the log
    scalings of its last step (second step) or extrapolated from its last
    two, 2 x_k - x_(k-1); a step that returns none restarts the history."""
    states, iterations = [problem.rho0], 0
    history = [[] for _ in problem.rho0]
    for _ in problem.record_times:
        potentials = tf.potential_from_kernel(problem.drift, states[-1])
        state = []
        for i, rho in enumerate(states[-1]):
            past = history[i] if guessed else []
            guess = None
            if len(past) == 2:
                guess = 2.0 * past[1] - past[0]
            elif past:
                guess = past[0]
            out, res = tf.jko_step(
                rho, problem.h, problem.energies[i], potentials[i], eps=eps, tol=tol, guess=guess
            )
            x = res.log_scalings
            history[i] = [] if x is None else (past + [x])[-2:]
            iterations += res.iterations
            state.append(out)
        states.append(tuple(state))
    return states, iterations


def max_state_gap(states_a, states_b):
    return max(
        float(np.max(np.abs(a.values - b.values)))
        for sa, sb in zip(states_a, states_b, strict=True)
        for a, b in zip(sa, sb, strict=True)
    )


def two_power_problem_2d(n=16):
    """An m = 2 bump and an m = 1.5 cosine on a 2-d grid, no drift."""
    grid = tf.make_grid(2, n)
    x, y = grid.coordinate_grids()
    bump = 1 + 2 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * 0.3**2))
    return tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.power(2.0), tf.InternalEnergy.power(1.5)),
        drift=tf.DriftModel.none(grid, species=2),
        rho0=(tf.normalize(tf.Density(grid, bump)), cosine_density(grid, 0.4)),
        horizon=0.02,
        h=2e-3,
    )


class TestWarmStartedSteps:
    """run_jko starts each step from its species' last log scalings."""

    def test_matches_the_guessed_loop_bit_for_bit(self):
        grid = tf.make_grid(1, 32)
        w = gaussian_bump_kernel(grid, sigma=0.15, amplitude=0.2)
        prob = two_species_problem(grid, w, -w)
        traj = tf.run_jko(prob, eps=1e-3)
        want, _ = stepwise(prob, eps=1e-3)
        cold, _ = stepwise(prob, eps=1e-3, guessed=False)
        for got, ref in zip(traj.states, want, strict=True):
            assert all(same_bits(a.values, b.values) for a, b in zip(got, ref, strict=True))
        # The first step has no history and starts cold.
        assert all(same_bits(a.values, b.values) for a, b in zip(traj.states[1], cold[1]))
        assert not all(same_bits(a.values, b.values) for a, b in zip(traj.states[2], cold[2]))

    def test_state_with_vacuum_runs_cold(self, monkeypatch):
        # Half empty: no step mixes, so none returns scalings and none is
        # guessed; the run is the cold one bit for bit, 6639 iterations.
        grid = tf.make_grid(1, 128)
        rho = tf.normalize(tf.Density(grid, np.r_[np.full(64, 2.0), np.zeros(64)]))
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.power(2.0),),
            drift=tf.DriftModel.none(grid),
            rho0=(rho,),
            horizon=8e-3,
            h=1e-3,
        )
        cold, iterations = stepwise(prob, eps=5e-4, guessed=False)
        assert iterations == 6639
        guesses = []
        step = tf.jko.jko_step

        def spy(*args, guess=None, **kwargs):
            guesses.append(guess)
            return step(*args, **kwargs, guess=guess)

        monkeypatch.setattr(tf.jko, "jko_step", spy)
        traj = tf.run_jko(prob, eps=5e-4)
        assert guesses == [None] * 8
        for got, ref in zip(traj.states, cold, strict=True):
            assert same_bits(got[0].values, ref[0].values)

    @pytest.mark.parametrize("name", ["heat", "power-2d"])
    def test_stays_near_a_tight_cold_trajectory(self, name):
        prob, eps = (
            (heat_problem(n=128, horizon=0.05, h=1e-3), 5e-4)
            if name == "heat"
            else (two_power_problem_2d(), 5 / 16**2)
        )
        tight, _ = stepwise(prob, eps, tol=1e-13, guessed=False)
        assert max_state_gap(tf.run_jko(prob, eps=eps).states, tight) <= 1e-9
        _, cold_iterations = stepwise(prob, eps, guessed=False)
        _, warm_iterations = stepwise(prob, eps)
        assert warm_iterations < cold_iterations


class TestRunJkoSystem:
    def test_zero_cross_kernels_decouple_bitwise(self):
        grid = tf.make_grid(1, 32)
        zero = np.zeros(32)
        system = two_species_problem(grid, zero, zero)
        traj_sys = tf.run_jko(system, eps=1e-3, tol=1e-10)
        for i in range(2):
            single = tf.Problem(
                grid=grid,
                energies=(system.energies[i],),
                drift=tf.DriftModel.potential(grid, system.drift.kernels[i, i][None, None]),
                rho0=(system.rho0[i],),
                horizon=system.horizon,
                h=system.h,
            )
            traj_one = tf.run_jko(single, eps=1e-3, tol=1e-10)
            for k in range(len(traj_sys.times)):
                assert np.array_equal(
                    traj_sys.states[k][i].values, traj_one.states[k][0].values
                )

    def test_symmetric_system_dissipates_joint_functional(self):
        # With matching cross-kernels the system is a joint gradient flow:
        # sum_i E_i + (1/2) sum_ij <W_ij * rho_j, rho_i> decreases, up to the
        # entropic slack of the inner solves.
        grid = tf.make_grid(1, 48)
        cross = gaussian_bump_kernel(grid, sigma=0.15, amplitude=0.5)
        prob = two_species_problem(grid, cross, cross, h=1e-3, horizon=0.01)
        traj = tf.run_jko(prob, eps=5e-4, tol=1e-10)
        vol = grid.cell_volume

        def joint(state):
            total = sum(
                prob.energies[i].total(state[i].values, vol) for i in range(2)
            )
            potentials = tf.potential_from_kernel(prob.drift, state)
            for i in range(2):
                total += 0.5 * float(np.sum(potentials[i].values * state[i].values) * vol)
            return total

        values = [joint(s) for s in traj.states]
        slack = tf.diagnostics.default_ledger_slack(5e-4, prob.h, 1, 2) * prob.h
        assert all(b <= a + slack for a, b in zip(values, values[1:]))

    def test_nonsymmetric_masses_conserved(self):
        grid = tf.make_grid(1, 32)
        w12 = gaussian_bump_kernel(grid, sigma=0.2, amplitude=0.6)
        w21 = gaussian_bump_kernel(grid, sigma=0.1, amplitude=-0.2)
        prob = two_species_problem(grid, w12, w21)
        traj = tf.run_jko(prob, eps=1e-3)
        for state in traj.states:
            for rho in state:
                assert abs(rho.mass() - 1.0) <= 1e-12
                assert np.min(rho.values) >= 0.0


class TestElResidual:
    def test_uniform_fixed_point_zero_drift(self):
        grid = tf.make_grid(1, 32)
        uniform = tf.normalize(tf.Density(grid, np.ones(32)))
        out, _ = tf.jko_step(
            uniform, 1e-3, tf.InternalEnergy.entropy(), None, eps=1e-3, tol=1e-12
        )
        plan = tf.sinkhorn_w2(uniform, out, eps=1e-3, tol=1e-12, return_plan=True).plan
        xi = trig_vector_field(grid)
        resid = tf.el_residual(
            uniform, out, 1e-3, tf.InternalEnergy.entropy(), None, xi, plan
        )
        assert resid <= 1e-8

    def test_converged_step_small_residual(self):
        grid = tf.make_grid(1, 64)
        h, eps = 1e-3, 5e-4
        rho = cosine_density(grid, 0.5)
        energy = tf.InternalEnergy.entropy()
        out, _ = tf.jko_step(rho, h, energy, None, eps=eps, tol=1e-11, debias=False)
        plan = tf.sinkhorn_w2(rho, out, eps=eps, tol=1e-11, return_plan=True).plan
        xi = trig_vector_field(grid)
        resid = tf.el_residual(rho, out, h, energy, None, xi, plan)
        assert resid <= 1e-2

    def test_with_drift_small_residual(self):
        grid = tf.make_grid(1, 64)
        h, eps = 1e-3, 5e-4
        rho = cosine_density(grid, 0.4)
        energy = tf.InternalEnergy.entropy()
        pot = tf.ScalarField(grid, 0.5 + 0.5 * np.cos(2 * np.pi * grid.axis_centers))
        out, _ = tf.jko_step(rho, h, energy, pot, eps=eps, tol=1e-11, debias=False)
        plan = tf.sinkhorn_w2(rho, out, eps=eps, tol=1e-11, return_plan=True).plan
        xi = trig_vector_field(grid)
        resid = tf.el_residual(rho, out, h, energy, pot, xi, plan)
        assert resid <= 1e-2

    def test_perturbed_minimizer_detected(self):
        # Comparison run: bump half the cells by 10%, renormalize, and pair
        # the corrupted target with its own transport plan.  A generic phase
        # keeps the test field from sharing the profile's symmetry axis.
        grid = tf.make_grid(1, 64)
        h, eps = 1e-3, 5e-4
        rho = cosine_density(grid, 0.5)
        energy = tf.InternalEnergy.entropy()
        out, _ = tf.jko_step(rho, h, energy, None, eps=eps, tol=1e-11, debias=False)
        plan = tf.sinkhorn_w2(rho, out, eps=eps, tol=1e-11, return_plan=True).plan
        xi = trig_vector_field(grid, phase=np.pi / 4)
        base = tf.el_residual(rho, out, h, energy, None, xi, plan)
        bad_vals = out.values.copy()
        bad_vals[: grid.n // 2] *= 1.1
        bad = tf.normalize(tf.Density(grid, bad_vals))
        plan_bad = tf.sinkhorn_w2(rho, bad, eps=eps, tol=1e-11, return_plan=True).plan
        worse = tf.el_residual(rho, bad, h, energy, None, xi, plan_bad)
        assert worse >= 10 * base

    def test_missing_plan_rejected(self):
        grid = tf.make_grid(1, 16)
        rho = cosine_density(grid, 0.3)
        xi = trig_vector_field(grid)
        with pytest.raises(ValueError, match="plan"):
            tf.el_residual(rho, rho, 1e-3, tf.InternalEnergy.entropy(), None, xi, None)
