import dataclasses
from pathlib import Path

import numpy as np
import pytest

import torusflow as tf
from torusflow.config import parse_config
from torusflow.energy import RegularizedEnergy, regularize
from torusflow.grid import grad_values

from conftest import (
    ReferenceScheme,
    barenblatt_l1,
    barenblatt_problem,
    clipped_mass,
    cosine_density,
    heat_problem,
    heat_values,
    mode_amplitude,
    same_bits,
    textbook_rkl2_step,
)

REPO = Path(__file__).resolve().parent.parent


def fixed_steps(grid, energy, drift, values, dt, k):
    """k forward-Euler steps of dt from the normalized values: with h = dt,
    run_parabolic takes one step per record while dt is within its CFL
    bound."""
    prob = tf.Problem(
        grid=grid,
        energies=(energy,),
        drift=drift,
        rho0=(tf.normalize(tf.Density(grid, values)),),
        horizon=k * dt,
        h=dt,
    )
    traj = tf.run_parabolic(prob, eps_reg=1e-3)
    assert len(traj.step_dt) == k
    assert set(traj.step_stages) == {1}
    return traj


class TestParabolicStep:
    def test_uniform_is_steady(self):
        grid = tf.make_grid(1, 32)
        traj = fixed_steps(
            grid, tf.InternalEnergy.entropy(), tf.DriftModel.none(grid), np.ones(32), 1e-5, 1
        )
        np.testing.assert_allclose(traj.states[-1][0].values, 1.0, atol=1e-14)

    def test_one_step_diffusion_symbol(self):
        # For the entropy energy the update is linear and the cosine mode is
        # multiplied exactly by 1 - (2 dt / dx^2)(1 - cos(2 pi dx)).
        grid = tf.make_grid(1, 64)
        dt = 0.2 * 0.25 * grid.dx**2
        traj = fixed_steps(
            grid,
            tf.InternalEnergy.entropy(),
            tf.DriftModel.none(grid),
            heat_values(grid, 0.5, 0.0),
            dt,
            1,
        )
        factor = 1 - (2 * dt / grid.dx**2) * (1 - np.cos(2 * np.pi * grid.dx))
        got = mode_amplitude(traj.states[-1][0].values)
        assert got == pytest.approx(0.5 * factor, abs=1e-12)

    def test_advection_translates_profile(self):
        # Constant velocity shifts the circular phase by 2 pi V t; diffusion
        # only damps the amplitude.
        grid = tf.make_grid(1, 64)
        speed = 0.5
        kernels = np.full((1, 1, 1) + grid.shape, speed)  # V = speed everywhere
        drift = tf.DriftModel.velocity(grid, kernels)
        from torusflow.grid import minimal_image

        rho0 = tf.normalize(
            tf.Density(grid, np.exp(-minimal_image(grid.axis_centers - 0.5) ** 2 / (2 * 0.08**2)))
        )
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.power(2.0),),
            drift=drift,
            rho0=(rho0,),
            horizon=0.02,
            h=0.02,
        )
        traj = tf.run_parabolic(prob, eps_reg=1e-3, cfl_safety=0.9)

        def phase(vals):
            return np.angle(np.sum(vals * np.exp(2j * np.pi * grid.axis_centers)))

        raw = (phase(traj.states[-1][0].values) - phase(traj.states[0][0].values)) / (
            2 * np.pi
        )
        drift_angle = float(minimal_image(raw))
        assert drift_angle == pytest.approx(speed * 0.02, abs=grid.dx)

    def test_mass_conserved_to_roundoff(self):
        grid = tf.make_grid(1, 64)
        traj = fixed_steps(
            grid,
            tf.InternalEnergy.power(2.0),
            tf.DriftModel.none(grid),
            heat_values(grid, 0.9, 0.0),
            1e-6,
            50,
        )
        for state in traj.states[1:]:
            assert abs(state[0].mass() - 1.0) <= 1e-12

    def test_maximum_principle_pure_diffusion(self):
        grid = tf.make_grid(1, 64)
        traj = fixed_steps(
            grid,
            tf.InternalEnergy.entropy(),
            tf.DriftModel.none(grid),
            heat_values(grid, 0.8, 0.0),
            0.9 * 0.25 * grid.dx**2,
            200,
        )
        prev_max, prev_min = 1.8, 0.2
        for state in traj.states[1:]:
            cur_max = float(np.max(state[0].values))
            cur_min = float(np.min(state[0].values))
            assert cur_max <= prev_max + 1e-12
            assert cur_min >= prev_min - 1e-12
            prev_max, prev_min = cur_max, cur_min


class TestRunParabolic:
    def test_heat_matches_spectral_solution(self):
        prob = heat_problem(n=128, horizon=0.05, h=1e-3)
        traj = tf.run_parabolic(prob, eps_reg=1e-3, cfl_safety=0.9)
        k = int(np.argmin(np.abs(traj.times - 0.05)))
        exact = heat_values(prob.grid, 0.5, traj.times[k])
        assert np.max(np.abs(traj.states[k][0].values - exact)) <= 1e-3

    def test_dissipation_estimate_zero_drift(self):
        # F_eps(rho(T)) + (1/2) sum dt |grad F'_eps|^2 <= F_eps(rho0): the
        # explicit scheme controls half the dissipation under the CFL bound.
        grid = tf.make_grid(1, 64)
        energy = tf.InternalEnergy.power(2.0)
        reg = regularize(energy, 1e-3)
        traj = fixed_steps(
            grid, energy, tf.DriftModel.none(grid), heat_values(grid, 0.7, 0.0), 1e-6, 400
        )
        vol = grid.cell_volume
        f0 = float(np.sum(reg.f(traj.states[0][0].values)) * vol)
        dissipated = 0.0
        for (rho,), dt in zip(traj.states, traj.step_dt):
            g = grad_values(grid, reg.f_prime(rho.values))
            dissipated += dt * float(np.sum(g**2) * vol)
        f_end = float(np.sum(reg.f(traj.states[-1][0].values)) * vol)
        assert f_end + 0.5 * dissipated <= f0 + 1e-12

    def test_l2_norm_bounded(self):
        prob = heat_problem(n=64, horizon=0.02, h=1e-3)
        traj = tf.run_parabolic(prob)
        norms = [
            float(np.sqrt(np.sum(s[0].values ** 2) * prob.grid.cell_volume))
            for s in traj.states
        ]
        assert max(norms) <= 2 * norms[0]

    def test_dissipation_estimate_with_drift(self):
        # F_eps(rho(t)) + (1/2) sum dt |grad F'_eps|^2 <= F_eps(rho0)
        # + C t sup|V|^2, with C frozen from a calibration run (the Gronwall
        # constant is ~ sup_t |rho|_{L2}^2 / 2; 1.0 leaves a 2x margin).
        grid = tf.make_grid(1, 48)
        offs = grid.offset_grids()[0]
        kernels = (0.3 * np.sin(2 * np.pi * offs) + 0.1)[None, None, None]
        drift = tf.DriftModel.velocity(grid, kernels)
        energy = tf.InternalEnergy.power(2.0)
        reg = regularize(energy, 1e-3)
        traj = fixed_steps(grid, energy, drift, heat_values(grid, 0.7, 0.0), 2e-6, 500)
        vol = grid.cell_volume
        f0 = float(np.sum(reg.f(traj.states[0][0].values)) * vol)
        dissipated = 0.0
        sup_v = 0.0
        for state, dt in zip(traj.states, traj.step_dt):
            g = grad_values(grid, reg.f_prime(state[0].values))
            dissipated += dt * float(np.sum(g**2) * vol)
            (v,) = tf.velocity_field(drift, state)
            sup_v = max(sup_v, float(np.max(np.abs(v.values))))
        f_end = float(np.sum(reg.f(traj.states[-1][0].values)) * vol)
        elapsed = traj.times[-1]
        assert f_end + 0.5 * dissipated <= f0 + 1.0 * elapsed * sup_v**2

    def test_2d_one_step_diffusion_symbol(self):
        grid = tf.make_grid(2, 16)
        xs, _ = grid.coordinate_grids()
        dt = 0.2 * 0.25 * grid.dx**2
        traj = fixed_steps(
            grid,
            tf.InternalEnergy.entropy(),
            tf.DriftModel.none(grid),
            1 + 0.5 * np.cos(2 * np.pi * xs),
            dt,
            1,
        )
        factor = 1 - (2 * dt / grid.dx**2) * (1 - np.cos(2 * np.pi * grid.dx))
        amp = 2 * np.abs(np.fft.fftn(traj.states[-1][0].values)[1, 0]) / grid.cells
        assert amp == pytest.approx(0.5 * factor, abs=1e-12)

    def test_two_species_nongradient_long_run(self):
        # Non-gradient cross drift (B12 != B21, neither a gradient pair);
        # positivity and unit mass must survive ~1e4 steps.
        grid = tf.make_grid(1, 32)
        kernels = np.zeros((2, 2, 1) + grid.shape)
        offs = grid.offset_grids()[0]
        kernels[0, 1, 0] = 0.4 * np.sin(2 * np.pi * offs)
        kernels[1, 0, 0] = -0.2 * np.sin(4 * np.pi * offs)
        kernels[0, 0, 0] = 0.1 * np.cos(2 * np.pi * offs)
        drift = tf.DriftModel.velocity(grid, kernels)
        rho_a = tf.normalize(tf.Density(grid, 1 + 0.5 * np.cos(2 * np.pi * grid.axis_centers)))
        rho_b = tf.normalize(tf.Density(grid, 1 + 0.5 * np.sin(2 * np.pi * grid.axis_centers)))
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.power(2.0), tf.InternalEnergy.power(2.0)),
            drift=drift,
            rho0=(rho_a, rho_b),
            horizon=0.6,
            h=0.06,
        )
        traj = tf.run_parabolic(prob, eps_reg=1e-3, cfl_safety=0.9)
        for state in traj.states:
            for rho in state:
                assert abs(rho.mass() - 1.0) <= 1e-12
                assert np.min(rho.values) >= 0.0
                assert np.all(np.isfinite(rho.values))
        assert clipped_mass(traj) <= 1e-8

    def test_barenblatt_solution(self):
        # Compact support spreading into vacuum, radius 0.21 -> 0.43: L1
        # 2.8e-4 from the exact profile in 106 super-steps (forward Euler:
        # 2.2e-4 in 2625 steps), with nothing clipped.
        traj = tf.run_parabolic(barenblatt_problem())
        assert barenblatt_l1(traj) <= 4e-4
        assert clipped_mass(traj) == 0.0
        assert len(traj.step_dt) <= 120

    def test_zero_energy_rejected(self):
        grid = tf.make_grid(1, 16)
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.zero(),),
            drift=tf.DriftModel.none(grid),
            rho0=(cosine_density(grid, 0.2),),
            horizon=1e-3,
            h=1e-3,
        )
        with pytest.raises(ValueError, match="identically zero"):
            tf.run_parabolic(prob)

    def test_record_grid_matches_horizon(self):
        prob = heat_problem(n=32, horizon=0.0123, h=2e-3)
        traj = tf.run_parabolic(prob)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.0123)
        assert np.all(np.diff(traj.times) > 0)

    def test_records_below_loop_tolerance_each_take_a_step(self):
        # Record intervals of 2e-14 lie below the loop's 1e-13 tolerance.
        prob = heat_problem(n=32, horizon=1e-12, h=2e-14)
        traj = tf.run_parabolic(prob)
        assert len(traj.times) == 51
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.step_dt) == 50
        np.testing.assert_allclose(traj.times, 2e-14 * np.arange(51), rtol=1e-12, atol=0)


def velocity_problem_1d():
    """Two species, velocity mode, a nonzero diagonal and cross kernels."""
    grid = tf.make_grid(1, 32)
    offs = grid.offset_grids()[0]
    kernels = np.zeros((2, 2, 1) + grid.shape)
    kernels[0, 0, 0] = 0.3 * np.cos(2 * np.pi * offs)
    kernels[0, 1, 0] = 0.4 * np.sin(2 * np.pi * offs)
    kernels[1, 0, 0] = -0.2 * np.sin(4 * np.pi * offs)
    rng = np.random.default_rng(11)
    rho0 = tuple(
        tf.normalize(tf.Density(grid, 1 + 0.5 * rng.uniform(-1, 1, grid.shape)))
        for _ in range(2)
    )
    return tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.power(2.0), tf.InternalEnergy.power(1.5)),
        drift=tf.DriftModel.velocity(grid, kernels),
        rho0=rho0,
        horizon=0.02,
        h=0.01,
    )


class TestStepRecord:
    def test_fields_per_step(self):
        prob = velocity_problem_1d()
        traj = tf.run_parabolic(prob, eps_reg=1e-3, cfl_safety=0.9)
        steps = len(traj.step_dt)
        assert steps > len(traj.times) - 1
        assert len(traj.step_bound) == len(traj.step_clipped) == len(traj.step_stages) == steps
        assert set(traj.step_bound) <= {"diffusion", "advection"}
        assert traj.step_stages.dtype.kind == "i"
        assert np.all((traj.step_stages >= 1) & (traj.step_stages <= tf.parabolic._MAX_STAGES))
        assert np.any(traj.step_stages > 1)
        assert np.all(traj.step_dt > 0)
        assert np.sum(traj.step_dt) == pytest.approx(prob.horizon, rel=1e-12)
        assert np.all(traj.step_clipped >= 0)

    def test_bound_names_the_binding_term(self, monkeypatch):
        # Without drift only diffusion bounds a step; a fast constant
        # velocity on a coarse grid makes advection the binding term.
        calm = heat_problem(n=32, horizon=2e-3, h=1e-3)
        for energy in (tf.InternalEnergy.entropy(), tf.InternalEnergy.power(2.0)):
            prob = dataclasses.replace(calm, energies=(energy,))
            # The diffusion bound dx^2 / (4 max F''_eps(rho0)): cfl 0.9 of it.
            fpp = float(np.max(regularize(energy, 1e-3).f_second(calm.rho0[0].values)))
            bound = 0.9 * 0.25 * calm.grid.dx**2 / fpp
            with monkeypatch.context() as m:
                m.setattr("torusflow.parabolic._MAX_STAGES", 1)
                euler = tf.run_parabolic(prob)
            assert set(euler.step_bound) == {"diffusion"}
            assert euler.step_dt[0] == pytest.approx(bound, rel=1e-12)
            # A super-step of s stages covers (s^2 + s - 2) / 4 bounds, and
            # s is the fewest stages that cover it.
            traj = tf.run_parabolic(prob)
            assert set(traj.step_bound) == {"diffusion"}
            s = int(traj.step_stages[0])
            assert s > 2
            assert (s * s - s - 2) / 4 * bound < traj.step_dt[0] <= (s * s + s - 2) / 4 * bound
        grid = tf.make_grid(1, 16)

        def constant_drift(speed, h):
            drift = tf.DriftModel.velocity(grid, np.full((1, 1, 1) + grid.shape, speed))
            return tf.Problem(
                grid=grid,
                energies=(tf.InternalEnergy.entropy(),),
                drift=drift,
                rho0=(cosine_density(grid, 0.2),),
                horizon=h,
                h=h,
            )

        fast = tf.run_parabolic(constant_drift(200.0, 1e-3))
        assert set(fast.step_bound) == {"advection"}
        # The advection bound dx / (2 max|V|) with V = 200, cfl 0.9 of it,
        # binds the forward-Euler step, so no super-step is longer.
        assert set(fast.step_stages) == {1}
        assert fast.step_dt[0] == pytest.approx(0.9 * 0.5 * grid.dx / 200.0)
        # At V = 10 the advection bound lies between one and the 10-stage
        # diffusion limit of 27 bounds: it caps the super-steps.
        moderate = tf.run_parabolic(constant_drift(10.0, 1e-2))
        assert set(moderate.step_bound) == {"advection"}
        assert np.all(moderate.step_stages > 1)
        assert np.all(moderate.step_dt <= 0.9 * 0.5 * grid.dx / 10.0)

    def test_super_step_plan(self):
        # (time, next record, time past which it is reached, diffusion and
        # advection limits, cfl) -> (length, stages, bounding term).  With f
        # the forward-Euler step cfl min(limits), L = cfl min(27 diffusion,
        # advection) and tau = rest / ceil(rest / L); s stages cover
        # (s^2 + s - 2) / 4 diffusion limits: 1, 2.5, 4.5, 7, ... for s >= 2.
        plan = tf.parabolic._plan
        assert plan(0.0, 0.5, 0.5, 1.0, np.inf, 0.9) == (0.5, 1, "diffusion")
        assert plan(0.0, 2.0, 2.0, 1.0, 0.5, 1.0) == (0.5, 1, "advection")
        assert plan(0.0, 4.55, 4.55, 1.0, np.inf, 1.0) == (4.55, 5, "diffusion")
        assert plan(0.0, 60.0, 60.0, 1.0, np.inf, 1.0) == (20.0, 9, "diffusion")
        # An advection-capped super-step no longer than f takes one stage.
        assert plan(0.0, 1.9, 1.9, 1.0, 1.2, 1.0) == (0.95, 1, "advection")
        # A step of f that lands within the loop's tolerance is taken as is.
        assert plan(0.0, 1.0 + 1e-14, 1.0 - 1e-13, 1.0, np.inf, 1.0) == (1.0, 1, "diffusion")

    def test_jko_trajectory_leaves_them_unset(self):
        traj = tf.run_jko(heat_problem(n=16, horizon=2e-3, h=1e-3), eps=5e-3)
        assert traj.step_dt is None
        assert traj.step_bound is None
        assert traj.step_clipped is None

    def test_overflowing_drift_raises(self):
        # A constant kernel at the float ceiling passes the model's finiteness
        # check, but its transform, and so the velocity, overflows.
        grid = tf.make_grid(1, 16)
        drift = tf.DriftModel.velocity(grid, np.full((1, 1, 1) + grid.shape, 1e308))
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.power(2.0),),
            drift=drift,
            rho0=(cosine_density(grid, 0.2),),
            horizon=1e-3,
            h=1e-3,
        )
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="not finite"):
            tf.run_parabolic(prob)


def assert_same_trajectory(got, want):
    """Equal bit for bit: states, times and the per-step record."""
    assert same_bits(got.step_dt, want.step_dt)
    assert got.step_bound == want.step_bound
    assert same_bits(got.step_clipped, want.step_clipped)
    assert same_bits(clipped_mass(got), clipped_mass(want))
    assert same_bits(got.times, want.times)
    for state, ref in zip(got.states, want.states, strict=True):
        for rho, rho_ref in zip(state, ref, strict=True):
            assert same_bits(rho.values, rho_ref.values)


def repulsive_problem_2d(n, amplitude, energies, rho0, horizon, h):
    """2-d potential mode: every species pushed away from every density peak
    by W = amplitude cos(2 pi x) cos(2 pi y)."""
    grid = tf.make_grid(2, n)
    x, y = grid.offset_grids()
    l = len(energies)
    kernel = amplitude * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    kernels = np.broadcast_to(kernel, (l, l) + grid.shape)
    return tf.Problem(
        grid=grid,
        energies=energies,
        drift=tf.DriftModel.potential(grid, kernels),
        rho0=rho0,
        horizon=horizon,
        h=h,
    )


def stage_split_pair():
    """A 1-d velocity-mode problem of power 2 and a second initial state
    whose super-steps, each run alone, take 8 and 9 stages: the second
    state has the smaller peak, so the larger diffusion bound and longer
    super-steps."""
    grid = tf.make_grid(1, 32)
    offs = grid.offset_grids()[0]
    kernels = (0.3 * np.sin(2 * np.pi * offs))[None, None, None]
    prob = tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.power(2.0),),
        drift=tf.DriftModel.velocity(grid, kernels),
        rho0=(cosine_density(grid, 0.8),),
        horizon=4e-3,
        h=2e-3,
    )
    return prob, (cosine_density(grid, 0.2),)


class TestMatchesPreChangeStep:
    """``run_parabolic`` reproduces the pre-change step (``ReferenceScheme``)
    bit for bit, on cases the shipped configs never reach."""

    def run_both(self, monkeypatch, problem, **kwargs):
        # One stage per super-step: every step is the forward-Euler step.
        monkeypatch.setattr("torusflow.parabolic._MAX_STAGES", 1)
        got = tf.run_parabolic(problem, **kwargs)
        with monkeypatch.context() as m:
            m.setattr("torusflow.parabolic._Scheme", ReferenceScheme)
            want = tf.run_parabolic(problem, **kwargs)
        assert_same_trajectory(got, want)
        assert set(got.step_stages) == {1}
        return got

    def test_power_across_both_junctions_with_potential_drift(self, monkeypatch):
        # eps_reg 0.05 puts the junctions of m = 2 at 0.025 and 10; a narrow
        # bump reaches above 10 and its tails fall below 0.025.
        grid = tf.make_grid(2, 12)
        x, y = grid.offset_grids()
        rho = tf.normalize(tf.Density(grid, np.exp(-(x**2 + y**2) / (2 * 0.06**2))))
        reg = regularize(tf.InternalEnergy.power(2.0), 0.05)
        assert rho.values.min() < reg.delta_eps and rho.values.max() > reg.M_eps
        prob = repulsive_problem_2d(12, 2.0, (reg.base,), (rho,), horizon=1e-3, h=2.5e-4)
        traj = self.run_both(monkeypatch, prob, eps_reg=0.05)
        assert len(traj.step_dt) > 10
        later = traj.states[1][0].values  # after a few steps
        assert later.min() < reg.delta_eps and later.max() > reg.M_eps

    @pytest.mark.parametrize(
        "n, energy, cfl",
        [(6, tf.InternalEnergy.entropy(), 1.0), (4, tf.InternalEnergy.power(2.0), 0.9)],
    )
    def test_clipping_steps(self, monkeypatch, n, energy, cfl):
        # A strong repulsion at the density peak outruns the advection bound
        # in 2-d, so steps undershoot and clip.
        grid = tf.make_grid(2, n)
        x, y = grid.coordinate_grids()
        peak = 1 + 0.9 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        rho = tf.normalize(tf.Density(grid, peak))
        prob = repulsive_problem_2d(n, 30.0, (energy,), (rho,), horizon=0.02, h=0.01)
        traj = self.run_both(monkeypatch, prob, cfl_safety=cfl)
        assert np.count_nonzero(traj.step_clipped) >= 2

    def test_two_energy_groups(self, monkeypatch):
        # 1-d velocity mode with power 2 and power 1.5; 2-d potential mode
        # with entropy and power 3.
        traj = self.run_both(monkeypatch, velocity_problem_1d())
        assert len(traj.step_dt) > 10
        grid = tf.make_grid(2, 8)
        rho = (cosine_density(grid, 0.4), cosine_density(grid, -0.3))
        energies = (tf.InternalEnergy.entropy(), tf.InternalEnergy.power(3.0))
        prob = repulsive_problem_2d(8, 0.5, energies, rho, horizon=8e-3, h=2e-3)
        traj = self.run_both(monkeypatch, prob)
        assert len(traj.step_dt) > 10

    def test_heat_problem(self, monkeypatch):
        self.run_both(monkeypatch, heat_problem(n=64, horizon=4e-3, h=2e-3))


def assert_textbook_super_steps(traj, problem, **kwargs):
    """Replay a trajectory's super-steps with ``textbook_rkl2_step`` and the
    reference guards, and match every recorded state to 1e-14 relative."""
    reg = tuple(regularize(e, kwargs.get("eps_reg", 1e-3)) for e in problem.energies)
    scheme = ReferenceScheme(reg, problem.drift)
    values = np.stack([rho.values for rho in problem.rho0])
    time, record = 0.0, 1
    for tau, s in zip(traj.step_dt, traj.step_stages, strict=True):
        updated = textbook_rkl2_step(scheme, values, tau, int(s))
        values, _ = scheme.run_finish(values, updated)
        time = time + tau
        if record < len(traj.times) and time == traj.times[record]:
            for rho, want in zip(traj.states[record], values, strict=True):
                err = np.max(np.abs(rho.values - want))
                assert err <= 1e-14 * np.max(np.abs(want)), (record, err)
            record += 1
    assert record == len(traj.times)


class TestSuperStep:
    """Stacked super-steps agree with the textbook RKL2 super-step."""

    def test_heat_problem(self):
        prob = heat_problem(n=64, horizon=4e-3, h=2e-3)
        traj = tf.run_parabolic(prob)
        assert np.all(traj.step_stages > 1)
        assert_textbook_super_steps(traj, prob)

    def test_two_energy_groups_with_velocity_drift(self):
        prob = velocity_problem_1d()
        traj = tf.run_parabolic(prob)
        assert np.any(traj.step_stages > 1)
        assert_textbook_super_steps(traj, prob)

    def test_2d_potential_drift(self):
        grid = tf.make_grid(2, 8)
        rho = (cosine_density(grid, 0.4), cosine_density(grid, -0.3))
        energies = (tf.InternalEnergy.entropy(), tf.InternalEnergy.power(3.0))
        prob = repulsive_problem_2d(8, 0.5, energies, rho, horizon=8e-3, h=2e-3)
        traj = tf.run_parabolic(prob)
        assert np.any(traj.step_stages > 1)
        assert_textbook_super_steps(traj, prob)

    def test_lock_step_pair_with_different_stage_counts(self):
        prob, rho0 = stage_split_pair()
        runs = (prob, dataclasses.replace(prob, rho0=rho0))
        for problem, traj in zip(runs, tf.run_parabolic(prob, rho0), strict=True):
            assert_textbook_super_steps(traj, problem)

    def test_one_stage_is_the_forward_euler_step(self):
        # The record interval within one forward-Euler bound: s = 1.
        prob = heat_problem(n=64, horizon=4e-5, h=2e-5)
        traj = tf.run_parabolic(prob)
        assert set(traj.step_stages) == {1}
        assert_textbook_super_steps(traj, prob)


class TestLockStep:
    """Runs of one problem from several initial states share one step
    sequence.  The run whose CFL limits bind on every super-step comes out
    bit for bit as it does alone; every other run replays its states with
    the textbook super-step on the shared record."""

    def run_lock_step(self, problem, *rho0, binding=0, **kwargs):
        together = tf.run_parabolic(problem, *rho0, **kwargs)
        problems = (problem, *(dataclasses.replace(problem, rho0=r) for r in rho0))
        assert isinstance(together, tuple) and len(together) == len(problems)
        shared = together[binding]
        for run, got in zip(problems, together, strict=True):
            assert same_bits(got.times, shared.times)
            assert same_bits(got.step_dt, shared.step_dt)
            assert same_bits(got.step_stages, shared.step_stages)
            assert got.step_bound == shared.step_bound
            assert_textbook_super_steps(got, run, **kwargs)
        assert_same_trajectory(shared, tf.run_parabolic(problems[binding], **kwargs))
        return together

    def test_shipped_stability_pair(self):
        cfg = parse_config(REPO / "configs" / "two_species_stability.json")
        a, b = self.run_lock_step(cfg.problem, cfg.stability)
        # 83 super-steps (2071 and 2057 forward-Euler steps), 827 stages.
        # Alone, each run picks the same steps, so both are their solo runs.
        assert len(a.step_dt) == 83 and int(np.sum(a.step_stages)) == 827
        alone = tf.run_parabolic(dataclasses.replace(cfg.problem, rho0=cfg.stability))
        assert_same_trajectory(b, alone)
        assert clipped_mass(a) == clipped_mass(b) == 0.0

    def test_runs_with_different_stage_counts(self):
        # Alone, the first run takes 4 super-steps of 8 stages and the
        # second, whose lower peak allows longer steps, 2 of 9.  Together
        # the first run's limits bind: both take its 4 super-steps of 8.
        prob, rho0 = stage_split_pair()
        first, second = self.run_lock_step(prob, rho0)
        assert list(first.step_stages) == list(second.step_stages) == [8] * 4
        alone = tf.run_parabolic(dataclasses.replace(prob, rho0=rho0))
        assert list(alone.step_stages) == [9] * 2

    def test_2d_potential_pair_where_one_run_clips(self):
        grid = tf.make_grid(2, 6)
        x, y = grid.coordinate_grids()
        peak = 1 + 0.9 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        peak = tf.normalize(tf.Density(grid, peak))
        calm = tf.normalize(tf.Density(grid, 1 + 0.01 * np.cos(2 * np.pi * x)))
        energy = (tf.InternalEnergy.entropy(),)
        prob = repulsive_problem_2d(6, 30.0, energy, (peak,), horizon=0.02, h=0.01)
        calm_prob = dataclasses.replace(prob, rho0=(calm,))
        clips, steady = self.run_lock_step(prob, (calm,), cfl_safety=1.0)
        # Clipping is per run; the calm run takes the clipping run's
        # forward-Euler steps where alone it would take multi-stage ones.
        assert np.count_nonzero(clips.step_clipped) >= 2
        assert not np.any(steady.step_clipped)
        assert set(steady.step_stages) == {1}
        assert np.max(tf.run_parabolic(calm_prob, cfl_safety=1.0).step_stages) > 1

    def test_two_energy_groups(self):
        prob = velocity_problem_1d()
        rng = np.random.default_rng(5)
        rho0 = tuple(
            tf.normalize(tf.Density(prob.grid, 1 + 0.3 * rng.uniform(-1, 1, prob.grid.shape)))
            for _ in range(2)
        )
        # The problem's own densities have the tighter limits, so its run
        # binds in either order.
        self.run_lock_step(prob, rho0)
        self.run_lock_step(dataclasses.replace(prob, rho0=rho0), prob.rho0, binding=1)

    def test_drift_free_entropy_runs(self):
        prob = heat_problem(n=64, horizon=4e-3, h=2e-3)
        other = (cosine_density(prob.grid, 0.2, frequency=3),)
        self.run_lock_step(prob, other, prob.rho0)

    @pytest.mark.parametrize(
        "state, error, message",
        [
            ("species", ValueError, "need one energy per species"),
            ("grid", ValueError, "initial density lives on a different grid"),
            ("mass", ValueError, "initial densities must be normalized"),
            ("problem", TypeError, "not iterable"),
        ],
        ids=["species", "grid", "mass", "problem"],
    )
    def test_bad_initial_state_is_refused_before_any_step(
        self, monkeypatch, state, error, message
    ):
        prob = velocity_problem_1d()
        other = tf.make_grid(1, 16)
        bad = {
            "species": prob.rho0[:1],
            "grid": (cosine_density(other, 0.2), cosine_density(other, 0.3)),
            "mass": (prob.rho0[0], tf.Density(prob.grid, 2 * prob.rho0[1].values)),
            "problem": prob,
        }[state]

        def no_step(*args):
            raise AssertionError("a step was set up")

        monkeypatch.setattr("torusflow.parabolic._Scheme", no_step)
        # The bad tuple is the call's third run, index 2 of its trajectories.
        with pytest.raises(error, match=f"^problem 2: .*{message}"):
            tf.run_parabolic(prob, prob.rho0, bad)

    def test_step_failure_names_the_problem(self, monkeypatch):
        # Poison the drift of one row of the stack at one call: the first,
        # which sets the super-step's limits, or a later stage's.
        kernel_sums = tf.parabolic._kernel_sums
        calls, poison = [], []

        def poisoned(model, values):
            out = kernel_sums(model, values)
            calls.append(None)
            call, row = poison
            if len(calls) == call:
                out[row] = np.nan
            return out

        monkeypatch.setattr("torusflow.parabolic._kernel_sums", poisoned)
        prob, rho0 = stage_split_pair()
        for call, row in ((1, 0), (1, 1), (5, 1), (12, 0)):
            calls.clear()
            poison[:] = [call, row]
            with np.errstate(all="ignore"), pytest.raises(
                RuntimeError, match=f"^problem {row}: drift velocities are not finite$"
            ):
                tf.run_parabolic(prob, rho0)
            assert len(calls) == call
        # One problem alone keeps the bare message.
        calls.clear()
        poison[:] = [1, 0]
        with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="^drift velocities are not finite$"
        ):
            tf.run_parabolic(prob)


class TestDivergence:
    """The scheme's divergence takes backward differences of the face fluxes,
    the face/cell convention of ``torusflow.grid``."""

    def divergence(self, grid, values, faces, pressure):
        reg = (regularize(tf.InternalEnergy.entropy(), 1e-3),)
        scheme = tf.parabolic._Scheme(reg, tf.DriftModel.none(grid))
        return scheme.divergence(values, faces, pressure)

    def test_pressure_flux_is_the_compact_laplacian(self):
        # -div(grad(.)) on mode cos(2 pi x): the compact stencil's symbol.
        grid = tf.make_grid(1, 128)
        p = np.cos(2 * np.pi * grid.axis_centers)
        lam = -(2.0 / grid.dx**2) * (1.0 - np.cos(2 * np.pi * grid.dx))
        div = self.divergence(grid, np.ones((1, 1, 128)), None, p[None, None])
        np.testing.assert_allclose(div[0, 0], -lam * p, atol=1e-9)

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
    def test_integration_by_parts(self, dim, n):
        # The pressure flux is -grad p: sum(div * phi) = sum(grad p . grad phi).
        grid = tf.make_grid(dim, n)
        rng = np.random.default_rng(11)
        p, phi = rng.standard_normal((2,) + grid.shape)
        div = self.divergence(grid, np.ones((1, 1) + grid.shape), None, p[None, None])
        lhs = np.sum(div[0, 0] * phi) * grid.cell_volume
        rhs = np.sum(grad_values(grid, p) * grad_values(grid, phi)) * grid.cell_volume
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
    def test_fluxes_telescope(self, dim, n):
        # Pressure and upwind advection fluxes of two runs of two species:
        # every row's divergence sums to zero.
        grid = tf.make_grid(dim, n)
        rng = np.random.default_rng(5)
        values = rng.uniform(0.5, 1.5, (2, 2) + grid.shape)
        faces = rng.standard_normal((2, 2, dim) + grid.shape)
        pressure = rng.standard_normal((2, 2) + grid.shape)
        div = self.divergence(grid, values, faces, pressure)
        assert np.max(np.abs(div.reshape(4, -1).sum(axis=1))) <= 1e-11


class TestStepGuards:
    """Checks of the step that no solve on valid input reaches."""

    def scheme(self, prob):
        regs = tuple(regularize(e, 1e-3) for e in prob.energies)
        return tf.parabolic._Scheme(regs, prob.drift)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_state_raises(self, bad):
        prob = heat_problem(n=16)
        values = np.stack([prob.rho0[0].values])[None]
        values[0, 0, 5] = bad
        scheme = self.scheme(prob)
        with np.errstate(all="ignore"):
            faces, pressure = scheme.velocities(values)
            updated = values - 1e-5 * scheme.divergence(values, faces, pressure)
            with pytest.raises(RuntimeError, match="parabolic step produced non-finite values"):
                scheme.finish(values, updated)

    @pytest.mark.parametrize("mode", ["potential", "velocity"])
    def test_non_finite_drift_velocities_raise(self, mode):
        grid = tf.make_grid(1, 16)
        offs = grid.offset_grids()[0]
        kernel = np.cos(2 * np.pi * offs)
        drift = (
            tf.DriftModel.potential(grid, kernel[None, None])
            if mode == "potential"
            else tf.DriftModel.velocity(grid, kernel[None, None, None])
        )
        prob = tf.Problem(
            grid=grid,
            energies=(tf.InternalEnergy.power(2.0),),
            drift=drift,
            rho0=(cosine_density(grid, 0.2),),
            horizon=1e-3,
            h=1e-3,
        )
        values = np.stack([prob.rho0[0].values])[None]
        values[0, 0, 3] = np.nan
        with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="drift velocities are not finite"
        ):
            self.scheme(prob).velocities(values)


class TestLimits:
    """The CFL limits are taken once per super-step, from every run's peak,
    and the smallest over the runs sets the step."""

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_diffusion_limit_matches_cellwise_curvature(self, m):
        # Run 0 lies below delta_eps, run 1 between the junctions and run 2
        # reaches above M_eps; species 1 has power 2, a second energy group
        # unless m = 2.
        grid = tf.make_grid(1, 32)
        regs = tuple(regularize(tf.InternalEnergy.power(p), 0.05) for p in (m, 2.0))
        rng = np.random.default_rng(11)
        values = np.empty((3, 2) + grid.shape)
        for s, reg in enumerate(regs):
            values[0, s] = rng.uniform(0.0, reg.delta_eps, grid.shape)
            values[1, s] = rng.uniform(reg.delta_eps, reg.M_eps, grid.shape)
            values[2, s] = rng.uniform(0.0, 2.0 * reg.M_eps, grid.shape)
        assert values[0, 0].max() < regs[0].delta_eps
        assert values[2, 0].max() > regs[0].M_eps
        scheme = tf.parabolic._Scheme(regs, tf.DriftModel.none(grid, species=2))
        want = [
            0.25 * grid.dx**2 / max(float(np.max(reg.f_second(v))) for reg, v in zip(regs, run))
            for run in values
        ]
        for k in range(3):
            assert same_bits(scheme.limits(values[k : k + 1], None), (want[k], np.inf))
        # Stacked, the runs take the smallest limit: run 2's, then run 1's.
        assert same_bits(scheme.limits(values, None), (min(want), np.inf))
        assert same_bits(scheme.limits(values[:2], None), (want[1], np.inf))

    def test_limits_are_the_smallest_over_runs(self):
        # Velocity drift with two energy groups, three runs whose reference
        # limits all differ: the stack takes the smallest of each.
        prob = velocity_problem_1d()
        regs = tuple(regularize(e, 1e-3) for e in prob.energies)
        rng = np.random.default_rng(3)
        values = 1 + 0.5 * rng.uniform(-1, 1, (3, 2) + prob.grid.shape)
        scheme = tf.parabolic._Scheme(regs, prob.drift)
        reference = ReferenceScheme(regs, prob.drift)
        faces, _ = scheme.velocities(values)
        got = scheme.limits(values, faces)
        want = [reference.run_limits(v, f) for v, f in zip(values, faces)]
        assert len({d for d, _ in want}) == len({a for _, a in want}) == 3
        assert same_bits(got, (min(d for d, _ in want), min(a for _, a in want)))

    def test_curvature_once_per_super_step(self, monkeypatch):
        cfg = parse_config(REPO / "configs" / "two_species_stability.json")
        calls = []
        f_second = RegularizedEnergy.f_second

        def counted(self, t):
            calls.append(np.shape(t))
            return f_second(self, t)

        monkeypatch.setattr(RegularizedEnergy, "f_second", counted)
        a, b = tf.run_parabolic(cfg.problem, cfg.stability)
        # One energy group: one call on the two runs' peaks per stacked
        # super-step (83), not one per stage (827).
        assert len(calls) == len(a.step_dt) == len(b.step_dt) == 83
        assert int(np.sum(a.step_stages)) == 827
        assert set(calls) == {(2,)}
