"""Acceptance suite: every criterion prints one PASS/FAIL line.

Scenario 1: entropy energy, zero drift, rho0 = 1 + 0.5 cos(2 pi x), n = 128,
T = 0.05, both solvers (JKO at h = 1e-3, eps = 5e-4).
Scenario 2: porous medium m = 2, zero drift, n = 128, T = 0.1, both solvers.
Scenario 8: two-species nonsymmetric velocity-kernel system on n = 64.
"""

import time

import numpy as np
import pytest

import torusflow as tf
from torusflow.grid import centered_grad_values
from torusflow.interaction import gaussian_bump_kernel

from conftest import (
    cosine_density,
    heat_problem,
    heat_values,
    mode_amplitude,
    spectral_heat_trajectory,
)

JKO_EPS = 5e-4


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def scenario1():
    problem = heat_problem(n=128, amplitude=0.5, horizon=0.05, h=1e-3)
    t0 = time.perf_counter()
    traj_jko = tf.run_jko(problem, eps=JKO_EPS, tol=1e-9)
    jko_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    traj_par = tf.run_parabolic(problem, eps_reg=1e-3, cfl_safety=0.9)
    par_seconds = time.perf_counter() - t0
    return {
        "problem": problem,
        "jko": traj_jko,
        "parabolic": traj_par,
        "jko_seconds": jko_seconds,
        "parabolic_seconds": par_seconds,
    }


@pytest.fixture(scope="module")
def scenario1_half():
    problem = heat_problem(n=128, amplitude=0.5, horizon=0.05, h=5e-4)
    return {"problem": problem, "jko": tf.run_jko(problem, eps=JKO_EPS, tol=1e-9)}


@pytest.fixture(scope="module")
def scenario2():
    grid = tf.make_grid(1, 128)
    problem = tf.Problem(
        grid=grid,
        energies=(tf.InternalEnergy.power(2.0),),
        drift=tf.DriftModel.none(grid),
        rho0=(cosine_density(grid, 0.5),),
        horizon=0.1,
        h=1e-3,
    )
    return {
        "problem": problem,
        "jko": tf.run_jko(problem, eps=JKO_EPS, tol=1e-9),
        "parabolic": tf.run_parabolic(problem, eps_reg=1e-3, cfl_safety=0.9),
    }


def _stability_drift(grid, zero=False):
    l = 2
    kernels = np.zeros((l, l, grid.dim) + grid.shape)
    if not zero:
        shapes = {
            (0, 0): (0.10, 0.25),
            (0, 1): (0.16, 0.45),
            (1, 0): (0.13, -0.20),
            (1, 1): (0.12, 0.30),
        }
        for (i, j), (sigma, amp) in shapes.items():
            bump = gaussian_bump_kernel(grid, sigma=sigma, amplitude=amp)
            kernels[i, j, 0] = centered_grad_values(grid, bump)[0]
        # constant component: a nonzero-mean field on the circle is not the
        # gradient of any periodic potential
        kernels[0, 1, 0] += 0.1
    return tf.DriftModel.velocity(grid, kernels)


def _stability_pair(zero_drift=False):
    grid = tf.make_grid(1, 64)
    drift = _stability_drift(grid, zero=zero_drift)
    energies = (tf.InternalEnergy.power(2.0), tf.InternalEnergy.power(2.0))
    base_a = heat_values(grid, 0.5, 0.0)
    base_b = 1 + 0.5 * np.sin(2 * np.pi * grid.axis_centers)
    rho_a = (
        tf.normalize(tf.Density(grid, base_a)),
        tf.normalize(tf.Density(grid, base_b)),
    )
    rho_b = (
        tf.normalize(tf.Density(grid, np.roll(base_a, 2))),
        tf.normalize(tf.Density(grid, np.roll(base_b, 4))),
    )

    def run(rho0):
        problem = tf.Problem(
            grid=grid,
            energies=energies,
            drift=drift,
            rho0=rho0,
            horizon=0.1,
            h=0.02,
        )
        return tf.run_parabolic(problem, eps_reg=1e-3, cfl_safety=0.9)

    return drift, run(rho_a), run(rho_b)


@pytest.fixture(scope="module")
def stability_runs():
    drift, traj_a, traj_b = _stability_pair(zero_drift=False)
    c_hat = tf.stability_constant(drift, pairs=6)
    series = tf.stability_compare(traj_a, traj_b, c_hat=c_hat, eps=1e-4, margin=0.2)
    _, zero_a, zero_b = _stability_pair(zero_drift=True)
    zero_series = tf.stability_compare(zero_a, zero_b, c_hat=0.0, eps=1e-4, margin=0.2)
    return {
        "c_hat": c_hat,
        "series": series,
        "zero_series": zero_series,
        "trajectories": [traj_a, traj_b, zero_a, zero_b],
    }


def test_c01_heat_flow_oracle(scenario1):
    problem = scenario1["problem"]
    target = 0.5 * np.exp(-4 * np.pi**2 * 0.05)

    traj = scenario1["jko"]
    k = int(round(0.05 / problem.h))
    assert traj.times[k] == pytest.approx(0.05)
    jko_err = abs(mode_amplitude(traj.states[k][0].values) / target - 1.0)

    par = scenario1["parabolic"]
    kp = int(np.argmin(np.abs(par.times - 0.05)))
    par_err = abs(mode_amplitude(par.states[kp][0].values) / target - 1.0)

    runtime = scenario1["jko_seconds"] + scenario1["parabolic_seconds"]
    ok = jko_err <= 0.05 and par_err <= 0.005 and runtime <= 60.0
    report(
        1,
        "heat-flow oracle",
        ok,
        f"jko {jko_err:.2%}, parabolic {par_err:.3%}, {runtime:.1f}s",
    )
    assert jko_err <= 0.05
    assert par_err <= 0.005
    assert runtime <= 60.0


def test_c02_cross_solver_agreement(scenario2):
    grid = scenario2["problem"].grid
    jko, par = scenario2["jko"], scenario2["parabolic"]
    kj = int(round(0.1 / scenario2["problem"].h))
    kp = int(np.argmin(np.abs(par.times - 0.1)))
    l1 = float(
        np.sum(np.abs(jko.states[kj][0].values - par.states[kp][0].values))
        * grid.cell_volume
    )
    ok = l1 <= 2e-2
    report(2, "cross-solver agreement (porous medium)", ok, f"L1 {l1:.2e}")
    assert l1 <= 2e-2


def test_c03_transport_oracle():
    grid = tf.make_grid(1, 16)
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for _ in range(25):
        n_atoms = int(rng.integers(2, 7))
        cells_a = rng.choice(grid.n, size=n_atoms, replace=False)
        cells_b = rng.choice(grid.n, size=n_atoms, replace=False)
        vals_a = np.zeros(grid.n)
        vals_b = np.zeros(grid.n)
        vals_a[cells_a] = 1.0
        vals_b[cells_b] = 1.0
        mu = tf.normalize(tf.Density(grid, vals_a))
        nu = tf.normalize(tf.Density(grid, vals_b))
        exact = tf.exact_w2_permutation(
            grid.axis_centers[cells_a], grid.axis_centers[cells_b]
        )
        approx = tf.sinkhorn_w2(mu, nu, eps=1e-4, tol=1e-12).w2_sq
        if exact < 1e-12:
            assert approx < 1e-9
            continue
        worst = max(worst, abs(approx - exact) / exact)
    ok = worst <= 0.01
    report(3, "transport oracle vs permutation enumeration", ok, f"worst {worst:.2%}")
    assert worst <= 0.01


def test_c04_conservation_and_positivity(scenario1, scenario2, stability_runs):
    worst_mass = 0.0
    worst_min = np.inf
    trajectories = [
        scenario1["jko"],
        scenario1["parabolic"],
        scenario2["jko"],
        scenario2["parabolic"],
        *stability_runs["trajectories"],
    ]
    clipped = 0.0
    for traj in trajectories:
        for state in traj.states:
            for rho in state:
                worst_mass = max(worst_mass, abs(rho.mass() - 1.0))
                worst_min = min(worst_min, float(np.min(rho.values)))
        clipped = max(clipped, traj.clipped_mass)
    ok = worst_mass <= 1e-12 and worst_min >= 0.0 and clipped <= 1e-8
    report(
        4,
        "conservation and positivity",
        ok,
        f"mass err {worst_mass:.1e}, min {worst_min:.1e}, clipped {clipped:.1e}",
    )
    assert worst_mass <= 1e-12
    assert worst_min >= 0.0
    assert clipped <= 1e-8


def test_c05_energy_dissipation_ledger(scenario1, scenario2):
    ledger1 = tf.energy_ledger(scenario1["jko"], scenario1["problem"])
    ledger2 = tf.energy_ledger(scenario2["jko"], scenario2["problem"])
    clean = int(ledger1.flags.sum() + ledger2.flags.sum())

    corrupted = tf.Trajectory(
        grid=scenario1["jko"].grid,
        h=scenario1["jko"].h,
        times=scenario1["jko"].times,
        states=list(scenario1["jko"].states),
        energies=scenario1["jko"].energies,
        w2_sq=scenario1["jko"].w2_sq,
        jko_eps=scenario1["jko"].jko_eps,
    )
    corrupted.states[3], corrupted.states[4] = corrupted.states[4], corrupted.states[3]
    bad_flags = int(tf.energy_ledger(corrupted, scenario1["problem"]).flags.sum())

    ok = clean == 0 and bad_flags >= 1
    report(
        5,
        "energy-dissipation ledger",
        ok,
        f"clean flags {clean}, corrupted flags {bad_flags}",
    )
    assert clean == 0
    assert bad_flags >= 1


def test_c06_holder_estimate(scenario1, scenario1_half):
    ratio_h = tf.holder_check(scenario1["jko"], sample_pairs=20)
    ratio_half = tf.holder_check(scenario1_half["jko"], sample_pairs=20)
    change = max(ratio_h, ratio_half) / min(ratio_h, ratio_half)
    ok = change <= 2.0
    report(
        6,
        "Holder time-regularity ratio",
        ok,
        f"h: {ratio_h:.3f}, h/2: {ratio_half:.3f}, change x{change:.2f}",
    )
    assert change <= 2.0


def test_c07_sobolev_dissipation_stability(scenario1, scenario1_half):
    value_h = tf.sobolev_estimate(scenario1["jko"], m=1.0)
    value_half = tf.sobolev_estimate(scenario1_half["jko"], m=1.0)
    rel = abs(value_half - value_h) / value_h
    ok = rel <= 0.10
    report(
        7,
        "dissipated Sobolev norm under step refinement",
        ok,
        f"h: {value_h:.4f}, h/2: {value_half:.4f}, change {rel:.2%}",
    )
    assert rel <= 0.10


def test_c08_stability_bound(stability_runs):
    series = stability_runs["series"]
    zero_series = stability_runs["zero_series"]
    initial = series.w2_sums[0]
    drift_ok = not series.flags.any()
    tol = 2e-4  # entropic tolerance of the distance evaluations
    contraction_ok = bool(np.all(np.diff(zero_series.w2_sums) <= tol))
    ok = drift_ok and contraction_ok and 5e-4 <= initial <= 2e-3
    report(
        8,
        "trajectory stability bound",
        ok,
        f"initial {initial:.2e}, c_hat {stability_runs['c_hat']:.2f}, "
        f"max ratio {np.max(series.w2_sums / series.bounds):.2f}",
    )
    assert drift_ok
    assert contraction_ok
    assert 5e-4 <= initial <= 2e-3


def test_c09_weak_residual(scenario1):
    problem = scenario1["problem"]
    oracle = spectral_heat_trajectory(problem)
    phi = tf.separable_test_function(problem.grid, oracle.times)
    coarse = tf.weak_residual(oracle, problem, phi, mode="potential")

    fine_problem = heat_problem(n=256, amplitude=0.5, horizon=0.05, h=5e-4)
    fine_oracle = spectral_heat_trajectory(fine_problem)
    fine_phi = tf.separable_test_function(fine_problem.grid, fine_oracle.times)
    fine = tf.weak_residual(fine_oracle, fine_problem, fine_phi, mode="potential")

    order = float(np.log2(coarse / fine))
    ok = coarse <= 5e-3 and order >= 0.9
    report(
        9,
        "weak-form residual of the injected oracle",
        ok,
        f"coarse {coarse:.2e}, fine {fine:.2e}, order {order:.2f}",
    )
    assert coarse <= 5e-3
    assert order >= 0.9


def test_c10_euler_lagrange_residual():
    grid = tf.make_grid(1, 128)
    h = 1e-3
    energy = tf.InternalEnergy.entropy()
    rho = cosine_density(grid, 0.5)
    out, res = tf.jko_step(
        rho, h, energy, None, eps=JKO_EPS, tol=1e-11, debias=False, return_plan=True
    )
    xi = tf.trig_vector_field(grid, phase=np.pi / 4)
    converged = tf.el_residual(rho, out, h, energy, None, xi, res.plan)

    bad_vals = out.values.copy()
    bad_vals[: grid.n // 2] *= 1.1
    bad = tf.normalize(tf.Density(grid, bad_vals))
    plan_bad = tf.sinkhorn_w2(rho, bad, eps=JKO_EPS, tol=1e-11, return_plan=True).plan
    perturbed = tf.el_residual(rho, bad, h, energy, None, xi, plan_bad)

    ok = converged <= 1e-2 and perturbed >= 10 * converged
    report(
        10,
        "first-variation residual",
        ok,
        f"converged {converged:.2e}, perturbed {perturbed:.2e}",
    )
    assert converged <= 1e-2
    assert perturbed >= 10 * converged
