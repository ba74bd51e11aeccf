import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import wrightomega

import torusflow as tf
from conftest import cold_kl_prox_power, same_bits
from torusflow.energy import _log_wright_omega

ENTROPY = tf.InternalEnergy.entropy()
POWER2 = tf.InternalEnergy.power(2.0)
POWER3 = tf.InternalEnergy.power(3.0)
ZERO = tf.InternalEnergy.zero()
ALL_KINDS = [ENTROPY, POWER2, POWER3, tf.InternalEnergy.power(1.5), ZERO]


class TestEvaluate:
    """The pointwise maps E, F, F' and F'' of each kind."""

    def test_entropy_at_one(self):
        assert ENTROPY.e(1.0) == 0.0

    def test_entropy_pressure_is_identity(self):
        assert ENTROPY.f_prime(0.3) == pytest.approx(0.3)

    def test_power2_f_at_one(self):
        assert POWER2.f(1.0) == pytest.approx(1.0 / 3.0)

    def test_entropy_at_zero(self):
        assert ENTROPY.e(0.0) == 0.0

    @pytest.mark.parametrize("energy", ALL_KINDS, ids=lambda e: f"{e.kind}{e.m}")
    def test_pressure_identity_against_finite_differences(self, energy):
        # F'(t) = t E'(t) - E(t), with E' replaced by central differences.
        ts = np.linspace(0.2, 4.0, 25)
        delta = 1e-6
        e_prime_fd = (energy.e(ts + delta) - energy.e(ts - delta)) / (2 * delta)
        lhs = ts * e_prime_fd - energy.e(ts)
        np.testing.assert_allclose(lhs, energy.f_prime(ts), atol=1e-8)

    @pytest.mark.parametrize("energy", [ENTROPY, POWER2, POWER3])
    def test_curvature_identity(self, energy):
        # F'' against central differences of F', as F' is checked against E.
        ts = np.linspace(0.1, 3.0, 17)
        delta = 1e-6
        f_prime_fd = (energy.f_prime(ts + delta) - energy.f_prime(ts - delta)) / (2 * delta)
        np.testing.assert_allclose(energy.f_second(ts), f_prime_fd, rtol=1e-7)

    def test_power_exponent_validated(self):
        with pytest.raises(ValueError, match="m > 1"):
            tf.InternalEnergy.power(0.5)


CLOSED_FORM_KINDS = [ENTROPY] + [tf.InternalEnergy.power(m) for m in (1.01, 1.5, 2.0, 3.0, 12.0)]


class TestHypotheses:
    @pytest.mark.parametrize("energy", CLOSED_FORM_KINDS, ids=lambda e: f"{e.kind}{e.m}")
    def test_closed_form(self, energy):
        """The growth constant C and McCann's r^d E(r^-d) stated in the
        energy module's docstring."""
        m = energy.m
        C = 1.0 if energy.kind == "entropy" else max(m - 1.0, 1.0 / (m * (m - 1.0)))
        t = np.logspace(-3, 1, 81)
        e_second = energy.f_second(t) / t  # F'' = t E''
        # At C = 1/(m (m-1)) the first inequality is an equality.
        assert np.all(e_second >= t ** (m - 2.0) / C * (1 - 1e-12))
        assert np.all(energy.f_prime(t) <= C * (1.0 + t**m))
        r = np.logspace(-1, 1, 41)
        for d in (1, 2):
            stated = -d * np.log(r) if energy.kind == "entropy" else r ** (d * (1.0 - m))
            np.testing.assert_allclose(
                r**d * energy.e(r**-d), stated, rtol=1e-12, atol=1e-14
            )


class TestRegularize:
    def test_entropy_is_untouched(self):
        reg = tf.regularize(ENTROPY, 0.5)
        assert reg.delta_eps == 0.0
        assert reg.M_eps == np.inf
        ts = np.linspace(0.0, 5.0, 40)
        np.testing.assert_allclose(reg.f(ts), ENTROPY.f(ts))
        np.testing.assert_allclose(reg.f_prime(ts), ENTROPY.f_prime(ts))

    def test_power3_thresholds(self):
        # F'' = 6 t^2; solve 6 t^2 = eps and 6 t^2 = 1/eps.
        reg = tf.regularize(POWER3, 0.06)
        assert reg.delta_eps == pytest.approx(np.sqrt(0.06 / 6.0))
        assert reg.delta_eps == pytest.approx(0.1)
        assert reg.M_eps == pytest.approx(np.sqrt(1.0 / (0.06 * 6.0)))
        assert reg.M_eps == pytest.approx(1.6667, abs=5e-4)

    @pytest.mark.parametrize("energy", [POWER2, POWER3, tf.InternalEnergy.power(1.5)])
    @pytest.mark.parametrize("eps", [0.3, 0.06, 0.01])
    def test_c1_junctions(self, energy, eps):
        # Any jump in value or first derivative across a junction must vanish
        # beyond the smooth O(gap) drift of the function itself.
        reg = tf.regularize(energy, eps)
        for junction in (reg.delta_eps, reg.M_eps):
            gap = 1e-9 * junction
            lo, hi = junction - gap, junction + gap
            value_jump = reg.f(hi) - reg.f(lo) - 2 * gap * reg.f_prime(junction)
            assert abs(value_jump) <= 1e-10 * max(1.0, abs(reg.f(junction)))
            slope_jump = reg.f_prime(hi) - reg.f_prime(lo) - 2 * gap * reg.f_second(junction)
            assert abs(slope_jump) <= 1e-10 * max(1.0, abs(reg.f_prime(junction)))

    @pytest.mark.parametrize("energy", [ENTROPY, POWER2, POWER3])
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_curvature_clamped(self, energy, eps):
        reg = tf.regularize(energy, eps)
        ts = np.concatenate([[0.0], np.logspace(-4, 2, 200)])
        curv = reg.f_second(ts)
        assert np.all(curv >= eps * (1 - 1e-12))
        assert np.all(curv <= (1.0 / eps) * (1 + 1e-12))

    def test_pointwise_convergence(self):
        eps_values = [0.5, 0.1, 0.02]
        for rho in (0.05, 1.0, 3.0):
            gaps = []
            for eps in eps_values:
                reg = tf.regularize(POWER3, eps)
                gaps.append(abs(reg.f(rho) - POWER3.f(rho)))
                if reg.delta_eps <= rho <= reg.M_eps:
                    assert gaps[-1] == 0.0
            assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            tf.regularize(ZERO, 0.1)

    def test_exponent_near_one(self):
        # The junction powers overflow for m near 1: an M_eps beyond the
        # float range is no upper junction; a delta_eps so large that the
        # lower piece cannot resolve unit densities (overflowing at 1.0001,
        # ~5e120 at 1.0008, ~3e8 at 1.00098) is an error.
        reg = tf.regularize(tf.InternalEnergy.power(1.01), 1e-3)
        assert reg.M_eps == np.inf
        assert 0 < reg.delta_eps < 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts = np.linspace(0.0, 5.0, 11)
            assert np.isfinite(reg.f(ts)).all() and np.isfinite(reg.f_prime(ts)).all()
            assert np.isfinite(reg.f_second(ts)).all()
        for m in (1.0001, 1.0008, 1.00098):
            with pytest.raises(ValueError, match="cannot resolve unit densities"):
                tf.regularize(tf.InternalEnergy.power(m), 1e-3)
        # Just above the band (delta_eps ~ 9e3) the lower piece still
        # resolves unit densities.
        reg = tf.regularize(tf.InternalEnergy.power(1.00099), 1e-3)
        assert reg.delta_eps > 1.0
        t = np.array([1.0, 1.001])
        assert np.diff(reg.f_prime(t))[0] == pytest.approx(1e-6, rel=1e-6)

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            tf.regularize(POWER2, 1.5)


class TestKlProx:
    def test_zero_energy_is_identity(self):
        assert tf.kl_prox(ZERO, 0.7, eps=1e-3, tau=2e-3, u=0.0) == pytest.approx(0.7)

    def test_entropy_closed_form(self):
        # eps log rho + tau (log rho + 1) = 0 at s = 1, u = 0, eps = tau.
        out = tf.kl_prox(ENTROPY, 1.0, eps=1e-3, tau=1e-3, u=0.0)
        assert out == pytest.approx(np.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 5.0])
    def test_power_against_bisection_oracle(self, m):
        # Optimality condition log rho = -m rho^(m-1) for s = 1, u = 0, eps = tau.
        root = brentq(lambda r: np.log(r) + m * r ** (m - 1), 1e-8, 1.0, xtol=1e-15)
        out = tf.kl_prox(tf.InternalEnergy.power(m), 1.0, eps=1e-3, tau=1e-3, u=0.0)
        assert out == pytest.approx(root, abs=1e-10)
        if m == 2.0:
            assert out == pytest.approx(0.42630, abs=5e-6)

    @pytest.mark.parametrize(
        "m, s, eps, tau, u",
        [
            (5.0, 1e50, 1e-3, 2e-3, 0.0),
            (3.0, np.exp(np.linspace(-5.0, 10.0, 16)), 1e-4, 1e-2, -5.0),
        ],
        ids=["m5-huge-center", "m3-strong-potential"],
    )
    def test_power_extreme_inputs(self, m, s, eps, tau, u):
        rho = tf.kl_prox(tf.InternalEnergy.power(m), s, eps, tau, u)
        resid = eps * np.log(rho / s) + tau * (m * rho ** (m - 1) + u)
        assert np.all(np.abs(resid) <= 1e-12)

    @pytest.mark.parametrize("u", [1e6, np.nan, np.inf])
    def test_power_failed_residual_check_raises(self, u):
        # u = 1e6 underflows rho to 0; nan and inf have no solution at all.
        with pytest.raises(RuntimeError, match="kl_prox"):
            tf.kl_prox(POWER2, np.ones(4), eps=1e-3, tau=2e-3, u=u)

    def test_log_wright_omega_matches_scipy(self):
        z = np.concatenate([np.linspace(-700.0, 700.0, 4001), np.logspace(0, 300, 301)])
        got = _log_wright_omega(z)
        want = np.log(wrightomega(z))
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-15
        # Below exp's range omega underflows, while log omega = z - omega = z.
        assert np.array_equal(_log_wright_omega(np.array([-800.0, -1e6])), [-800.0, -1e6])

    @pytest.mark.parametrize("energy", [ENTROPY, POWER2, POWER3, ZERO])
    def test_first_order_condition(self, energy):
        rng = np.random.default_rng(2)
        s = rng.uniform(0.2, 3.0, 20)
        u = rng.uniform(-1.0, 1.0, 20)
        eps, tau = 7e-4, 3e-3
        rho = tf.kl_prox(energy, s, eps, tau, u)
        if energy.kind == "entropy":
            e_prime = np.log(rho) + 1.0
        elif energy.kind == "power":
            e_prime = energy.m * rho ** (energy.m - 1.0)
        else:
            e_prime = 0.0
        resid = eps * np.log(rho / s) + tau * (e_prime + u)
        assert np.max(np.abs(resid)) <= 1e-10

    @pytest.mark.parametrize("energy", [ENTROPY, POWER2, POWER3])
    def test_monotone_in_s_and_u(self, energy):
        s = np.linspace(0.1, 2.0, 15)
        out = tf.kl_prox(energy, s, eps=1e-3, tau=2e-3, u=0.3)
        assert np.all(np.diff(out) >= -1e-12)
        u = np.linspace(-1.0, 1.0, 15)
        out_u = tf.kl_prox(energy, np.full(15, 0.8), eps=1e-3, tau=2e-3, u=u)
        assert np.all(np.diff(out_u) <= 1e-12)

    @pytest.mark.parametrize("energy", [ENTROPY, POWER2])
    def test_small_tau_returns_center(self, energy):
        s = 1.37
        gaps = [
            abs(tf.kl_prox(energy, s, eps=1e-3, tau=tau, u=0.2) - s)
            for tau in (1e-2, 1e-4, 1e-6)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        # gap ~ s (tau/eps) (E'(s) + u) at the smallest tau
        assert gaps[2] < 5 * s * 1e-6 / 1e-3

    def test_vectorized_matches_scalar(self):
        s = np.array([0.3, 1.0, 2.5])
        u = np.array([-0.2, 0.0, 0.4])
        vec = tf.kl_prox(POWER3, s, eps=5e-4, tau=1e-3, u=u)
        for k in range(3):
            assert vec[k] == pytest.approx(
                tf.kl_prox(POWER3, float(s[k]), 5e-4, 1e-3, float(u[k])), rel=1e-12
            )

    def test_positive_center_required(self):
        with pytest.raises(ValueError):
            tf.kl_prox(ENTROPY, 0.0, eps=1e-3, tau=1e-3)

    @pytest.mark.parametrize("energy", [ENTROPY, POWER2, ZERO])
    @pytest.mark.parametrize(
        "s", [[1.0, 0.0, 2.0], [1.0, -0.0], [[1.0, 2.0], [3.0, -1e-300]], [np.nan, 0.0]]
    )
    def test_non_positive_center_in_an_array_raises(self, energy, s):
        with pytest.raises(ValueError, match="prox center s must be positive"):
            tf.kl_prox(energy, np.array(s), eps=1e-3, tau=1e-3, u=np.zeros(np.shape(s)))

    def test_nan_center_passes_the_check(self):
        # The check rejects non-positive centers only: a NaN center reaches
        # the closed form, which returns NaN there for entropy and zero
        # energies, and fails the residual check for power energies.
        s = np.array([0.5, np.nan, 2.0])
        for energy in (ENTROPY, ZERO):
            out = tf.kl_prox(energy, s, eps=1e-3, tau=2e-3, u=0.1)
            assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2]]))
            assert out[0] == tf.kl_prox(energy, 0.5, eps=1e-3, tau=2e-3, u=0.1)
        assert np.isnan(tf.kl_prox(ENTROPY, np.nan, eps=1e-3, tau=2e-3))
        with pytest.raises(RuntimeError, match="kl_prox residual check failed"):
            tf.kl_prox(POWER2, s, eps=1e-3, tau=2e-3, u=0.1)

    def test_u_must_broadcast_to_the_center(self):
        with pytest.raises(ValueError):
            tf.kl_prox(ENTROPY, np.ones(3), eps=1e-3, tau=1e-3, u=np.zeros(4))
        with pytest.raises(ValueError):
            tf.kl_prox(ENTROPY, 1.0, eps=1e-3, tau=1e-3, u=np.zeros(2))

    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_s_property(self, s1, s2):
        lo, hi = sorted((s1, s2))
        out_lo = tf.kl_prox(POWER2, lo, eps=1e-3, tau=2e-3, u=0.1)
        out_hi = tf.kl_prox(POWER2, hi, eps=1e-3, tau=2e-3, u=0.1)
        assert out_lo <= out_hi + 1e-12


class TestKlProxStart:
    """``kl_prox(start=)``: a warm power step that falls back to the cold solve."""

    EPS, TAU = 2e-3, 4e-3

    def inputs(self, n=300):
        rng = np.random.default_rng(7)
        s = np.exp(rng.uniform(-8.0, 3.0, n))
        u = rng.uniform(-2.0, 2.0, n)
        return s, u

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_no_start_returns_the_cold_bits(self, m):
        s, u = self.inputs()
        energy = tf.InternalEnergy.power(m)
        got = tf.kl_prox(energy, s, self.EPS, self.TAU, u)
        assert same_bits(got, cold_kl_prox_power(energy, s, self.EPS, self.TAU, u))

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize(
        "bad",
        [np.nan, 0.0, -1.0, 1e300, 1e-6, 1e3, 1.03],
        ids=["nan", "zero", "negative", "huge", "far-below", "far-above", "near-miss"],
    )
    def test_bad_start_falls_back_to_the_cold_bits(self, m, bad):
        # A start 3% off leaves a one-step residual of 5e-12 to 3e-10: above
        # the 1e-12 bound, so it too must fall back.
        s, u = self.inputs()
        energy = tf.InternalEnergy.power(m)
        cold = cold_kl_prox_power(energy, s, self.EPS, self.TAU, u)
        # Off starts are scaled from the answer; the others are constants.
        start = cold * bad if bad in (1e-6, 1e3, 1.03) else np.full_like(s, bad)
        start[0] = cold[0]  # one good cell does not rescue the rest
        got = tf.kl_prox(energy, s, self.EPS, self.TAU, u, start=start)
        assert same_bits(got, cold)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_start_at_the_answer_takes_the_warm_step(self, m):
        s, u = self.inputs()
        energy = tf.InternalEnergy.power(m)
        cold = cold_kl_prox_power(energy, s, self.EPS, self.TAU, u)
        got = tf.kl_prox(energy, s, self.EPS, self.TAU, u, start=cold)
        assert np.max(np.abs(got - cold) / cold) <= 1e-14
        resid = self.EPS * np.log(got / s) + self.TAU * (m * got ** (m - 1.0) + u)
        assert np.max(np.abs(resid)) <= 1e-12

    def test_warm_step_is_taken(self, monkeypatch):
        # A start at the answer never reaches the cold solve.
        s, u = self.inputs()
        cold = cold_kl_prox_power(POWER2, s, self.EPS, self.TAU, u)

        def no_cold_solve(z):
            raise AssertionError("cold solve reached")

        monkeypatch.setattr("torusflow.energy._log_wright_omega", no_cold_solve)
        tf.kl_prox(POWER2, s, self.EPS, self.TAU, u, start=cold)

    def test_start_is_not_modified(self):
        s, u = self.inputs()
        start = cold_kl_prox_power(POWER3, s, self.EPS, self.TAU, u)
        kept = start.copy()
        tf.kl_prox(POWER3, s, self.EPS, self.TAU, u, start=start)
        assert same_bits(start, kept)

    @pytest.mark.parametrize("energy", [ENTROPY, ZERO])
    @pytest.mark.parametrize("start", [1.0, np.nan, -1.0])
    def test_entropy_and_zero_ignore_the_start(self, energy, start):
        s, u = self.inputs()
        got = tf.kl_prox(energy, s, self.EPS, self.TAU, u, start=np.full_like(s, start))
        assert same_bits(got, tf.kl_prox(energy, s, self.EPS, self.TAU, u))

    def test_scalar_center_takes_a_scalar_start(self):
        cold = tf.kl_prox(POWER2, 0.8, self.EPS, self.TAU, 0.3)
        assert tf.kl_prox(POWER2, 0.8, self.EPS, self.TAU, 0.3, start=cold) == pytest.approx(
            cold, rel=1e-14
        )

    @pytest.mark.parametrize("energy", [ENTROPY, POWER2, ZERO])
    @pytest.mark.parametrize(
        "s, start",
        [(np.ones(4), np.ones(3)), (np.ones(4), np.ones((4, 1))), (1.0, np.ones(1))],
        ids=["length", "rank", "scalar-center"],
    )
    def test_start_of_another_shape_raises(self, energy, s, start):
        with pytest.raises(ValueError, match="start has shape"):
            tf.kl_prox(energy, s, self.EPS, self.TAU, 0.0, start=start)

    @pytest.mark.parametrize("u", [1e6, np.nan, np.inf])
    def test_pathological_parameters_still_raise(self, u):
        with pytest.raises(RuntimeError, match="kl_prox residual check failed"):
            tf.kl_prox(POWER2, np.ones(4), eps=1e-3, tau=2e-3, u=u, start=np.ones(4))
