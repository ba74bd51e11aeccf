import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusflow as tf
from torusflow.grid import (
    centered_grad_values,
    grad_values,
    minimal_image,
)


class TestMakeGrid:
    def test_1d_definition(self):
        g = tf.make_grid(1, 4)
        assert g.dx == 0.25
        np.testing.assert_allclose(g.axis_centers, [0.125, 0.375, 0.625, 0.875])

    def test_2d_cell_count(self):
        g = tf.make_grid(2, 8)
        assert g.cells == 64
        assert g.shape == (8, 8)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            tf.make_grid(3, 8)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            tf.make_grid(1, 1)

    @pytest.mark.parametrize(
        "dim, n, message",
        [
            (1.0, 16, "unsupported dimension"),
            (True, 16, "unsupported dimension"),
            (1, 16.0, "cells per axis must be an integer"),
            (1, True, "cells per axis must be an integer"),
        ],
    )
    def test_non_integer_sizes_rejected(self, dim, n, message):
        # A float grid would equal its integer twin but fail on .shape, and
        # a float n would pass until a drift or a cost matrix built arrays.
        with pytest.raises(ValueError, match=message):
            tf.make_grid(dim, n)

    def test_numpy_integer_sizes_stored_as_int(self):
        g = tf.make_grid(np.int64(2), np.int32(4))
        assert type(g.dim) is int and type(g.n) is int
        assert g == tf.make_grid(2, 4) and g.shape == (4, 4)

    def test_centers_row_major(self):
        g = tf.make_grid(2, 2)
        centers = g.cell_centers()
        np.testing.assert_allclose(
            centers, [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
        )


def brute_quotient_distance(x, y):
    """Independent oracle: enumerate shifts k in {-1, 0, 1}^d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    best = np.inf
    for k in np.ndindex(*([3] * x.size)):
        shift = np.asarray(k, dtype=float) - 1.0
        best = min(best, float(np.linalg.norm(x - y + shift)))
    return best


def torus_distance(x, y):
    """Length of the wrapped difference, as cost_matrix measures it."""
    return float(np.linalg.norm(np.atleast_1d(minimal_image(np.subtract(x, y)))))


class TestQuotientDistance:
    """minimal_image, the wrap behind every torus cost, gives the quotient metric."""

    def test_identity(self):
        assert torus_distance(0.3, 0.3) == 0.0

    def test_wraps_around(self):
        assert torus_distance(0.1, 0.9) == pytest.approx(
            brute_quotient_distance(0.1, 0.9)
        )
        assert torus_distance(0.1, 0.9) == pytest.approx(0.2)

    def test_antipodal(self):
        assert torus_distance(0.0, 0.5) == pytest.approx(0.5)

    def test_2d_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            assert torus_distance(x, y) == pytest.approx(
                brute_quotient_distance(x, y), abs=1e-14
            )

    @given(
        st.floats(0, 0.999999),
        st.floats(0, 0.999999),
        st.floats(0, 0.999999),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, a, b, c):
        dab = torus_distance(a, b)
        dba = torus_distance(b, a)
        dac = torus_distance(a, c)
        dcb = torus_distance(c, b)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= dac + dcb + 1e-12

    def test_bounded_by_half_diameter(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            assert torus_distance(x, y) <= np.sqrt(2.0) / 2 + 1e-12


class TestDensity:
    def test_normalize_constant(self):
        g = tf.make_grid(1, 8)
        rho = tf.normalize(tf.Density(g, np.full(8, 2.0)))
        np.testing.assert_allclose(rho.values, 1.0)
        assert abs(rho.mass() - 1.0) <= 1e-12

    def test_normalize_idempotent(self):
        g = tf.make_grid(1, 16)
        rho = tf.normalize(tf.Density(g, 1 + 0.3 * np.sin(2 * np.pi * g.axis_centers)))
        again = tf.normalize(rho)
        np.testing.assert_allclose(again.values, rho.values, atol=1e-15)

    def test_degenerate_rejected(self):
        g = tf.make_grid(1, 8)
        with pytest.raises(ValueError, match="degenerate"):
            tf.normalize(tf.Density(g, np.zeros(8)))

    def test_overflowing_mass_rejected(self):
        # Finite values whose sum overflows: no overflow warning, a clear error.
        g = tf.make_grid(1, 4)
        vals = np.array([1e308, 1e308, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="degenerate density: total mass is not finite"):
                tf.normalize(tf.Density(g, vals))

    def test_negative_rejected(self):
        g = tf.make_grid(1, 8)
        with pytest.raises(ValueError, match="nonnegative"):
            tf.Density(g, np.linspace(-0.1, 1.0, 8))

    def test_nan_rejected(self):
        g = tf.make_grid(1, 4)
        vals = np.ones(4)
        vals[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            tf.Density(g, vals)

    def test_shape_checked(self):
        g = tf.make_grid(2, 4)
        with pytest.raises(ValueError, match="shape"):
            tf.Density(g, np.ones(16))


class TestCalculus:
    def test_grad_of_constant(self):
        g = tf.make_grid(2, 8)
        out = grad_values(g, np.full(g.shape, 3.7))
        np.testing.assert_allclose(out, 0.0, atol=1e-13)

    def test_centered_grad_of_mode(self):
        g = tf.make_grid(1, 256)
        f = np.sin(2 * np.pi * g.axis_centers)
        expected = 2 * np.pi * np.cos(2 * np.pi * g.axis_centers)
        # second-order accurate
        assert np.max(np.abs(centered_grad_values(g, f)[0] - expected)) < 1e-3
