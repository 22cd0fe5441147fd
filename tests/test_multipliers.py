"""Multiplier plans: spectral means, Bessel weights, derivatives."""

import numpy as np
import pytest

from specmeans import (
    GridFunction,
    GridSpec,
    forward_transform,
    make_gaussian_mean,
    make_riesz_mean,
    power_symbol,
    spectral_derivative,
    spectral_mean,
)
from specmeans.multipliers import (
    MultiplierPlan,
    apply_multiplier,
    bessel_plan,
    derivative_plan,
    spectral_mean_plan,
)


def smooth_signal(spec, seed=0):
    rng = np.random.default_rng(seed)
    mesh = spec.meshgrid()
    vals = np.zeros(spec.shape)
    for k in range(1, 5):
        amps = rng.normal(size=spec.dimension)
        vals = vals + sum(a * np.cos(k * m) for a, m in zip(amps, mesh))
    return GridFunction(spec, vals)


class TestPlans:
    def test_plan_shape_validated(self):
        spec = GridSpec(1, 16)
        with pytest.raises(ValueError):
            MultiplierPlan(spec, np.ones(8))
        with pytest.raises(ValueError):
            MultiplierPlan(spec, np.full(16, np.inf))

    def test_zero_mode_is_one(self):
        spec = GridSpec(2, 16)
        plan = spectral_mean_plan(make_gaussian_mean(), 0.3, power_symbol(2.0), spec)
        assert plan.values.reshape(-1)[0] == 1.0

    def test_t_positive(self):
        spec = GridSpec(1, 16)
        with pytest.raises(ValueError):
            spectral_mean_plan(make_gaussian_mean(), 0.0, power_symbol(2.0), spec)

    def test_plan_is_readonly(self):
        spec = GridSpec(1, 16)
        plan = bessel_plan(1.0, spec)
        with pytest.raises(ValueError):
            plan.values[0] = 5.0


class TestSpectralMean:
    def test_eigenfunction(self):
        # e^{ikx} is an eigenvector with eigenvalue p(t k^2)
        spec = GridSpec(1, 64)
        x = spec.axis_points()
        f = GridFunction(spec, np.exp(1j * 3 * x))
        t = 0.2
        g = spectral_mean(make_gaussian_mean(), t, power_symbol(2.0), f)
        lam = np.exp(-t * 9.0)
        assert np.max(np.abs(g.values - lam * f.values)) < 1e-13

    def test_riesz_projects(self):
        # riesz s=0 at scale t keeps exactly the modes with |k|^2 <= 1/t
        spec = GridSpec(1, 64)
        f = smooth_signal(spec, seed=1)
        g = spectral_mean(make_riesz_mean(0.0), 1.0 / 4.0, power_symbol(2.0), f)
        F = forward_transform(f).coefficients
        G = forward_transform(g).coefficients
        k = spec.axis_wavenumbers()
        keep = np.abs(k) <= 2
        assert np.allclose(G[keep], F[keep], atol=1e-13)
        assert np.max(np.abs(G[~keep])) < 1e-13

    def test_heat_semigroup(self):
        # gaussian profile with |y|^2 symbol composes: t then s equals t+s
        spec = GridSpec(1, 64)
        f = smooth_signal(spec, seed=2)
        p = make_gaussian_mean()
        sig = power_symbol(2.0)
        g1 = spectral_mean(p, 0.05, sig, spectral_mean(p, 0.03, sig, f))
        g2 = spectral_mean(p, 0.08, sig, f)
        assert np.max(np.abs(g1.values - g2.values)) < 1e-13

    def test_mass_preserved(self):
        spec = GridSpec(2, 32)
        f = smooth_signal(spec, seed=3)
        g = spectral_mean(make_gaussian_mean(), 0.4, power_symbol(2.0), f)
        assert np.sum(g.values).real == pytest.approx(np.sum(f.values).real, abs=1e-10)


class TestBessel:
    def test_inverse_pair(self):
        spec = GridSpec(1, 64)
        f = smooth_signal(spec, seed=4)
        g = apply_multiplier(bessel_plan(-1.5, spec), apply_multiplier(bessel_plan(1.5, spec), f))
        assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_matches_one_plus_laplacian(self):
        # order 2: (1 + |y|^2) multiplier equals f - f''
        spec = GridSpec(1, 64)
        f = smooth_signal(spec, seed=5)
        g = apply_multiplier(bessel_plan(2.0, spec), f)
        h = f.values - spectral_derivative(f, [2]).values
        assert np.max(np.abs(g.values - h)) < 1e-11


class TestDerivative:
    def test_cosine(self):
        spec = GridSpec(1, 64)
        x = spec.axis_points()
        f = GridFunction(spec, np.cos(3 * x))
        g = spectral_derivative(f, [1])
        assert np.max(np.abs(g.values - (-3 * np.sin(3 * x)))) < 1e-12

    def test_mixed_partial(self):
        spec = GridSpec(2, 32)
        X, Y = spec.meshgrid()
        f = GridFunction(spec, np.sin(2 * X) * np.cos(Y))
        g = spectral_derivative(f, [1, 1])
        expected = 2 * np.cos(2 * X) * (-np.sin(Y))
        assert np.max(np.abs(g.values - expected)) < 1e-11

    def test_bad_index(self):
        spec = GridSpec(2, 16)
        with pytest.raises(ValueError):
            derivative_plan([1], spec)


class TestApply:
    def test_spec_mismatch(self):
        plan = bessel_plan(1.0, GridSpec(1, 32))
        f = GridFunction(GridSpec(1, 64), np.ones(64))
        with pytest.raises(ValueError):
            apply_multiplier(plan, f)

    def test_identity_plan(self):
        spec = GridSpec(2, 16)
        f = smooth_signal(spec, seed=8)
        plan = MultiplierPlan(spec, np.ones(spec.shape))
        g = apply_multiplier(plan, f)
        assert np.max(np.abs(g.values - f.values)) < 1e-13
