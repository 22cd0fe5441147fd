"""Symbols, mean profiles, and the condition checkers."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from specmeans import symbols
from specmeans.symbols import (
    MeanFunction,
    TheoremParameters,
    assemble_hypothesis_report,
    check_derivative_decay,
    check_integrability,
    check_theorem2,
    make_gaussian_mean,
    make_riesz_mean,
    make_smooth_cutoff_mean,
    power_symbol,
    quartic_symbol,
)


SAMPLES = 1000  # random points of the homogeneity and ellipticity checks


def homogeneity_error(sigma, dimension):
    """Max relative error of sigma(lam*y) = lam^m sigma(y) on SAMPLES
    random points."""
    rng = np.random.default_rng(0)
    y = rng.normal(size=(SAMPLES, dimension))
    lam = rng.uniform(0.1, 10.0, size=SAMPLES)
    base = sigma(*y.T)
    scaled = sigma(*(lam * y.T))
    expected = lam**sigma.degree * base
    return float(np.max(np.abs(scaled - expected) / np.abs(expected)))


def sphere_minimum(sigma, dimension):
    """Minimum of sigma over SAMPLES random unit-sphere points."""
    rng = np.random.default_rng(0)
    y = rng.normal(size=(SAMPLES, dimension))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return float(np.min(sigma(*y.T)))


class TestSymbols:
    @pytest.mark.parametrize(
        "sigma,dim",
        [(power_symbol(1.0), 1), (power_symbol(2.0), 2), (power_symbol(2.5), 3), (quartic_symbol(), 2)],
    )
    def test_homogeneity_and_positivity(self, sigma, dim):
        assert homogeneity_error(sigma, dim) < 1e-10
        assert sphere_minimum(sigma, dim) > 0

    def test_zero_extension(self):
        sigma = power_symbol(2.0)
        assert sigma(np.array(0.0)) == 0.0

    def test_degree_validated(self):
        for m in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="degree m"):
                power_symbol(m)


class TestMeanFunctions:
    def test_riesz_values(self):
        p = make_riesz_mean(1.0)
        assert p(0.0) == 1.0
        assert p(0.5) == 0.5
        assert p(2.0) == 0.0
        p2 = make_riesz_mean(2.0)
        assert p2(0.5) == pytest.approx(0.25)

    def test_riesz_indicator(self):
        p = make_riesz_mean(0.0)
        lam = np.array([0.0, 0.5, 1.0, 1.0001, 5.0])
        assert np.allclose(p(lam), [1, 1, 1, 0, 0])

    def test_riesz_negative_rejected(self):
        with pytest.raises(ValueError):
            make_riesz_mean(-0.5)

    def test_riesz_continuity(self):
        # continuous on [0, inf) for s > 0, jump at 1 exactly for s = 0
        lam = np.linspace(0.9, 1.1, 2001)
        for s in (0.5, 1.0, 2.0):
            vals = make_riesz_mean(s)(lam)
            assert np.max(np.abs(np.diff(vals))) < 1e-2
        vals0 = make_riesz_mean(0.0)(lam)
        assert np.max(np.abs(np.diff(vals0))) == 1.0

    def test_gaussian(self):
        p = make_gaussian_mean()
        assert p(0.0) == 1.0
        assert p(math.log(2)) == pytest.approx(0.5, rel=1e-14)

    def test_cutoff_support(self):
        p = make_smooth_cutoff_mean(1.0)
        assert p(0.0) == 1.0
        assert p(0.3) == 1.0
        assert p(2.0) == 0.0
        assert 0.0 < float(p(0.75)) < 1.0

    def test_cutoff_derivatives_vanish_outside(self):
        p = make_smooth_cutoff_mean(1.0)
        for j in (1, 2, 3):
            assert np.all(p.derivative(j, np.array([0.1, 0.4, 1.0, 3.0])) == 0.0)

    def test_cutoff_validated(self):
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tau"):
                make_smooth_cutoff_mean(tau)
        with pytest.raises(ValueError):
            make_smooth_cutoff_mean(1.0).derivative(7, np.array([0.75]))

    def test_p0_validated(self):
        with pytest.raises(ValueError):
            MeanFunction(lambda lam: 2.0 * np.ones_like(np.asarray(lam, dtype=float)), "bad")


class TestIntegrability:
    def test_riesz_compact_support(self):
        res = check_integrability(make_riesz_mean(1.0), 1, 0.5, 2.0)
        assert res.finite
        # oracle: independent quadrature of (1-lam) lam^{-0.25} on [0,1]
        oracle, _ = quad(lambda lam: (1 - lam) * lam ** (-0.25), 0, 1)
        assert res.value == pytest.approx(oracle, rel=1e-6)

    def test_gaussian_gamma_value(self):
        res = check_integrability(make_gaussian_mean(), 3, 1.0, 2.0)
        assert res.finite
        # exponent (3-1-1)/2 = 1/2; oracle integral is Gamma(3/2)
        assert res.value == pytest.approx(math.gamma(1.5), rel=1e-8)

    @pytest.mark.parametrize("tau", [0.75, 1.3125, 3.0])
    def test_cutoff_support_past_one(self, tau):
        # support [0, tau] may end above lambda = 1; oracle: closed form on
        # [0, tau/2] plus an independent quadrature of the bridge
        p = make_smooth_cutoff_mean(tau)
        e = (1 - 0.5 - 1.0) / 2.0
        bridge, _ = quad(lambda lam: float(p(lam)) * lam**e, tau / 2, tau, epsabs=0, epsrel=1e-12)
        oracle = (tau / 2) ** (e + 1) / (e + 1) + bridge
        res = check_integrability(p, 1, 0.5, 2.0)
        assert res.finite
        assert res.value == pytest.approx(oracle, rel=1e-7)  # quad epsrel 1.5e-8

    def test_non_decaying_fails(self):
        one = MeanFunction(
            lambda lam: np.ones_like(np.asarray(lam, dtype=float)), "one"
        )
        assert not check_integrability(one, 3, 1.0, 2.0).finite

    def test_divergence_at_zero(self):
        res = check_integrability(make_gaussian_mean(), 1, 3.0, 2.0)
        assert not res.finite
        assert res.reason == "divergence at 0"


class TestDerivativeDecay:
    def test_gaussian_passes(self):
        res = check_derivative_decay(make_gaussian_mean(), 2)
        assert res.passed
        # oracle: dense scan of exp(-lam) (1+lam)^j
        lam = np.linspace(0, 50, 200001)
        assert res.constants[0] == pytest.approx(1.0, abs=1e-12)
        oracle1 = np.max(np.exp(-lam) * (1 + lam))
        assert res.constants[1] == pytest.approx(oracle1, rel=1e-3)

    def test_indicator_fails(self):
        res = check_derivative_decay(make_riesz_mean(0.0), 1)
        assert not res.passed
        assert 1 in res.failed_orders

    def test_cutoff_passes(self):
        assert check_derivative_decay(make_smooth_cutoff_mean(1.0), 3).passed

    def test_rescaled_family_passes_with_same_constants(self):
        base = make_gaussian_mean()
        baseline = check_derivative_decay(base, 2)
        for t in (1.0, 0.3, 0.05):
            scaled = MeanFunction(
                lambda lam, t=t: base(t * np.asarray(lam, dtype=float)),
                f"gaussian@t={t}",
                lambda j, lam, t=t: t**j * base.derivative(j, t * np.asarray(lam, dtype=float)),
            )
            res = check_derivative_decay(scaled, 2)
            assert res.passed
            for cj, c0 in zip(res.constants, baseline.constants):
                assert cj <= c0 * (1 + 1e-9)


class TestTheorem2Checker:
    def test_indicator_near_zero(self):
        assert check_theorem2(make_riesz_mean(0.0), 0.5).passed

    def test_gaussian(self):
        assert check_theorem2(make_gaussian_mean(), 1.0).passed

    def test_unbounded_fails(self):
        def ev(lam):
            lam = np.asarray(lam, dtype=float)
            return 1.0 / np.maximum(np.abs(lam - 1.0), 1e-300) * np.minimum(
                np.abs(lam - 1.0) + 1.0, 1.0
            ) ** 0 * np.where(lam == 0, 1.0, 1.0) * np.where(
                True, 1.0, 1.0
            ) - (1.0 / np.maximum(np.abs(0.0 - 1.0), 1e-300) - 1.0)

        pole = MeanFunction(ev, "pole")
        res = check_theorem2(pole, 2.0)
        assert not res.bounded
        assert not res.passed

    def test_indicator_discontinuous_past_one(self):
        res = check_theorem2(make_riesz_mean(0.0), 2.0)
        assert not res.continuous_near_zero


class TestHypothesisReport:
    def test_t1_all_pass(self):
        params = TheoremParameters(N=1, m=2, p=2, p0=2, alpha=0.5, beta=1.0, l=1)
        report = assemble_hypothesis_report("T1", params, make_gaussian_mean())
        assert report.passed, report.failed_conditions()
        # recorded arithmetic matches the definitions
        payload = report.to_dict()
        assert payload["parameters"]["alpha0"] == 0.5
        assert payload["parameters"]["eps"] == 0.0

    def test_t1_beta_too_small(self):
        params = TheoremParameters(N=1, m=2, p=2, p0=2, alpha=0.5, beta=0.9, l=1)
        report = assemble_hypothesis_report("T1", params, make_gaussian_mean())
        assert "beta lower bound" in report.failed_conditions()

    def test_t1_indicator_fails_decay(self):
        params = TheoremParameters(N=1, m=2, p=2, p0=2, alpha=0.5, beta=1.5, l=1)
        report = assemble_hypothesis_report("T1", params, make_riesz_mean(0.0))
        assert "derivative decay" in report.failed_conditions()

    def test_t2_pass(self):
        params = TheoremParameters(
            N=1, m=2, p=2, p0=2, alpha=0.5, beta=1.5, alpha0=0.6
        )
        report = assemble_hypothesis_report("T2", params, make_riesz_mean(0.0))
        assert report.passed, report.failed_conditions()

    def test_t2_alpha0_violation(self):
        params = TheoremParameters(
            N=1, m=2, p=2, p0=2, alpha=0.5, beta=1.5, alpha0=0.5
        )
        report = assemble_hypothesis_report("T2", params, make_gaussian_mean())
        assert "alpha0 bound" in report.failed_conditions()

    def test_deterministic(self):
        params = TheoremParameters(N=1, m=2, p=2, p0=2, alpha=0.5, beta=1.0, l=1)
        a = assemble_hypothesis_report("T1", params, make_gaussian_mean()).to_dict()
        b = assemble_hypothesis_report("T1", params, make_gaussian_mean()).to_dict()
        assert a == b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            assemble_hypothesis_report(
                "T1",
                TheoremParameters(N=1, m=2, p=0.5, p0=2, alpha=0.5, beta=1.0),
                make_gaussian_mean(),
            )
        with pytest.raises(ValueError):
            assemble_hypothesis_report(
                "T9",
                TheoremParameters(N=1, m=2, p=2, p0=2, alpha=0.5, beta=1.0),
                make_gaussian_mean(),
            )


class TestCutoffJet:
    """Derivatives of the smooth-cutoff bridge from its Taylor jet."""

    @pytest.mark.parametrize("tau", [0.6, 1.0, 1.3125, 3.0])
    def test_matches_mpmath(self, tau):
        mpmath = pytest.importorskip("mpmath")
        p = make_smooth_cutoff_mean(tau)
        half = tau / 2
        # both ends of the bridge (within 1e-3, and where cancellation in the
        # expanded quotient rule used to lose digits) and its midpoint
        points = [half + 5e-4, half + 1e-3, half + 8e-3 * tau, 0.75 * tau,
                  tau - 8e-3 * tau, tau - 1e-3, tau - 5e-4]
        with mpmath.workdps(50):
            t = mpmath.mpf(tau)

            def bridge(x):
                return 1 / (1 + mpmath.exp(1 / (t - x) - 1 / (x - t / 2)))

            ref = np.array(
                [[float(d) for d in mpmath.diffs(bridge, mpmath.mpf(x), 6)] for x in points]
            )
        for j in range(7):
            sup = np.max(np.abs(p.derivative(j, symbols._DECAY_GRID)))
            got = p.derivative(j, np.array(points))
            assert np.max(np.abs(got - ref[:, j])) <= 1e-12 * sup, j

    @settings(max_examples=20, deadline=None)
    @given(tau=st.floats(0.05, 50.0), u=st.floats(0.01, 0.99))
    def test_random_points_match_mpmath(self, tau, u):
        mpmath = pytest.importorskip("mpmath")
        p = make_smooth_cutoff_mean(tau)
        x = tau / 2 + u * tau / 2
        with mpmath.workdps(40):
            t = mpmath.mpf(tau)
            ref = [
                float(d)
                for d in mpmath.diffs(
                    lambda y: 1 / (1 + mpmath.exp(1 / (t - y) - 1 / (y - t / 2))), mpmath.mpf(x), 6
                )
            ]
        bridge = np.linspace(tau / 2, tau, 2001)
        for j in range(7):
            sup = np.max(np.abs(p.derivative(j, bridge)))
            assert abs(float(p.derivative(j, np.array([x]))[0]) - ref[j]) <= 1e-12 * sup, j

    @pytest.mark.parametrize("tau", [1e-3, 0.6, 1.0, 1.3125, 3.0, 1e3])
    def test_finite_on_decay_grid(self, tau):
        p = make_smooth_cutoff_mean(tau)
        lam = symbols._DECAY_GRID
        flat = (lam <= tau / 2) | (lam >= tau)
        for j in range(7):
            vals = p.derivative(j, lam)
            assert np.all(np.isfinite(vals)), j
            exact = np.where(lam <= tau / 2, 1.0, 0.0) if j == 0 else np.zeros_like(lam)
            assert np.array_equal(vals[flat], exact[flat]), j

    def test_cli_does_not_import_sympy(self, src_env):
        code = (
            "import sys\n"
            "from specmeans.cli import main\n"
            "rc = main(['conditions', '--mean', 'cutoff:1', '--l', '3'])\n"
            "sys.exit(rc or 10 * ('sympy' in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env)
        assert proc.returncode != 10, "sympy was imported"
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True
