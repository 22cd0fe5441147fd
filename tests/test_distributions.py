"""Point-mass distributions: duality, spectra, negative-order norms,
membership classification, convergence of means."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeans import (
    CompactDistribution,
    GridFunction,
    GridSpec,
    NormSpec,
    PointAtom,
    SpectrumFunction,
    classify_membership,
    distribution_convergence,
    forward_transform,
    inverse_transform,
    localized_norm,
    make_gaussian_mean,
    make_riesz_mean,
    make_signal,
    negative_liouville_norm,
    pair,
    pair_distribution,
    power_symbol,
    smooth_window,
    spectrum_of_distribution,
    verify_duality,
)
from specmeans import distributions
from specmeans.multipliers import bessel_plan, spectral_mean_plan


def delta(location=(0.0,), alpha=(0,), weight=1.0):
    return CompactDistribution(atoms=(PointAtom(location, alpha, weight),))


def smooth_probe(spec, seed=0):
    rng = np.random.default_rng(seed)
    mesh = spec.meshgrid()
    vals = np.zeros(spec.shape)
    for k in range(1, 4):
        for m in mesh:
            a, b = rng.normal(size=2) / k**2
            vals = vals + a * np.cos(k * m) + b * np.sin(k * m)
    return GridFunction(spec, vals)


class TestValidation:
    def test_margin_enforced(self):
        spec = GridSpec(1, 64)
        f = delta(location=(0.9 * np.pi,))
        with pytest.raises(ValueError):
            f.validate(spec)

    def test_order_cap(self):
        spec = GridSpec(1, 64)
        f = delta(alpha=(5,))
        with pytest.raises(ValueError):
            f.validate(spec)

    def test_dimension_mismatch(self):
        spec = GridSpec(2, 16)
        with pytest.raises(ValueError):
            delta(location=(0.0,)).validate(spec)


class TestPairing:
    def test_delta_samples_probe(self):
        # <delta_{x0}, phi> = phi(x0), including off-lattice x0
        spec = GridSpec(1, 64)
        phi = smooth_probe(spec, seed=1)
        x0 = 0.3137
        val = pair_distribution(delta(location=(x0,)), phi)
        # oracle: the probe is a low-order trig polynomial, evaluate it
        # from its spectrum by direct summation
        from specmeans import forward_transform

        F = forward_transform(phi)
        k = spec.axis_wavenumbers()
        oracle = np.sum(F.coefficients * np.exp(1j * k * x0)) * spec.freq_cell_volume
        assert abs(val - oracle) < 1e-12

    def test_derivative_atom(self):
        # <D delta_0, phi> = -phi'(0) for the first-derivative atom
        spec = GridSpec(1, 128)
        x = spec.axis_points()
        phi = GridFunction(spec, np.sin(3 * x))
        val = pair_distribution(delta(alpha=(1,)), phi)
        assert val.real == pytest.approx(-3.0, abs=1e-12)

    def test_density_pairing(self):
        spec = GridSpec(1, 64)
        phi = smooth_probe(spec, seed=2)
        rho = smooth_probe(spec, seed=3)
        f = CompactDistribution(density=rho)
        from specmeans import pair

        assert pair_distribution(f, phi) == pytest.approx(pair(rho, phi), rel=1e-13)

    def test_density_on_a_coarser_grid(self):
        # `validate` accepts a density sampled on a coarser lattice: it
        # pairs as its band-limited refinement
        fine = GridSpec(1, 64)
        f = CompactDistribution(density=make_signal("bump", GridSpec(1, 32)))
        phi = smooth_probe(fine, seed=2)
        refined = inverse_transform(spectrum_of_distribution(f, fine))
        assert pair_distribution(f, phi) == pytest.approx(pair(refined, phi), rel=1e-13)

    def test_linearity(self):
        spec = GridSpec(1, 64)
        phi = smooth_probe(spec, seed=4)
        a = pair_distribution(delta(location=(0.5,), weight=2.0), phi)
        b = pair_distribution(delta(location=(0.5,), weight=1.0), phi)
        assert a == pytest.approx(2.0 * b, rel=1e-13)


class TestSpectrum:
    def test_delta_spectrum_flat_magnitude(self):
        spec = GridSpec(1, 64)
        F = spectrum_of_distribution(delta(), spec)
        expected = (2 * np.pi) ** (-1)
        assert np.allclose(np.abs(F.coefficients), expected, atol=1e-15)

    def test_realization_consistent_with_pairing(self):
        # <f, phi> computed two ways: distribution pairing vs pairing of
        # the band-limited realization (exact for band-limited probes)
        spec = GridSpec(1, 64)
        phi = smooth_probe(spec, seed=5)
        f = CompactDistribution(
            atoms=(
                PointAtom((0.7,), (0,), 1.0),
                PointAtom((-0.4,), (1,), 0.5),
            )
        )
        from specmeans import pair

        direct = pair_distribution(f, phi)
        via_grid = pair(inverse_transform(spectrum_of_distribution(f, spec)), phi)
        assert abs(direct - via_grid) < 1e-11


class TestDuality:
    @pytest.mark.parametrize(
        "atoms",
        [
            ((0.0,), (0,)),
            ((0.3137,), (0,)),
            ((-0.91,), (2,)),
            ((0.55,), (4,)),
        ],
    )
    def test_mean_duality(self, atoms):
        loc, alpha = atoms
        spec = GridSpec(1, 64)
        phi = smooth_probe(spec, seed=6)
        f = delta(location=loc, alpha=alpha)
        for t in (1.0, 1e-2, 1e-4):
            defect = verify_duality(
                make_gaussian_mean(), t, power_symbol(2.0), f, phi
            )
            assert defect < 1e-9

    def test_duality_2d(self):
        spec = GridSpec(2, 32)
        phi = smooth_probe(spec, seed=7)
        f = CompactDistribution(atoms=(PointAtom((0.4, -0.2), (1, 0), 1.0),))
        defect = verify_duality(make_gaussian_mean(), 0.01, power_symbol(2.0), f, phi)
        assert defect < 1e-9


def inverse_transform_duality(p, t, sigma, f, phi):
    """(lhs, rhs, scale) of <p(tA)f, phi> = <f, p(tA)phi> by the
    inverse-transform route: lhs pairs the samples of p(tA)f with phi; rhs
    pairs each atom's interpolation weights with the spectrum of p(tA)phi,
    and the density with its samples.  The scale is the sum of the
    magnitudes of the terms each side adds up in spectral form, which
    bounds |lhs| + |rhs| and sets their roundoff: cancellation can make
    |lhs| + |rhs| itself arbitrarily small.  phi and the density are real,
    so |Phi(-k)| = |Phi(k)|."""
    spec = phi.spec
    W = (2 * np.pi) ** spec.dimension * spec.freq_cell_volume  # Parseval weight
    P = spectral_mean_plan(p, t, sigma, spec).values
    F = spectrum_of_distribution(f, spec)
    Phi = forward_transform(phi).coefficients
    lhs = pair(inverse_transform(SpectrumFunction(spec, P * F.coefficients)), phi)
    scale = W * np.sum(np.abs(P * F.coefficients * Phi))
    PPhi = SpectrumFunction(spec, P * Phi)
    rhs = 0.0 + 0.0j
    for a in f.atoms:
        w = distributions._atom_mode_weights(spec, a.location, a.alpha, sign=+1)
        rhs += complex(a.weight) * (-1.0) ** sum(a.alpha) * np.sum(PPhi.coefficients * w) * spec.freq_cell_volume
        scale += abs(a.weight) * np.sum(np.abs(PPhi.coefficients * w)) * spec.freq_cell_volume
    if f.density is not None:
        rhs += pair(f.density, inverse_transform(PPhi))
        scale += W * np.sum(np.abs(PPhi.coefficients * forward_transform(f.density).coefficients))
    return lhs, rhs, scale


@st.composite
def _duality_case(draw):
    N = draw(st.integers(1, 3))
    spec = GridSpec(N, draw(st.sampled_from([8, 16])))
    inside = st.floats(-2.0, 2.0)  # the L/8 margin leaves |x_d| <= 3 pi / 4
    alpha = st.lists(st.integers(0, 2), min_size=N, max_size=N).filter(lambda a: sum(a) <= 2)
    weight = st.builds(complex, st.floats(0.5, 2.0), st.floats(-1.0, 1.0))
    atom = st.builds(PointAtom, st.tuples(*[inside] * N), alpha.map(tuple), weight)
    atoms = draw(st.lists(atom, min_size=1, max_size=3))
    density = make_signal("bump", spec) if draw(st.booleans()) else None
    return spec, CompactDistribution(tuple(atoms), density), draw(st.floats(1e-4, 1.0))


class TestDualityDefect:
    """The duality defect as two spectral pairings, summed per orbit for
    a symmetric symbol and per mode otherwise, against the
    inverse-transform route."""

    @settings(max_examples=60, deadline=None)
    @given(case=_duality_case(), riesz=st.booleans())
    def test_orbits_modes_and_inverse_transform_at_roundoff(self, case, riesz):
        spec, f, t = case
        # smooth and periodic, with no symmetry and nonzero mixed derivatives
        phi = GridFunction(spec, np.exp(sum(np.sin(x + 0.4 + 0.3 * d) for d, x in enumerate(spec.meshgrid()))))
        p, sigma = make_riesz_mean(2.0) if riesz else make_gaussian_mean(), power_symbol(2.0)
        on_orbits = verify_duality(p, t, sigma, f, phi)
        on_modes = verify_duality(p, t, replace(sigma, symmetric=False), f, phi)
        lhs, rhs, scale = inverse_transform_duality(p, t, sigma, f, phi)
        oracle = abs(lhs - rhs)
        for defect in (on_orbits, on_modes, oracle):
            assert defect <= 1e-13 * scale, (on_orbits, on_modes, oracle, scale)
        # each side is the pairing it names, not merely equal to the other
        P = spectral_mean_plan(p, t, sigma, spec).values
        sides = distributions._duality_sides(f, spectrum_of_distribution(f, spec), phi)
        for side, value in zip(sides, (lhs, rhs)):
            assert abs(np.sum(P * side) - value) <= 1e-13 * scale, (np.sum(P * side), value, scale)


class TestNegativeNorm:
    def test_alpha_sign_checked(self):
        spec = GridSpec(1, 64)
        with pytest.raises(ValueError):
            negative_liouville_norm(delta(), -0.5, 2, spec)

    def test_decreasing_in_alpha(self):
        # stronger smoothing weight gives a smaller norm
        spec = GridSpec(1, 128)
        f = delta()
        v = [negative_liouville_norm(f, a, 2, spec) for a in (0.0, 0.5, 1.0)]
        assert v[0] > v[1] > v[2]

    def test_parseval_oracle(self):
        # p = 2, delta at 0: squared norm is a lattice sum computable
        # directly from the multiplier values
        spec = GridSpec(1, 128)
        alpha = 0.75
        val = negative_liouville_norm(delta(), alpha, 2, spec)
        xi = spec.frequency_magnitude()
        weights = (1 + xi**2) ** (-alpha / 2.0)
        # |F delta|^2 = (2 pi)^{-2}; Parseval carries (2 pi)(2 pi / L)
        oracle = np.sqrt(
            (2 * np.pi) * spec.freq_cell_volume * np.sum(weights**2) / (2 * np.pi) ** 2
        )
        assert val == pytest.approx(oracle, rel=1e-12)


class TestMembership:
    def test_delta_member_above_half(self):
        # 1-D delta lies in L_2^{-alpha} iff alpha > 1/2
        spec = GridSpec(1, 512)
        res = classify_membership(delta(), 0.75, 2, spec)
        assert res["verdict"] == "member"

    def test_delta_non_member_below_half(self):
        spec = GridSpec(1, 512)
        res = classify_membership(delta(), 0.3, 2, spec)
        assert res["verdict"] == "non-member"

    def test_near_critical_not_non_member(self):
        # just above the critical exponent the lattice sums converge too
        # slowly to stabilize at this resolution, but they must not be
        # flagged as divergent
        spec = GridSpec(1, 512)
        res = classify_membership(delta(), 0.51, 2, spec)
        assert res["verdict"] != "non-member"

    def test_smooth_density_member_at_zero(self):
        spec = GridSpec(1, 256)
        rho = make_signal("bump", spec)
        res = classify_membership(CompactDistribution(density=rho), 0.0, 2, spec)
        assert res["verdict"] == "member"


class TestConvergence:
    def test_errors_decrease(self):
        spec = GridSpec(1, 64)
        w = smooth_window(spec, 1.0)
        ts = [1e-1 * 0.5**j for j in range(8)]
        recs = distribution_convergence(
            make_gaussian_mean(), ts, power_symbol(2.0), delta(), 0.75, 2, spec, w
        )
        errs = [r["error"] for r in recs]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_mean_of_distribution_smooths(self):
        spec = GridSpec(1, 128)
        plan = spectral_mean_plan(make_gaussian_mean(), 0.1, power_symbol(2.0), spec)
        F = spectrum_of_distribution(delta(), spec)
        g = inverse_transform(SpectrumFunction(spec, plan.values * F.coefficients))
        # heat evolution of delta: positive, concentrated at 0, mass 1
        assert np.max(g.values.real) == g.values.real[spec.points_per_axis // 2]
        mass = np.sum(g.values.real) * spec.cell_volume
        assert mass == pytest.approx(1.0, rel=1e-8)

    def test_pairing_error_reported(self):
        spec = GridSpec(1, 64)
        probe = smooth_probe(spec, seed=8)
        recs = distribution_convergence(
            make_gaussian_mean(),
            [1e-2, 1e-3],
            power_symbol(2.0),
            delta(),
            0.75,
            2,
            spec,
            None,
            probe=probe,
        )
        assert recs[1]["pairing_error"] < recs[0]["pairing_error"] + 1e-12
        # the duality defect <p(tA)f, phi> - <f, p(tA)phi> is roundoff
        assert all(r["pairing_error"] <= 1e-9 for r in recs)

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("with_density", [False, True])
    def test_pairing_error_is_verify_duality(self, dimension, with_density):
        spec = GridSpec(dimension, 32)
        probe = smooth_probe(spec, seed=9)
        atoms = (
            PointAtom((0.3, -0.2)[:dimension], (1, 0)[:dimension], 0.5 + 0.2j),
            PointAtom((-0.7,) * dimension, (0,) * dimension, 1.0),
        )
        density = make_signal("bump", spec) if with_density else None
        f = CompactDistribution(atoms, density)
        p, sigma, ts = make_gaussian_mean(), power_symbol(2.0), [1e-1, 1e-2, 1e-3]
        recs = distribution_convergence(p, ts, sigma, f, 0.75, 2, spec, None, probe=probe)
        assert [r["pairing_error"] for r in recs] == [
            verify_duality(p, t, sigma, f, probe) for t in ts
        ]

    @pytest.mark.parametrize("steps", [2, 5])
    def test_atom_weights_built_once_per_sweep(self, steps, monkeypatch):
        """Each atom's mode weights are built twice, once for the spectrum
        and once for the pairing, however many t the sweep takes."""
        calls = []
        build = distributions._atom_mode_weights

        def counted(spec, x0, alpha, sign):
            calls.append(sign)
            return build(spec, x0, alpha, sign)

        monkeypatch.setattr(distributions, "_atom_mode_weights", counted)
        spec = GridSpec(1, 32)
        f = CompactDistribution((PointAtom((0.3,), (1,), 0.5 + 0.2j), PointAtom((-0.7,), (0,), 1.0)))
        ts = [1e-1 * 0.5**j for j in range(steps)]
        distribution_convergence(
            make_gaussian_mean(), ts, power_symbol(2.0), f, 0.75, 2, spec, None, probe=smooth_probe(spec)
        )
        assert sorted(calls) == [-1, -1, 1, 1]

    @settings(max_examples=25, deadline=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        p_exp=st.sampled_from([2.0, 3.0]),
        windowed=st.booleans(),
        riesz=st.booleans(),
        alpha=st.floats(0.5, 2.0),
        x=st.floats(-1.5, 1.5),
        order=st.integers(1, 2),
        weight=st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0)),
        ts=st.lists(st.floats(1e-3, 1e-1), min_size=1, max_size=3),
    )
    def test_error_matches_bessel_after_mean(
        self, dimension, p_exp, windowed, riesz, alpha, x, order, weight, ts
    ):
        """The sweep measures (P - 1)·(bessel·F); the reference takes the
        other product order, bessel·((P - 1)·F), and agrees to roundoff."""
        spec = GridSpec(dimension, 16)
        atoms = (
            PointAtom((x,) + (0.2,) * (dimension - 1), (order,) + (0,) * (dimension - 1), complex(*weight)),
            PointAtom((0.0,) * dimension, (0,) * dimension, 1.0),
        )
        f = CompactDistribution(atoms)
        mean, sigma = make_riesz_mean(2.0) if riesz else make_gaussian_mean(), power_symbol(2.0)
        window = smooth_window(spec, 1.0) if windowed else None
        recs = distribution_convergence(mean, ts, sigma, f, alpha, p_exp, spec, window)
        F = spectrum_of_distribution(f, spec).coefficients
        bessel = bessel_plan(-alpha, spec).values
        for t, rec in zip(ts, recs):
            P = spectral_mean_plan(mean, t, sigma, spec).values
            g = SpectrumFunction(spec, bessel * ((P - 1.0) * F))
            assert rec["error"] == pytest.approx(localized_norm(g, window, NormSpec("lp", p=p_exp)), rel=1e-14)
