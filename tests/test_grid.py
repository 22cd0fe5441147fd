"""Transform layer: round trips, Parseval, norms, pairings."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeans import (
    GridFunction,
    GridSpec,
    SpectrumFunction,
    forward_transform,
    inverse_transform,
    lp_norm,
    pair,
    spectral_l2_norm,
)
from specmeans.grid import _field_to_json, _orbits


def random_field(spec, seed=0, real=False):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=spec.shape)
    if not real:
        vals = vals + 1j * rng.normal(size=spec.shape)
    return GridFunction(spec, vals)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(4, 16)
        with pytest.raises(ValueError):
            GridSpec(1, 7)
        with pytest.raises(ValueError):
            GridSpec(1, 15)
        with pytest.raises(ValueError):
            GridSpec(1, 16, -1.0)

    def test_frequency_lattice(self):
        spec = GridSpec(1, 16, 4 * np.pi)
        k = spec.axis_wavenumbers()
        assert k.min() == -8 and k.max() == 7
        assert np.allclose(np.sort(spec.axis_frequencies()), 0.5 * np.arange(-8, 8))

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(2, 8)
        with pytest.raises(ValueError):
            GridFunction(spec, np.zeros(8))
        with pytest.raises(ValueError):
            GridFunction(spec, np.full((8, 8), np.nan))


class TestForwardTransform:
    def test_constant(self):
        spec = GridSpec(1, 32)
        F = forward_transform(GridFunction(spec, np.ones(32)))
        assert abs(F.coefficients[0] - 1.0) < 1e-14
        assert np.max(np.abs(F.coefficients[1:])) < 1e-14

    def test_lattice_exponential(self):
        spec = GridSpec(1, 32)
        x = spec.axis_points()
        F = forward_transform(GridFunction(spec, np.exp(1j * 5 * x)))
        k = spec.axis_wavenumbers()
        peak = np.flatnonzero(np.abs(F.coefficients) > 1e-12)
        assert list(k[peak]) == [5]

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_round_trip(self, dim, n):
        spec = GridSpec(dim, n)
        f = random_field(spec, seed=dim)
        g = inverse_transform(forward_transform(f))
        rel = np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12


class TestInverseTransform:
    def test_delta_spectrum(self):
        spec = GridSpec(1, 32)
        coeffs = np.zeros(32, dtype=complex)
        coeffs[3] = 1.0
        f = inverse_transform(SpectrumFunction(spec, coeffs))
        x = spec.axis_points()
        expected = spec.freq_cell_volume * np.exp(1j * 3 * x)
        assert np.max(np.abs(f.values - expected)) < 1e-13

    def test_zero_spectrum(self):
        spec = GridSpec(1, 32)
        f = inverse_transform(SpectrumFunction(spec, np.zeros(32)))
        assert np.all(f.values == 0)

    def test_forward_of_inverse(self):
        spec = GridSpec(1, 64)
        rng = np.random.default_rng(7)
        F = SpectrumFunction(spec, rng.normal(size=64) + 1j * rng.normal(size=64))
        G = forward_transform(inverse_transform(F))
        rel = np.max(np.abs(G.coefficients - F.coefficients)) / np.max(
            np.abs(F.coefficients)
        )
        assert rel < 1e-12


class TestLpNorm:
    def test_constant_l2(self):
        spec = GridSpec(1, 32)
        f = GridFunction(spec, np.full(32, 3.0))
        assert lp_norm(f, 2) == pytest.approx(3.0 * np.sqrt(2 * np.pi), rel=1e-14)

    def test_max_norm(self):
        spec = GridSpec(1, 32)
        f = random_field(spec, seed=2)
        assert lp_norm(f, np.inf) == np.max(np.abs(f.values))

    def test_invalid_p(self):
        spec = GridSpec(1, 32)
        with pytest.raises(ValueError):
            lp_norm(random_field(spec), 0.5)

    def test_parseval(self):
        for seed in range(5):
            spec = GridSpec(1, 64)
            f = random_field(spec, seed=seed)
            direct = lp_norm(f, 2)
            spectral = spectral_l2_norm(forward_transform(f))
            assert abs(direct - spectral) / direct < 1e-10

    @pytest.mark.parametrize("grid", [(1, 32), (2, 16), (3, 8)])
    def test_matches_scalar_formula(self, grid):
        # the stacked norms take the root with the scalar pow, as
        # (sum |f|^p h^N) ** (1/p) does on a float: equal, not close
        spec = GridSpec(*grid)
        for seed in range(40):
            f = random_field(spec, seed=seed)
            for p in (1.5, 2.0, 3.0, 7.0):
                mags = np.abs(f.values)
                assert lp_norm(f, p) == float((np.sum(mags**p) * spec.cell_volume) ** (1.0 / p))

    def test_homogeneity_and_triangle(self):
        spec = GridSpec(1, 32)
        rng = np.random.default_rng(11)
        for seed in range(20):
            f = random_field(spec, seed=seed)
            g = random_field(spec, seed=seed + 100)
            c = rng.normal() + 1j * rng.normal()
            for p in (1, 2, 3.5, np.inf):
                assert lp_norm(c * f, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)
                assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12


class TestPair:
    def test_constants(self):
        spec = GridSpec(1, 32)
        one = GridFunction(spec, np.ones(32))
        assert pair(one, one) == pytest.approx(2 * np.pi, rel=1e-14)
        zero = GridFunction(spec, np.zeros(32))
        assert pair(one, zero) == 0

    def test_orthogonality(self):
        spec = GridSpec(1, 32)
        x = spec.axis_points()
        ek = GridFunction(spec, np.exp(1j * 4 * x))
        emk = GridFunction(spec, np.exp(-1j * 4 * x))
        assert pair(ek, emk) == pytest.approx(2 * np.pi, rel=1e-13)
        assert abs(pair(ek, ek)) < 1e-13

    def test_symmetric_bilinear(self):
        spec = GridSpec(1, 32)
        rng = np.random.default_rng(3)
        for seed in range(10):
            f = random_field(spec, seed)
            g = random_field(spec, seed + 50)
            h = random_field(spec, seed + 90)
            a, b = rng.normal(size=2)
            assert abs(pair(f, g) - pair(g, f)) < 1e-12
            lhs = pair(a * f + b * h, g)
            rhs = a * pair(f, g) + b * pair(h, g)
            assert abs(lhs - rhs) < 1e-12

    def test_spec_mismatch(self):
        f = random_field(GridSpec(1, 32))
        g = random_field(GridSpec(1, 64))
        with pytest.raises(ValueError):
            pair(f, g)


class TestSerialization:
    def test_to_json_matches_per_element_formula(self):
        spec = GridSpec(1, 16)
        special = [-0.0, 5e-324, -2.2e-310, 1e300, -1e-300, 3.0, -7.0, 0.1, 2.0**53, 1.0 / 3.0]
        re_part = np.array(special + [0.0] * 6)
        im_part = np.array([0.0] * 6 + special[::-1])
        values = (re_part + 1j * im_part).reshape(spec.shape)
        values[-1] = complex(-0.0, -0.0)
        for field in (GridFunction(spec, values), SpectrumFunction(spec, values)):
            flat = values.reshape(-1)
            old = [[float(v.real), float(v.imag)] for v in flat]
            expected = json.dumps({"spec": {"N": 1, "n": 16, "L": spec.period}, "values": old})
            assert field.to_json() == expected


    # floats where repr switches notation (1e-5, 1e16), their neighbours,
    # and the extremes: json writes each with float.__repr__ too
    EDGES = [float(np.nextafter(e, e * step)) for e in (1e-5, 1e-4, 1e15, 1e16, 1e17) for step in (0.0, 1.0, 2.0)]
    FLOATS = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1.7976931348623157e308] + EDGES).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    ).flatmap(lambda v: st.sampled_from([v, -v]))

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.sampled_from([(1, 8), (1, 16), (2, 8), (3, 8)]),
        period=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    def test_to_json_matches_json_dumps(self, grid, period, data):
        spec = GridSpec(*grid, period)
        parts = np.array(data.draw(st.lists(self.FLOATS, min_size=2 * spec.size, max_size=2 * spec.size)))
        head = {"N": spec.dimension, "n": spec.points_per_axis, "L": spec.period}
        complex_values = parts.view(complex).reshape(spec.shape)  # keeps the sign of -0.0
        real_values = parts[: spec.size].reshape(spec.shape)
        for values in (complex_values, real_values):
            flat = values.astype(complex).reshape(-1)
            expected = json.dumps({"spec": head, "values": np.stack([flat.real, flat.imag], -1).tolist()})
            assert _field_to_json(spec, values) == expected
        assert GridFunction(spec, complex_values).to_json() == _field_to_json(spec, complex_values)


class TestOrbits:
    @pytest.mark.parametrize("grid, count", [
        ((1, 256), 129), ((2, 128), 2145), ((3, 64), 6545), ((2, 10, 10.0), 21), ((3, 8, 1.0), 35),
    ])
    def test_orbit_is_the_sorted_wavenumber_magnitudes(self, grid, count):
        spec = GridSpec(*grid)
        orbit, coords = _orbits(spec)
        assert orbit.dtype == np.int32 and orbit.shape == spec.shape
        k = np.abs(spec.axis_wavenumbers())
        mesh = np.meshgrid(*([k] * spec.dimension), indexing="ij")
        sorted_k = np.sort(np.stack([m.reshape(-1) for m in mesh]), axis=0)
        reps = np.stack(coords) * spec.period / (2.0 * math.pi)
        assert reps.shape == (spec.dimension, count)
        assert np.array_equal(np.rint(reps), np.unique(sorted_k, axis=1))
        assert np.array_equal(np.rint(reps)[:, orbit.reshape(-1)], sorted_k)

    def test_one_read_only_table_per_grid(self):
        orbit, coords = _orbits(GridSpec(2, 16, 3.0))
        again = _orbits(GridSpec(2, 16, 3.0))
        assert again[0] is orbit and all(a is b for a, b in zip(again[1], coords))
        for arr in (orbit, *coords):
            with pytest.raises(ValueError):
                arr[0] = 0
