"""Test-signal generators: support margins and refinement consistency."""

import numpy as np
import pytest

from specmeans import GridSpec, lp_norm, make_signal
from specmeans.spaces import NormSpec, evaluate_norm


class TestBump:
    def test_support_margin(self):
        spec = GridSpec(1, 256)
        u = make_signal("bump", spec)
        x = spec.axis_points()
        outside = np.abs(x) >= 3 * spec.period / 8
        assert np.all(u.values[outside] == 0.0)
        assert np.max(u.values) == pytest.approx(1.0, rel=1e-12)


class TestCone:
    def test_kink_at_origin(self):
        spec = GridSpec(1, 256)
        u = make_signal("truncated_cone", spec)
        mid = spec.points_per_axis // 2
        assert u.values[mid] == pytest.approx(1.0)
        x = spec.axis_points()
        assert np.all(u.values[np.abs(x) >= 3 * spec.period / 8] == 0.0)


class TestRandomBandlimited:
    def test_band_respected(self):
        spec = GridSpec(1, 128)
        u = make_signal("random_bandlimited:3:8", spec)
        from specmeans import forward_transform

        F = forward_transform(u).coefficients
        xi = spec.frequency_magnitude()
        assert np.max(np.abs(F[xi > 8.0])) < 1e-12

    def test_seeded_reproducible(self):
        spec = GridSpec(1, 128)
        a = make_signal("random_bandlimited:3:8", spec)
        b = make_signal("random_bandlimited:3:8", spec)
        assert np.array_equal(a.values, b.values)


class TestFractional:
    def test_refinement_consistent_rough_norm(self):
        # s < gamma - 1/2: norms stabilize under refinement;
        # s > gamma - 1/2: they keep growing (the signal is rougher)
        gamma = 1.5
        vals_smooth, vals_rough = [], []
        for n in (128, 256, 512):
            spec = GridSpec(1, n)
            u = make_signal(f"fractional:{gamma}:5", spec)
            vals_smooth.append(evaluate_norm(u, NormSpec("liouville", s=0.5, p=2.0)))
            vals_rough.append(evaluate_norm(u, NormSpec("liouville", s=1.5, p=2.0)))
        assert abs(vals_smooth[2] / vals_smooth[1] - 1.0) < 0.05
        assert vals_rough[2] / vals_rough[1] > 1.1

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_signal("chirp", GridSpec(1, 64))
