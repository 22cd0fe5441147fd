"""Norm routes: Littlewood-Paley partition, Liouville/Besov/Nikolskii/
Sobolev/Slobodetskii norms, and equivalence spot checks."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmeans import (
    BesovParams,
    GridFunction,
    GridSpec,
    NormSpec,
    SpectrumFunction,
    besov_norm_lp,
    besov_norm_modulus,
    build_partition,
    classical_besov_norm,
    difference,
    difference_norms,
    evaluate_norm,
    forward_transform,
    inverse_transform,
    liouville_norm,
    localized_norm,
    lp_norm,
    make_signal,
    modulus_of_continuity,
    nikolskii_norm,
    slobodetskii_norm,
    smooth_window,
    sobolev_norm,
    spectral_derivative,
)
from specmeans import spaces


def trig_signal(spec, seed=0, kmax=5):
    rng = np.random.default_rng(seed)
    mesh = spec.meshgrid()
    vals = np.zeros(spec.shape)
    for k in range(1, kmax + 1):
        for d, m in enumerate(mesh):
            a, b = rng.normal(size=2) / k**2
            vals = vals + a * np.cos(k * m) + b * np.sin(k * m)
    return GridFunction(spec, vals)


class TestPartition:
    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (3, 16)])
    def test_partition_of_unity(self, dim, n):
        part = build_partition(GridSpec(dim, n))
        total = part.base_multiplier + sum(part.shell_multipliers)
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_shell_supports(self):
        # shell k is supported in the annulus 2^{k-1} <= |xi| <= 2^{k+1}
        spec = GridSpec(1, 256)
        part = build_partition(spec)
        xi = spec.frequency_magnitude()
        for k in range(1, part.k_max + 1):
            shell = part.shell(k)
            outside = (xi < 2.0 ** (k - 1) - 1e-12) | (xi > 2.0 ** (k + 1) + 1e-12)
            assert np.max(np.abs(shell[outside])) < 1e-14

    def test_base_covers_low_frequencies(self):
        spec = GridSpec(1, 256)
        part = build_partition(spec)
        xi = spec.frequency_magnitude()
        # base block is chi(2|xi|): identically 1 on |xi| <= 1/2
        assert np.allclose(part.base_multiplier[xi <= 0.5], 1.0, atol=1e-14)
        assert np.allclose(part.base_multiplier[xi >= 1.0], 0.0, atol=1e-14)


class TestLiouville:
    def test_zero_order_is_lp(self):
        f = trig_signal(GridSpec(1, 128), seed=1)
        assert liouville_norm(f, 0.0, 2) == pytest.approx(lp_norm(f, 2), rel=1e-13)

    def test_single_mode(self):
        # e^{ikx}: the norm is (1+k^2)^{s/2} * ||e^{ikx}||_2
        spec = GridSpec(1, 128)
        x = spec.axis_points()
        f = GridFunction(spec, np.exp(1j * 4 * x))
        s = 1.3
        expected = (1 + 16) ** (s / 2) * np.sqrt(2 * np.pi)
        assert liouville_norm(f, s, 2) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_identity_s1_p2(self):
        # (1+|y|^2)^{1/2} weight: norm^2 = ||f||_2^2 + ||f'||_2^2 exactly
        f = trig_signal(GridSpec(1, 128), seed=2)
        from specmeans import spectral_derivative

        lhs = liouville_norm(f, 1.0, 2) ** 2
        rhs = lp_norm(f, 2) ** 2 + lp_norm(spectral_derivative(f, [1]), 2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monotone_in_s(self):
        f = trig_signal(GridSpec(1, 128), seed=3)
        vals = [liouville_norm(f, s, 2) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestDifferences:
    def test_first_difference_of_exponential(self):
        spec = GridSpec(1, 64)
        x = spec.axis_points()
        f = GridFunction(spec, np.exp(1j * 3 * x))
        y = 2 * spec.spacing
        d = difference(f, [y], 1)
        expected = (1.0 - np.exp(1j * 3 * y)) * f.values
        assert np.max(np.abs(d.values - expected)) < 1e-13

    def test_second_difference_annihilates_affine_modes(self):
        # constants are killed exactly by any order >= 1
        spec = GridSpec(1, 64)
        f = GridFunction(spec, np.ones(64))
        d = difference(f, [spec.spacing], 2)
        assert np.max(np.abs(d.values)) < 1e-14

    def test_non_commensurate_rejected(self):
        f = trig_signal(GridSpec(1, 64))
        with pytest.raises(ValueError):
            difference(f, [0.5 * f.spec.spacing], 1)

    def test_modulus_scaling(self):
        # smooth f: omega^1(t) ~ C t for small t (first-order modulus)
        spec = GridSpec(1, 512)
        x = spec.axis_points()
        f = GridFunction(spec, np.sin(x))
        t1 = 16 * spec.spacing
        t2 = 32 * spec.spacing
        w1 = modulus_of_continuity(f, t1, 1, 2)
        w2 = modulus_of_continuity(f, t2, 1, 2)
        assert w2 / w1 == pytest.approx(2.0, rel=0.1)

    def test_modulus_below_spacing_warns(self):
        f = trig_signal(GridSpec(1, 64))
        with pytest.warns(UserWarning):
            assert modulus_of_continuity(f, 0.5 * f.spec.spacing, 1, 2) == 0.0


class TestBesovRoutes:
    def test_lp_route_monotone_in_s(self):
        spec = GridSpec(1, 128)
        f = trig_signal(spec, seed=4)
        part = build_partition(spec)
        v1 = besov_norm_lp(f, BesovParams(0.5, 2, 2), part)
        v2 = besov_norm_lp(f, BesovParams(1.5, 2, 2), part)
        assert v2 > v1

    def test_routes_agree_within_equivalence_factor(self):
        # the three Besov computations are equivalent norms; on a smooth
        # signal their ratios should sit within a modest constant
        spec = GridSpec(1, 128)
        f = trig_signal(spec, seed=5)
        s, p, q = 0.5, 2.0, 2.0
        a = besov_norm_lp(f, BesovParams(s, p, q), build_partition(spec))
        b = besov_norm_modulus(f, BesovParams(s, p, q), m=2)
        c = classical_besov_norm(f, BesovParams(s, p, q))
        for x, y in ((a, b), (a, c), (b, c)):
            r = x / y
            assert 1.0 / 20.0 < r < 20.0

    def test_ratio_stable_under_refinement(self):
        s, p, q = 0.5, 2.0, 2.0
        ratios = []
        for n in (128, 256):
            spec = GridSpec(1, n)
            f = make_signal("fractional:1.5:3", spec)
            a = besov_norm_lp(f, BesovParams(s, p, q), build_partition(spec))
            c = classical_besov_norm(f, BesovParams(s, p, q))
            ratios.append(a / c)
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.25

    def test_modulus_preconditions(self):
        f = trig_signal(GridSpec(1, 64))
        with pytest.raises(ValueError):
            besov_norm_modulus(f, BesovParams(1.5, 2, 2), m=1)
        with pytest.raises(ValueError):
            besov_norm_modulus(f, BesovParams(0.0, 2, 2), m=2)


class TestIntegerOrderNorms:
    def test_sobolev_zero_is_lp(self, monkeypatch):
        # D^0 f = f: no order-0 transform, here or in the fractional routes
        def no_transform(*args):
            raise AssertionError("order-0 spectral derivative")

        monkeypatch.setattr(spaces, "derivative_plan", no_transform)
        f = trig_signal(GridSpec(1, 128), seed=6)
        for p in (1.0, 2.0, 3.0, np.inf):
            assert sobolev_norm(f, 0, p) == lp_norm(f, p)
            nikolskii_norm(f, 0.7, p)
            if p != np.inf:
                classical_besov_norm(f, BesovParams(0.7, p, 2.0))
                slobodetskii_norm(f, 0.5, p)

    def test_sobolev_single_mode(self):
        spec = GridSpec(1, 128)
        x = spec.axis_points()
        f = GridFunction(spec, np.exp(1j * 3 * x))
        base = np.sqrt(2 * np.pi)
        # orders 0,1,2 contribute 1, 3, 9 times the base norm
        assert sobolev_norm(f, 2, 2) == pytest.approx(13 * base, rel=1e-12)

    def test_nikolskii_dominated_by_scaling(self):
        # nikolskii norm grows when high-frequency content is added
        spec = GridSpec(1, 256)
        x = spec.axis_points()
        f = GridFunction(spec, np.sin(x))
        g = GridFunction(spec, np.sin(x) + 0.5 * np.sin(20 * x))
        assert nikolskii_norm(g, 1.5, 2) > nikolskii_norm(f, 1.5, 2)

    def test_slobodetskii_requires_1d_noninteger(self):
        f2 = trig_signal(GridSpec(2, 16))
        with pytest.raises(ValueError):
            slobodetskii_norm(f2, 0.5, 2)
        f1 = trig_signal(GridSpec(1, 64))
        with pytest.raises(ValueError):
            slobodetskii_norm(f1, 1.0, 2)
        with pytest.raises(ValueError, match="finite p"):
            slobodetskii_norm(f1, 0.5, np.inf)

    def test_slobodetskii_single_mode_oracle(self):
        # seminorm of e^{ikx}: double integral with |e^{iky}-1|^p kernel;
        # oracle evaluated by direct summation over the same lattice
        spec = GridSpec(1, 128)
        x = spec.axis_points()
        f = GridFunction(spec, np.cos(2 * x))
        s, p = 0.5, 2.0
        vals = f.values
        dx = spec.spacing
        diff = np.abs(vals[:, None] - vals[None, :]) ** p
        dist = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(dist, np.inf)
        semi = (np.sum(diff / dist ** (1 + s * p)) * dx * dx) ** (1 / p)
        expected = lp_norm(f, p) + semi
        assert slobodetskii_norm(f, s, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 40.0])
    @pytest.mark.parametrize("s", [0.5, 1.5])
    @pytest.mark.parametrize("signal", ["bump", "trig"])
    def test_slobodetskii_matches_plain_sum(self, signal, s, p):
        # the double sum as it stands, wherever it neither overflows nor
        # underflows: the scaled sum differs from it by roundoff only
        spec = GridSpec(1, 64)
        f = make_signal("bump", spec) if signal == "bump" else trig_signal(spec, seed=4)
        k = int(s)
        g = spectral_derivative(f, [k]) if k else f
        x, dx = spec.axis_points(), spec.spacing
        diff = np.abs(g.values[:, None] - g.values[None, :]) ** p
        dist = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(dist, np.inf)
        kernel = diff / dist ** (1.0 + (s - k) * p)
        expected = sobolev_norm(f, k, p) + float((np.sum(kernel) * dx * dx) ** (1.0 / p))
        assert slobodetskii_norm(f, s, p) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_slobodetskii_of_constant_is_lp(self):
        # every difference is 0, so there is no largest term to scale by
        f = GridFunction(GridSpec(1, 64), 2.0 * np.ones(64))
        for p in (2.0, 1000.0):
            assert slobodetskii_norm(f, 0.5, p) == lp_norm(f, p)

    @pytest.mark.parametrize(
        "n,signal,p",
        [
            (64, "bump", 1000),  # plain terms overflow and underflow: 0/0
            (64, "fractional:0.3", 630),  # the largest terms underflow, the sum stays finite
            (128, "fractional:0.3", 490),
        ],
    )
    def test_slobodetskii_large_p_matches_mpmath(self, n, signal, p):
        # at large p the plain terms leave the float range, the near ones
        # (which dominate on a rough signal) first; the scaled sum must
        # match a 30-digit sum
        mpmath = pytest.importorskip("mpmath")
        spec = GridSpec(1, n)
        f = make_signal(signal, spec)
        s = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = slobodetskii_norm(f, s, p)
        x, v = spec.axis_points(), f.values.real
        with mpmath.workdps(30):
            total = mpmath.fsum(
                abs(mpmath.mpf(v[i]) - mpmath.mpf(v[j])) ** p
                / abs(mpmath.mpf(x[i]) - mpmath.mpf(x[j])) ** (1 + s * p)
                for i in range(x.size) for j in range(x.size) if i != j
            )
            semi = float((total * mpmath.mpf(spec.spacing) ** 2) ** (mpmath.mpf(1) / p))
        assert math.isclose(got, lp_norm(f, p) + semi, rel_tol=1e-12, abs_tol=0.0)


class TestWindowAndDispatch:
    def test_window_plateau_and_margin(self):
        spec = GridSpec(1, 256)
        w = smooth_window(spec, 1.0)
        r = np.abs(spec.axis_points())
        assert np.all(w.values[r <= 1.0] == 1.0)
        assert np.all(w.values[r >= 3 * spec.period / 8] == 0.0)
        assert np.all((w.values >= 0) & (w.values <= 1))

    def test_localized_norm_bounded_by_global(self):
        spec = GridSpec(1, 128)
        f = trig_signal(spec, seed=7)
        w = smooth_window(spec, 1.0)
        ns = NormSpec(kind="lp", p=2)
        assert localized_norm(f, w, ns) <= localized_norm(f, None, ns) + 1e-12

    def test_bad_window_rejected(self):
        spec = GridSpec(1, 64)
        f = trig_signal(spec)
        bad = GridFunction(spec, 2.0 * np.ones(64))
        with pytest.raises(ValueError):
            localized_norm(f, bad, NormSpec(kind="lp", p=2))

    def test_dispatch_matches_direct(self):
        spec = GridSpec(1, 128)
        f = trig_signal(spec, seed=8)
        assert evaluate_norm(f, NormSpec(kind="lp", p=3)) == pytest.approx(
            lp_norm(f, 3), rel=1e-13
        )
        assert evaluate_norm(
            f, NormSpec(kind="liouville", s=0.7, p=2)
        ) == pytest.approx(liouville_norm(f, 0.7, 2), rel=1e-13)
        assert evaluate_norm(
            f, NormSpec(kind="slobodetskii", s=0.5, p=2)
        ) == pytest.approx(slobodetskii_norm(f, 0.5, 2), rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(
        grid=st.sampled_from([(1, 16), (1, 64), (2, 8), (2, 32), (3, 8)]),
        p=st.sampled_from([1.0, 2.0, 3.0, np.inf]),
        q=st.sampled_from([1.0, 2.0, np.inf]),
        seed=st.integers(0, 2**16),
    )
    @example(grid=(3, 8), p=2.0, q=np.inf, seed=0)
    def test_spectrum_input_matches_samples(self, grid, p, q, seed):
        spec = GridSpec(*grid)
        rng = np.random.default_rng(seed)
        F = SpectrumFunction(spec, rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
        f = inverse_transform(F)
        window = smooth_window(spec, spec.period / 4)
        for ns in (
            NormSpec("lp", p=p),
            NormSpec("liouville", s=0.7, p=p),
            NormSpec("liouville", s=-1.5, p=p),
            NormSpec("besov_lp", s=0.5, p=p, q=q),
        ):
            assert evaluate_norm(F, ns) == pytest.approx(evaluate_norm(f, ns), rel=1e-12, abs=0)
            assert localized_norm(F, window, ns) == pytest.approx(
                localized_norm(f, window, ns), rel=1e-12, abs=0
            )
        ns = NormSpec("sobolev", s=1, p=p)  # a difference-free sample route
        assert evaluate_norm(F, ns) == evaluate_norm(f, ns)

    def test_unknown_kind(self):
        f = trig_signal(GridSpec(1, 64))
        with pytest.raises(ValueError):
            evaluate_norm(f, NormSpec(kind="sorbet"))


# -- reference for the difference routes: the shift rules enumerated point by
# point and one lp_norm(difference(...)) call per shift -----------------------


def reference_log_nodes(lo, hi):
    count = max(4, int(math.ceil(64 * math.log10(hi / lo))) + 1)
    return np.geomspace(lo, hi, count)


def reference_shifts(spec, t):
    """Shifts 0 < |y| < t; above 512 of them in 2-D/3-D, every
    (count // 256)-th of the list sorted by (round(|y|/h), y)."""
    h = spec.spacing
    jmax = int(math.ceil(t / h)) + 1
    if spec.dimension == 1:
        return [np.array([j * h]) for j in range(1, jmax + 1) if 0 < j * h < t]
    vecs = []
    for idx in itertools.product(range(-jmax, jmax + 1), repeat=spec.dimension):
        v = h * np.array(idx, dtype=float)
        if 0 < np.linalg.norm(v) < t:
            vecs.append(v)
    if len(vecs) > 512:
        vecs.sort(key=lambda v: (round(np.linalg.norm(v) / h), tuple(v)))
        vecs = vecs[:: len(vecs) // 256]
    return vecs


def reference_h_set(spec):
    """(vector, |vector|, weight) per quadrature step, magnitudes
    log-spaced in [h, L/4] along 64 (2-D) or 128 (3-D) directions; each
    |vector| is h * sqrt(sum k^2) of its integer step k, so steps of equal
    lattice length, such as (3, 4) and (5, 0), have equal magnitudes."""
    h, hi = spec.spacing, spec.period / 4.0
    if spec.dimension == 1:
        dirs, weight = [np.array([1.0])], 2.0
    elif spec.dimension == 2:
        angles = 2 * np.pi * (np.arange(64) + 0.5) / 64
        dirs, weight = [np.array([math.cos(a), math.sin(a)]) for a in angles], 2 * np.pi / 64
    else:
        raw = np.random.default_rng(12345).normal(size=(128, 3))
        dirs, weight = [v / np.linalg.norm(v) for v in raw], 4 * np.pi / 128
    out, seen = [], set()
    for r in reference_log_nodes(h, hi):
        for d in dirs:
            steps = tuple(int(round(r * di / h)) for di in d)
            vec = h * np.array(steps, dtype=float)
            mag = h * math.sqrt(sum(k * k for k in steps))
            if any(steps) and mag <= hi and steps not in seen:
                seen.add(steps)
                out.append((vec, mag, weight))
    return out


def reference_modulus_besov(f, s, p, q, m):
    """Every axis contributes the same L_q(dt/t) term."""
    ts = reference_log_nodes(f.spec.spacing, f.spec.period / 2.0)
    omegas = [
        max((lp_norm(difference(f, y, m), p) for y in reference_shifts(f.spec, t)), default=0.0)
        for t in ts
    ]
    weighted = ts ** (-s) * np.array(omegas)
    term = float(np.trapezoid(weighted**q, np.log(ts))) ** (1.0 / q)
    total = lp_norm(f, p)
    for _ in range(f.spec.dimension):
        total += term
    return total


def reference_classical(f, s, p, q):
    """0 < s < 1: order-0 Sobolev part plus the radial log-trapezoid of
    the second-difference integrand.  The powers are taken on arrays, as
    the route takes them: the scalar pow rounds some of them differently."""
    steps = reference_h_set(f.spec)
    lengths = np.array([mag for _, mag, _ in steps])
    vals = np.array([lp_norm(difference(f, vec, 2), p) for vec, _, _ in steps])
    terms = np.array([w for _, _, w in steps]) * (lengths ** (-s) * vals) ** q
    by_mag = {}
    for mag, term in zip(lengths.tolist(), terms.tolist()):
        by_mag.setdefault(mag, []).append(term)
    mags = np.array(sorted(by_mag))
    radial = np.array([sum(by_mag[r]) for r in mags])
    return sobolev_norm(f, 0, p) + float(np.trapezoid(radial, np.log(mags))) ** (1.0 / q)


def reference_nikolskii(f, s, p):
    best = 0.0
    for vec, mag, _ in reference_h_set(f.spec):
        best = max(best, mag ** (-s) * lp_norm(difference(f, vec, 2), p))
    return sobolev_norm(f, 0, p) + best


class TestDifferenceKernel:
    def test_kernel_matches_difference(self):
        # real and complex samples; p = 2 reads the norms from an
        # autocorrelation, which rounds differently from the stencil
        spec = GridSpec(2, 16)
        g = trig_signal(spec, seed=9)
        steps = np.array([[1, 0], [0, -3], [2, 5], [-7, 7]])
        for f, m, p in itertools.product((g, g * (1.0 + 2.0j)), (1, 2, 3), (2.0, 3.0)):
            expected = [lp_norm(difference(f, spec.spacing * y, m), p) for y in steps]
            got = difference_norms(f, steps, m, p).tolist()
            if p == 2:
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
            else:
                assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(
        grid=st.sampled_from([(1, 16), (1, 64), (2, 16), (2, 32), (3, 8)]),
        m=st.sampled_from([1, 2, 3]),
        signal=st.sampled_from(["bump", "trig", "complex"]),
        seed=st.integers(0, 2**16),
    )
    # smooth bumps on fine grids: the autocorrelation sum cancels at the
    # unit steps, and the guard must recompute them
    @example(grid=(1, 1024), m=2, signal="bump", seed=0)
    @example(grid=(2, 128), m=2, signal="bump", seed=0)
    @example(grid=(2, 256), m=2, signal="bump", seed=0)
    @example(grid=(3, 32), m=2, signal="bump", seed=0)
    def test_l2_route_matches_stencil(self, grid, m, signal, seed):
        spec = GridSpec(*grid)
        n, dim = spec.points_per_axis, spec.dimension
        if signal == "bump":
            f = make_signal("bump", spec)
        else:
            f = trig_signal(spec, seed=seed, kmax=n // 4)
            if signal == "complex":
                f = f + 1j * trig_signal(spec, seed=seed + 1, kmax=n // 4)
        drawn = np.random.default_rng(seed).integers(-n + 1, n, size=(12, dim))
        steps = np.concatenate([np.eye(dim, dtype=int), drawn[np.any(drawn != 0, axis=1)]])
        expected = [lp_norm(difference(f, spec.spacing * y, m), 2.0) for y in steps]
        np.testing.assert_allclose(difference_norms(f, steps, m, 2.0), expected, rtol=1e-12, atol=0.0)

    def test_kernel_rejects_bad_steps(self):
        f = trig_signal(GridSpec(2, 16))
        with pytest.raises(ValueError):
            difference_norms(f, np.array([1, 2]), 2, 2.0)
        with pytest.raises(ValueError):
            difference_norms(f, np.array([[1, 2]]), 0, 2.0)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (2, 32), (2, 64), (3, 8), (3, 16)])
    def test_shift_rules_match_reference(self, dim, n):
        # every t node's modulus set, and the h-quadrature steps in order
        spec = GridSpec(dim, n)

        def lattice(vectors):
            return [tuple(int(k) for k in np.rint(v / spec.spacing)) for v in vectors]

        ts, steps, members, starts = spaces._modulus_shifts(spec)
        assert ts.tolist() == reference_log_nodes(spec.spacing, spec.period / 2.0).tolist()
        # the flat sets: one offset per t node, each set running to the next
        assert starts.size == ts.size and starts[0] == 0 and np.all(np.diff(starts) >= 0)
        for t, chunk in zip(ts, np.split(members, starts[1:])):
            assert sorted(map(tuple, steps[chunk].tolist())) == sorted(
                lattice(reference_shifts(spec, t))
            )
        h_steps, mags, nodes, node_of, weight = spaces._difference_h_set(spec)
        expected = reference_h_set(spec)
        assert list(map(tuple, h_steps.tolist())) == lattice(v for v, _, _ in expected)
        assert mags.tolist() == [mag for _, mag, _ in expected]
        assert all(w == weight for _, _, w in expected)
        # one radial node per distinct squared length, each step mapped to its own
        assert nodes.tolist() == sorted(set(mags.tolist()))
        assert nodes[node_of].tolist() == mags.tolist()
        assert nodes.size == np.unique(np.sum(h_steps * h_steps, axis=1)).size
        # built once per grid and shared read-only
        assert spaces._modulus_shifts(spec) is spaces._modulus_shifts(GridSpec(dim, n))
        assert spaces._difference_h_set(spec) is spaces._difference_h_set(GridSpec(dim, n))
        cached = (ts, steps, members, starts, h_steps, mags, nodes, node_of)
        assert not any(a.flags.writeable for a in cached)

    @settings(max_examples=25, deadline=None)
    @given(
        grid=st.sampled_from([(1, 32), (2, 16), (2, 32), (3, 8), (3, 16)]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @example(grid=(3, 16), seed=0, data=None)  # subsampled sets, no random ones
    def test_flat_moduli_match_per_set_max(self, grid, seed, data):
        # the route's own sets (the first one empty; subsampled above
        # SHIFT_CAP on (2, 32) and (3, 16)) and random sets, empty ones included
        spec = GridSpec(*grid)
        f = trig_signal(spec, seed=seed, kmax=spec.points_per_axis // 4)
        _, steps, members, starts = spaces._modulus_shifts(spec)
        sizes = np.diff(np.append(starts, members.size))
        assert sizes[0] == 0 and sizes.max() <= spaces.SHIFT_CAP
        sets = np.split(members, starts[1:])
        if data is not None:
            index = st.integers(0, len(steps) - 1)
            sets = [np.array(chunk, dtype=int) for chunk in data.draw(
                st.lists(st.lists(index, max_size=12), min_size=1, max_size=8)
            )]
            members = np.concatenate(sets)
            starts = np.cumsum([0] + [chunk.size for chunk in sets[:-1]])
        norms = difference_norms(f, steps, 2, 2.0)
        expected = [np.max(norms[chunk], initial=0.0) for chunk in sets]
        assert spaces._moduli(norms, members, starts).tolist() == expected
        # a stack of norms, one row per function
        assert spaces._moduli(np.stack([norms, 2 * norms]), members, starts).tolist() == [
            expected, [2 * v for v in expected]
        ]

    @pytest.mark.parametrize("grid", [(1, 64), (2, 64)])
    @pytest.mark.parametrize("stack_bytes", [spaces.STACK_BYTES, 1])
    def test_guard_recompute_matches_per_step_formula(self, grid, stack_bytes, monkeypatch):
        # smooth functions flag their short steps; every flagged (function,
        # step) pair, recomputed in blocks (one pair per block at 1 byte),
        # matches the per-step positive spectral sum
        monkeypatch.setattr(spaces, "STACK_BYTES", stack_bytes)
        spec = GridSpec(*grid)
        n = spec.points_per_axis
        bump = make_signal("bump", spec).values
        values = np.stack([bump, np.roll(bump, 5, axis=0), bump * (1.0 + 0.5j)])
        flagged = []

        def spy(*args):
            sums = exact(*args)
            flagged.append((args[3], args[4], sums))
            return sums

        exact = spaces._exact_difference_sums
        monkeypatch.setattr(spaces, "_exact_difference_sums", spy)
        steps = spaces._difference_h_set(spec)[0]
        sums = spaces._l2_difference_sums(spaces._Stack(spec, values), steps, 2)
        ((rows, cols, recomputed),) = flagged
        assert set(rows.tolist()) == {0, 1, 2}
        assert sums[rows, cols].tolist() == recomputed.tolist()
        response = (2.0 * np.sin(np.pi * np.arange(n) / n)) ** 4
        modes = np.indices(spec.shape).reshape(spec.dimension, -1)
        for row, col, got in zip(rows, cols, recomputed):
            power = np.abs(forward_transform(GridFunction(spec, values[row])).coefficients) ** 2
            want = power.reshape(-1) @ response[(steps[col] @ modes) % n] / power.size
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        grid=st.sampled_from([(1, 16), (1, 32), (1, 64), (2, 8), (2, 16), (2, 32), (3, 8)]),
        m=st.sampled_from([1, 2]),
        p=st.sampled_from([1.0, 2.0, 3.0, np.inf]),
        seed=st.integers(0, 2**16),
    )
    @example(grid=(2, 32), m=2, p=2.0, seed=0)  # above the 512-shift subsampling
    @example(grid=(3, 8), m=1, p=np.inf, seed=1)
    @example(grid=(1, 64), m=1, p=3.0, seed=157)  # a scalar q-th power rounds differently
    def test_routes_match_reference(self, grid, m, p, seed):
        spec = GridSpec(*grid)
        f = trig_signal(spec, seed=seed, kmax=spec.points_per_axis // 4)
        s = 0.7 if m == 2 else 0.5

        def same(got, want):
            # p = 2 reads the differences from an autocorrelation, which
            # rounds differently from the spatial stencil of the references
            return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0) if p == 2 else got == want

        assert same(besov_norm_modulus(f, BesovParams(s, p, 2.0), m), reference_modulus_besov(
            f, s, p, 2.0, m
        ))
        assert same(nikolskii_norm(f, 0.7, p), reference_nikolskii(f, 0.7, p))
        assert classical_besov_norm(f, BesovParams(0.7, p, np.inf)) == nikolskii_norm(f, 0.7, p)
        if p != np.inf:
            assert same(classical_besov_norm(f, BesovParams(0.7, p, 2.0)), reference_classical(
                f, 0.7, p, 2.0
            ))

    @pytest.mark.parametrize("grid", [(2, 64), (3, 16)])
    def test_classical_matches_reference_where_lengths_repeat(self, grid):
        # grids where distinct steps such as (3, 4) and (5, 0) share a length
        f = trig_signal(GridSpec(*grid), seed=3, kmax=4)
        assert classical_besov_norm(f, BesovParams(0.7, 3.0, 2.0)) == reference_classical(f, 0.7, 3.0, 2.0)
