"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line on success so the suite doubles as a
checklist; tolerances are part of the contract and must not be loosened.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from specmeans import (
    CompactDistribution,
    ExperimentConfig,
    GridFunction,
    GridSpec,
    PointAtom,
    build_partition,
    classify_membership,
    distribution_convergence,
    evaluate_norm,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_gaussian_mean,
    make_riesz_mean,
    make_smooth_cutoff_mean,
    make_signal,
    power_symbol,
    quartic_symbol,
    run_convergence_function,
    run_equivalence,
    spectral_l2_norm,
    spectral_mean,
    verify_duality,
)
from specmeans.spaces import NormSpec
from specmeans.symbols import (
    TheoremParameters,
    assemble_hypothesis_report,
    check_derivative_decay,
)


def _report(num, text):
    print(f"criterion {num:02d}: PASS ({text})")


def sweep_errors(**fields):
    """Errors of the CLI's convergence sweep, from t0 = 0.1 down by
    factors of 4 over 7 steps."""
    config = ExperimentConfig(dimension=1, t0=0.1, ratio=0.25, steps=7, **fields)
    return [r["error"] for r in run_convergence_function(config)["records"]]


def slow_transform_1d(u, spec):
    """Independent O(n^2) direct evaluation of the forward transform."""
    x = spec.axis_points()
    xi = spec.axis_frequencies()
    phase = np.exp(-1j * np.outer(xi, x))
    return (2 * np.pi) ** (-1) * spec.cell_volume * phase @ u


class TestCriterion01TransformLayer:
    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(0)
        for dim, n in ((1, 256), (2, 256)):
            spec = GridSpec(dim, n)
            vals = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
            f = GridFunction(spec, vals)
            start = time.perf_counter()
            g = inverse_transform(forward_transform(f))
            rel = np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values))
            assert rel <= 1e-12
            direct = lp_norm(f, 2)
            spectral = spectral_l2_norm(forward_transform(f))
            assert abs(direct - spectral) / direct <= 1e-10
            assert time.perf_counter() - start < 1.0
        _report(1, "round trip <= 1e-12, Parseval <= 1e-10, N<=2 n=256, < 1 s")


class TestCriterion02DiagonalIdentity:
    def test_lattice_exponentials_are_eigenvectors(self):
        rng = np.random.default_rng(1)
        means = [
            make_gaussian_mean(),
            make_riesz_mean(0.0),
            make_riesz_mean(1.0),
            make_smooth_cutoff_mean(1.0),
        ]
        worst = 0.0
        for trial in range(100):
            if trial % 2 == 0:
                spec = GridSpec(1, 64)
                sigma = power_symbol(float(rng.choice([1.0, 2.0, 2.5])))
                k = (int(rng.integers(-31, 32)),)
            else:
                spec = GridSpec(2, 16)
                sigma = quartic_symbol() if rng.random() < 0.5 else power_symbol(2.0)
                k = (int(rng.integers(-7, 8)), int(rng.integers(-7, 8)))
            p = means[rng.integers(len(means))]
            t = float(10.0 ** rng.uniform(-3, 0))
            mesh = spec.meshgrid()
            e = GridFunction(
                spec, np.exp(1j * sum(ki * m for ki, m in zip(k, mesh)))
            )
            lam = float(p(t * float(sigma(*[np.asarray(float(ki)) for ki in k]))))
            g = spectral_mean(p, t, sigma, e)
            worst = max(worst, float(np.max(np.abs(g.values - lam * e.values))))
        assert worst <= 1e-12
        _report(2, f"100 exponentials, worst defect {worst:.2e} <= 1e-12")


class TestCriterion03PartitionOfUnity:
    def test_identity_and_supports(self):
        spec = GridSpec(1, 256)
        part = build_partition(spec)
        total = part.base_multiplier + sum(part.shell_multipliers)
        dev = float(np.max(np.abs(total - 1.0)))
        assert dev <= 1e-10
        xi = spec.frequency_magnitude()
        for k in range(1, part.k_max + 1):
            outside = (xi < 2.0 ** (k - 1)) | (xi > 2.0 ** (k + 1))
            assert np.max(np.abs(part.shell(k)[outside])) == 0.0
        _report(3, f"identity deviation {dev:.2e} <= 1e-10, annuli exact")


class TestCriterion04Duality:
    def test_corpus(self):
        spec = GridSpec(1, 64)
        x = spec.axis_points()
        phi = GridFunction(spec, np.cos(x) + 0.5 * np.sin(3 * x) + 0.2 * np.cos(5 * x))
        distributions = [
            CompactDistribution(atoms=(PointAtom((0.0,), (0,), 1.0),)),
            CompactDistribution(atoms=(PointAtom((0.3137,), (2,), 1.0),)),
            CompactDistribution(
                atoms=(
                    PointAtom((-0.7,), (1,), 0.5),
                    PointAtom((0.9,), (0,), -1.0),
                )
            ),
        ]
        means = [
            make_gaussian_mean(),
            make_riesz_mean(0.0),
            make_riesz_mean(1.0),
            make_riesz_mean(2.0),
            make_smooth_cutoff_mean(1.0),
        ]
        sigma = power_symbol(2.0)
        worst = 0.0
        for f in distributions:
            for p in means:
                for t in (1.0, 1e-1, 1e-2, 1e-3):
                    worst = max(worst, verify_duality(p, t, sigma, f, phi))
        assert worst <= 1e-9
        _report(4, f"3 x 5 x 4 corpus, worst defect {worst:.2e} <= 1e-9")


class TestCriterion05ConvergenceFunction:
    def test_liouville_and_besov_errors(self):
        start = time.perf_counter()
        spec = GridSpec(1, 256)
        u = make_signal("bump", spec)
        ts = [1e-1 * 0.25**k for k in range(7)]
        alpha = 0.5

        sweep = {"points_per_axis": 256, "signal": "bump", "mean": "gaussian", "symbol": "abs:2"}
        errs_lio = sweep_errors(space="liouville:0.5:2", **sweep)
        errs_bes = sweep_errors(space="besov:0.5:2:2", **sweep)
        for errs in (errs_lio, errs_bes):
            assert all(b < a for a, b in zip(errs, errs[1:]))
            assert errs[-1] / errs[0] <= 1e-3

        # independent oracle: slow direct transform + closed-form per-mode sums
        uhat = slow_transform_1d(u.values, spec)
        xi = spec.axis_frequencies()  # same ordering as the oracle transform
        weight = (2 * np.pi) * spec.freq_cell_volume
        for t, err in zip(ts, errs_lio):
            mult = np.exp(-t * xi**2) - 1.0
            oracle = math.sqrt(
                weight * np.sum((1 + xi**2) ** alpha * np.abs(mult * uhat) ** 2)
            )
            assert abs(err - oracle) / oracle <= 1e-8

        # per-mode Besov oracle with an independently written cutoff
        def bridge(z):
            z = np.asarray(z, dtype=float)
            out = np.zeros_like(z)
            pos = z > 0
            out[pos] = np.exp(-1.0 / z[pos])
            return out

        def chi(r):
            unit = (np.asarray(r, dtype=float) - 1.0)
            up = bridge(1.0 - unit)
            dn = bridge(unit)
            with np.errstate(invalid="ignore"):
                val = np.where(up + dn > 0, up / np.where(up + dn > 0, up + dn, 1), 0.0)
            val = np.where(unit <= 0, 1.0, val)
            val = np.where(unit >= 1, 0.0, val)
            return val

        absxi = np.abs(xi)
        k_max = int(math.ceil(math.log2(float(np.max(absxi))))) + 1
        shells = []
        prev = chi(2 * absxi)
        for k in range(1, k_max + 1):
            cur = chi(absxi / 2.0**k)
            shells.append(cur - prev)
            prev = cur
        base = 1.0 - sum(shells)
        for t, err in zip(ts, errs_bes):
            g = (np.exp(-t * xi**2) - 1.0) * uhat
            total = math.sqrt(weight * np.sum(np.abs(base * g) ** 2))
            acc = 0.0
            for k, shell in enumerate(shells, start=1):
                term = math.sqrt(weight * np.sum(np.abs(shell * g) ** 2))
                acc += (2.0 ** (alpha * k) * term) ** 2
            oracle = total + math.sqrt(acc)
            assert abs(err - oracle) / oracle <= 1e-8

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _report(
            5,
            f"final/initial {errs_lio[-1]/errs_lio[0]:.2e} (liouville), "
            f"{errs_bes[-1]/errs_bes[0]:.2e} (besov), oracle match 1e-8, "
            f"{elapsed:.1f} s",
        )


class TestCriterion06IndicatorMean:
    def test_floor_reached_and_decay_check_fails(self):
        # sharp indicator mean under parameters passing the bounded-profile
        # hypothesis set (route T2)
        params = TheoremParameters(
            N=1, m=2, p=2, p0=2, alpha=0.5, beta=1.5, alpha0=0.6
        )
        indicator = make_riesz_mean(0.0)
        report = assemble_hypothesis_report("T2", params, indicator)
        assert report["pass"], report["checks"]

        errs = sweep_errors(
            points_per_axis=64, signal="bump", mean="riesz:0", symbol="abs:2", space="liouville:0.5:2"
        )
        # once 1/t clears the lattice band, every mode is kept: the error
        # hits the band-truncation floor (identically zero on the grid)
        assert errs[-1] <= 1e-12 * errs[0]

        # the same profile fails the smooth-decay hypothesis set: its
        # first derivative blows up at the spectral edge
        decay = check_derivative_decay(indicator, 1)
        assert not decay.passed
        assert 1 in decay.failed_orders
        _report(6, "indicator reaches floor under T2 params, fails decay check")


class TestCriterion07DistributionConvergence:
    def test_delta_rate(self):
        spec = GridSpec(1, 64)
        delta = CompactDistribution(atoms=(PointAtom((0.0,), (0,), 1.0),))
        assert classify_membership(delta, 1.0, 2, spec)["verdict"] == "member"

        p = make_gaussian_mean()
        sigma = power_symbol(2.0)
        alpha = 1.0
        ts = [1e-1 * 0.5**k for k in range(11)]
        recs = distribution_convergence(p, ts, sigma, delta, alpha, 2.0, spec)
        errs = np.array([r["error"] for r in recs])
        assert np.all(errs[1:] < errs[:-1])

        # closed-form mode-sum oracle for the negative-order error
        xi = np.sort(spec.axis_frequencies())
        weight = (2 * np.pi) * spec.freq_cell_volume
        fhat = (2 * np.pi) ** (-1)
        for t, err in zip(ts, errs):
            mult = np.exp(-t * xi**2) - 1.0
            oracle = math.sqrt(
                weight * np.sum((1 + xi**2) ** (-alpha) * np.abs(mult * fhat) ** 2)
            )
            assert abs(err - oracle) / oracle <= 1e-10

        # empirical slope on the pre-floor tail
        tail = slice(-4, None)
        slope = np.polyfit(np.log(ts[tail]), np.log(errs[tail]), 1)[0]
        assert abs(slope - 1.0) <= 0.15
        _report(7, f"delta errors decreasing, slope {slope:.3f} in 1 +- 0.15")


class TestCriterion08MembershipClassifier:
    def test_delta_thresholds(self):
        spec = GridSpec(1, 512)
        delta = CompactDistribution(atoms=(PointAtom((0.0,), (0,), 1.0),))
        res_out = classify_membership(delta, 0.3, 2, spec)
        res_in = classify_membership(delta, 0.75, 2, spec)
        assert res_out["verdict"] == "non-member" and res_out["ratio"] > 1.2
        assert res_in["verdict"] == "member" and res_in["ratio"] < 1.02
        _report(
            8,
            f"alpha=0.3 ratio {res_out['ratio']:.3f} > 1.2, "
            f"alpha=0.75 ratio {res_in['ratio']:.4f} < 1.02",
        )


class TestCriterion09NormEquivalence:
    def test_brackets_and_identity(self):
        config = ExperimentConfig(
            points_per_axis=64, corpus_size=20, band=8, space="besov:0.7:2:2"
        )
        res = run_equivalence(config)
        coarse = res["bracket"]["modulus_vs_lp"]
        fine = res["bracket_refined"]["modulus_vs_lp"]
        spread = coarse["max"] / coarse["min"]
        assert spread <= 20.0
        for key in ("min", "max"):
            assert abs(fine[key] / coarse[key] - 1.0) <= 0.2
        lio = res["liouville_vs_sobolev_ratio"]
        assert abs(lio["min"] - 1.0) <= 1e-8
        assert abs(lio["max"] - 1.0) <= 1e-8
        _report(
            9,
            f"modulus/LP spread {spread:.2f} <= 20, stable under doubling, "
            "quadratic identity to 1e-8",
        )


class TestCriterion10NormAxioms:
    def test_homogeneity_and_triangle(self):
        spec = GridSpec(1, 64)
        routes = [
            NormSpec("liouville", s=0.7, p=2.0),
            NormSpec("besov_lp", s=0.7, p=2.0, q=2.0),
            NormSpec("sobolev", s=1.0, p=2.0),
            NormSpec("nikolskii", s=0.7, p=2.0),
            NormSpec("slobodetskii", s=0.7, p=2.0),
        ]
        rng = np.random.default_rng(2)
        x = spec.axis_points()
        part = build_partition(spec)
        violations = 0
        for trial in range(50):
            def draw():
                vals = np.zeros(spec.shape)
                for k in range(1, 7):
                    a, b = rng.normal(size=2) / k
                    vals = vals + a * np.cos(k * x) + b * np.sin(k * x)
                return GridFunction(spec, vals)

            f, g = draw(), draw()
            c = float(rng.normal())
            for ns in routes:
                nf = evaluate_norm(f, ns, part)
                ng = evaluate_norm(g, ns, part)
                ncf = evaluate_norm(
                    GridFunction(spec, c * f.values), ns, part
                )
                nfg = evaluate_norm(GridFunction(spec, f.values + g.values), ns, part)
                scale = max(nf, ng, 1.0)
                if abs(ncf - abs(c) * nf) > 1e-10 * max(abs(c), 1.0) * scale:
                    violations += 1
                if nfg > nf + ng + 1e-10 * scale:
                    violations += 1
        assert violations == 0
        _report(10, "homogeneity + triangle on 50 pairs x 5 routes, 0 violations")


class TestCriterion11Determinism:
    def test_byte_identical_csv(self, tmp_path, src_env):
        args = [
            sys.executable,
            "-m",
            "specmeans.cli",
            "converge",
            "--grid",
            "64",
            "--steps",
            "4",
            "--seed",
            "7",
            "--signal",
            "random_bandlimited:7:8",
            "--format",
            "csv",
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            proc = subprocess.run(
                args + ["--out", str(path)], capture_output=True, text=True, env=src_env
            )
            assert proc.returncode == 0, proc.stderr
        assert p1.read_bytes() == p2.read_bytes()
        _report(11, "repeated CLI runs byte-identical")
