"""Experiment harness and command-line interface."""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmeans import (
    ExperimentConfig,
    GridFunction,
    GridSpec,
    lp_norm,
    spectral_derivative,
    run_conditions,
    run_convergence_distribution,
    run_convergence_function,
    run_equivalence,
)
from specmeans import cli, harness, spaces
from specmeans.cli import main as cli_main
from specmeans.harness import (
    CSV_HEADER,
    parse_mean,
    parse_norm_spec,
    parse_symbol,
    report_to_csv,
)


class TestParsers:
    def test_means(self):
        assert parse_mean("gaussian").label == "gaussian"
        assert parse_mean("riesz:1.5")(0.5) == pytest.approx(0.5**1.5)
        assert parse_mean("cutoff:2.0")(0.5) == 1.0
        with pytest.raises(ValueError):
            parse_mean("cauchy")

    def test_symbols(self):
        assert parse_symbol("abs:2").degree == 2
        assert parse_symbol("quartic").degree == 4
        with pytest.raises(ValueError):
            parse_symbol("hyperbolic")

    def test_norm_specs(self):
        ns = parse_norm_spec("liouville:0.5:2")
        assert (ns.kind, ns.s, ns.p) == ("liouville", 0.5, 2.0)
        ns = parse_norm_spec("besov:0.5:2:2")
        assert ns.kind == "besov_lp"
        ns = parse_norm_spec("nikolskii:0.7:2")
        assert ns.kind == "nikolskii"
        with pytest.raises(ValueError):
            parse_norm_spec("orlicz:1:2")


class TestConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.grid.points_per_axis == 64
        ts = config.t_schedule()
        assert len(ts) == config.steps
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ratio=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(t0=-1.0)

    def test_window_radius_margin(self):
        with pytest.raises(ValueError):
            ExperimentConfig(window_radius=0.5 * 2 * math.pi)

    def test_field_types(self):
        for field, value in (("steps", "3"), ("points_per_axis", 32.0), ("t0", "0.1"),
                             ("seed", True), ("mean", 1), ("atoms", {}), ("alpha0", "1")):
            with pytest.raises(ValueError, match=field):
                ExperimentConfig(**{field: value})
        config = ExperimentConfig(t0=1, alpha0=None, steps=np.int64(3), p=np.float64(2))
        assert config.t_schedule()[0] == 1

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"points_per_axis": 32, "mean": "riesz:1"}))
        config = ExperimentConfig.from_json(path)
        assert config.points_per_axis == 32
        assert config.mean == "riesz:1"
        assert ExperimentConfig.from_json(path, mean="cutoff:2").mean_function.label == "cutoff:2"

    def test_spec_strings_parsed_at_build(self):
        config = ExperimentConfig(dimension=2, points_per_axis=16, symbol="quartic", window_radius=1.0)
        assert config.sigma.degree == 4
        assert config.norm_spec.kind == "liouville"
        assert config.signal_function.spec == config.window.spec == config.grid
        assert len(config.distribution.atoms) == 1
        with pytest.raises(FrozenInstanceError):
            config.symbol = "abs:2"


class TestConvergenceFunction:
    def test_gaussian_bump_decays(self):
        config = ExperimentConfig(
            points_per_axis=64,
            mean="gaussian",
            space="liouville:0.5:2",
            t0=1e-1,
            ratio=0.25,
            steps=6,
            window_radius=1.0,
        )
        report = run_convergence_function(config)
        errs = [r["error"] for r in report["records"]]
        assert report["monotone"]
        assert errs[-1] / errs[0] < 1e-2
        assert report["hypothesis_passed"]
        assert report["boundedness_ratio"] < 10.0

    def test_slope_near_theory(self):
        # gaussian mean, order-2 symbol, measuring beta - alpha = 1 order
        config = ExperimentConfig(
            points_per_axis=128,
            mean="gaussian",
            space="liouville:0.5:2",
            signal="bump",
            t0=1e-1,
            ratio=0.5,
            steps=8,
        )
        report = run_convergence_function(config)
        assert report["slope"] == pytest.approx(1.0, abs=0.2)

    def test_hypothesis_failure_recorded(self):
        config = ExperimentConfig(mean="riesz:0", l=1)
        report = run_convergence_function(config)
        assert report["hypothesis_passed"] is False

    @pytest.mark.parametrize("window_radius", [None, 1.0])
    def test_one_partition_per_run(self, window_radius, monkeypatch):
        builds = []

        def counted(spec, build=spaces.build_partition):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(harness, "build_partition", counted)
        monkeypatch.setattr(spaces, "build_partition", counted)
        run_convergence_function(
            ExperimentConfig(dimension=2, points_per_axis=16, space="besov:0.5:2:2", steps=4,
                             window_radius=window_radius)
        )
        assert len(builds) == 1

    @pytest.mark.parametrize("space", ["lp:2", "liouville:0.5:2", "besov:0.5:2:2"])
    def test_transforms_do_not_grow_with_steps(self, space, monkeypatch):
        calls = {"fftn": 0, "ifftn": 0}
        for name in calls:

            def counted(*args, name=name, transform=getattr(np.fft, name), **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        per_run = []
        for steps in (2, 6):
            calls.update(fftn=0, ifftn=0)
            run_convergence_function(ExperimentConfig(space=space, steps=steps))
            per_run.append(dict(calls))
        assert per_run[0] == per_run[1]
        assert per_run[1]["ifftn"] == 0  # p = 2: every norm by Parseval


class TestConvergenceDistribution:
    def test_delta_converges(self):
        config = ExperimentConfig(
            points_per_axis=64,
            mean="gaussian",
            alpha=0.75,
            t0=1e-1,
            ratio=0.5,
            steps=8,
            atoms=[{"x": [0.0], "alpha": [0], "c": [1.0, 0.0]}],
            window_radius=1.0,
        )
        report = run_convergence_distribution(config)
        errs = [r["error"] for r in report["records"]]
        assert report["monotone"]
        assert errs[-1] < errs[0]
        assert report["pairing_errors"][0] is not None

    def test_no_atoms_is_the_cli_default_delta(self, capsys):
        argv = ["converge-dist", "--grid", "2,16", "--steps", "3", "--alpha", "1.5"]
        assert cli_main(argv) == 0
        config = ExperimentConfig(dimension=2, points_per_axis=16, steps=3, alpha=1.5)
        report = run_convergence_distribution(config)
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"
        delta = ExperimentConfig(
            dimension=2, points_per_axis=16, steps=3, alpha=1.5,
            atoms=[{"x": [0.0, 0.0], "alpha": [0, 0], "c": [1.0, 0.0]}],
        )
        assert report == run_convergence_distribution(delta)


def mesh_loop_corpus(spec, size, band, seed):
    """The equivalence corpus one function at a time, each summed on the
    full mesh with one cos/sin pair per (wavenumber, axis)."""
    rng = np.random.default_rng(seed)
    x = spec.meshgrid()
    corpus = []
    for _ in range(size):
        vals = np.zeros(spec.shape)
        for k in range(1, band + 1):
            for d in range(spec.dimension):
                a, b = rng.normal(size=2)
                w = 2.0 * np.pi * k / spec.period
                vals = vals + a * np.cos(w * x[d]) + b * np.sin(w * x[d])
        corpus.append(vals)
    return np.array(corpus)


def flatten(report, prefix=""):
    """{"a/b": number} for every number of a nested report."""
    flat = {}
    for key, value in report.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}/"))
        else:
            flat[prefix + key] = value
    return flat


def reference_equivalence(config):
    """`run_equivalence` as a loop over corpus functions, each measured
    by the public single-function routes."""
    s, p, q = config.norm_spec.s, config.norm_spec.p, config.norm_spec.q
    spec = config.grid

    def brackets(gspec):
        partition = spaces.build_partition(gspec)
        ratios = {"modulus_vs_lp": [], "classical_vs_lp": [], "nikolskii_vs_lp": []}
        if gspec.dimension == 1 and p != math.inf:
            ratios["slobodetskii_vs_classical"] = []
        identity = []
        for values in mesh_loop_corpus(gspec, config.corpus_size, int(config.band), config.seed):
            f = GridFunction(gspec, values)
            blp = spaces.besov_norm_lp(f, spaces.BesovParams(s, p, q), partition)
            bcl = spaces.classical_besov_norm(f, spaces.BesovParams(s, p, p))
            ratios["modulus_vs_lp"].append(spaces.besov_norm_modulus(f, spaces.BesovParams(s, p, q), 2) / blp)
            ratios["classical_vs_lp"].append(bcl / blp)
            ratios["nikolskii_vs_lp"].append(spaces.nikolskii_norm(f, s, p) / blp)
            if "slobodetskii_vs_classical" in ratios:
                ratios["slobodetskii_vs_classical"].append(spaces.slobodetskii_norm(f, s, p) / bcl)
            quad = lp_norm(f, 2.0) ** 2 + sum(
                lp_norm(spectral_derivative(f, alpha), 2.0) ** 2 for alpha in np.eye(gspec.dimension, dtype=int)
            )
            identity.append(spaces.liouville_norm(f, 1.0, 2.0) / math.sqrt(quad))
        return {key: {"min": min(v), "max": max(v)} for key, v in ratios.items()}, identity

    coarse, identity = brackets(spec)
    fine, _ = brackets(GridSpec(spec.dimension, 2 * spec.points_per_axis, spec.period))
    return {
        "bracket": coarse,
        "bracket_refined": fine,
        "liouville_vs_sobolev_ratio": {"min": min(identity), "max": max(identity)},
        "parameters": {
            "s": s, "p": p, "q": q, "corpus_size": config.corpus_size,
            "band": int(config.band), "seed": config.seed,
        },
    }


class TestEquivalence:
    def test_brackets_bounded_and_stable(self):
        config = ExperimentConfig(points_per_axis=64, corpus_size=20, band=8)
        res = run_equivalence(config)
        for key, bracket in res["bracket"].items():
            assert 0 < bracket["min"] <= bracket["max"]
            assert bracket["max"] / bracket["min"] < 50.0
        # liouville vs sobolev quadratic identity is exact at p=2, s=1
        lio = res["liouville_vs_sobolev_ratio"]
        assert lio["min"] == pytest.approx(1.0, rel=1e-10)
        assert lio["max"] == pytest.approx(1.0, rel=1e-10)
        # the parameters name the corpus measured
        assert res["parameters"] == {"s": 0.7, "p": 2.0, "q": 2.0, "corpus_size": 20, "band": 8, "seed": 0}

    @pytest.mark.parametrize("grid,band", [((1, 64), 8), ((2, 16), 3), ((3, 8), 3)])
    def test_trig_corpus_matches_mesh_loop(self, grid, band, monkeypatch):
        # the corpus as summed on the full mesh, one cos/sin pair per
        # (function, wavenumber, axis): equal, not close, in one stack and
        # in stacks of one function each
        spec = GridSpec(*grid)
        expected = mesh_loop_corpus(spec, 20, band, 5)
        stacks = list(harness.trig_corpus(spec, 20, band, 5))
        assert len(stacks) == 1 and np.array_equal(stacks[0], expected)
        monkeypatch.setattr(spaces, "STACK_BYTES", 1)
        stacks = list(harness.trig_corpus(spec, 20, band, 5))
        assert [len(v) for v in stacks] == [1] * 20
        assert np.array_equal(np.concatenate(stacks), expected)

    @pytest.mark.parametrize("argv", [
        ["equivalence", "--grid", "32", "--seed", "1", "--space", "besov:0.7:2:2"],
        ["equivalence", "--grid", "32", "--seed", "2", "--space", "besov:1.5:3:1"],
        ["equivalence", "--grid", "2,8", "--space", "besov:0.7:inf:inf", "--config", "{band}"],
    ])
    def test_stack_chunks_do_not_change_output(self, argv, monkeypatch, tmp_path, capsys):
        # one function per stack gives the bytes of one stack per grid
        config = tmp_path / "band.json"
        config.write_text(json.dumps({"band": 3}))
        argv = [str(config) if a == "{band}" else a for a in argv]
        assert cli_main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(spaces, "STACK_BYTES", 1)
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == whole

    @pytest.mark.parametrize("stack_bytes,corpus_size,stacks", [
        (spaces.STACK_BYTES, 20, 1 + 1),
        (spaces.STACK_BYTES, 40, 1 + 1),
        (16 * 128 * 8, 20, 2 + 3),  # 16 functions a stack at n = 64, 8 at n = 128
        (16 * 128 * 8, 40, 3 + 5),
    ])
    def test_transforms_per_stack_not_per_function(self, stack_bytes, corpus_size, stacks, monkeypatch):
        # at p = 2 every route reads one forward transform and one
        # autocorrelation per stack, whatever the corpus size
        monkeypatch.setattr(spaces, "STACK_BYTES", stack_bytes)
        calls = {"fftn": 0, "ifftn": 0}

        def counted(name):
            transform = getattr(np.fft, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        run_equivalence(ExperimentConfig(points_per_axis=64, corpus_size=corpus_size))
        assert calls == {"fftn": stacks, "ifftn": stacks}

    @settings(max_examples=10, deadline=None)
    @given(
        # p != 2 on the (2, 16) and (3, 8) grids takes 4-10 s an example,
        # most of it in the per-function reference
        case=st.one_of(
            st.tuples(st.sampled_from([(1, 16), (1, 32), (2, 8)]), st.sampled_from([1.0, 2.0, 3.0, math.inf])),
            st.tuples(st.sampled_from([(2, 16), (3, 8)]), st.just(2.0)),
        ),
        s=st.sampled_from([0.7, 1.5]),
        q=st.sampled_from([1.0, 2.0, math.inf]),
        seed=st.integers(0, 2**16),
    )
    @example(case=((1, 32), 3.0), s=1.5, q=2.0, seed=0)
    @example(case=((2, 8), math.inf), s=0.7, q=math.inf, seed=0)
    @example(case=((3, 8), 2.0), s=1.5, q=1.0, seed=0)
    def test_stacked_study_matches_per_function_routes(self, case, s, q, seed):
        grid, p = case
        config = ExperimentConfig(
            dimension=grid[0], points_per_axis=grid[1], band=3, seed=seed, space=f"besov:{s}:{p}:{q}"
        )
        got, want = flatten(run_equivalence(config)), flatten(reference_equivalence(config))
        assert list(got) == list(want)  # the same keys, in the same order
        for key, value in got.items():
            assert math.isclose(value, want[key], rel_tol=1e-13, abs_tol=0.0), key

    def test_no_slobodetskii_bracket_at_p_inf(self):
        config = ExperimentConfig(points_per_axis=16, band=3, space="besov:0.7:inf:2")
        res = run_equivalence(config)
        assert "slobodetskii_vs_classical" not in res["bracket"]
        assert "slobodetskii_vs_classical" not in res["bracket_refined"]

    def test_small_corpus_rejected(self):
        with pytest.raises(ValueError, match="corpus_size"):
            ExperimentConfig(corpus_size=5)


class TestConditions:
    def test_json_payload(self):
        payload = run_conditions(ExperimentConfig(theorem="T1", mean="gaussian"))
        assert payload["pass"] is True
        names = [c["condition"] for c in payload["checks"]]
        assert "integrability" in names
        assert all({"formula", "lhs", "rhs", "pass"} <= set(c) for c in payload["checks"])


class TestEmission:
    def _report(self):
        config = ExperimentConfig(points_per_axis=32, steps=3)
        return run_convergence_function(config)

    def test_csv_deterministic(self):
        a = report_to_csv(self._report())
        b = report_to_csv(self._report())
        assert a == b
        assert a.splitlines()[0] == CSV_HEADER
        assert len(a.splitlines()) == 4

    def test_csv_fields_parse_back(self):
        text = report_to_csv(self._report())
        for line in text.splitlines()[1:]:
            t, err, space, route, mono, slope, floor = line.split(",")
            float(t), float(err), float(slope), float(floor)
            assert mono in ("0", "1")
            assert route == "liouville"

    def test_json_round_trip(self):
        payload = json.loads(json.dumps(self._report(), indent=2))
        assert payload["monotone"] in (True, False)
        assert len(payload["records"]) == 3
        assert "hypothesis" in payload


class TestCLI:
    def test_converge_csv(self, capsys):
        rc = cli_main(
            [
                "converge",
                "--grid",
                "32",
                "--steps",
                "3",
                "--format",
                "csv",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == CSV_HEADER

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.csv"
        rc = cli_main(
            ["converge", "--grid", "32", "--steps", "3", "--format", "csv", "--out", str(path)]
        )
        assert rc == 0
        assert path.read_text().splitlines()[0] == CSV_HEADER

    def test_byte_identical_runs(self, tmp_path):
        args = ["converge", "--grid", "32", "--steps", "3", "--format", "csv"]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(p1)]) == 0
        assert cli_main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_conditions_json(self, capsys):
        rc = cli_main(["conditions", "--theorem", "T1", "--mean", "gaussian"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True

    def test_norm_command(self, capsys):
        rc = cli_main(
            ["norm", "--grid", "64", "--signal", "bump", "--space", "besov:0.5:2:2", "--via", "modulus"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["space"].startswith("besov_modulus")
        assert payload["value"] > 0

    def test_slobodetskii_large_p_is_finite_json(self, capsys):
        def no_constant(name):
            raise ValueError(f"non-finite number {name} in JSON output")

        argv = ["norm", "--grid", "64", "--signal", "bump", "--space", "slobodetskii:0.5:1000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(argv) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert out["value"] == pytest.approx(1.7440845194711025, rel=1e-12)

    def test_norm_via_on_besov_lp(self, capsys):
        argv = ["norm", "--grid", "32", "--signal", "bump", "--space", "besov_lp:0.5:2:2", "--via", "modulus"]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["space"].startswith("besov_modulus:")

    def test_apply_command(self, capsys):
        rc = cli_main(["apply", "--grid", "32", "--signal", "bump", "--t", "0.01"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["n"] == 32

    def test_config_error_exit_2(self, capsys):
        rc = cli_main(["converge", "--ratio", "1.5"])
        assert rc == 2

    def test_unknown_mean_exit_2(self, capsys):
        rc = cli_main(["converge", "--mean", "cauchy"])
        assert rc == 2

    def test_usage_error_exit_2(self):
        assert cli_main(["no-such-command"]) == 2

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["converge", "--space", "liouville:0.5"], "space"),
            (["converge", "--space", "besov:0.5:2"], "space"),
            (["converge", "--config", "{bad_config}"], "bogus"),
            (["converge", "--t0", "nan"], "t0"),
            (["converge", "--grid", "3,8", "--symbol", "quartic"], "symbol"),
            (["converge", "--config", "{str_config}"], "steps"),
            (["converge", "--m", "nan"], "degree m"),
            (["converge", "--mean", "cutoff:1:2:3"], "mean"),
            (["converge", "--mean", "gaussian:7"], "mean"),
            (["converge", "--mean", "riesz:abc"], "mean"),
            (["converge", "--mean", "riesz:nan"], "mean"),
            (["converge", "--symbol", "abs:2:3"], "symbol"),
            (["converge", "--space", "lp:nan"], "space"),
            (["converge", "--signal", "bump:7"], "signal"),
            (["converge", "--signal", "random_bandlimited:1:2:3"], "signal"),
            (["converge", "--signal", "random_bandlimited:1.5"], "signal"),
            (["converge", "--signal", "fractional:abc"], "signal"),
            (["converge", "--grid", "2,32,6,99"], "grid"),
            (["converge", "--grid", "abc"], "grid"),
            (["converge", "--grid", "2,"], "grid"),
            (["norm", "--space", "liouville:0.5:2", "--via", "modulus"], "via"),
            (["converge", "--theorem", "T3"], "theorem"),
            # every field is checked, whether or not the command uses it
            (["conditions", "--space", "bogus"], "space"),
            (["conditions", "--signal", "chirp"], "signal"),
            (["norm", "--grid", "16", "--mean", "cauchy"], "mean"),
            (["converge-dist", "--grid", "16", "--steps", "2", "--config", "{atom_int}"], "atoms[0]"),
            (["converge-dist", "--grid", "16", "--steps", "2", "--config", "{atom_c}"], "atoms[0].c"),
            (["converge-dist", "--grid", "16", "--steps", "2", "--config", "{atom_alpha}"], "atoms[0].alpha"),
            (["converge", "--grid", "16", "--config", "{atom_far}"], "atoms[0]"),
            (["converge", "--config", "{huge_t0}"], "too large"),
            (["converge-dist", "--grid", "16", "--steps", "2", "--config", "{atom_huge}"], "atoms[0].x"),
            (["equivalence", "--grid", "16", "--config", "{band_zero}"], "band"),
            (["equivalence", "--grid", "16", "--config", "{band_negative}"], "band"),
            (["equivalence", "--grid", "16", "--config", "{band_fraction}"], "band"),
            (["conditions", "--config", "{small_corpus}"], "corpus_size"),
            (["norm", "--grid", "16", "--space", "sobolev:1.5:2"], "space"),
            (["conditions", "--space", "sobolev:1.5:2"], "space"),
            (["conditions", "--space", "sobolev:-1:2"], "space"),
            (["apply", "--grid", "16", "--t", "nan"], "t must be"),
            (["apply", "--grid", "16", "--t", "inf"], "t must be"),
            (["equivalence", "--grid", "8", "--config", "{band_above_nyquist}"], "band"),
            (["equivalence", "--grid", "16"], "band"),  # the default band 8 is n/2 here
            (["norm", "--grid", "64", "--signal", "bump", "--space", "slobodetskii:0.5:inf"], "space"),
            (["converge-dist", "--grid", "16", "--alpha", "-1"], "alpha"),
            (["converge", "--config", "{truncated_config}"], "config"),
            # a norm exponent below 1 and an order outside a route's range are named at parse time
            (["norm", "--grid", "16", "--signal", "bump", "--space", "liouville:0.5:0.5"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "liouville:0.5:-1"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "sobolev:1:0.5"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "slobodetskii:0.5:0.5"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "lp:0.5"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "besov:0.5:2:0.5"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "besov_modulus:2:2:2"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "classical_besov:0:2:2"], "space"),
            (["norm", "--grid", "16", "--signal", "bump", "--space", "nikolskii:-0.5:2"], "space"),
            (["converge", "--grid", "16", "--space", "liouville:0.5:0.5", "--steps", "2"], "space"),
            # a Besov order outside the modulus route's range, where a command runs that route
            (["norm", "--grid", "16", "--space", "besov:2.5:2:2", "--via", "modulus"], "via"),
            (["norm", "--grid", "16", "--space", "besov:2.5:2:2", "--via", "modulus"], "space"),
            (["equivalence", "--grid", "32", "--seed", "1", "--space", "besov:2.5:2:2"], "space"),
        ],
    )
    def test_malformed_input_exit_2(self, argv, field, tmp_path, capsys):
        configs = {
            "bad_config": {"bogus": 1, "points_per_axis": 32},
            "str_config": {"steps": "3"},
            "atom_int": {"atoms": [1]},
            "atom_c": {"atoms": [{"x": [0.1], "c": [1]}]},
            "atom_alpha": {"atoms": [{"alpha": [0.5]}]},
            "atom_far": {"atoms": [{"x": [3.0]}]},
            "huge_t0": {"t0": 10**400},
            "atom_huge": {"atoms": [{"x": [10**400]}]},
            "band_zero": {"band": 0},
            "band_negative": {"band": -3},
            "band_fraction": {"band": 8.5},
            "band_above_nyquist": {"band": 200},
            "small_corpus": {"corpus_size": 10},
            "truncated_config": '{"steps": 3,',  # written as is: not valid JSON
        }
        paths = {name: tmp_path / f"{name}.json" for name in configs}
        for name, path in paths.items():
            data = configs[name]
            path.write_text(data if isinstance(data, str) else json.dumps(data))
        huge_t0 = "{huge_t0}" in argv
        argv = [a.format(**paths) for a in argv]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        if huge_t0:  # the overflowing field is named too
            assert "t0" in err

    def test_flags_override_config_before_validation(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"symbol": "quartic", "steps": "3"}))
        argv = ["converge", "--grid", "2,16", "--steps", "2"]
        assert cli_main(argv + ["--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert cli_main(argv + ["--symbol", "quartic"]) == 0
        assert from_config == capsys.readouterr().out

    @pytest.mark.parametrize(
        "space,via,route",
        [
            ("besov_modulus:0.5:2:2", "lp", "modulus"),
            ("classical_besov:0.5:2:2", "lp", "classical"),
            ("besov:0.5:2:2", "lp", "lp"),
            ("besov:0.5:2:2", "classical", "classical"),
            ("liouville:0.5:2", "lp", "lp"),
        ],
    )
    def test_norm_echoes_the_route_it_ran(self, space, via, route, capsys):
        assert cli_main(["norm", "--grid", "16", "--space", space, "--via", via]) == 0
        assert json.loads(capsys.readouterr().out)["via"] == route

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--grid", "16", "--steps", "2"],
            ["converge-dist", "--grid", "16", "--steps", "2"],
            ["equivalence", "--grid", "32"],
            ["conditions"],
            ["norm", "--grid", "16"],
            ["apply", "--grid", "16"],
        ],
    )
    def test_each_spec_string_parsed_once(self, argv, monkeypatch, capsys):
        calls = []
        for name in ("parse_symbol", "parse_mean", "parse_norm_spec", "make_signal"):
            assert not hasattr(cli, name)

            def counted(text, *args, name=name, parse=getattr(harness, name)):
                calls.append((name, text))
                return parse(text, *args)

            monkeypatch.setattr(harness, name, counted)
        assert cli_main(argv + ["--signal", "truncated_cone"]) == 0
        for call in (("parse_symbol", "abs:2"), ("parse_mean", "gaussian"),
                     ("parse_norm_spec", "liouville:0.5:2"), ("make_signal", "truncated_cone")):
            assert calls.count(call) == 1

    def test_theorem_rejected_before_the_sweep(self, monkeypatch, capsys):
        def sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_convergence_function", sweep)
        assert cli_main(["converge", "--theorem", "T3"]) == 2
        assert "theorem" in capsys.readouterr().err

    def test_converge_dist_defaults_to_delta(self, capsys):
        rc = cli_main(
            ["converge-dist", "--grid", "32", "--steps", "3", "--alpha", "0.75", "--format", "csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "liouville:-0.75" in out

    def test_entry_point_installed(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "specmeans.cli", "conditions", "--mean", "gaussian"],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True


_JUNK = ("nan", "abc", "1.5", "")


@st.composite
def _mutated(draw, valid, sep):
    """One of the valid spec strings, as it is or with a field dropped,
    added or corrupted."""
    parts = draw(st.sampled_from(valid)).split(sep)
    index = draw(st.integers(0, len(parts) - 1))
    how = draw(st.sampled_from(("keep", "drop", "add", "corrupt")))
    if how == "drop":
        del parts[index]
    elif how == "add":
        parts.append(draw(st.sampled_from(_JUNK + ("2",))))
    elif how == "corrupt":
        parts[index] = draw(st.sampled_from(_JUNK))
    return sep.join(parts)


# flag -> values; sizes stay small: at most 3 steps, n <= 16 (1-D n = 32
# for equivalence) and, for the 3-D grid, n = 8
_FUZZ_FLAGS = {
    "--t0": st.sampled_from(("0.1", "1e-3", "-1", "nan", "abc")),
    "--ratio": st.sampled_from(("0.3", "0.5", "1.5", "0")),
    "--steps": st.sampled_from(("1", "3", "0", "1.5")),
    "--alpha": st.sampled_from(("0.5", "1.5", "-1", "nan")),
    "--beta": st.sampled_from(("1.5", "0", "inf")),
    "--p": st.sampled_from(("2", "1", "3", "inf", "0.5", "nan")),
    "--q": st.sampled_from(("2", "1", "inf")),
    "--p0": st.sampled_from(("2", "4", "nan")),
    "--l": st.sampled_from(("0", "1", "3", "-1")),
    "--N": st.sampled_from(("1", "2", "0", "abc")),
    "--m": st.sampled_from(("2", "4", "0.5", "nan")),
    "--mean": _mutated(("gaussian", "riesz:2", "riesz:0", "cutoff:1"), ":"),
    "--symbol": _mutated(("abs:2", "quartic"), ":"),
    "--signal": _mutated(("bump", "truncated_cone", "random_bandlimited:1:6", "fractional:1.5:2"), ":"),
    "--space": _mutated(
        ("liouville:0.5:2", "besov:0.5:2:2", "lp:2", "nikolskii:0.7:2", "sobolev:1:2",
         "slobodetskii:0.5:2", "besov_modulus:0.5:2:2", "classical_besov:0.5:2:2"),
        ":",
    ),
    "--theorem": st.sampled_from(("T1", "T2", "T3")),
    "--seed": st.sampled_from(("0", "7", "-1")),
    "--format": st.sampled_from(("csv", "json", "xml")),
}
_FUZZ_COMMANDS = {
    "converge": {},
    "converge-dist": {},
    "conditions": {},
    "norm": {"--via": st.sampled_from(("lp", "modulus", "classical"))},
    "apply": {"--t": st.sampled_from(("0.01", "1", "nan"))},
    "equivalence": {},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    # equivalence doubles the grid and runs every difference route; n = 32
    # keeps the default band 8 below n/2
    grids = ("32", "1,32") if command == "equivalence" else ("8", "16", "2,8", "2,16", "3,8", "1,16,6")
    argv = [command, "--grid", draw(_mutated(grids, ","))]
    flags = {**_FUZZ_FLAGS, **_FUZZ_COMMANDS[command]}
    if command == "equivalence":
        del flags["--N"]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        argv += [flag, draw(flags[flag])]
    return argv


class TestCLIFuzz:
    @settings(max_examples=60, deadline=None)
    @given(argv=_argv())
    # a zero signal, and a seed beyond int64
    @example(argv=["converge", "--grid", "16", "--signal", "random_bandlimited:1:nan"])
    @example(argv=["converge", "--grid", "16", "--signal", "fractional:1.5:99999999999999999999"])
    def test_exit_code_without_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith(("error: ", "usage: "))


# of the wrong type, not finite, bool or null; strings would be paths for `out`
_CONFIG_JUNK = st.sampled_from((1, 0, -1, 1.5, math.nan, math.inf, -math.inf, True, False, None, [], {}))
_CONFIG_JUNK_TEXT = st.sampled_from(("3", "abc", ""))


@st.composite
def _atoms(draw):
    """No atom, one junk entry, or one atom with a field dropped or set
    to junk, a wrong-length list or an out-of-range value."""
    atom = {"x": [0.3], "alpha": [1], "c": [0.5, 0.2]}
    key = draw(st.sampled_from(sorted(atom)))
    how = draw(st.sampled_from(("keep", "drop", "junk")))
    if how == "drop":
        del atom[key]
    elif how == "junk":
        lists = st.sampled_from(([0.5], [-1], [5], [3.0], [math.nan], [1, 2, 3], ["a"]))
        atom[key] = draw(st.one_of(_CONFIG_JUNK, _CONFIG_JUNK_TEXT, lists))
    return draw(st.sampled_from(([], [atom], [draw(st.one_of(_CONFIG_JUNK, _CONFIG_JUNK_TEXT))])))


# ExperimentConfig field -> valid values; grids stay at N <= 2, n in {8, 16},
# at most 3 steps and 25 corpus members
_CONFIG_VALID = {
    "dimension": st.sampled_from((1, 2)),
    "points_per_axis": st.sampled_from((8, 16)),
    "period": st.sampled_from((2.0 * math.pi, 4.0)),
    "symbol": st.sampled_from(("abs:2", "abs:1", "quartic")),
    "mean": st.sampled_from(("gaussian", "riesz:2", "riesz:0", "cutoff:1")),
    "space": st.sampled_from(("liouville:0.5:2", "besov:0.5:2:2", "lp:2", "nikolskii:0.7:2",
                              "classical_besov:0.5:2:inf", "besov_modulus:0.5:2:2")),
    "t0": st.sampled_from((0.1, 1e-3)),
    "ratio": st.sampled_from((0.3, 0.5)),
    "steps": st.integers(1, 3),
    "signal": st.sampled_from(("bump", "random_bandlimited:1:3", "fractional:1.5:2")),
    "window_radius": st.sampled_from((None, 1.0, 2.0)),
    "theorem": st.sampled_from(("T1", "T2")),
    "alpha": st.sampled_from((0.5, 1.5)),
    "beta": st.sampled_from((1.5, 2.5)),
    "p": st.sampled_from((1.0, 2.0, 3.0, math.inf)),
    "p0": st.sampled_from((2.0, 4.0)),
    "q": st.sampled_from((1.0, 2.0, math.inf)),
    "alpha0": st.sampled_from((None, 0.6)),
    "l": st.sampled_from((0, 1, 3)),
    "tau": st.sampled_from((0.5, 1.0, 3.0)),
    "seed": st.sampled_from((0, 7)),
    "corpus_size": st.sampled_from((20, 25)),
    "band": st.sampled_from((2.0, 4.0)),
    "atoms": _atoms(),
    "density_signal": st.sampled_from((None, "bump")),
    "out": st.just(None),
    "format": st.sampled_from(("json", "csv")),
}
_CONFIG_SMALL = {"points_per_axis": 8, "steps": 2, "corpus_size": 20}


@st.composite
def _config_dict(draw):
    """A small valid config with a few fields set to valid values or junk."""
    data = dict(_CONFIG_SMALL)
    for name in draw(st.lists(st.sampled_from(sorted(_CONFIG_VALID)), max_size=5, unique=True)):
        junk = _CONFIG_JUNK if name == "out" else st.one_of(_CONFIG_JUNK, _CONFIG_JUNK_TEXT)
        data[name] = draw(st.one_of(_CONFIG_VALID[name], junk))
    return data


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(("converge", "converge-dist", "conditions", "norm", "apply", "equivalence")),
        data=_config_dict(),
    )
    def test_exit_code_without_traceback(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(data))
            argv = [command, "--config", str(path)]
            if command == "equivalence":
                argv += ["--grid", "1,32"]  # it doubles the grid and runs every difference route
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(argv)
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith("error: ")
