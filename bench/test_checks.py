"""Each output check accepts a real specmeans output and rejects the same
output perturbed.  Run with `python3 -m pytest bench/test_checks.py`."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, KnownFault  # noqa: E402
from specmeans import cli  # noqa: E402

L = 2.0 * math.pi


def cli_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def edit_json(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


def signal(name, N, n):
    return workloads.signal_values(name, N, n)


# -- spectral_sweep ------------------------------------------------------------


@pytest.mark.parametrize("space", ["liouville:0.5:2", "besov:0.5:2:2"])
def test_converge(space):
    args = ("converge", "--grid", "2,32", "--signal", "random_bandlimited:3:6", "--mean", "riesz:2",
            "--space", space, "--steps", "5")
    text = cli_output(*args)
    u = signal("random_bandlimited:3:6", 2, 32)
    checks.check_converge(text, u, L, "riesz:2", "abs:2", space)

    def bump_error(obj):
        obj["records"][2]["error"] *= 1 + 1e-7

    with pytest.raises(CheckFailed, match="converge error"):
        checks.check_converge(edit_json(text, bump_error), u, L, "riesz:2", "abs:2", space)
    with pytest.raises(CheckFailed, match="converge error"):
        checks.check_converge(text, u, L, "gaussian", "abs:2", space)


def test_converge_csv_order():
    text = cli_output("converge", "--grid", "64", "--steps", "4", "--format", "csv")
    u = signal("bump", 1, 64)
    checks.check_converge(text, u, L, "gaussian", "abs:2", "liouville:0.5:2")
    head, *rows = text.strip().splitlines()
    rows[1], rows[2] = rows[2], rows[1]
    with pytest.raises(CheckFailed):
        checks.check_converge("\n".join([head] + rows) + "\n", u, L, "gaussian", "abs:2", "liouville:0.5:2")


def test_converge_dist():
    text = cli_output("converge-dist", "--grid", "2,32", "--alpha", "1.5", "--steps", "5")
    # specmeans reports the weak error under the name pairing_error: a known fault
    with pytest.raises(KnownFault):
        checks.check_converge_dist(text, 2, 32, L, 1.5)

    def roundoff(obj):
        obj["records"] = [dict(r, pairing_error=1e-13) for r in obj["records"]]

    fixed = edit_json(text, roundoff)
    checks.check_converge_dist(fixed, 2, 32, L, 1.5)

    def bump_error(obj):
        obj["records"][0]["error"] *= 1 + 1e-9

    with pytest.raises(CheckFailed) as info:
        checks.check_converge_dist(edit_json(fixed, bump_error), 2, 32, L, 1.5)
    assert not isinstance(info.value, KnownFault)


def test_apply():
    text = cli_output("apply", "--grid", "3,16", "--signal", "random_bandlimited:1:4", "--t", "1e-2")
    u = signal("random_bandlimited:1:4", 3, 16)
    checks.check_apply(text, u, L)
    N, n, period, out = checks.parse_field(text)
    assert out.shape == (16, 16, 16)

    def field_json(values):
        return json.dumps({"spec": {"N": N, "n": n, "L": period},
                           "values": [[float(v.real), float(v.imag)] for v in values.reshape(-1)]})

    shifted = out.copy()
    shifted[0, 0, 0] += 1e-6
    with pytest.raises(CheckFailed, match="zero mode"):
        checks.check_apply(field_json(shifted), u, L)
    grown = u + 1e-3 * (u - u.mean())
    with pytest.raises(CheckFailed, match="L2 norm grew"):
        checks.check_apply(field_json(grown), u, L)


# -- fd_norms --------------------------------------------------------------------


def test_equivalence():
    text = cli_output("equivalence", "--grid", "32", "--seed", "5", "--space", "besov:0.7:2:2")
    checks.check_equivalence(text)

    def widen(obj):
        obj["bracket"]["modulus_vs_lp"]["max"] = 21 * obj["bracket"]["modulus_vs_lp"]["min"]

    def drift(obj):
        obj["bracket_refined"]["modulus_vs_lp"]["min"] *= 1.25

    def identity(obj):
        obj["liouville_vs_sobolev_ratio"]["max"] = 1 + 2e-8

    for edit in (widen, drift, identity):
        with pytest.raises(CheckFailed):
            checks.check_equivalence(edit_json(text, edit))


def test_norm_at_least_lp():
    text = cli_output("norm", "--grid", "2,16", "--signal", "random_bandlimited:2:4", "--space", "nikolskii:0.7:2")
    f = signal("random_bandlimited:2:4", 2, 16)
    checks.check_norm_at_least_lp(text, f, L)
    l2 = math.sqrt(np.sum(np.abs(f) ** 2) * (L / 16) ** 2)
    with pytest.raises(CheckFailed):
        checks.check_norm_at_least_lp(json.dumps({"value": 0.999 * l2}), f, L)


def test_difference_parseval():
    job = workloads._difference_parseval(4)
    out = job.call()
    job.check(out)
    out[7] *= 1 + 1e-8
    with pytest.raises(CheckFailed, match="difference norm"):
        job.check(out)


# -- hypotheses --------------------------------------------------------------------


def report_check(text, name, field, factor):
    def edit(obj):
        for c in obj["checks"]:
            if c["condition"] == name:
                c[field] = c[field] * factor if isinstance(c[field], float) else not c[field]

    return edit_json(text, edit)


def test_gaussian_t1():
    for argv in (("--l", "3"), ("--grid", "3,16", "--l", "2", "--beta", "2.5")):
        text = cli_output("conditions", "--theorem", "T1", "--mean", "gaussian", *argv)
        checks.check_gaussian_t1(text)
        for name in ("derivative decay", "integrability"):
            with pytest.raises(CheckFailed):
                checks.check_gaussian_t1(report_check(text, name, "lhs", 1 + 1e-5))
        with pytest.raises(CheckFailed):
            checks.check_gaussian_t1(report_check(text, "integrability", "pass", None))


def test_riesz2_t1():
    text = cli_output("conditions", "--theorem", "T1", "--mean", "riesz:2", "--l", "1")
    checks.check_riesz2_t1(text)
    for name in ("derivative decay", "integrability"):
        with pytest.raises(CheckFailed):
            checks.check_riesz2_t1(report_check(text, name, "lhs", 1 + 1e-5))


def test_indicator_flags():
    t1 = cli_output("conditions", "--theorem", "T1", "--mean", "riesz:0", "--l", "1")
    checks.check_indicator_t1(t1)
    with pytest.raises(CheckFailed):
        checks.check_indicator_t1(report_check(t1, "derivative decay", "pass", None))
    with pytest.raises(CheckFailed):
        checks.check_indicator_t1(edit_json(t1, lambda o: o.update(notes=["derivative decay failed at orders [0, 1]"])))
    t2 = cli_output("conditions", "--theorem", "T2", "--mean", "riesz:0", "--config", workloads.ALPHA0_CONFIG)
    checks.check_bounded_t2(t2)
    with pytest.raises(CheckFailed):
        checks.check_bounded_t2(report_check(t2, "bounded and continuous", "pass", None))
    with pytest.raises(CheckFailed):
        checks.check_bounded_t2(report_check(t2, "bounded and continuous", "lhs", 1.01))


def test_cutoff_t1():
    tau = workloads.tau(0)
    text = cli_output("conditions", "--theorem", "T1", "--mean", f"cutoff:{tau}", "--l", "3")
    checks.check_cutoff_t1(text, tau)
    for factor in (1.001, 0.98):
        with pytest.raises(CheckFailed):
            checks.check_cutoff_t1(report_check(text, "derivative decay", "lhs", factor), tau)
    with pytest.raises(CheckFailed):
        checks.check_cutoff_t1(report_check(text, "integrability", "lhs", 1 + 1e-5), tau)


def test_cutoff_derivatives_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    tau = 0.8
    mpmath.mp.dps = 30

    def p(x):
        return 1 / (1 + mpmath.exp(1 / (tau - x) - 1 / (x - tau / 2)))

    for x in (0.45, 0.55, 0.62, 0.71):
        for j in (1, 2, 3):
            exact = float(mpmath.diff(p, x, j))
            fd = float(checks.fd_derivative(lambda z: checks.cutoff_profile(z, tau), j, np.array([x]), tau * 2e-3)[0])
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_tau_sequence_never_repeats_and_stays_below_one():
    taus = [workloads.tau(i) for i in range(3000)]
    assert len(set(taus)) == len(taus)
    assert 0.6 <= min(taus) and max(taus) < 0.95


# -- tracing and start-up parsing -----------------------------------------------------


def test_tracer_spans_and_restore():
    from specmeans import spaces
    from specmeans.grid import GridFunction, GridSpec

    original = spaces.difference
    t = tracer.Tracer()
    t.install()
    try:
        assert spaces.difference is not original
        f = GridFunction(GridSpec(1, 32), np.cos(GridSpec(1, 32).axis_points()))
        t.open_root("job")
        spaces.evaluate_norm(f, spaces.NormSpec("besov_lp", s=0.5, p=2.0, q=2.0))
        spaces.modulus_of_continuity(f, 0.5, 2, 2.0)
        t.close_root()
    finally:
        t.uninstall()
    assert spaces.difference is original
    summary = tracer.summarize(t.drain())
    metrics = tracer.layer_metrics(summary)
    k_max = spaces.build_partition(GridSpec(1, 32)).k_max
    # the LP route transforms the same f once per block: one distinct input
    assert metrics["grid.transform_calls"] == 2 * (k_max + 1)
    assert metrics["grid.forward_distinct_ratio"] == 1 / (k_max + 1)
    assert metrics["spaces.partition_builds"] == 1
    assert metrics["spaces.difference_calls"] == metrics["spaces.difference_calls"] > 0
    assert metrics["spaces.difference_distinct_ratio"] == 1.0
    covered, wall = summary["coverage"]["job"]
    assert 0 < covered <= wall
    assert summary["self"]["spaces.besov_norm_lp"] < summary["inclusive"]["spaces.besov_norm_lp"]


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.linalg",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       numpy._core",
        "import time:        10 |         60 |     numpy",
        "import time:         5 |        365 |   specmeans.grid",
        "import time:         1 |        366 | specmeans.cli",
        "import time:        40 |         40 | sympy",
    ])
    totals = run.import_seconds(run.importtime_tree(stderr))
    assert totals["scipy"] == pytest.approx(300e-6)
    assert totals["numpy"] == pytest.approx(60e-6)
    assert totals["specmeans"] == pytest.approx(6e-6)
    assert totals["sympy"] == pytest.approx(40e-6)


def test_metrics_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    empty = {"count": {}, "inclusive": {}, "self": {}, "notes": {}, "coverage": {}}
    traced = set(tracer.layer_metrics(empty)) | {f"setup.{p}_import_s" for p in run.IMPORT_OWNERS}
    traced |= {"trace.overhead", "trace.span_coverage", "trace.span_coverage_min"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {name: run.unit_of(name) for name in traced}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
