"""The benchmark's workloads: which jobs make up one pass, and how each
job's output is checked.

A job is one in-process `specmeans.cli.main(argv)` call, except
`difference-parseval`, which calls `spaces.difference` directly because
its check needs per-shift norms the CLI does not print.  The seed picks
the random signals and the `equivalence` corpus; the smooth-cutoff
parameters tau follow one fixed sequence in every run, a fresh value
for each cutoff job, so sympy never meets a tau it has already built in
the process (a repeated tau is about 2x cheaper, which no one-shot CLI
call enjoys).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import checks

BENCH_DIR = Path(__file__).resolve().parent
ALPHA0_CONFIG = str(BENCH_DIR / "configs" / "alpha0.json")
L = 2.0 * math.pi
WORKLOADS = ("spectral_sweep", "fd_norms", "hypotheses")


@dataclass
class Job:
    name: str
    argv: Optional[list]  # CLI argv; None for a direct library call
    check: Callable  # check(output) raises checks.CheckFailed
    call: Optional[Callable] = None  # the direct library call, when argv is None


@lru_cache(maxsize=None)
def signal_values(signal, N, n):
    """Signal samples for the checks, built outside the timed region."""
    from specmeans.grid import GridSpec
    from specmeans.signals import make_signal

    return make_signal(signal, GridSpec(N, n)).values


def _grid(N, n):
    return str(n) if N == 1 else f"{N},{n}"


def _converge(name, N, n, signal, mean, sym, space, steps, ratio=0.3, fmt="json"):
    argv = ["converge", "--grid", _grid(N, n), "--signal", signal, "--mean", mean, "--symbol", sym,
            "--space", space, "--t0", "0.1", "--ratio", str(ratio), "--steps", str(steps), "--format", fmt]

    def check(text):
        checks.check_converge(text, signal_values(signal, N, n), L, mean, sym, space)

    return Job(name, argv, check)


def _converge_dist(name, N, n, alpha, steps):
    argv = ["converge-dist", "--grid", _grid(N, n), "--alpha", str(alpha), "--t0", "0.1",
            "--ratio", "0.5", "--steps", str(steps)]
    return Job(name, argv, lambda text: checks.check_converge_dist(text, N, n, L, alpha))


def spectral_sweep(seed):
    return [
        _converge("converge-1d-liouville", 1, 256, "bump", "gaussian", "abs:2", "liouville:0.5:2", 7, 0.25, "csv"),
        _converge("converge-1d-besov", 1, 256, f"fractional:1.5:{seed}", "gaussian", "abs:2", "besov:0.5:2:2", 7, 0.25),
        _converge("converge-2d-quartic-besov", 2, 128, f"random_bandlimited:{seed}:24", "gaussian", "quartic",
                  "besov:0.5:2:2", 6),
        _converge("converge-2d-riesz-liouville", 2, 128, "bump", "riesz:2", "abs:2", "liouville:0.5:2", 6),
        _converge("converge-3d-besov", 3, 64, f"random_bandlimited:{seed + 1}:8", "gaussian", "abs:2", "besov:0.5:2:2", 2),
        _converge("converge-3d-liouville", 3, 64, "bump", "gaussian", "abs:2", "liouville:1:2", 4),
        _converge_dist("converge-dist-2d", 2, 128, 1.5, 8),
        _converge_dist("converge-dist-3d", 3, 64, 2.0, 8),
        # A fixed signal keeps the 12 MB of JSON the same size for every seed.
        Job("apply-3d", ["apply", "--grid", "3,64", "--signal", "bump", "--mean", "gaussian", "--t", "1e-2"],
            lambda text: checks.check_apply(text, signal_values("bump", 3, 64), L)),
    ]


def _norm(name, n, signal, space, via=None):
    argv = ["norm", "--grid", f"2,{n}", "--signal", signal, "--space", space]
    if via:
        argv += ["--via", via]
    return Job(name, argv, lambda text: checks.check_norm_at_least_lp(text, signal_values(signal, 2, n), L))


def _difference_parseval(seed):
    """Per-shift norms ||Delta_y^m f||_2 of a trigonometric polynomial on
    a 2-D n=64 grid, for 48 distinct shifts drawn from the seed and m = 1, 2."""
    import numpy as np

    n = 64
    vals, ks, ab = checks.trig_polynomial(2, n, seed)
    shifts = [(a, b) for a in range(-12, 13) for b in range(-12, 13) if a or b]
    picked = np.random.default_rng(seed + 1).choice(len(shifts), size=48, replace=False)
    cases = [(shifts[i], m) for i in sorted(picked) for m in (1, 2)]

    def call():
        from specmeans.grid import GridFunction, GridSpec, lp_norm
        from specmeans.spaces import difference

        spec = GridSpec(2, n)
        f = GridFunction(spec, vals)
        return [lp_norm(difference(f, spec.spacing * np.array(st, dtype=float), m), 2.0) for st, m in cases]

    return Job("difference-parseval", None, lambda out: checks.check_difference_norms(out, ks, ab, cases, n), call)


def fd_norms(seed):
    field = f"random_bandlimited:{seed}:6"
    return [
        Job(
            "equivalence-1d",
            ["equivalence", "--grid", "64", "--seed", str(seed), "--space", "besov:0.7:2:2"],
            checks.check_equivalence,
        ),
        _norm("norm-2d-modulus", 32, field, "besov:0.7:2:2", "modulus"),
        _norm("norm-2d-classical", 64, field, "besov:0.7:2:2", "classical"),
        _norm("norm-2d-nikolskii", 64, field, "nikolskii:0.7:2"),
        _difference_parseval(seed),
    ]


def tau(i):
    """The i-th smooth-cutoff parameter of every run: a golden-ratio walk
    over [0.6, 0.95) that never repeats, however many passes a run makes.
    Below tau = 1 the profile's support lies inside the first quadrature
    interval of `check_integrability` (see CHANGES.md)."""
    return round(0.6 + 0.35 * ((i * 0.6180339887498949) % 1.0), 6)


def hypotheses(seed, pass_index):
    t_t2, t_converge = tau(2 * pass_index), tau(2 * pass_index + 1)
    cfg = ["--config", ALPHA0_CONFIG]  # alpha0 = 0.6 > N/p0, which the T2 set needs
    return [
        Job("t1-gaussian", ["conditions", "--theorem", "T1", "--mean", "gaussian", "--l", "3"], checks.check_gaussian_t1),
        Job("t1-gaussian-3d", ["conditions", "--theorem", "T1", "--mean", "gaussian", "--grid", "3,16", "--l", "2",
                               "--beta", "2.5"], checks.check_gaussian_t1),
        Job("t2-gaussian", ["conditions", "--theorem", "T2", "--mean", "gaussian"] + cfg, checks.check_bounded_t2),
        Job("t1-riesz2", ["conditions", "--theorem", "T1", "--mean", "riesz:2", "--l", "1"], checks.check_riesz2_t1),
        Job("t1-indicator", ["conditions", "--theorem", "T1", "--mean", "riesz:0", "--l", "1"], checks.check_indicator_t1),
        Job("t2-indicator", ["conditions", "--theorem", "T2", "--mean", "riesz:0"] + cfg, checks.check_bounded_t2),
        Job("t2-cutoff", ["conditions", "--theorem", "T2", "--mean", f"cutoff:{t_t2}"] + cfg, checks.check_bounded_t2),
        _converge_cutoff(t_converge),
    ]


def _converge_cutoff(t):
    """1-D converge under the cutoff mean.  Its JSON carries the T1 report
    for the same profile, made by the same `assemble_hypothesis_report`
    call as `conditions --theorem T1`, so this job is also the T1 check of
    the cutoff (a separate T1 job would cost another 3 s sympy build)."""
    job = _converge("converge-cutoff", 1, 256, "bump", f"cutoff:{t}", "abs:2", "liouville:0.5:2", 6, 0.25)
    job.argv += ["--l", "3"]
    errors_check = job.check

    def check(text):
        errors_check(text)
        checks.check_cutoff_t1(json.dumps(json.loads(text)["hypothesis"]), t)

    job.check = check
    return job


def jobs_for(workload, seed, pass_index):
    seed = seed % 1_000_003
    if workload == "spectral_sweep":
        return spectral_sweep(seed)
    if workload == "fd_norms":
        return fd_norms(seed)
    if workload == "hypotheses":
        return hypotheses(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")
