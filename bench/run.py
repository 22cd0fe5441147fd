"""Benchmark of specmeans: one workload per run, every output checked.

    python3 bench/run.py --workload spectral_sweep --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/`.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones, measured untraced; with `--trace 1` they are the
per-layer ones, from spans recorded by `tracer.py` around every public
specmeans function.  Raw figures go to `bench/results/`.  See README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, so that no run borrows
# the second core and wall time and CPU time stay comparable.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
IMPORTTIME_PROBES = 3
MIN_LATER_PASSES = 3
TRACE_PAIRS = 2  # traced run: cold pass, then (untraced, traced) x TRACE_PAIRS
HARD_LIMIT_S = 150  # start no pass that would end past this, whatever --seconds says

END_TO_END_UNITS = {"setup_s": "s", "first_pass_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def probe_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe():
    """Seconds from spawning an interpreter until `import specmeans.cli`
    returns; CLOCK_MONOTONIC is shared by both processes."""
    code = "import specmeans.cli, sys, time; sys.stdout.write(repr(time.perf_counter()))"
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=probe_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout) - start


def importtime_tree(stderr):
    """Parse `python -X importtime` output (children listed before their
    parent, nesting shown by indentation) into (name, self_s, children)."""
    pending = []
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop()[1])
        pending.append((depth, (name.strip(), int(fields[0]) * 1e-6, children)))
    return [node for _, node in pending]


IMPORT_OWNERS = ("numpy", "scipy", "sympy", "specmeans")


def import_seconds(nodes, owner=None, totals=None):
    """Self import time per package, each module charged to the first of
    IMPORT_OWNERS on its import path: numpy modules pulled in by scipy
    count to scipy, and specmeans gets its own modules only."""
    totals = {} if totals is None else totals
    for name, seconds, children in nodes:
        own = owner
        if owner in (None, "specmeans"):
            own = next((p for p in IMPORT_OWNERS if name == p or name.startswith(p + ".")), owner)
        totals[own] = totals.get(own, 0.0) + seconds
        import_seconds(children, own, totals)
    return totals


def importtime_probe():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import specmeans.cli; import sympy"],
                          env=probe_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    totals = import_seconds(importtime_tree(proc.stderr))
    return {f"setup.{owner}_import_s": totals.get(owner, 0.0) for owner in IMPORT_OWNERS}


class JobResult:
    def __init__(self, name):
        self.name = name
        self.output = None
        self.wall = 0.0
        self.cpu = 0.0
        self.error = None
        self.check_failed = False


def run_job(cli, job, tracer):
    """Only the call into specmeans is inside the timed interval."""
    res = JobResult(job.name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.open_root(job.name)
        wall0, cpu0 = perf_counter(), process_time()
        try:
            if job.argv is None:
                res.output, code = job.call(), 0
            else:
                code = cli.main(job.argv)
        except Exception:  # a crash inside specmeans is a failed job, not a failed run
            code, res.error = None, traceback.format_exc(limit=3)
        res.wall, res.cpu = perf_counter() - wall0, process_time() - cpu0
        if tracer is not None:
            tracer.close_root()
    if job.argv is not None:
        res.output = out.getvalue()
    if res.error is None and code != 0:
        res.error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    return res


def run_pass(cli, jobs, tracer=None):
    gc.collect()
    start = perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        results = [run_job(cli, job, tracer) for job in jobs]
    finally:
        if tracer is not None:
            tracer.uninstall()
    for job, res in zip(jobs, results):
        if res.error is None:
            try:
                job.check(res.output)
            except checks.KnownFault as exc:
                res.error = f"known fault: {exc}"
            except checks.CheckFailed as exc:
                res.error, res.check_failed = f"check: {exc}", True
            except Exception as exc:  # malformed output is a failed check too
                res.error, res.check_failed = f"check: {type(exc).__name__}: {exc}", True
        res.output = None
    return {
        "wall": sum(r.wall for r in results),
        "cpu": sum(r.cpu for r in results),
        "span": perf_counter() - start,
        "jobs": {r.name: r.wall for r in results},
        "failures": {r.name: r.error for r in results if r.error},
        "check_failures": sum(r.check_failed for r in results),
        "attempted": len(results),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "overhead", "coverage", "coverage_min")):
        return "ratio"
    return "count"


def cold_pass_probe(args):
    """Pass 0 in a fresh interpreter, run after the later passes so that
    first_pass_s samples two moments of the run."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds), "--first-pass-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), cold_probe=True)


def end_to_end(cli, args):
    setup = [setup_probe() for _ in range(SETUP_PROBES)]
    passes = [run_pass(cli, workloads.jobs_for(args.workload, args.seed, 0))]
    window = perf_counter()
    while True:
        later = passes[1:]
        projected = perf_counter() - window + median([p["span"] for p in later])
        if len(later) >= MIN_LATER_PASSES and projected > args.seconds or later and projected > HARD_LIMIT_S:
            break
        passes.append(run_pass(cli, workloads.jobs_for(args.workload, args.seed, len(passes))))
    later = passes[1:]
    passes.append(cold_pass_probe(args))
    metrics = {
        "setup_s": median(setup),
        "first_pass_s": median([passes[0]["wall"], passes[-1]["wall"]]),
        "pass_s": median([p["wall"] for p in later]),
        "cpu_s": median([p["cpu"] for p in later]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes, {"setup_probes": setup}


def per_layer(cli, args):
    from tracer import Tracer, layer_metrics, summarize

    probes = [importtime_probe() for _ in range(IMPORTTIME_PROBES)]
    tracer = Tracer()
    passes = [run_pass(cli, workloads.jobs_for(args.workload, args.seed, 0))]
    summaries = []
    for _ in range(TRACE_PAIRS):
        passes.append(run_pass(cli, workloads.jobs_for(args.workload, args.seed, len(passes))))
        traced = run_pass(cli, workloads.jobs_for(args.workload, args.seed, len(passes)), tracer)
        summary = summarize(tracer.drain())
        traced["traced"] = True
        traced["coverage"] = summary["coverage"]
        passes.append(traced)
        summaries.append(layer_metrics(summary))
    untraced = [p["wall"] for p in passes[1:] if not p.get("traced")]
    traced_walls = [p["wall"] for p in passes if p.get("traced")]
    metrics = {name: median([s[name] for s in summaries]) for name in summaries[0]}
    metrics.update({name: median([p[name] for p in probes]) for name in probes[0]})
    metrics["trace.overhead"] = median(traced_walls) / median(untraced)
    covered = [p["coverage"] for p in passes if p.get("traced")]
    metrics["trace.span_coverage"] = median([sum(c for c, _ in cov.values()) / sum(d for _, d in cov.values())
                                             for cov in covered])
    metrics["trace.span_coverage_min"] = median([min(c / d for c, d in cov.values()) for cov in covered])
    return metrics, passes, {"importtime_probes": probes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-pass-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "specmeans" / "__init__.py").is_file():
        sys.stderr.write(f"error: no specmeans package under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import specmeans.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: specmeans imported from {cli.__file__}, not from {SRC}\n")
        return 2
    if args.first_pass_only:
        print(json.dumps(run_pass(cli, workloads.jobs_for(args.workload, args.seed, 0))))
        return 0
    measure = per_layer if args.trace else end_to_end
    metrics, passes, extra = measure(cli, args)
    failures = [f for p in passes for f in p["failures"].items()]
    result = {
        "correct": not any(p["check_failures"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
                    for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    raw = dict(vars(args), passes=passes, **extra, result=result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1, default=str))
    for name, failure in failures[:5]:
        print(f"FAILED {name}: {failure}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
