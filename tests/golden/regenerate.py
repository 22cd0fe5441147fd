"""Regenerate the CLI golden corpus `cli.json` beside this script.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs `specmeans.cli.main` in-process and records its exit
code, the last line of its stderr and its stdout, parsed: JSON as JSON,
CSV as rows of cells.  `tests/test_golden.py` reruns every case and
compares.  The cases are the CLI jobs of the benchmark's three
workloads, shrunk to n <= 32, plus distribution sweeps with p = 3, a
window and a density, a sweep on orbits with L != 2 pi and one on the
modes at p != 2, every norm kind, and a few rejected inputs.  A
diff of `cli.json` after regenerating is a change of CLI output:
review it before committing.  The script prints every case it adds,
removes or changes, each change with the largest relative change of
any number in the case and where it is (inf: something other than a
number changed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from specmeans.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli.json"

_ALPHA0 = {"alpha0": 0.6}  # alpha0 > N/p0, which the T2 set needs


def _converge(N_n, signal, mean, symbol, space, steps, ratio="0.3", *extra):
    return ["converge", "--grid", N_n, "--signal", signal, "--mean", mean, "--symbol", symbol,
            "--space", space, "--t0", "0.1", "--ratio", ratio, "--steps", str(steps), *extra]


def _dist(N_n, alpha, steps, *extra):
    return ["converge-dist", "--grid", N_n, "--alpha", str(alpha), "--t0", "0.1", "--ratio", "0.5",
            "--steps", str(steps), *extra]


def _norm(N_n, signal, space, *extra):
    return ["norm", "--grid", N_n, "--signal", signal, "--space", space, *extra]


def _conditions(theorem, mean, *extra):
    return ["conditions", "--theorem", theorem, "--mean", mean, *extra]


# name -> (argv, config or None); "{config}" in argv is the config's path
CASES = {
    # spectral_sweep
    "converge-1d-liouville-csv": (
        _converge("32", "bump", "gaussian", "abs:2", "liouville:0.5:2", 7, "0.25", "--format", "csv"), None),
    "converge-1d-besov": (_converge("32", "fractional:1.5:1", "gaussian", "abs:2", "besov:0.5:2:2", 7, "0.25"), None),
    "converge-2d-quartic-besov": (
        _converge("2,32", "random_bandlimited:1:24", "gaussian", "quartic", "besov:0.5:2:2", 6), None),
    "converge-2d-riesz-liouville": (_converge("2,32", "bump", "riesz:2", "abs:2", "liouville:0.5:2", 6), None),
    "converge-3d-besov": (_converge("3,16", "random_bandlimited:2:8", "gaussian", "abs:2", "besov:0.5:2:2", 2), None),
    "converge-3d-liouville": (_converge("3,16", "bump", "gaussian", "abs:2", "liouville:1:2", 4), None),
    "converge-1d-windowed": (
        _converge("32", "truncated_cone", "gaussian", "abs:2", "liouville:0.5:2", 3, "0.3", "--config", "{config}"),
        {"window_radius": 1.0}),
    "converge-dist-2d": (_dist("2,32", 1.5, 8), None),
    "converge-dist-3d": (_dist("3,16", 2.0, 8), None),
    "apply-3d": (["apply", "--grid", "3,8", "--signal", "bump", "--mean", "gaussian", "--t", "1e-2"], None),
    # distribution sweeps: p = 3, windowed, a density with a derivative atom
    "converge-dist-p3": (_dist("32", 1.0, 4, "--p", "3"), None),
    "converge-dist-windowed": (_dist("32", 1.0, 4, "--config", "{config}"), {"window_radius": 1.0}),
    "converge-dist-density": (
        _dist("32", 1.5, 4, "--config", "{config}"),
        {"density_signal": "bump", "atoms": [{"x": [0.3], "alpha": [1], "c": [0.5, 0.2]}]}),
    # fd_norms
    "equivalence-1d": (["equivalence", "--grid", "32", "--seed", "1", "--space", "besov:0.7:2:2"], None),
    "equivalence-2d": (["equivalence", "--grid", "2,16", "--config", "{config}"], {"band": 3}),
    "equivalence-3d": (["equivalence", "--grid", "3,8", "--config", "{config}"], {"band": 3}),
    "norm-2d-modulus": (_norm("2,16", "random_bandlimited:1:6", "besov:0.7:2:2", "--via", "modulus"), None),
    "norm-2d-classical": (_norm("2,32", "random_bandlimited:1:6", "besov:0.7:2:2", "--via", "classical"), None),
    "norm-2d-nikolskii": (_norm("2,32", "random_bandlimited:1:6", "nikolskii:0.7:2"), None),
    "norm-3d-classical": (_norm("3,16", "bump", "classical_besov:0.7:2:2"), None),
    # every norm kind
    "norm-lp": (_norm("32", "fractional:1.5:1", "lp:3"), None),
    "norm-liouville": (_norm("32", "fractional:1.5:1", "liouville:-0.5:2"), None),
    "norm-besov": (_norm("32", "fractional:1.5:1", "besov:0.5:2:2"), None),
    "norm-besov_modulus": (_norm("32", "fractional:1.5:1", "besov_modulus:0.5:2:inf"), None),
    "norm-classical_besov": (_norm("32", "fractional:1.5:1", "classical_besov:1.5:2:2"), None),
    "norm-sobolev": (_norm("32", "fractional:1.5:1", "sobolev:2:2"), None),
    "norm-nikolskii": (_norm("32", "fractional:1.5:1", "nikolskii:0.7:3"), None),
    "norm-slobodetskii": (_norm("32", "fractional:1.5:1", "slobodetskii:0.5:2"), None),
    "norm-slobodetskii-large-p": (_norm("64", "bump", "slobodetskii:0.5:1000"), None),
    # the p != 2 Liouville block norm and the q = inf dyadic Besov sum
    "norm-liouville-p3-2d": (_norm("2,16", "bump", "liouville:0.5:3"), None),
    "norm-besov-qinf": (_norm("32", "bump", "besov:0.5:3:inf"), None),
    # hypotheses
    "t1-gaussian": (_conditions("T1", "gaussian", "--l", "3"), None),
    "t1-gaussian-3d": (_conditions("T1", "gaussian", "--grid", "3,16", "--l", "2", "--beta", "2.5"), None),
    "t2-gaussian": (_conditions("T2", "gaussian", "--config", "{config}"), _ALPHA0),
    "t1-riesz2": (_conditions("T1", "riesz:2", "--l", "1"), None),
    "t1-indicator": (_conditions("T1", "riesz:0", "--l", "1"), None),
    "t2-indicator": (_conditions("T2", "riesz:0", "--config", "{config}"), _ALPHA0),
    "t2-cutoff": (_conditions("T2", "cutoff:0.6", "--config", "{config}"), _ALPHA0),
    "t1-cutoff-past-big-lambda": (_conditions("T1", "cutoff:2000", "--l", "1"), None),
    "converge-cutoff": (
        _converge("32", "bump", "cutoff:0.816312", "abs:2", "liouville:0.5:2", 6, "0.25", "--l", "3"), None),
    # sweeps on orbits with L != 2 pi and q = inf, and on the modes at p != 2
    "converge-orbits-period-qinf": (
        _converge("2,16,10", "bump", "riesz:2", "abs:3", "besov:0.5:2:inf", 4), None),
    "converge-quartic-p3": (_converge("2,16", "bump", "gaussian", "quartic", "liouville:0.5:3", 3), None),
    # rejected inputs
    "reject-unknown-mean": (["converge", "--mean", "cauchy"], None),
    "reject-via": (_norm("16", "bump", "liouville:0.5:2", "--via", "modulus"), None),
    "reject-modulus-order": (_norm("16", "bump", "besov_modulus:2.5:2:2"), None),
    "reject-sobolev-order": (_norm("16", "bump", "sobolev:1.5:2"), None),
    "reject-band": (["equivalence", "--grid", "16", "--config", "{config}"], {"band": 0}),
    "reject-corpus-size": (["conditions", "--config", "{config}"], {"corpus_size": 10}),
    "reject-t": (["apply", "--grid", "16", "--t", "nan"], None),
    "reject-huge-t0": (["converge", "--config", "{config}"], {"t0": 10**400}),
    "reject-slobodetskii-inf": (_norm("64", "bump", "slobodetskii:0.5:inf"), None),
    "reject-exponent": (_norm("16", "bump", "liouville:0.5:0.5"), None),
}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(stdout: str):
    """JSON as JSON; CSV as a list of rows of cells, numbers as floats."""
    if not stdout:
        return None
    if stdout.startswith(("{", "[")):
        return json.loads(stdout)
    return [[_cell(c) for c in line.split(",")] for line in stdout.splitlines()]


def run_case(name: str) -> dict:
    """Exit code, last stderr line, parsed stdout and, under "raw", the
    stdout text of one case; the corpus records all but the raw text."""
    argv, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        if config is not None:
            path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{config}", str(path)) for a in argv])
    lines = err.getvalue().splitlines()
    text = out.getvalue()
    return {"exit": code, "stderr": lines[-1] if lines else "", "stdout": _parse(text), "raw": text}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _changes(old, new, path: str):
    """(relative change, path) for every number that differs between two
    recorded values, and (inf, path) wherever they differ otherwise."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from _changes(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changes(a, b, f"{path}[{i}]")
    elif _is_number(old) and _is_number(new):
        if old != new and not (math.isnan(old) and math.isnan(new)):
            yield (abs(new - old) / abs(old) if old and math.isfinite(old) else math.inf), path
    elif old != new:
        yield math.inf, path


def corpus_diff(old: dict, new: dict) -> list:
    """One line per case added, removed or changed between two corpora."""
    lines = [f"added {name}" for name in new if name not in old]
    lines += [f"removed {name}" for name in old if name not in new]
    for name in new:
        worst = max(_changes(old[name], new[name], name), default=None) if name in old else None
        if worst is not None:
            lines.append(f"changed {name}: largest relative change {worst[0]:.3g} at {worst[1]}")
    return lines


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {}
    for name, (argv, config) in CASES.items():
        got = run_case(name)
        del got["raw"]
        golden[name] = {"argv": argv, "config": config, **got}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    for line in corpus_diff(previous, golden):
        print(line)
    print(f"wrote {len(golden)} cases to {GOLDEN}")
