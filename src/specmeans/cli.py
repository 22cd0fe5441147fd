"""Command-line interface for the experiment harness.

Exit codes: 0 success; 2 configuration error; 3 a hypothesis-passing
convergence run violated the monotone-decay assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ExperimentConfig,
    report_to_csv,
    run_conditions,
    run_convergence_distribution,
    run_convergence_function,
    run_equivalence,
)
from .multipliers import spectral_mean
from .spaces import evaluate_norm


def _grid_fields(text: str) -> dict:
    """The config fields `--grid n | N,n | N,n,L` sets; the ones it
    leaves out keep their values."""
    parts = text.split(",")
    names = ("points_per_axis",) if len(parts) == 1 else ("dimension", "points_per_axis", "period")
    error = ValueError(f"grid {text!r}: expected n or N,n[,L] with whole N and n")
    if len(parts) > len(names):
        raise error
    try:
        return {k: (float if k == "period" else int)(v) for k, v in zip(names, parts)}
    except ValueError:
        raise error from None


# flag -> (argparse type, the ExperimentConfig field its value sets, or a
# function from its value to the fields it sets), in --help order
_FLAGS = {
    "t0": (float, "t0"),
    "ratio": (float, "ratio"),
    "steps": (int, "steps"),
    "grid": (str, _grid_fields),
    "alpha": (float, "alpha"),
    "beta": (float, "beta"),
    "p": (float, "p"),
    "q": (float, "q"),
    "p0": (float, "p0"),
    "l": (int, "l"),
    "mean": (str, "mean"),
    "symbol": (str, "symbol"),
    "signal": (str, "signal"),
    "space": (str, "space"),
    "theorem": (str, "theorem"),
    "seed": (int, "seed"),
    "out": (str, "out"),
    "format": (str, "format"),
}
_FLAG_OPTIONS = {"grid": {"help": "n or N,n[,L]"}, "format": {"choices": ("csv", "json")}}
_COMMANDS = ("converge", "converge-dist", "equivalence", "conditions", "norm", "apply")
# --via -> the Besov route it selects
_VIA = {"lp": "besov_lp", "modulus": "besov_modulus", "classical": "classical_besov"}


def _build_parser():
    parser = argparse.ArgumentParser(prog="specmeans")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # no prefix matching, so a flag that is gone is not read as a longer one (--m as --mean)
        sub = subs.add_parser(name, allow_abbrev=False)
        sub.add_argument("--config", type=str, default=None, help="JSON config path")
        for flag, (kind, _) in _FLAGS.items():
            sub.add_argument(f"--{flag}", type=kind, default=None, **_FLAG_OPTIONS.get(flag, {}))
        if name == "norm":
            sub.add_argument("--via", type=str, default="lp", choices=tuple(_VIA))
        if name == "apply":
            sub.add_argument("--t", type=float, default=1e-2)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config of the --config file's fields and the flags, which
    override them, built once."""
    changes = {}
    for flag, (_, target) in _FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            changes.update(target(value) if callable(target) else {target: value})
    return ExperimentConfig.from_json(args.config, **changes) if args.config else ExperimentConfig(**changes)


def _run(args, config: ExperimentConfig) -> tuple:
    """(payload, exit code) of one command.  The payload is a dict to
    print as JSON, or text to print as it is: a CSV, or `apply`'s field."""
    if args.command in ("converge", "converge-dist"):
        run = run_convergence_function if args.command == "converge" else run_convergence_distribution
        report = run(config)
        violated = report["hypothesis_passed"] and not report["monotone"] and not report["floor_validated"]
        return (report_to_csv(report) if config.format == "csv" else report), 3 if violated else 0
    if args.command == "equivalence":
        return run_equivalence(config), 0
    if args.command == "conditions":
        return run_conditions(config), 0
    f = config.signal_function
    if args.command == "apply":
        return spectral_mean(config.mean_function, args.t, config.sigma, f).to_json(), 0
    norm_spec = config.norm_spec
    if args.via != "lp":
        if norm_spec.kind not in _VIA.values():
            raise ValueError(f"via {args.via!r} needs a Besov space, got {config.space!r}")
        try:
            norm_spec = replace(norm_spec, kind=_VIA[args.via])
        except ValueError as exc:
            raise ValueError(f"space {config.space!r} via {args.via!r}: {exc}") from None
    # the route that ran; "lp" for a space with a single route
    via = {kind: name for name, kind in _VIA.items()}.get(norm_spec.kind, "lp")
    value = evaluate_norm(f, norm_spec)
    return {"signal": config.signal, "space": norm_spec.label(), "via": via, "value": value}, 0


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        payload, code = _run(args, config)
        _emit(payload if isinstance(payload, str) else json.dumps(payload, indent=2), config.out)
    except (ValueError, KeyError, OverflowError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
