"""Experiment runner: convergence sweeps, norm-equivalence studies and
hypothesis reports, each returned as the JSON payload dict the CLI
prints, and the CSV of a sweep."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .distributions import (
    CompactDistribution, PointAtom, _duality_defect, _negative_order, _pairing_weights,
    spectrum_of_distribution,
)
from .grid import GridFunction, GridSpec, SpectrumFunction, _lp_norms, _parse_spec, forward_transform
from .multipliers import bessel_plan, spectral_mean_plan
from .signals import make_signal
from .spaces import (
    _NORM_FIELDS,
    NormSpec,
    _besov_lp_norms,
    _besov_modulus_norms,
    _block_norms,
    _chunk_length,
    _classical_norms,
    _slobodetskii_norms,
    _Stack,
    build_partition,
    localized_norm,
    smooth_window,
    BesovParams,
)
from .symbols import (
    HomogeneousSymbol,
    MeanFunction,
    TheoremParameters,
    assemble_hypothesis_report,
    make_gaussian_mean,
    make_riesz_mean,
    make_smooth_cutoff_mean,
    power_symbol,
    quartic_symbol,
)

__all__ = [
    "ExperimentConfig",
    "parse_mean",
    "parse_symbol",
    "parse_norm_spec",
    "run_convergence_function",
    "run_convergence_distribution",
    "distribution_convergence",
    "run_equivalence",
    "run_conditions",
    "report_to_csv",
]


# spec-string name -> (constructor, fields); 'besov' names the LP route
_NORMS = {
    name: (partial(NormSpec, kind), _NORM_FIELDS[kind])
    for name, kind in dict(zip(_NORM_FIELDS, _NORM_FIELDS), besov="besov_lp").items()
}


def parse_mean(text: str) -> MeanFunction:
    """e.g. 'gaussian', 'riesz:2', 'cutoff:1'."""
    return _parse_spec("mean", text, {
        "gaussian": (make_gaussian_mean, {}),
        "riesz": (make_riesz_mean, {"s": 1.0}),
        "cutoff": (make_smooth_cutoff_mean, {"tau": 1.0}),
    })


def parse_symbol(text: str) -> HomogeneousSymbol:
    """e.g. 'abs:2', 'quartic'."""
    return _parse_spec("symbol", text, {
        "abs": (power_symbol, {"m": 2.0}),
        "quartic": (quartic_symbol, {}),
    })


def parse_norm_spec(text: str) -> NormSpec:
    """e.g. 'liouville:0.5:2', 'besov:0.5:2:2', 'lp:2', 'nikolskii:0.7:2'."""
    return _parse_spec("space", text, _NORMS)


# annotation of an ExperimentConfig field -> accepted values (bool excluded)
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "list": list}


def _finite(name: str, value: numbers.Real) -> bool:
    """math.isfinite(value), for an int beyond float range too: that one
    is an error naming `name`."""
    try:
        return math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is too large to convert to float") from None


def _numbers(name: str, value, size: int, whole: bool = False) -> list:
    """value, when it is a list of `size` finite numbers, whole and >= 0
    if `whole`."""
    kind, what = (numbers.Integral, "whole numbers >= 0") if whole else (numbers.Real, "numbers")
    if not (isinstance(value, list) and len(value) == size and all(
        isinstance(v, kind) and not isinstance(v, bool) and _finite(name, v) and not (whole and v < 0)
        for v in value
    )):
        raise ValueError(f"{name} must be a list of {size} finite {what}, got {value!r}")
    return value


def _atom(i: int, entry, dimension: int) -> PointAtom:
    """The point atom an `atoms` entry {"x": [...], "alpha": [...], "c": [re, im]}
    names: by default a unit mass at the origin."""
    name = f"atoms[{i}]"
    if not isinstance(entry, dict):
        raise ValueError(f"{name} must be an object with keys x, alpha, c, got {entry!r}")
    unknown = sorted(set(entry) - {"x", "alpha", "c"})
    if unknown:
        raise ValueError(f"{name}: unknown key(s) {', '.join(unknown)}")
    x = _numbers(f"{name}.x", entry.get("x", [0.0] * dimension), dimension)
    alpha = _numbers(f"{name}.alpha", entry.get("alpha", [0] * dimension), dimension, whole=True)
    c = _numbers(f"{name}.c", entry.get("c", [1.0, 0.0]), 2)
    return PointAtom(tuple(float(v) for v in x), tuple(int(v) for v in alpha), complex(*c))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings.  Every spec string is parsed once, when
    the config is built, into these attributes: `grid`, `sigma` (from
    `symbol`), `mean_function`, `norm_spec` (from `space`),
    `signal_function`, `window` (None without a `window_radius`) and
    `distribution` (the atoms and density; a unit point mass at the
    origin when it names neither)."""

    dimension: int = 1
    points_per_axis: int = 64
    period: float = 2.0 * math.pi
    symbol: str = "abs:2"
    mean: str = "gaussian"
    space: str = "liouville:0.5:2"
    t0: float = 1e-1
    ratio: float = 0.3
    steps: int = 6
    signal: str = "bump"
    window_radius: Optional[float] = None
    theorem: str = "T1"
    alpha: float = 0.5
    beta: float = 1.5
    p: float = 2.0
    p0: float = 2.0
    q: float = 2.0
    alpha0: Optional[float] = None
    l: int = 1
    tau: float = 1.0
    seed: int = 0
    corpus_size: int = 20
    band: float = 8.0
    atoms: list = field(default_factory=list)
    density_signal: Optional[str] = None
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            optional = f.type.startswith("Optional[")
            kind = f.type[len("Optional["):-1] if optional else f.type
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
            # an exponent may be +inf (the max norm); other numbers are finite
            exponent = f.name in ("p", "p0", "q") and value == math.inf
            if kind == "float" and not (exponent or _finite(f.name, value)):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.theorem not in ("T1", "T2"):
            raise ValueError(f"theorem must be 'T1' or 'T2', got {self.theorem!r}")
        if not (0 < self.ratio < 1) or self.t0 <= 0 or self.steps < 1:
            raise ValueError("t schedule must be strictly decreasing and positive")
        if self.corpus_size < 20:
            raise ValueError(f"corpus_size must be >= 20, got {self.corpus_size}")
        if not (self.band >= 1 and float(self.band).is_integer()):
            raise ValueError(f"band must be a whole number >= 1, got {self.band!r}")
        if self.window_radius is not None:
            limit = self.period / 2.0 - self.period / 8.0
            if not (0 < self.window_radius < limit):
                raise ValueError(
                    f"window radius must lie in (0, {limit:g}) for this period"
                )
        # the frozen dataclass takes its derived attributes through object
        derive = partial(object.__setattr__, self)
        derive("grid", GridSpec(self.dimension, self.points_per_axis, self.period))
        derive("sigma", parse_symbol(self.symbol))
        if self.sigma.dimension not in (None, self.dimension):
            raise ValueError(f"symbol {self.symbol!r} is not defined for N = {self.dimension}")
        derive("mean_function", parse_mean(self.mean))
        derive("norm_spec", parse_norm_spec(self.space))
        derive("signal_function", make_signal(self.signal, self.grid))
        window = None if self.window_radius is None else smooth_window(self.grid, self.window_radius)
        derive("window", window)
        atoms = tuple(_atom(i, a, self.dimension) for i, a in enumerate(self.atoms))
        density = None if self.density_signal is None else make_signal(self.density_signal, self.grid)
        if not atoms and density is None:
            atoms = (PointAtom((0.0,) * self.dimension, (0,) * self.dimension, 1.0 + 0.0j),)
        derive("distribution", CompactDistribution(atoms, density))
        self.distribution.validate(self.grid)

    def t_schedule(self) -> list:
        return [self.t0 * self.ratio**k for k in range(self.steps)]

    def theorem_parameters(self) -> TheoremParameters:
        return TheoremParameters(
            N=self.dimension,
            m=self.sigma.degree,
            p=self.p,
            p0=self.p0,
            alpha=self.alpha,
            beta=self.beta,
            l=self.l,
            alpha0=self.alpha0,
            q=self.q,
            tau=self.tau,
        )

    @staticmethod
    def from_json(path, **changes) -> "ExperimentConfig":
        """The config of a JSON object's fields, with `changes` overriding
        them; built, and so checked, once."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config {path}: expected a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"config {path}: unknown key(s) {', '.join(unknown)}")
        return ExperimentConfig(**{**data, **changes})


def _fit_slope(ts: np.ndarray, errs: np.ndarray, floor: float) -> float:
    """Log-log slope on the pre-floor asymptotic tail (smallest t with
    error comfortably above the floor)."""
    mask = errs > 10.0 * floor
    ts, errs = ts[mask], errs[mask]
    if ts.size < 2:
        return float("nan")
    take = min(4, ts.size)
    ts, errs = ts[-take:], errs[-take:]
    return float(np.polyfit(np.log(ts), np.log(errs), 1)[0])


def _norms(X: SpectrumFunction, multipliers, norm_spec: NormSpec, window, partition=None) -> list:
    """Per multiplier M, the norm_spec norm of the spectrum M·X, localized by window."""
    return [localized_norm(SpectrumFunction(X.spec, M * X.coefficients), window, norm_spec, partition)
            for M in multipliers]


def _sweep(p: MeanFunction, t_list, sigma: HomogeneousSymbol, X: SpectrumFunction, rows, *norm_args):
    """Per t of t_list, one t at a time: (t, P_t = p(t sigma), the `_norms` of X for rows(P_t))."""
    for t in t_list:
        P = spectral_mean_plan(p, t, sigma, X.spec).values
        yield t, P, _norms(X, rows(P), *norm_args)


def run_convergence_function(config: ExperimentConfig) -> dict:
    spec, norm_spec = config.grid, config.norm_spec
    U = forward_transform(config.signal_function)
    norm_args = (norm_spec, config.window, build_partition(spec) if norm_spec.kind == "besov_lp" else None)
    xi = spec.frequency_magnitude()
    # u and its outermost octave, the proxy for what the finite band cannot represent
    u_norm, band_err = _norms(U, (1.0, xi > float(np.max(xi)) / 2.0), *norm_args)
    records, ratios = [], []
    for t, _, (mean_norm, err) in _sweep(
        config.mean_function, config.t_schedule(), config.sigma, U, lambda P: (P, P - 1.0), *norm_args
    ):
        ratios.append(mean_norm / u_norm)
        records.append({"t": t, "error": err})
    return _sweep_report(config, records, norm_spec.label(), norm_spec.kind, band_err, max(ratios))


def distribution_convergence(
    p: MeanFunction, t_list, sigma: HomogeneousSymbol, f: CompactDistribution, alpha: float, p_exp: float,
    spec: GridSpec, window: GridFunction | None = None, probe: GridFunction | None = None,
) -> list:
    """Per t: localized L_{p}^{-alpha} error of p(tA)f against the
    band-limited realization, plus the dual-pairing defect against a
    fixed probe when one is supplied.  The error is the function sweep's
    error for X = bessel·F under lp:p_exp; a window applies after the Bessel potential."""
    F = spectrum_of_distribution(f, spec)
    X = _negative_order(F, alpha)
    if probe is not None:
        weights, Phi = _pairing_weights(f, spec), forward_transform(probe)
    records = []
    for t, P, (err,) in _sweep(p, t_list, sigma, X, lambda P: (P - 1.0,), NormSpec("lp", p=p_exp), window):
        rec = {"t": float(t), "error": float(err)}
        if probe is not None:
            rec["pairing_error"] = _duality_defect(P, F, f, weights, probe, Phi)
        records.append(rec)
    return records


def run_convergence_distribution(config: ExperimentConfig) -> dict:
    records = distribution_convergence(
        config.mean_function, config.t_schedule(), config.sigma, config.distribution,
        config.alpha, config.p, config.grid, config.window, make_signal("bump", config.grid),
    )
    return _sweep_report(
        config, records, f"liouville:{-config.alpha:g}:{config.p:g}", "negative_liouville", 0.0,
        pairing_errors=[r.get("pairing_error") for r in records],
    )


def _sweep_report(
    config: ExperimentConfig, records: list, space: str, norm_route: str, band_err: float,
    boundedness_ratio: Optional[float] = None, **extra,
) -> dict:
    """The payload of a sweep whose records hold t and error: the floor is
    validated against band truncation and roundoff, the slope is fitted
    above it, the hypothesis report is attached, and `extra` comes last."""
    ts = np.array([r["t"] for r in records])
    errs = [r["error"] for r in records]
    for r in records:
        r["space"] = space
    noise = max(band_err, 1e-14 * (errs[0] or 1.0))
    floor_validated = errs[-1] <= 2.0 * noise
    floor = errs[-1] if floor_validated else noise
    report = assemble_hypothesis_report(
        config.theorem, config.theorem_parameters(), config.mean_function
    )
    return {
        "records": records,
        "slope": _fit_slope(ts, np.array(errs), floor),
        "floor": floor,
        "floor_validated": floor_validated,
        "monotone": all(b < a for a, b in zip(errs, errs[1:])),
        "space": space,
        "norm_route": norm_route,
        "hypothesis_passed": report.passed,
        "boundedness_ratio": boundedness_ratio,
        "hypothesis": report.to_dict(),
        **extra,
    }


def trig_corpus(spec: GridSpec, size: int, band: int, seed: int):
    """Real trigonometric polynomials reproducible across grid
    refinements (coefficients depend only on the seed, not on n), yielded
    as stacks of samples, shape (count,) + spec.shape, whose complex
    counterparts fit in `spaces.STACK_BYTES`."""
    rng = np.random.default_rng(seed)
    x = spec.axis_points()
    # cos(w x_d) and sin(w x_d) per wavenumber k and axis d, shaped to
    # vary along axis d only: the numbers of the full mesh, computed once
    # per corpus
    tables = []
    for k in range(1, band + 1):
        w = 2.0 * np.pi * k / spec.period
        for d in range(spec.dimension):
            shape = (-1,) + (1,) * (spec.dimension - 1 - d)
            tables.append((np.cos(w * x).reshape(shape), np.sin(w * x).reshape(shape)))
    draws = rng.normal(size=(size, len(tables), 2))  # (function, table, cos/sin)
    length = _chunk_length(spec)
    for start in range(0, size, length):
        chunk = draws[start:start + length]
        vals = np.zeros((len(chunk),) + spec.shape)
        for (cos, sin), ab in zip(tables, chunk.transpose(1, 2, 0)):
            a, b = ab.reshape((2, -1) + (1,) * spec.dimension)
            vals = vals + a * cos + b * sin
        yield vals


def run_equivalence(config: ExperimentConfig) -> dict:
    """Norm-equivalence study on a reproducible corpus.

    Reports the LP-vs-modulus Besov ratio bracket (with its grid-doubling
    stability factor), classical/Nikolskii/Slobodetskii ratio brackets
    (Slobodetskii in 1-D at finite p only), and the Liouville-vs-Sobolev
    quadratic identity at p = 2, s = 1.
    The corpus band must lie below the grid's Nyquist wavenumber n/2:
    every wavenumber at or above it aliases onto a lower one.
    Each grid's corpus is measured a stack at a time: the routes share
    the stack's one forward transform and, at p = 2, its one
    autocorrelation.
    """
    spec = config.grid
    if config.band >= spec.points_per_axis / 2:
        raise ValueError(
            f"band must be below n/2 = {spec.points_per_axis // 2} on this grid, got {config.band:g}"
        )
    s, pp, qq = 0.7, 2.0, 2.0
    norm_spec = config.norm_spec
    if norm_spec.kind in ("besov_lp", "besov_modulus"):
        s, pp, qq = norm_spec.s, norm_spec.p, norm_spec.q
        try:  # the study runs the modulus route on these parameters
            NormSpec("besov_modulus", p=pp, s=s, q=qq)
        except ValueError as exc:
            raise ValueError(f"space {config.space!r}: {exc}") from None

    def brackets(gspec: GridSpec, identity: bool) -> dict:
        partition = build_partition(gspec)
        params = BesovParams(s, pp, qq)
        ratios = {"modulus_vs_lp": [], "classical_vs_lp": [], "nikolskii_vs_lp": []}
        slobodetskii = gspec.dimension == 1 and pp != np.inf  # Slobodetskii needs finite p
        if slobodetskii:
            ratios["slobodetskii_vs_classical"] = []
        if identity:
            ratios["liouville_vs_sobolev"] = []
        for values in trig_corpus(gspec, config.corpus_size, int(config.band), config.seed):
            stack = _Stack(gspec, values)
            blp = _besov_lp_norms(stack, params, partition)
            bcl, nik = _classical_norms(stack, s, pp, (pp, np.inf))
            ratios["modulus_vs_lp"].append(_besov_modulus_norms(stack, params, 2) / blp)
            ratios["classical_vs_lp"].append(bcl / blp)
            ratios["nikolskii_vs_lp"].append(nik / blp)
            if slobodetskii:
                ratios["slobodetskii_vs_classical"].append(_slobodetskii_norms(stack, s, pp) / bcl)
            if identity:
                # p = 2, s = 1: ||f||^2 + sum_d ||D_d f||^2, the derivatives from the power spectrum
                lio = _block_norms(stack, bessel_plan(1.0, gspec).values, 2.0)
                quad = _lp_norms(gspec, values, 2.0) ** 2 + sum(
                    _block_norms(stack, xi, 2.0) ** 2 for xi in gspec.frequency_grids()
                )
                ratios["liouville_vs_sobolev"].append(lio / np.sqrt(quad))
        return {
            key: {"min": float(np.min(np.concatenate(v))), "max": float(np.max(np.concatenate(v)))}
            for key, v in ratios.items()
        }

    coarse = brackets(spec, identity=True)
    identity = coarse.pop("liouville_vs_sobolev")
    fine = brackets(GridSpec(spec.dimension, 2 * spec.points_per_axis, spec.period), identity=False)
    return {
        "bracket": coarse,
        "bracket_refined": fine,
        "liouville_vs_sobolev_ratio": identity,
        "parameters": {
            "s": s, "p": pp, "q": qq, "corpus_size": config.corpus_size,
            "band": int(config.band), "seed": config.seed,
        },
    }


def run_conditions(config: ExperimentConfig) -> dict:
    return assemble_hypothesis_report(
        config.theorem, config.theorem_parameters(), config.mean_function
    ).to_dict()


CSV_HEADER = "t,error,space,norm_route,monotone,slope,floor"


def report_to_csv(report: dict) -> str:
    """The CSV of a `converge` or `converge-dist` payload: one row per t."""
    lines = [CSV_HEADER]
    for rec in report["records"]:
        lines.append(
            "{t:.17g},{error:.17g},{space},{route},{mono},{slope:.17g},{floor:.17g}".format(
                t=rec["t"],
                error=rec["error"],
                space=rec["space"],
                route=report["norm_route"],
                mono=int(report["monotone"]),
                slope=report["slope"],
                floor=report["floor"],
            )
        )
    return "\n".join(lines) + "\n"

