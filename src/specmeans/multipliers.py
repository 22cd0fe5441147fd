"""Fourier multiplier operators on the periodic grid.

Constant-coefficient operators are diagonal in the lattice exponential
basis, so the spectral mean of a profile p at scale t under a symbol
sigma is simply the multiplier with values p(t * sigma(y)); Bessel
orders (1 + |y|^2)^{s/2} give the Liouville-scale weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    SpectrumFunction,
    forward_transform,
    inverse_transform,
)
from .symbols import HomogeneousSymbol, MeanFunction

__all__ = [
    "MultiplierPlan",
    "apply_multiplier",
    "spectral_mean_plan",
    "spectral_mean",
    "bessel_plan",
    "derivative_plan",
    "spectral_derivative",
]


@dataclass(frozen=True)
class MultiplierPlan:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.shape != self.spec.shape:
            raise ValueError("multiplier shape does not match grid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("multiplier values must be finite")
        object.__setattr__(self, "values", arr)
        self.values.setflags(write=False)


def apply_multiplier(plan: MultiplierPlan, f: GridFunction) -> GridFunction:
    if plan.spec != f.spec:
        raise ValueError("grid specs do not match")
    F = forward_transform(f)
    return inverse_transform(SpectrumFunction(f.spec, plan.values * F.coefficients))


def spectral_mean_plan(
    p: MeanFunction, t: float, sigma: HomogeneousSymbol, spec: GridSpec
) -> MultiplierPlan:
    """Multiplier values p(t * sigma(y)); sigma(0) = 0 forces p(0) = 1 at
    the zero mode."""
    return MultiplierPlan(spec, _mean_values(p, t, sigma(*spec.frequency_grids())))


def _mean_values(p: MeanFunction, t: float, sig: np.ndarray) -> np.ndarray:
    """p(t * sig) for the symbol values sig, on the modes or the orbits
    they are given on."""
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    vals = np.asarray(p(t * np.asarray(sig, dtype=float)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("multiplier values must be finite")
    return vals


def spectral_mean(
    p: MeanFunction, t: float, sigma: HomogeneousSymbol, f: GridFunction
) -> GridFunction:
    return apply_multiplier(spectral_mean_plan(p, t, sigma, f.spec), f)


def bessel_plan(s: float, spec: GridSpec) -> MultiplierPlan:
    return MultiplierPlan(spec, _bessel(s, spec.frequency_magnitude()))


def _bessel(s: float, xi: np.ndarray) -> np.ndarray:
    """The Bessel weight (1 + |y|^2)^{s/2} at the magnitudes xi."""
    return (1.0 + xi**2) ** (s / 2.0)


def derivative_plan(alpha, spec: GridSpec) -> MultiplierPlan:
    """Multiplier (iy)^alpha for the partial derivative D^alpha."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != spec.dimension:
        raise ValueError("multi-index length does not match dimension")
    grids = spec.frequency_grids()
    vals = np.ones(spec.shape, dtype=complex)
    for g, a in zip(grids, alpha):
        if a:
            vals = vals * (1j * g) ** a
    return MultiplierPlan(spec, vals)


def spectral_derivative(f: GridFunction, alpha) -> GridFunction:
    return apply_multiplier(derivative_plan(alpha, f.spec), f)
