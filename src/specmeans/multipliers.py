"""Fourier multiplier operators on the periodic grid.

Constant-coefficient operators are diagonal in the lattice exponential
basis, so the spectral mean of a profile p at scale t under a symbol
sigma is simply the multiplier with values p(t * sigma(y)); Bessel
orders (1 + |y|^2)^{s/2} give the Liouville-scale weights, and a bump
mollifier is a multiplier with the bump's transform sampled at h*y.
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
    "bessel_order",
    "derivative_plan",
    "spectral_derivative",
    "mollify",
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
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    sig = np.asarray(sigma(*spec.frequency_grids()), dtype=float)
    vals = np.asarray(p(t * sig), dtype=float)
    return MultiplierPlan(spec, vals)


def spectral_mean(
    p: MeanFunction, t: float, sigma: HomogeneousSymbol, f: GridFunction
) -> GridFunction:
    return apply_multiplier(spectral_mean_plan(p, t, sigma, f.spec), f)


def bessel_plan(s: float, spec: GridSpec) -> MultiplierPlan:
    vals = (1.0 + spec.frequency_magnitude() ** 2) ** (s / 2.0)
    return MultiplierPlan(spec, vals)


def bessel_order(s: float, f: GridFunction) -> GridFunction:
    return apply_multiplier(bessel_plan(s, f.spec), f)


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


def _nonuniform_spectrum(bump: GridFunction, freqs: list) -> np.ndarray:
    """Forward-transform Riemann sum of `bump` at arbitrary frequencies.

    freqs: list of N arrays of equal shape (the evaluation frequencies).
    Direct O(n^N * n_freq) sum; exact in the same sense as the lattice
    transform.
    """
    spec = bump.spec
    mesh = spec.meshgrid()
    pref = (2.0 * np.pi) ** (-spec.dimension) * spec.cell_volume
    out = np.zeros(freqs[0].shape, dtype=complex)
    flat_vals = bump.values.reshape(-1)
    flat_x = [m.reshape(-1) for m in mesh]
    fshape = freqs[0].shape
    ff = [np.asarray(f).reshape(-1) for f in freqs]
    phases = np.zeros(ff[0].shape, dtype=complex)
    # accumulate sum over spatial points; vectorized over frequencies
    for idx in range(flat_vals.size):
        if flat_vals[idx] == 0:
            continue
        expo = np.zeros_like(ff[0])
        for d in range(spec.dimension):
            expo = expo + flat_x[d][idx] * ff[d]
        phases += flat_vals[idx] * np.exp(-1j * expo)
    out = (pref * phases).reshape(fshape)
    return out


def mollify(u: GridFunction, h: float, bump: GridFunction) -> GridFunction:
    """Periodic convolution of u with the rescaled bump h^{-N} phi(./h).

    Done spectrally: the spectrum of u is multiplied by (2 pi)^N times
    the bump's transform sampled at h*y.  The bump must be nonnegative
    with unit discrete integral and support radius <= 1; h must stay
    below L/8 so the scaled support keeps the periodization margin.
    """
    spec = u.spec
    if bump.spec != spec:
        raise ValueError("bump must live on the same grid")
    vals = bump.values.real
    if np.min(vals) < -1e-12:
        raise ValueError("bump must be nonnegative")
    mass = float(np.sum(vals) * spec.cell_volume)
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"bump must have unit integral, got {mass}")
    radius = _support_radius(bump)
    if radius > 1.0 + 1e-9:
        raise ValueError(f"bump support radius {radius:g} exceeds 1")
    if h <= 0:
        raise ValueError("h must be positive")
    if h * radius >= spec.period / 8.0:
        raise ValueError(
            f"h={h:g} too large for the support margin (limit {spec.period / 8.0:g})"
        )
    grids = spec.frequency_grids()
    scaled = [h * g for g in grids]
    bump_hat = _nonuniform_spectrum(bump, scaled)
    mult = (2.0 * np.pi) ** spec.dimension * bump_hat
    return apply_multiplier(MultiplierPlan(spec, mult), u)


def _support_radius(bump: GridFunction) -> float:
    mesh = bump.spec.meshgrid()
    r = np.sqrt(sum(m**2 for m in mesh))
    mask = np.abs(bump.values) > 1e-14 * np.max(np.abs(bump.values))
    if not np.any(mask):
        return 0.0
    return float(np.max(r[mask]))

