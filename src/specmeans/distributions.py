"""Compactly supported distributions and their spectral means.

A distribution is a finite combination of derivatives of point masses
plus an optional smooth density.  Means act by duality: on the grid both
routes reduce to the same diagonal multiplication, so the duality
defect is pure roundoff and is checked as such.  The convergence sweep
of a distribution lives in `harness`, beside the function sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    SpectrumFunction,
    forward_transform,
    inverse_transform,
    pair,
)
from .multipliers import bessel_plan, spectral_mean_plan
from .spaces import NormSpec, localized_norm
from .symbols import HomogeneousSymbol, MeanFunction

__all__ = [
    "PointAtom",
    "CompactDistribution",
    "pair_distribution",
    "spectrum_of_distribution",
    "verify_duality",
    "negative_liouville_norm",
    "classify_membership",
]

MAX_ATOM_ORDER = 4  # |alpha| cap keeps (iy)^alpha within double range


@dataclass(frozen=True)
class PointAtom:
    location: tuple  # x_j, inside the cell interior
    alpha: tuple  # multi-index of the derivative
    weight: complex


@dataclass(frozen=True)
class CompactDistribution:
    atoms: Sequence[PointAtom] = field(default_factory=tuple)
    density: Optional[GridFunction] = None

    def validate(self, spec: GridSpec) -> None:
        margin = spec.period / 8.0
        bound = spec.period / 2.0 - margin
        for i, a in enumerate(self.atoms):
            loc = np.atleast_1d(np.asarray(a.location, dtype=float))
            if loc.size != spec.dimension:
                raise ValueError(f"atoms[{i}] location dimension mismatch")
            if np.max(np.abs(loc)) > bound + 1e-12:
                raise ValueError(
                    f"atoms[{i}] at {tuple(loc.tolist())} violates the L/8 support margin"
                )
            if sum(a.alpha) > MAX_ATOM_ORDER:
                raise ValueError(f"atoms[{i}].alpha: derivative order exceeds {MAX_ATOM_ORDER}")
        if self.density is not None:
            dspec = self.density.spec
            if (
                dspec.dimension != spec.dimension
                or abs(dspec.period - spec.period) > 1e-12
                or spec.points_per_axis % dspec.points_per_axis != 0
            ):
                raise ValueError("density grid mismatch")


def _atom_mode_weights(spec: GridSpec, x0, alpha, sign: int) -> np.ndarray:
    """Product over axes of (i y)^alpha_d exp(sign * i x0_d y_d).

    The Nyquist row has no positive-frequency partner on the lattice, so
    its weight is the average over the +-Nyquist pair; this keeps the
    atom data Hermitian-consistent and makes the duality identity exact
    at grid level.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    freqs = spec.axis_frequencies()
    nyq = np.argmin(freqs)  # index of the -n/2 row
    out = np.ones(spec.shape, dtype=complex)
    for d in range(spec.dimension):
        w = (1j * freqs) ** alpha[d] * np.exp(sign * 1j * x0[d] * freqs)
        y_n = freqs[nyq]
        w[nyq] = 0.5 * (
            (1j * y_n) ** alpha[d] * np.exp(sign * 1j * x0[d] * y_n)
            + (-1j * y_n) ** alpha[d] * np.exp(-sign * 1j * x0[d] * y_n)
        )
        shape = [1] * spec.dimension
        shape[d] = spec.points_per_axis
        out = out * w.reshape(shape)
    return out


def _pairing_weights(f: CompactDistribution, spec: GridSpec) -> list:
    """Per atom, the mode weights of trigonometric interpolation of D^alpha
    at its location, exact for band-limited functions: one set per grid."""
    return [_atom_mode_weights(spec, a.location, a.alpha, sign=+1) for a in f.atoms]


def pair_distribution(f: CompactDistribution, phi: GridFunction) -> complex:
    """<f, phi> = sum_j c_j (-1)^{|alpha_j|} (D^alpha phi)(x_j) + int density*phi."""
    f.validate(phi.spec)
    return _pair_spectrum(f, forward_transform(phi), _pairing_weights(f, phi.spec), phi)


def _pair_spectrum(
    f: CompactDistribution, Phi: SpectrumFunction, weights: list, phi: GridFunction | None = None
) -> complex:
    """<f, phi> for the probe phi with spectrum Phi and f's `_pairing_weights`;
    the density term uses the samples phi when given, inverse_transform(Phi) otherwise."""
    total = 0.0 + 0.0j
    for a, weight in zip(f.atoms, weights):
        value = complex(np.sum(Phi.coefficients * weight) * Phi.spec.freq_cell_volume)
        total += complex(a.weight) * (-1.0) ** sum(a.alpha) * value
    if f.density is not None:
        total += pair(f.density, inverse_transform(Phi) if phi is None else phi)
    return total


def spectrum_of_distribution(
    f: CompactDistribution, spec: GridSpec
) -> SpectrumFunction:
    """Exact Fourier data of the atoms plus the density's transform."""
    f.validate(spec)
    pref = (2.0 * np.pi) ** (-spec.dimension)
    coeffs = np.zeros(spec.shape, dtype=complex)
    for a in f.atoms:
        coeffs += (
            complex(a.weight)
            * pref
            * _atom_mode_weights(spec, a.location, a.alpha, sign=-1)
        )
    if f.density is not None:
        coeffs += _embed_coefficients(forward_transform(f.density), spec)
    return SpectrumFunction(spec, coeffs)


def _embed_coefficients(F: SpectrumFunction, spec: GridSpec) -> np.ndarray:
    """Coefficients of F placed on a refinement of its lattice; the
    band-limited function extends canonically, new modes are zero."""
    if F.spec == spec:
        return F.coefficients
    out = np.zeros(spec.shape, dtype=complex)
    n = F.spec.points_per_axis
    idx = np.fft.fftfreq(n, 1.0 / n).astype(int)  # wavenumbers of the coarse grid
    sel = np.ix_(*([idx] * spec.dimension))
    out[sel] = F.coefficients
    return out


def verify_duality(
    p: MeanFunction,
    t: float,
    sigma: HomogeneousSymbol,
    f: CompactDistribution,
    phi: GridFunction,
) -> float:
    """|<p(tA)f, phi> - <f, p(tA)phi>|; both routes are the same diagonal
    product, so the defect is roundoff plus interpolation only."""
    P = spectral_mean_plan(p, t, sigma, phi.spec).values
    F = spectrum_of_distribution(f, phi.spec)
    return _duality_defect(P, F, f, _pairing_weights(f, phi.spec), phi, forward_transform(phi))


def _duality_defect(
    P: np.ndarray, F: SpectrumFunction, f: CompactDistribution, weights: list, phi: GridFunction,
    Phi: SpectrumFunction,
) -> float:
    """|<p(tA)f, phi> - <f, p(tA)phi>| for the multiplier P = p(t sigma),
    given the spectra F of f and Phi of phi and f's `_pairing_weights`."""
    lhs = pair(inverse_transform(SpectrumFunction(F.spec, P * F.coefficients)), phi)
    return abs(lhs - _pair_spectrum(f, SpectrumFunction(Phi.spec, P * Phi.coefficients), weights))


def negative_liouville_norm(
    f: CompactDistribution,
    alpha: float,
    p: float,
    spec: GridSpec,
    window: GridFunction | None = None,
) -> float:
    """Liouville norm of the band-limited realization at order -alpha,
    optionally localized through a smooth window."""
    G = _negative_order(spectrum_of_distribution(f, spec), alpha)
    return localized_norm(G, window, NormSpec("lp", p=p))


def _negative_order(F: SpectrumFunction, alpha: float) -> SpectrumFunction:
    """(1 + |y|^2)^{-alpha/2}·F, the Bessel potential of order -alpha <= 0."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0 (the order used is -alpha)")
    return SpectrumFunction(F.spec, bessel_plan(-alpha, F.spec).values * F.coefficients)


def classify_membership(
    f: CompactDistribution,
    alpha: float,
    p: float,
    spec: GridSpec,
) -> dict:
    """Refinement test for f in L_p^{-alpha}: the squared lattice norm at
    n and 2n either stabilizes (ratio below 1.02: member) or keeps growing
    (ratio above 1.2: non-member)."""
    fine = GridSpec(spec.dimension, 2 * spec.points_per_axis, spec.period)
    v1 = negative_liouville_norm(f, alpha, p, spec) ** 2
    v2 = negative_liouville_norm(f, alpha, p, fine) ** 2
    ratio = v2 / v1 if v1 > 0 else 1.0
    if ratio > 1.2:
        verdict = "non-member"
    elif ratio < 1.02:
        verdict = "member"
    else:
        verdict = "inconclusive"
    return {"ratio": ratio, "verdict": verdict, "coarse": v1, "fine": v2}
