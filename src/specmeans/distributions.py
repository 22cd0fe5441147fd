"""Compactly supported distributions and their spectral means.

A distribution is a finite combination of derivatives of point masses
plus an optional smooth density.  Means act by duality,
<p(tA)f, phi> = <f, p(tA)phi>.  On the grid both sides are spectral
pairings linear in the multiplier P = p(t sigma): lhs by the bilinear
Parseval identity, rhs through the atoms' interpolation kernel and the
density's spectrum (`_duality_sides`).  Their weights are built once,
and summed per orbit of modes when P is constant on orbits, so the
duality defect |lhs - rhs| is pure roundoff, with no inverse transform,
and is checked as such.  The convergence sweep of a distribution lives
in `harness`, beside the function sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    SpectrumFunction,
    _orbits,
    _parseval,
    forward_transform,
)
from .multipliers import _mean_values, bessel_plan
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
    factors = []
    for d in range(spec.dimension):
        w = (1j * freqs) ** alpha[d] * np.exp(sign * 1j * x0[d] * freqs)
        y_n = freqs[nyq]
        w[nyq] = 0.5 * (
            (1j * y_n) ** alpha[d] * np.exp(sign * 1j * x0[d] * y_n)
            + (-1j * y_n) ** alpha[d] * np.exp(-sign * 1j * x0[d] * y_n)
        )
        factors.append(w.reshape((-1,) + (1,) * (spec.dimension - 1 - d)))
    # the axis factors broadcast, so only the last product is full-grid
    return reduce(np.multiply, factors)


def _pairing_kernel(f: CompactDistribution, spec: GridSpec) -> np.ndarray:
    """h with <f, phi> = sum_k Phi(k) h(k) for the spectrum Phi of any
    band-limited phi: vol * sum_j c_j (-1)^{|alpha_j|} w_j over the atoms,
    with vol the frequency cell volume and w_j the mode weights of
    trigonometric interpolation of D^alpha_j at x_j, plus W D(-k) for a
    density, by the bilinear Parseval identity: W the Parseval weight and
    D the density's spectrum as `spectrum_of_distribution` embeds it.
    One kernel per grid."""
    h = np.zeros(spec.shape, dtype=complex)
    for a in f.atoms:
        w = _atom_mode_weights(spec, a.location, a.alpha, sign=+1)
        h += complex(a.weight) * (-1.0) ** sum(a.alpha) * spec.freq_cell_volume * w
    if f.density is not None:
        h += _parseval(spec) * _reflect(_embed_coefficients(forward_transform(f.density), spec))
    return h


def pair_distribution(f: CompactDistribution, phi: GridFunction) -> complex:
    """<f, phi> = sum_j c_j (-1)^{|alpha_j|} (D^alpha phi)(x_j) + int density*phi."""
    f.validate(phi.spec)
    return complex(np.sum(forward_transform(phi).coefficients * _pairing_kernel(f, phi.spec)))


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
    """|<p(tA)f, phi> - <f, p(tA)phi>|, by `_duality_sides`: per orbit of
    modes when sigma is symmetric, as a sweep on orbits takes it, and per
    mode otherwise."""
    spec = phi.spec
    orbit, coords = _orbits(spec) if sigma.symmetric else (None, spec.frequency_grids())
    sides = _duality_sides(f, spectrum_of_distribution(f, spec), phi, orbit)
    return _duality_defect(_mean_values(p, t, sigma(*coords)), sides)


def _duality_sides(
    f: CompactDistribution, F: SpectrumFunction, phi: GridFunction, orbit: np.ndarray | None = None
) -> tuple:
    """The two sides of <p(tA)f, phi> = <f, p(tA)phi> as linear forms in
    the multiplier P = p(t sigma), for f with spectrum F: the arrays l and
    r with lhs = sum_k P(k) l(k) and rhs = sum_k P(k) r(k).

    l = W F(k) Phi(-k) is the bilinear Parseval identity, W the Parseval
    weight; r = Phi(k) h(k), h f's `_pairing_kernel`.  With `orbit`, the
    index of each mode's orbit, l and r are summed per orbit, for a P
    with one value per orbit.  The sides stay two sums: their difference
    is the defect, the roundoff of each."""
    spec = F.spec
    Phi = forward_transform(phi).coefficients
    sides = (_parseval(spec) * F.coefficients * _reflect(Phi), Phi * _pairing_kernel(f, spec))
    if orbit is None:
        return sides
    orbit = orbit.reshape(-1)
    return tuple(np.bincount(orbit, s.real.reshape(-1)) + 1j * np.bincount(orbit, s.imag.reshape(-1))
                 for s in sides)


def _reflect(a: np.ndarray) -> np.ndarray:
    """a(-k) in DFT index order on every axis; the Nyquist row, -n/2,
    maps to itself."""
    return np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))


def _duality_defect(P: np.ndarray, sides: tuple) -> float:
    """|<p(tA)f, phi> - <f, p(tA)phi>| for the multiplier P, one value
    per mode or per orbit as `sides` was built.  Each side is numpy's
    pairwise sum, whose order does not depend on the BLAS build."""
    lhs, rhs = (np.sum(s * P) for s in sides)
    return float(abs(lhs - rhs))


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
