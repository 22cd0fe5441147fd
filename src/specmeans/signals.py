"""Test-signal generators honoring the L/8 support margin."""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, GridSpec, _parse_spec
from .spaces import smooth_step

__all__ = ["make_signal"]


def _bump(spec: GridSpec) -> GridFunction:
    mesh = spec.meshgrid()
    r2 = sum(m**2 for m in mesh) / (3.0 * spec.period / 8.0) ** 2
    vals = np.zeros(spec.shape)
    inside = r2 < 1.0
    vals[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return GridFunction(spec, vals)


def _truncated_cone(spec: GridSpec) -> GridFunction:
    mesh = spec.meshgrid()
    r = np.sqrt(sum(m**2 for m in mesh))
    radius = 3.0 * spec.period / 8.0
    return GridFunction(spec, np.clip(1.0 - r / radius, 0.0, None))


def _random_bandlimited(spec: GridSpec, seed: int, band: float) -> GridFunction:
    """Real-valued random field with spectrum confined to |xi| <= band."""
    if not band > 0:
        raise ValueError(f"band must be positive, got {band}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=spec.shape)
    coeffs = np.fft.fftn(noise)
    mask = spec.frequency_magnitude() <= band
    coeffs *= mask
    vals = np.fft.ifftn(coeffs).real
    scale = np.max(np.abs(vals))
    return GridFunction(spec, vals / (scale if scale > 0 else 1.0))


def _mode_phases(spec: GridSpec, seed: int) -> np.ndarray:
    """Pseudo-random phase per integer mode, a pure function of the mode
    index and the seed, so refined grids extend the same function."""
    k = np.rint(np.fft.fftfreq(spec.points_per_axis) * spec.points_per_axis)
    k = k.astype(np.int64)
    primes = (73856093, 19349663, 83492791)
    grids = np.meshgrid(*([k] * spec.dimension), indexing="ij")
    h = np.full(spec.shape, np.int64(seed) * 2654435761, dtype=np.int64)
    for d, g in enumerate(grids):
        h = h ^ ((g & 0xFFFF) * primes[d])
    return 2.0 * np.pi * ((h % (2**32)) / 2.0**32)


def _fractional(spec: GridSpec, gamma: float, seed: int) -> GridFunction:
    """Random field with |xi|^{-gamma} spectral decay, windowed to a
    compact support inside the cell.  The per-mode data depend only on
    the mode index and seed, so the same function extends under grid
    refinement (used by the lattice-sum refinement tests)."""
    xi = spec.frequency_magnitude()
    amp = np.where(xi > 0, np.where(xi > 0, xi, 1.0) ** (-gamma), 0.0)
    coeffs = amp * np.exp(1j * _mode_phases(spec, seed))
    vals = (np.fft.ifftn(coeffs) * spec.size).real
    mesh = spec.meshgrid()
    r = np.sqrt(sum(m**2 for m in mesh))
    window = smooth_step(r, spec.period / 4.0, 3.0 * spec.period / 8.0)
    return GridFunction(spec, vals * window)


# name -> (generator, {field: default}); a seed defaults to an int, so
# it takes whole numbers only
_SIGNALS = {
    "bump": (_bump, {}),
    "truncated_cone": (_truncated_cone, {}),
    "random_bandlimited": (_random_bandlimited, {"seed": 0, "band": 8.0}),
    "fractional": (_fractional, {"gamma": 1.5, "seed": 0}),
}


def make_signal(signal_id: str, spec: GridSpec) -> GridFunction:
    """Signals: bump | truncated_cone | random_bandlimited:seed:band |
    fractional:gamma:seed."""
    return _parse_spec("signal", signal_id, _SIGNALS, spec)
