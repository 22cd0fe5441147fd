r"""Periodic grid model of compactly supported functions on R^N.

A function with support well inside one period cell [-L/2, L/2)^N is
represented by its samples on a uniform lattice.  The discrete Fourier
transform is normalized so that the forward transform is the Riemann sum
of

    f_hat(y) = (2 pi)^{-N} \int f(x) exp(-i x y) dx

over the cell, and the inverse is the plain frequency sum (no prefactor)
weighted by the frequency-cell volume (2 pi / L)^N.  With these weights
the pair is an exact inverse pair on the lattice.

The modes of a grid fall into orbits under permutations of the axes and
sign flips of the wavenumbers: the modes whose |k_1|, ..., |k_N| sorted
agree.  `_orbits` tables them once per grid (6,545 orbits for the
262,144 modes of a 64^3 grid).  A multiplier that is constant on every
orbit, such as a function of |y| or a symmetric symbol, can be evaluated
on one representative mode per orbit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "GridSpec",
    "GridFunction",
    "SpectrumFunction",
    "forward_transform",
    "inverse_transform",
    "lp_norm",
    "pair",
    "spectral_l2_norm",
]

# most points a grid may have: 128 MiB of complex samples per array, so a
# run that holds a few such arrays still fits in memory
MAX_POINTS = 2**23


@dataclass(frozen=True)
class GridSpec:
    """Sampling lattice: n points per axis on the cell [-L/2, L/2)^N."""

    dimension: int
    points_per_axis: int
    period: float = 2.0 * np.pi

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        n = self.points_per_axis
        if n < 8 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {n}")
        if self.size > MAX_POINTS:
            raise ValueError(f"grid {self.dimension},{n} has {self.size} points, above the budget of {MAX_POINTS}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dimension

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dimension

    @property
    def cell_volume(self) -> float:
        """Volume of one spatial lattice cell, (L/n)^N."""
        return self.spacing**self.dimension

    @property
    def freq_cell_volume(self) -> float:
        """Volume of one frequency lattice cell, (2 pi / L)^N."""
        return (2.0 * np.pi / self.period) ** self.dimension

    def axis_points(self) -> np.ndarray:
        n, L = self.points_per_axis, self.period
        return -L / 2.0 + (L / n) * np.arange(n)

    def axis_wavenumbers(self) -> np.ndarray:
        """Integer DFT wavenumbers in standard order, Nyquist at -n/2."""
        n = self.points_per_axis
        return np.rint(np.fft.fftfreq(n) * n).astype(int)

    def axis_frequencies(self) -> np.ndarray:
        return (2.0 * np.pi / self.period) * self.axis_wavenumbers()

    def meshgrid(self) -> tuple:
        return np.meshgrid(*([self.axis_points()] * self.dimension), indexing="ij")

    def frequency_grids(self) -> tuple:
        return np.meshgrid(
            *([self.axis_frequencies()] * self.dimension), indexing="ij"
        )

    def frequency_magnitude(self) -> np.ndarray:
        return _magnitude(self.frequency_grids())


def _magnitude(coords) -> np.ndarray:
    """|y| at the frequency coordinates `coords`, one array per axis."""
    return np.sqrt(sum(c * c for c in coords))


@lru_cache(maxsize=64)
def _phase(spec: GridSpec) -> np.ndarray:
    """Per-mode sign (-1)^{k_1 + ... + k_N}, compensating the -L/2 grid offset."""
    axis = (-1.0) ** spec.axis_wavenumbers()
    out = axis
    for _ in range(spec.dimension - 1):
        out = np.multiply.outer(out, axis)
    return out


@lru_cache(maxsize=64)
def _orbits(spec: GridSpec) -> tuple:
    """The orbits of the grid's modes under permutations of the axes and
    sign flips of the wavenumbers, both read-only: the index of each
    mode's orbit, int32 of the grid's shape, and the frequency
    coordinates of one mode per orbit, N arrays.  An orbit is the sorted
    tuple (|k|_(1), ..., |k|_(N)) of its modes, and orbits are numbered
    in the order of those tuples, read as base-(n/2 + 1) digits."""
    N, base = spec.dimension, spec.points_per_axis // 2 + 1
    k = np.abs(spec.axis_wavenumbers()).astype(np.int32)
    axes = [k.reshape((-1,) + (1,) * (N - 1 - d)) for d in range(N)]
    lo, hi = reduce(np.minimum, axes), reduce(np.maximum, axes)
    ordered = [k] if N == 1 else [lo, hi] if N == 2 else [lo, sum(axes) - lo - hi, hi]
    code = reduce(lambda acc, digit: acc * base + digit, ordered)
    present = np.bincount(code.reshape(-1), minlength=base**N) > 0
    orbit = (np.cumsum(present, dtype=np.int32) - 1)[code]
    codes = np.flatnonzero(present)
    digits = [codes // base ** (N - 1 - d) % base for d in range(N)]
    coords = tuple((2.0 * np.pi / spec.period) * digit for digit in digits)
    for arr in (orbit, *coords):
        arr.setflags(write=False)
    return orbit, coords


def _check_values(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.shape != spec.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid {spec.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    return arr


@dataclass(frozen=True)
class GridFunction:
    """Sampled complex field on the lattice of `spec`."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.spec, self.values))
        self.values.setflags(write=False)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_spec(other)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_spec(other)
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_spec(other)
            return GridFunction(self.spec, self.values * other.values)
        return GridFunction(self.spec, self.values * other)

    __rmul__ = __mul__

    def _require_same_spec(self, other):
        if other.spec != self.spec:
            raise ValueError("grid specs do not match")

    def to_json(self) -> str:
        return _field_to_json(self.spec, self.values)


@dataclass(frozen=True)
class SpectrumFunction:
    """Discrete Fourier coefficients, standard DFT order on each axis."""

    spec: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", _check_values(self.spec, self.coefficients)
        )
        self.coefficients.setflags(write=False)

    def to_json(self) -> str:
        return _field_to_json(self.spec, self.coefficients)


def _field_to_json(spec: GridSpec, arr: np.ndarray) -> str:
    """The JSON object {"spec": ..., "values": [[re, im], ...]} of a field,
    as `json.dumps` writes it.  The pairs are %-formatted into one
    template: %r is `float.__repr__`, which the encoder calls for a
    finite float.  A memoryview yields the floats with no per-pair list
    and no list of all of them."""
    parts = np.ascontiguousarray(arr, dtype=complex).view(np.float64).reshape(-1)
    head = json.dumps({"spec": {"N": spec.dimension, "n": spec.points_per_axis, "L": spec.period}})
    template = head[:-1] + ', "values": [' + ", ".join(["[%r, %r]"] * (parts.size // 2)) + "]}"
    return template % tuple(memoryview(parts))


def forward_transform(f: GridFunction) -> SpectrumFunction:
    """Riemann-sum Fourier coefficients with the (2 pi)^{-N} prefactor.

    Exact for band-limited f (lattice exponentials are orthogonal on the
    lattice).
    """
    return SpectrumFunction(f.spec, _forward(f.spec, f.values))


def inverse_transform(F: SpectrumFunction) -> GridFunction:
    """Frequency sum weighted by the frequency-cell volume; inverse of
    forward_transform on the lattice."""
    return GridFunction(F.spec, _inverse(F.spec, F.coefficients))


def _forward(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """`forward_transform` over the last N axes, so of a stack of
    functions too."""
    pref = (2.0 * np.pi) ** (-spec.dimension) * spec.cell_volume
    return pref * _phase(spec) * np.fft.fftn(values, axes=_axes(spec))


def _inverse(spec: GridSpec, coefficients: np.ndarray) -> np.ndarray:
    """`inverse_transform` over the last N axes, so of a stack of
    spectra too."""
    scale = spec.freq_cell_volume * spec.size
    return scale * np.fft.ifftn(coefficients * _phase(spec), axes=_axes(spec))


def _axes(spec: GridSpec) -> tuple:
    return tuple(range(-spec.dimension, 0))


def _parseval(spec: GridSpec) -> float:
    """W with ||f||_2^2 = W sum_xi |F(xi)|^2 under the transform
    convention."""
    return (2.0 * np.pi) ** spec.dimension * spec.freq_cell_volume


def lp_norm(f: GridFunction | SpectrumFunction, p: float) -> float:
    """Discrete L_p norm over the period cell; p = inf gives the max norm.

    A spectrum is measured as the grid function it transforms to: at
    p = 2 by Parseval, with no inverse transform.
    """
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if isinstance(f, SpectrumFunction):
        return spectral_l2_norm(f) if p == 2 else lp_norm(inverse_transform(f), p)
    return float(_lp_norms(f.spec, f.values[None], p)[0])


def _lp_norms(spec: GridSpec, values: np.ndarray, p: float) -> np.ndarray:
    """The discrete L_p norm of each function of a stack of samples,
    shape (count,) + spec.shape."""
    mags = np.abs(values).reshape(len(values), -1)
    if p == np.inf:
        return mags.max(axis=1)
    return _root(np.sum(mags**p, axis=1) * spec.cell_volume, p)


def _root(sums: np.ndarray, p: float) -> np.ndarray:
    """sums ** (1/p) one element at a time, by the C library's pow that
    float ** float calls, so a stacked norm is the scalar formula's
    float: numpy's vectorised power rounds some elements differently."""
    return np.array([s ** (1.0 / p) for s in sums.tolist()])


def spectral_l2_norm(F: SpectrumFunction) -> float:
    """L_2 norm of the underlying grid function computed on the spectral
    side (Parseval under the transform convention)."""
    return float(np.sqrt(_parseval(F.spec) * np.vdot(F.coefficients, F.coefficients).real))


def _parse_spec(field: str, text: str, table: dict, *args):
    """Build the object a 'name:x:y' spec string names.

    table[name] = (constructor, {field name: default}), with default None
    for a required field; omitted trailing fields take their defaults.  A
    field whose default is an int takes whole numbers only.  The
    constructor is called with `args` first.  Every error names `field`,
    including the constructor's own.
    """
    name, *values = text.split(":")
    if name not in table:
        raise ValueError(f"unknown {field} {text!r}")
    constructor, defaults = table[name]
    names = ":".join(defaults)
    required = sum(d is None for d in defaults.values())
    if not required <= len(values) <= len(defaults):
        takes = f"the fields {names}" if defaults else "no fields"
        raise ValueError(f"{field} {text!r}: {name} takes {takes}")
    whole = [k for k, d in defaults.items() if isinstance(d, int)]
    try:
        given = [int(v) if k in whole else float(v) for k, v in zip(defaults, values)]
    except ValueError:
        also = f", {':'.join(whole)} whole" if whole else ""
        raise ValueError(f"{field} {text!r}: fields {names} must be numbers{also}") from None
    kwargs = dict(zip(defaults, given + list(defaults.values())[len(values):]))
    try:
        return constructor(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{field} {text!r}: {exc}") from None


def pair(f: GridFunction, g: GridFunction) -> complex:
    r"""Bilinear pairing \int f g dx as a Riemann sum (no conjugation)."""
    if f.spec != g.spec:
        raise ValueError("grid specs do not match")
    return complex(np.sum(f.values * g.values) * f.spec.cell_volume)
