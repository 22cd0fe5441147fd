"""Smoothness norms on the periodic grid.

Implements the norm routes used by the convergence experiments:
Liouville (Bessel-weighted L_p), Littlewood-Paley Besov, the
modulus-of-continuity Besov equivalent, classical Besov with second
differences, Sobolev, Slobodetskii (1-D), Nikolskii (the classical
route at q = inf), and smooth-cutoff localized versions of all of them.

The difference routes share one kernel, `difference_norms`.  At p = 2 it
reads every step's norm from one autocorrelation of f (Wiener-Khinchin),
and a cancellation guard recomputes from a positive spectral sum the
steps where that shortcut could lose more than 1e-12 relative; other p
sum the stencil in space.  The lattice steps of the modulus and
classical routes depend only on the grid and are built once per grid;
a step's length is spacing * sqrt(sum k^2) of its integer step k, so
equal lattice lengths share one classical radial node.  The modulus
shift sets are cached flat, as one array of member indices with each
set's offset into it, so every omega(t) of a norm comes from one
reduction.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    SpectrumFunction,
    forward_transform,
    inverse_transform,
    lp_norm,
)
from .multipliers import bessel_plan, spectral_derivative

__all__ = [
    "LittlewoodPaleyPartition",
    "BesovParams",
    "NormSpec",
    "build_partition",
    "smooth_step",
    "smooth_window",
    "liouville_norm",
    "besov_norm_lp",
    "difference",
    "difference_norms",
    "modulus_of_continuity",
    "besov_norm_modulus",
    "classical_besov_norm",
    "sobolev_norm",
    "nikolskii_norm",
    "slobodetskii_norm",
    "localized_norm",
    "evaluate_norm",
]

SHIFT_CAP = 512  # 2-D/3-D modulus shift sets above this size are subsampled
NODES_PER_DECADE = 64  # log-spaced t and |h| quadrature nodes
GUARD_TOL = 1e-12  # p = 2 steps whose estimated relative error exceeds this are recomputed


def _bridge(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0, 0 otherwise; the C^inf glue."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_step(r: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """C^inf step: 1 for r <= lo, 0 for r >= hi, monotone between."""
    r = np.asarray(r, dtype=float)
    u = (r - lo) / (hi - lo)
    up = _bridge(1.0 - u)
    down = _bridge(u)
    denom = up + down
    out = np.where(denom > 0, up / np.where(denom > 0, denom, 1.0), 0.0)
    out = np.where(u <= 0, 1.0, out)
    out = np.where(u >= 1, 0.0, out)
    return out


def _chi(r: np.ndarray) -> np.ndarray:
    """Smooth radial step: 1 on [0,1], 0 on [2,inf)."""
    return smooth_step(r, 1.0, 2.0)


@dataclass(frozen=True)
class LittlewoodPaleyPartition:
    """Dyadic multipliers phi(2^{-k} xi), k = 1..k_max, plus the base
    block F_psi = 1 - sum of shells."""

    spec: GridSpec
    k_max: int
    shell_multipliers: tuple
    base_multiplier: np.ndarray

    def shell(self, k: int) -> np.ndarray:
        return self.shell_multipliers[k - 1]


def build_partition(spec: GridSpec) -> LittlewoodPaleyPartition:
    """Shells phi(2^{-k} xi) = chi(2^{-k}|xi|) - chi(2^{1-k}|xi|).

    The telescoping sum makes the partition-of-unity identity exact at
    every lattice frequency below the dyadic ceiling 2^{k_max}.
    """
    xi = spec.frequency_magnitude()
    k_max = int(math.ceil(math.log2(float(np.max(xi))))) + 1
    shells = []
    chi_prev = _chi(2.0 * xi)  # chi(2^{1-k}|xi|) at k = 1
    for k in range(1, k_max + 1):
        chi_k = _chi(xi / 2.0**k)
        shells.append(chi_k - chi_prev)
        chi_prev = chi_k
    base = 1.0 - sum(shells)
    return LittlewoodPaleyPartition(spec, k_max, tuple(shells), base)


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float
    q: float

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be >= 1 (inf allowed)")


def _spectrum(f: GridFunction | SpectrumFunction) -> SpectrumFunction:
    return f if isinstance(f, SpectrumFunction) else forward_transform(f)


def _samples(f: GridFunction | SpectrumFunction) -> GridFunction:
    return inverse_transform(f) if isinstance(f, SpectrumFunction) else f


def _block_norm(F: SpectrumFunction, multiplier: np.ndarray, p: float) -> float:
    """L_p norm of the block with spectrum multiplier * F."""
    return lp_norm(SpectrumFunction(F.spec, multiplier * F.coefficients), p)


def liouville_norm(f: GridFunction | SpectrumFunction, s: float, p: float) -> float:
    """L_p norm of the Bessel-weighted function (order s, any sign)."""
    F = _spectrum(f)
    return _block_norm(F, bessel_plan(s, F.spec).values, p)


def besov_norm_lp(
    f: GridFunction | SpectrumFunction,
    params: BesovParams,
    partition: LittlewoodPaleyPartition,
) -> float:
    """Littlewood-Paley Besov norm: base block plus the l_q sum of
    2^{sk}-weighted shell norms.  f is transformed once; each block
    costs one inverse transform, none at p = 2."""
    if partition.spec != f.spec:
        raise ValueError("partition grid does not match")
    F = _spectrum(f)
    total = _block_norm(F, partition.base_multiplier, params.p)
    terms = np.array([
        2.0 ** (params.s * k) * _block_norm(F, partition.shell(k), params.p)
        for k in range(1, partition.k_max + 1)
    ])
    if params.q == np.inf:
        total += float(np.max(terms))
    else:
        total += float(np.sum(terms**params.q) ** (1.0 / params.q))
    return total


def _shift_steps(spec: GridSpec, y) -> tuple:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != spec.dimension:
        raise ValueError("shift length does not match dimension")
    steps = y / spec.spacing
    rounded = np.rint(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9:
        raise ValueError(f"shift {y} is not lattice-commensurate")
    return tuple(int(s) for s in rounded)


def _stencil_weights(m: int) -> list:
    """C(m,k) (-1)^k for k = 0..m, the weights of the m-th difference."""
    if m < 1:
        raise ValueError("difference order must be >= 1")
    return [comb(m, k) * (-1) ** k for k in range(m + 1)]


def _stencil(values: np.ndarray, steps, m: int) -> np.ndarray:
    """sum_k C(m,k) (-1)^k values(x + k y) for the lattice step y = steps."""
    acc = np.zeros(values.shape, dtype=complex)
    for k, weight in enumerate(_stencil_weights(m)):
        shifted = np.roll(values, tuple(-k * s for s in steps), axis=tuple(range(values.ndim)))
        acc += weight * shifted
    return acc


def difference(f: GridFunction, y, m: int) -> GridFunction:
    """m-th finite difference: sum_k C(m,k) (-1)^k f(x + k y), y a
    lattice-commensurate periodic shift."""
    return GridFunction(f.spec, _stencil(f.values, _shift_steps(f.spec, y), m))


def difference_norms(f: GridFunction, steps, m: int, p: float) -> np.ndarray:
    """L_p norms of the m-th differences of f, one per row of `steps`:
    integer lattice steps, shape (count, dimension), y = steps * spacing.

    p = 2 takes every step from one autocorrelation of f, with the
    cancellation guard of `_l2_difference_sums`; other p sum the stencil
    in space.
    """
    steps = np.asarray(steps, dtype=int)
    if steps.ndim != 2 or steps.shape[1] != f.spec.dimension:
        raise ValueError("steps must have shape (count, dimension)")
    if p == 2:
        return np.sqrt(f.spec.cell_volume * _l2_difference_sums(f.values, steps, m))
    return np.array([lp_norm(GridFunction(f.spec, _stencil(f.values, y, m)), p) for y in steps])


def _l2_difference_sums(values: np.ndarray, steps: np.ndarray, m: int) -> np.ndarray:
    """S_y = sum_x |Delta_y^m values(x)|^2 for every row y of `steps`.

    With F = fftn(values) and A = ifftn(|F|^2), the circular
    autocorrelation, S_y = Re sum_d c(d) A(d y mod n) for d = -m..m, where
    c is the autocorrelation of the stencil weights C(m,k) (-1)^k.  A
    carries an absolute error of about eps log2(n^N) A(0), the roundoff of
    transforms log2(n^N) stages deep, so the cancellation in that sum
    leaves S_y a relative error of about eps log2(n^N) A(0) 4^m / S_y, and
    the norm sqrt(S_y) half of that.  Steps where the norm's estimate
    exceeds GUARD_TOL are recomputed from the positive spectral sum
    sum_xi |F(xi)|^2 (2 sin(pi xi.y / n))^{2m} / n^N, at O(n^N) per step.
    """
    weights = np.array(_stencil_weights(m), dtype=float)
    n = values.shape[0]
    power = np.abs(np.fft.fftn(values)) ** 2
    auto = np.fft.ifftn(power).real
    lags = np.arange(-m, m + 1)
    at = (lags[:, None, None] * steps[None, :, :]) % n  # (lag, step, axis) indices into A
    sums = np.correlate(weights, weights, mode="full") @ auto[tuple(np.moveaxis(at, -1, 0))]
    error = np.finfo(float).eps * np.log2(values.size) * auto.flat[0] * 4.0**m
    unsure = np.flatnonzero(error > 2.0 * GUARD_TOL * sums)
    if unsure.size:
        response = (2.0 * np.sin(np.pi * np.arange(n) / n)) ** (2 * m)  # at xi.y = 0..n-1 mod n
        modes = np.indices(values.shape).reshape(values.ndim, -1)
        for i in unsure:
            sums[i] = power.reshape(-1) @ response[(steps[i] @ modes) % n] / power.size
    return sums


def _lengths(spec: GridSpec, steps: np.ndarray) -> np.ndarray:
    """|y| = spacing * sqrt(sum k^2) of each integer step k: a function of
    the exact integer squared length, so equal lattice lengths are equal
    floats."""
    return spec.spacing * np.sqrt(np.sum(steps * steps, axis=1))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _shift_sets(spec: GridSpec, ts) -> tuple:
    """Lattice shifts with 0 < |y| < t for every t in `ts`.

    Returns (steps, members, starts): the integer steps of the shifts in
    some set, sorted by (rounded |y| / spacing, y); the indices into
    `steps` of every set, concatenated in the order of `ts`; and the
    offset in `members` where each set starts (each set runs to the next
    offset, the last to the end).  1-D sets are complete; above
    SHIFT_CAP shifts, 2-D and 3-D sets keep every (count // (SHIFT_CAP /
    2))-th shift of that order.
    """
    dimension = spec.dimension
    jmax = int(math.ceil(max(ts) / spec.spacing)) + 1
    if dimension == 1:
        steps = np.arange(1, jmax + 1)[:, None]
    else:
        steps = np.indices((2 * jmax + 1,) * dimension).reshape(dimension, -1).T - jmax
    lengths = _lengths(spec, steps)
    keep = (lengths > 0) & (lengths < max(ts))
    steps, lengths = steps[keep], lengths[keep]
    order = np.lexsort(tuple(steps[:, ::-1].T) + (np.rint(lengths / spec.spacing),))
    steps, lengths = steps[order], lengths[order]
    sets = []
    for t in ts:
        members = np.flatnonzero(lengths < t)
        if dimension > 1 and members.size > SHIFT_CAP:
            members = members[:: members.size // (SHIFT_CAP // 2)]
        sets.append(members)
    starts = np.cumsum([0] + [chunk.size for chunk in sets[:-1]])
    used, members = np.unique(np.concatenate(sets), return_inverse=True)
    return steps[used], members, starts


@lru_cache(maxsize=64)
def _modulus_shifts(spec: GridSpec) -> tuple:
    """(t nodes, steps, members, starts) of the modulus route's
    log-trapezoid, the shift sets in the flat form of `_shift_sets`:
    grid-only, so built once per grid, as read-only arrays."""
    ts = _log_nodes(spec.spacing, spec.period / 2.0)
    return tuple(map(_read_only, (ts, *_shift_sets(spec, ts))))


def _moduli(
    f: GridFunction, steps: np.ndarray, members: np.ndarray, starts: np.ndarray, m: int, p: float
) -> np.ndarray:
    """omega(t) per shift set, the sets in the flat form of `_shift_sets`:
    each distinct shift is evaluated once, every set is reduced by one
    `np.maximum.reduceat`, and an empty set gives 0."""
    values = difference_norms(f, steps, m, p)[members]
    filled = starts < np.append(starts[1:], members.size)
    moduli = np.zeros(starts.size)
    moduli[filled] = np.maximum.reduceat(values, starts[filled])
    return moduli


def modulus_of_continuity(f: GridFunction, t: float, m: int, p: float) -> float:
    """sup over lattice shifts |y| < t of the L_p norm of the m-th
    difference."""
    if t < f.spec.spacing or t <= 0:
        warnings.warn("t below grid spacing; modulus reported as 0", stacklevel=2)
        return 0.0
    return float(_moduli(f, *_shift_sets(f.spec, [t]), m, p)[0])


def _log_grid_integral(ts: np.ndarray, gs: np.ndarray) -> float:
    """Trapezoid rule for int g(t) dt/t on the given nodes."""
    return float(np.trapezoid(gs, np.log(ts)))


def _log_nodes(lo: float, hi: float) -> np.ndarray:
    decades = math.log10(hi / lo)
    count = max(4, int(math.ceil(NODES_PER_DECADE * decades)) + 1)
    return np.geomspace(lo, hi, count)


def besov_norm_modulus(f: GridFunction, params: BesovParams, m: int) -> float:
    """Modulus-of-continuity Besov norm: ||f||_p plus, once per axis, the
    L_q(dt/t) norm of t^{-s} omega_p^m(t, f)."""
    s = params.s
    if not 0 < s < m:
        raise ValueError("modulus route needs 0 < s < m")
    spec = f.spec
    ts, *sets = _modulus_shifts(spec)
    weighted = ts ** (-s) * _moduli(f, *sets, m, params.p)
    if params.q == np.inf:
        term = float(np.max(weighted))
    else:
        term = _log_grid_integral(ts, weighted**params.q) ** (1.0 / params.q)
    total = lp_norm(f, params.p)
    for _ in range(spec.dimension):  # added in turn: N * term can round differently
        total += term
    return total


def _split_order(s: float) -> tuple:
    """s = k + frac with integer k and 0 < frac <= 1 (integers get frac = 1)."""
    if s <= 0:
        raise ValueError("order must be positive")
    k = math.ceil(s) - 1
    return k, s - k


def _multi_indices(dimension: int, total: int):
    for combo in itertools.product(range(total + 1), repeat=dimension):
        if sum(combo) == total:
            yield combo


def sobolev_norm(f: GridFunction, m: int, p: float) -> float:
    """Sum of L_p norms of all spectral derivatives of order <= m; the
    order-0 term is ||f||_p itself, with no transform."""
    if m < 0 or m != int(m):
        raise ValueError("Sobolev order must be a nonnegative integer")
    total = lp_norm(f, p)
    for order in range(1, int(m) + 1):
        for alpha in _multi_indices(f.spec.dimension, order):
            total += lp_norm(spectral_derivative(f, alpha), p)
    return total


@lru_cache(maxsize=64)
def _difference_h_set(spec: GridSpec) -> tuple:
    """Lattice steps for the h-quadrature, magnitudes log-spaced in
    [spacing, L/4], with per-node log weights; grid-only, so built once
    per grid.

    Returns (steps, lengths, nodes, node_of, weight): read-only integer
    steps of shape (count, dimension), their read-only lengths, the
    distinct lengths in increasing order (the radial nodes), each step's
    index into them, and the per-node weight.  1-D takes positive steps
    only; the factor 2 surface measure of S^0 covers both signs.
    """
    h, hi = spec.spacing, spec.period / 4.0
    mags = _log_nodes(h, hi)
    if spec.dimension == 1:
        dirs, dtheta = np.ones((1, 1)), 2.0
    elif spec.dimension == 2:
        angles = 2 * np.pi * (np.arange(64) + 0.5) / 64
        dirs, dtheta = np.array([[math.cos(a), math.sin(a)] for a in angles]), 2 * np.pi / 64
    else:
        raw = np.random.default_rng(12345).normal(size=(128, 3))
        dirs, dtheta = np.array([v / np.linalg.norm(v) for v in raw]), 4 * np.pi / 128
    # one step per (magnitude, direction) node, first occurrence kept
    steps = np.rint(mags[:, None, None] * dirs / h).astype(int).reshape(-1, spec.dimension)
    steps = steps[np.any(steps != 0, axis=1)]
    steps = steps[np.sort(np.unique(steps, axis=0, return_index=True)[1])]
    lengths = _lengths(spec, steps)
    inside = lengths <= hi
    steps, lengths = steps[inside], lengths[inside]
    nodes, node_of = np.unique(lengths, return_inverse=True)
    return (*map(_read_only, (steps, lengths, nodes, node_of)), dtheta)


def classical_besov_norm(f: GridFunction, params: BesovParams) -> float:
    """Sobolev part of order [s]^- plus the second-difference seminorm
    over lattice steps |h| <= L/4: the L_q(dh/|h|) integral, a radial
    log-trapezoid whose nodes are the distinct step lengths, at q = inf
    the sup of |h|^{-frac} times the difference norm."""
    k, frac = _split_order(params.s)
    if params.p == np.inf and params.q != np.inf:
        raise ValueError("classical route needs finite p unless q = inf")
    total = sobolev_norm(f, k, params.p)
    steps, lengths, nodes, node_of, w = _difference_h_set(f.spec)
    for alpha in _multi_indices(f.spec.dimension, k):
        g = spectral_derivative(f, alpha) if k else f
        weighted = lengths ** (-frac) * difference_norms(g, steps, 2, params.p)
        if params.q == np.inf:
            total += float(np.max(weighted, initial=0.0))
        else:
            radial = np.bincount(node_of, weights=w * weighted**params.q)
            total += _log_grid_integral(nodes, radial) ** (1.0 / params.q)
    return total


def nikolskii_norm(f: GridFunction, s: float, p: float) -> float:
    """The classical Besov route at q = inf."""
    return classical_besov_norm(f, BesovParams(s, p, np.inf))


@lru_cache(maxsize=2)
def _slobodetskii_scale(spec: GridSpec, power: float) -> np.ndarray:
    """|x - x'|^power between the 1-D grid points, inf on the diagonal so
    that the diagonal cells drop out of the double sum; grid-only, so
    built once per (grid, power).  Two entries cover the two grids of an
    `equivalence` run; each holds one n x n array."""
    x = spec.axis_points()
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, np.inf)
    return _read_only(dist**power)


def slobodetskii_norm(f: GridFunction, s: float, p: float) -> float:
    """Double-integral fractional seminorm; 1-D, noninteger s and finite
    p only.

    Each term |Delta|^p / |x - x'|^(1 + frac p) is r^p with
    r = |Delta| / |x - x'|^(frac + 1/p), and the sum is taken as
    M^p * sum (r / M)^p with M = max r: the largest term is 1, so no
    term that counts can overflow or underflow at any finite p.
    """
    if f.spec.dimension != 1:
        raise ValueError("Slobodetskii norm implemented for N = 1 only")
    if s <= 0 or s == int(s):
        raise ValueError("Slobodetskii order must be positive and noninteger")
    if p == np.inf:
        raise ValueError("Slobodetskii norm needs finite p")
    k = int(math.floor(s))
    frac = s - k
    total = sobolev_norm(f, k, p)
    g = spectral_derivative(f, [k]) if k else f
    vals = g.values
    dx = f.spec.spacing
    ratio = np.abs(vals[:, None] - vals[None, :]) / _slobodetskii_scale(f.spec, frac + 1.0 / p)
    top = np.max(ratio)
    if top > 0:  # a constant g has seminorm 0
        total += float(top * (np.sum((ratio / top) ** p) * dx * dx) ** (1.0 / p))
    return total


def smooth_window(spec: GridSpec, radius: float) -> GridFunction:
    """Smooth cutoff: 1 on |x| <= radius, 0 outside |x| >= 3L/8, keeping
    the L/8 boundary margin."""
    outer = 3.0 * spec.period / 8.0
    if not (0 < radius < outer):
        raise ValueError("need 0 < radius < 3L/8")
    mesh = spec.meshgrid()
    r = np.sqrt(sum(m**2 for m in mesh))
    return GridFunction(spec, smooth_step(r, radius, outer))


# norm kind -> the fields its spec string takes and its label shows, with
# their defaults (None: required)
_SP, _SPQ = {"s": None, "p": None}, {"s": None, "p": None, "q": None}
_NORM_FIELDS = {
    "lp": {"p": 2.0}, "liouville": _SP, "besov_lp": _SPQ, "besov_modulus": _SPQ,
    "classical_besov": _SPQ, "sobolev": _SP, "nikolskii": _SP, "slobodetskii": _SP,
}


@dataclass(frozen=True)
class NormSpec:
    """Designator for one of the norm routes."""

    kind: str  # a key of _NORM_FIELDS
    p: float = 2.0
    s: float = 0.0
    q: float = 2.0

    def __post_init__(self):
        if any(math.isnan(v) for v in (self.p, self.s, self.q)):
            raise ValueError(f"{self.kind} fields must be numbers")
        if self.kind == "sobolev" and not (self.s >= 0 and float(self.s).is_integer()):
            raise ValueError(f"sobolev order must be a whole number >= 0, got {self.s:g}")
        if self.kind == "slobodetskii" and self.p == math.inf:
            raise ValueError("slobodetskii needs finite p, got inf")

    def label(self) -> str:
        values = ":".join(f"{getattr(self, name):g}" for name in _NORM_FIELDS[self.kind])
        return f"L{values}" if self.kind == "lp" else f"{self.kind}:{values}"


def evaluate_norm(
    f: GridFunction | SpectrumFunction,
    norm_spec: NormSpec,
    partition: LittlewoodPaleyPartition | None = None,
) -> float:
    """The norm_spec norm of f, given by its samples or by its spectrum.

    The lp, liouville and besov_lp routes are diagonal in frequency and
    take a spectrum as it is; the difference routes work on the samples.
    """
    kind = norm_spec.kind
    if kind == "lp":
        return lp_norm(f, norm_spec.p)
    if kind == "liouville":
        return liouville_norm(f, norm_spec.s, norm_spec.p)
    if kind == "besov_lp":
        if partition is None:
            partition = build_partition(f.spec)
        return besov_norm_lp(f, BesovParams(norm_spec.s, norm_spec.p, norm_spec.q), partition)
    f = _samples(f)
    if kind == "besov_modulus":
        return besov_norm_modulus(f, BesovParams(norm_spec.s, norm_spec.p, norm_spec.q), m=2)
    if kind == "classical_besov":
        return classical_besov_norm(f, BesovParams(norm_spec.s, norm_spec.p, norm_spec.q))
    if kind == "sobolev":
        return sobolev_norm(f, int(norm_spec.s), norm_spec.p)
    if kind == "nikolskii":
        return nikolskii_norm(f, norm_spec.s, norm_spec.p)
    if kind == "slobodetskii":
        return slobodetskii_norm(f, norm_spec.s, norm_spec.p)
    raise ValueError(f"unknown norm kind {kind!r}")


def localized_norm(
    f: GridFunction | SpectrumFunction,
    window: GridFunction | None,
    norm_spec: NormSpec,
    partition: LittlewoodPaleyPartition | None = None,
) -> float:
    """Norm of window * f: upper-bound surrogate for the restriction norm
    on the compact covered by the window's plateau."""
    if window is not None:
        w = window.values.real
        if np.min(w) < -1e-12 or np.max(w) > 1.0 + 1e-12:
            raise ValueError("window values must lie in [0, 1]")
        f = _samples(f) * window
    return evaluate_norm(f, norm_spec, partition)
