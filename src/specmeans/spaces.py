"""Smoothness norms on the periodic grid.

Implements the norm routes used by the convergence experiments:
Liouville (Bessel-weighted L_p), Littlewood-Paley Besov, the
modulus-of-continuity Besov equivalent, classical Besov with second
differences, Sobolev, Slobodetskii (1-D), Nikolskii (the classical
route at q = inf), and smooth-cutoff localized versions of all of them.

Every route is written once, over a stack of C functions on one grid
(`_Stack`: samples of shape (C,) + grid shape, or their spectra); a
public route measures one function as a stack of one.  A stack derives
its spectrum, power spectrum |F|^2 and autocorrelation once, when a
route first reads them, so the routes run on one stack share one
forward transform.  At p = 2 the Littlewood-Paley, Liouville and
Sobolev blocks are read from the power spectrum by Parseval, with no
inverse transform; at other p each block is one inverse transform of
the stack.  A stack `on_orbits` holds only the power spectrum summed
over each orbit of the grid's modes (`grid._orbits`): a sweep of a
symmetric symbol at p = 2 measures its Littlewood-Paley and Liouville
blocks from it, with the multipliers given one value per orbit.  The
Littlewood-Paley shells are functions of |xi|, so they are built once
per orbit and gathered onto the modes when a route needs them there.
Each function's norms are reduced on its own row (one dot, sum or
scalar root per row), so they do not depend on the stack around it.
Callers that measure many functions, such as the equivalence study,
stack them in chunks whose complex samples fit in STACK_BYTES.

The difference routes share one kernel, `difference_norms`.  At p = 2 it
reads every step's norm from the stack's autocorrelation
(Wiener-Khinchin), and a cancellation guard recomputes from a positive
spectral sum the (function, step) pairs where that shortcut could lose
more than 1e-12 relative, a block of pairs at a time within
STACK_BYTES; other p sum the stencil in space, over the whole stack one
step at a time.  The lattice steps of the modulus and classical routes
depend only on the grid and are built once per grid; a step's length
is spacing * sqrt(sum k^2) of its integer step k, so equal lattice
lengths share one classical radial node.  The modulus shift sets are
cached flat, as one array of member indices with each set's offset
into it, so every omega(t) of a norm comes from one reduction.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grid import (
    GridFunction,
    GridSpec,
    SpectrumFunction,
    _axes,
    _forward,
    _inverse,
    _lp_norms,
    _magnitude,
    _orbits,
    _parseval,
    _root,
    inverse_transform,
    lp_norm,
)
from .multipliers import bessel_plan, derivative_plan

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
STACK_BYTES = 32 * 2**20  # bytes of complex samples in one chunk of a function stack


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
    block F_psi = 1 - sum of shells, each a function of |xi| and so held
    as one value per orbit of the grid's modes (`grid._orbits`):
    `orbit_shells` and `orbit_base`.  `shell_multipliers`,
    `base_multiplier` and `shell` give them on the modes, gathered once,
    when first read."""

    spec: GridSpec
    k_max: int
    orbit_shells: tuple
    orbit_base: np.ndarray

    @cached_property
    def shell_multipliers(self) -> tuple:
        orbit = _orbits(self.spec)[0]
        return tuple(shell[orbit] for shell in self.orbit_shells)

    @cached_property
    def base_multiplier(self) -> np.ndarray:
        return self.orbit_base[_orbits(self.spec)[0]]

    def shell(self, k: int) -> np.ndarray:
        return self.shell_multipliers[k - 1]


def build_partition(spec: GridSpec) -> LittlewoodPaleyPartition:
    """Shells phi(2^{-k} xi) = chi(2^{-k}|xi|) - chi(2^{1-k}|xi|), on the
    orbits of the grid's modes.

    The telescoping sum makes the partition-of-unity identity exact at
    every lattice frequency below the dyadic ceiling 2^{k_max}.
    """
    xi = _magnitude(_orbits(spec)[1])
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


def _samples(f: GridFunction | SpectrumFunction) -> GridFunction:
    return inverse_transform(f) if isinstance(f, SpectrumFunction) else f


def _chunk_length(spec: GridSpec) -> int:
    """How many complex sample arrays of the grid fit in STACK_BYTES, and
    at least one."""
    return max(1, STACK_BYTES // (16 * spec.size))


class _Stack:
    """C functions on one grid, given by their samples, shape
    (C,) + spec.shape, or by their spectra.  Each array derived from them
    is computed once, when a route first reads it, so the routes run on
    one stack share one forward transform, one power spectrum and one
    autocorrelation.  A stack `on_orbits` holds only a power spectrum
    summed over each orbit of the grid's modes."""

    orbits = False  # True: `power` has one value per orbit of grid._orbits

    def __init__(self, spec: GridSpec, values=None, spectrum=None):
        self.spec = spec
        if values is not None:
            self.values = values
        if spectrum is not None:
            self.spectrum = spectrum

    @classmethod
    def of(cls, f: GridFunction | SpectrumFunction) -> "_Stack":
        """The stack of one function, by its samples or its spectrum."""
        if isinstance(f, SpectrumFunction):
            return cls(f.spec, spectrum=f.coefficients[None])
        return cls(f.spec, values=f.values[None])

    @classmethod
    def on_orbits(cls, spec: GridSpec, power: np.ndarray) -> "_Stack":
        """The stack of one function given by its orbit power spectrum,
        sum over each orbit of |F|^2.  It has no samples or spectrum, so
        only its p = 2 norms of multipliers constant on orbits exist:
        the multipliers take one value per orbit too."""
        stack = cls(spec)
        stack.power, stack.orbits = power[None], True
        return stack

    @cached_property
    def values(self) -> np.ndarray:
        return _inverse(self.spec, self.spectrum)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return _forward(self.spec, self.values)

    @cached_property
    def power(self) -> np.ndarray:
        """|spectrum|^2, one flattened row per function."""
        return (np.abs(self.spectrum) ** 2).reshape(len(self.spectrum), -1)

    @cached_property
    def autocorrelation(self) -> np.ndarray:
        """ifftn of the power: each function's circular autocorrelation
        sum_x f(x + d) conj f(x), real part, in the units of the power."""
        return np.fft.ifftn(self.power.reshape(self.spectrum.shape), axes=_axes(self.spec)).real

    def derivative(self, alpha) -> "_Stack":
        """The stack of the spectral derivatives D^alpha."""
        return _Stack(self.spec, spectrum=derivative_plan(alpha, self.spec).values * self.spectrum)


def _row_dots(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The dot product of each row with `other` (one vector, or one row
    each), one BLAS dot per row: unlike a matrix-vector product, a row's
    result does not depend on how many rows are stacked with it."""
    return np.matmul(rows[:, None, :], other[..., None])[:, 0, 0]


def _block_norms(stack: _Stack, multiplier: np.ndarray, p: float) -> np.ndarray:
    """L_p norm of the block with spectrum multiplier * spectrum of each
    function; at p = 2 by Parseval from the power spectrum, with no
    transform."""
    spec = stack.spec
    if p == 2:
        weight = (np.abs(multiplier) ** 2).reshape(-1)
        return np.sqrt(_parseval(spec) * _row_dots(stack.power, weight))
    return _lp_norms(spec, _inverse(spec, multiplier * stack.spectrum), p)


def liouville_norm(f: GridFunction | SpectrumFunction, s: float, p: float) -> float:
    """L_p norm of the Bessel-weighted function (order s, any sign)."""
    return float(_block_norms(_Stack.of(f), bessel_plan(s, f.spec).values, p)[0])


def besov_norm_lp(
    f: GridFunction | SpectrumFunction,
    params: BesovParams,
    partition: LittlewoodPaleyPartition,
) -> float:
    """Littlewood-Paley Besov norm: base block plus the l_q sum of
    2^{sk}-weighted shell norms.  f is transformed once; each block
    costs one inverse transform, none at p = 2."""
    return float(_besov_lp_norms(_Stack.of(f), params, partition)[0])


def _besov_lp_norms(
    stack: _Stack, params: BesovParams, partition: LittlewoodPaleyPartition
) -> np.ndarray:
    if partition.spec != stack.spec:
        raise ValueError("partition grid does not match")
    if stack.orbits:
        base, shells = partition.orbit_base, partition.orbit_shells
    else:
        base, shells = partition.base_multiplier, partition.shell_multipliers
    total = _block_norms(stack, base, params.p)
    terms = np.stack([
        2.0 ** (params.s * k) * _block_norms(stack, shell, params.p)
        for k, shell in enumerate(shells, start=1)
    ], axis=1)
    if params.q == np.inf:
        total += np.max(terms, axis=1)
    else:
        total += _root(np.sum(terms**params.q, axis=1), params.q)
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
    """sum_k C(m,k) (-1)^k values(x + k y) for the lattice step y = steps,
    taken over the last len(steps) axes, so over a stack too."""
    axes = tuple(range(values.ndim - len(steps), values.ndim))
    weights = _stencil_weights(m)
    acc = weights[0] * values
    for k, weight in enumerate(weights[1:], start=1):
        acc += weight * np.roll(values, tuple(-k * s for s in steps), axis=axes)
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
    return _difference_norms(_Stack.of(f), steps, m, p)[0]


def _difference_norms(stack: _Stack, steps: np.ndarray, m: int, p: float) -> np.ndarray:
    """`difference_norms` of each function of a stack, shape (C, count)."""
    spec = stack.spec
    if p == 2:
        return np.sqrt(_parseval(spec) * spec.size * _l2_difference_sums(stack, steps, m))
    norms = np.empty((len(stack.values), len(steps)))
    for i, y in enumerate(steps):
        norms[:, i] = _lp_norms(spec, _stencil(stack.values, y, m), p)
    return norms


def _l2_difference_sums(stack: _Stack, steps: np.ndarray, m: int) -> np.ndarray:
    """S_y = sum_xi |F(xi)|^2 (2 sin(pi xi.y / n))^{2m} / n^N for every
    function f of the stack, F its spectrum, and every row y of `steps`,
    shape (C, count): by Parseval, ||Delta_y^m f||_2^2 = W n^N S_y, with W
    the weight of `grid._parseval`.

    With A the autocorrelation of f, S_y = Re sum_d c(d) A(d y mod n) for
    d = -m..m, where c is the autocorrelation of the stencil weights
    C(m,k) (-1)^k.  A carries an absolute error of about
    eps log2(n^N) A(0), the roundoff of transforms log2(n^N) stages deep,
    so the cancellation in that sum leaves S_y a relative error of about
    eps log2(n^N) A(0) 4^m / S_y, and the norm sqrt(S_y) half of that.
    The (function, step) pairs where the norm's estimate, from that
    function's own A(0), exceeds GUARD_TOL are recomputed by
    `_exact_difference_sums`.
    """
    weights = np.array(_stencil_weights(m), dtype=float)
    n = stack.spec.points_per_axis
    auto = stack.autocorrelation
    lags = np.arange(-m, m + 1)
    at = (lags[:, None, None] * steps[None, :, :]) % n  # (lag, step, axis) indices into A
    # summed lag by lag, elementwise: each function's sums do not depend on the stack around it
    sums = sum(
        c * auto[(slice(None),) + tuple(lag.T)]
        for c, lag in zip(np.correlate(weights, weights, mode="full"), at)
    )
    origin = auto.reshape(len(auto), -1)[:, 0]  # A(0) of each function
    error = np.finfo(float).eps * np.log2(stack.spec.size) * origin * 4.0**m
    unsure = np.nonzero(error[:, None] > 2.0 * GUARD_TOL * sums)
    if unsure[0].size:
        sums[unsure] = _exact_difference_sums(stack, steps, m, *unsure)
    return sums


def _exact_difference_sums(
    stack: _Stack, steps: np.ndarray, m: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """S_y of function rows[i] at step steps[cols[i]], for each i, summed
    as it is defined, a sum of positive terms: one product per block of
    pairs, each block's response and power rows within STACK_BYTES."""
    spec = stack.spec
    n = spec.points_per_axis
    pair_steps = steps[cols]
    # the response (2 sin(pi t / n))^{2m}, periodic in t, tabulated at every
    # t = xi.y of the modes 0 <= xi_d < n, which all have |t| <= reach
    reach = (n - 1) * int(np.max(np.sum(np.abs(pair_steps), axis=1)))
    response = (2.0 * np.sin(np.pi * np.arange(n) / n)) ** (2 * m)
    table = response[np.arange(-reach, reach + 1) % n]
    sums = np.empty(rows.size)
    block = _chunk_length(spec)
    for start in range(0, rows.size, block):
        pick = slice(start, start + block)
        responses = np.empty((len(pair_steps[pick]), spec.size))
        for out, y in zip(responses, pair_steps[pick]):
            # table[reach + xi.y] over the modes xi: a strided view of the table
            strides = tuple((table.itemsize * y).tolist())
            out.reshape(spec.shape)[...] = as_strided(table[reach:], spec.shape, strides, writeable=False)
        sums[pick] = _row_dots(stack.power[rows[pick]], responses) / spec.size
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


def _moduli(norms: np.ndarray, members: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """omega(t) per shift set from the norms of the steps (last axis),
    the sets in the flat form of `_shift_sets`: every set is reduced by
    one `np.maximum.reduceat`, and an empty set gives 0."""
    filled = starts < np.append(starts[1:], members.size)
    moduli = np.zeros(norms.shape[:-1] + starts.shape)
    moduli[..., filled] = np.maximum.reduceat(norms[..., members], starts[filled], axis=-1)
    return moduli


def modulus_of_continuity(f: GridFunction, t: float, m: int, p: float) -> float:
    """sup over lattice shifts |y| < t of the L_p norm of the m-th
    difference."""
    if t < f.spec.spacing or t <= 0:
        warnings.warn("t below grid spacing; modulus reported as 0", stacklevel=2)
        return 0.0
    steps, members, starts = _shift_sets(f.spec, [t])
    return float(_moduli(difference_norms(f, steps, m, p), members, starts)[0])


def _log_grid_integral(ts: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Trapezoid rule for int g(t) dt/t on the given nodes, along the
    last axis of gs."""
    return np.trapezoid(gs, np.log(ts), axis=-1)


def _log_nodes(lo: float, hi: float) -> np.ndarray:
    decades = math.log10(hi / lo)
    count = max(4, int(math.ceil(NODES_PER_DECADE * decades)) + 1)
    return np.geomspace(lo, hi, count)


def besov_norm_modulus(f: GridFunction, params: BesovParams, m: int) -> float:
    """Modulus-of-continuity Besov norm: ||f||_p plus, once per axis, the
    L_q(dt/t) norm of t^{-s} omega_p^m(t, f)."""
    return float(_besov_modulus_norms(_Stack.of(f), params, m)[0])


def _besov_modulus_norms(stack: _Stack, params: BesovParams, m: int) -> np.ndarray:
    s = params.s
    if not 0 < s < m:
        raise ValueError("modulus route needs 0 < s < m")
    spec = stack.spec
    ts, steps, members, starts = _modulus_shifts(spec)
    weighted = ts ** (-s) * _moduli(_difference_norms(stack, steps, m, params.p), members, starts)
    if params.q == np.inf:
        term = np.max(weighted, axis=1)
    else:
        term = _root(_log_grid_integral(ts, weighted**params.q), params.q)
    total = _lp_norms(spec, stack.values, params.p)
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
    return float(_sobolev_norms(_Stack.of(f), int(m), p)[0])


def _sobolev_norms(stack: _Stack, m: int, p: float) -> np.ndarray:
    spec = stack.spec
    total = _lp_norms(spec, stack.values, p)
    for order in range(1, m + 1):
        for alpha in _multi_indices(spec.dimension, order):
            total += _block_norms(stack, derivative_plan(alpha, spec).values, p)
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
    return float(_classical_norms(_Stack.of(f), params.s, params.p, (params.q,))[0, 0])


def _classical_norms(stack: _Stack, s: float, p: float, qs: tuple) -> np.ndarray:
    """`classical_besov_norm` of each function for each q of qs, shape
    (len(qs), C): every q reduces the same weighted h-step norms."""
    k, frac = _split_order(s)
    if p == np.inf and any(q != np.inf for q in qs):
        raise ValueError("classical route needs finite p unless q = inf")
    spec = stack.spec
    totals = np.tile(_sobolev_norms(stack, k, p), (len(qs), 1))
    steps, lengths, nodes, node_of, w = _difference_h_set(spec)
    for alpha in _multi_indices(spec.dimension, k):
        g = stack.derivative(alpha) if k else stack
        weighted = lengths ** (-frac) * _difference_norms(g, steps, 2, p)
        # each function's steps summed onto its own row of radial nodes, in step order
        bins = (np.arange(len(weighted))[:, None] * nodes.size + node_of).reshape(-1)
        for total, q in zip(totals, qs):
            if q == np.inf:
                total += np.max(weighted, axis=1, initial=0.0)
            else:
                terms = (w * weighted**q).reshape(-1)
                radial = np.bincount(bins, weights=terms, minlength=len(weighted) * nodes.size)
                total += _root(_log_grid_integral(nodes, radial.reshape(len(weighted), -1)), q)
    return totals


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
    return float(_slobodetskii_norms(_Stack.of(f), s, p)[0])


def _slobodetskii_norms(stack: _Stack, s: float, p: float) -> np.ndarray:
    """`slobodetskii_norm` of each function, one double sum at a time:
    its n x n temporaries are not stacked."""
    spec = stack.spec
    if spec.dimension != 1:
        raise ValueError("Slobodetskii norm implemented for N = 1 only")
    if s <= 0 or s == int(s):
        raise ValueError("Slobodetskii order must be positive and noninteger")
    if p == np.inf:
        raise ValueError("Slobodetskii norm needs finite p")
    k = int(math.floor(s))
    frac = s - k
    total = _sobolev_norms(stack, k, p)
    g = stack.derivative([k]) if k else stack
    dx = spec.spacing
    scale = _slobodetskii_scale(spec, frac + 1.0 / p)
    for i, vals in enumerate(g.values):
        ratio = np.abs(vals[:, None] - vals[None, :]) / scale
        top = np.max(ratio)
        if top > 0:  # a constant g has seminorm 0
            total[i] += float(top * (np.sum((ratio / top) ** p) * dx * dx) ** (1.0 / p))
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
        for name, value in (("p", self.p), ("q", self.q)):
            if value < 1:
                raise ValueError(f"{self.kind} exponent {name} must be >= 1 or inf, got {value:g}")
        # the routes check these too, for direct callers; here the error names the spec
        if self.kind == "besov_modulus" and not 0 < self.s < 2:  # the route runs at m = 2
            raise ValueError(f"besov_modulus order must lie in (0, 2), got {self.s:g}")
        if self.kind in ("classical_besov", "nikolskii") and not self.s > 0:
            raise ValueError(f"{self.kind} order must be > 0, got {self.s:g}")
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
