"""Elliptic homogeneous symbols, mean profiles, and hypothesis checkers.

A symbol sigma(y) > 0, homogeneous of degree m >= 1, defines the
positive operator A; a profile p(lambda) with p(0) = 1 defines the
family of spectral means.  The checkers test, numerically, the two
condition sets under which the convergence statements hold:

  T1-type:  integrability of |p(lambda)| lambda^{(N-alpha0-1)/m},
            derivative decay |p^(j)| <= C_j (1+lambda)^{-j}, and the
            arithmetic constraints on (p, p0, alpha, alpha0, beta, l);
  T2-type:  boundedness of p on [0, inf), continuity near 0, and the
            arithmetic constraints with alpha0 > N/p0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

__all__ = [
    "HomogeneousSymbol",
    "MeanFunction",
    "TheoremParameters",
    "power_symbol",
    "quartic_symbol",
    "make_riesz_mean",
    "make_gaussian_mean",
    "make_smooth_cutoff_mean",
    "check_integrability",
    "check_derivative_decay",
    "check_theorem2",
    "assemble_hypothesis_report",
]

JET_ORDER = 6  # highest closed-form derivative of the smooth cutoff
BIG_LAMBDA = 1e3  # integrability: quadrature below, decay fit on [1, 4] x this


@dataclass(frozen=True)
class HomogeneousSymbol:
    """sigma(y): positive, homogeneous of degree m; sigma(0) := 0.

    `evaluate` takes a tuple of N coordinate arrays (broadcastable) and
    returns the symbol values.  `symmetric` declares sigma unchanged by
    permuting the coordinates and flipping their signs, so constant on
    each orbit of lattice modes (`grid._orbits`).
    """

    degree: float
    evaluate: Callable[..., np.ndarray]
    dimension: Optional[int] = None  # the only N it is defined for; None: any N
    symmetric: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.degree) and self.degree >= 1):
            raise ValueError(f"degree m must be finite and >= 1, got {self.degree}")

    def __call__(self, *coords) -> np.ndarray:
        """sigma at the coordinates.  A value that overflows is an error:
        sigma = inf there would make a different operator."""
        with np.errstate(over="ignore"):
            values = self.evaluate(*coords)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"symbol of degree {self.degree:g} overflows on the grid")
        return values


def power_symbol(m: float) -> HomogeneousSymbol:
    """|y|^m, radial, any degree m >= 1."""

    def ev(*coords):
        r2 = sum(np.asarray(c) ** 2 for c in coords)
        return np.where(r2 > 0, r2 ** (m / 2.0), 0.0)

    return HomogeneousSymbol(m, ev, symmetric=True)


def quartic_symbol() -> HomogeneousSymbol:
    """y1^4 + y2^4 on R^2: homogeneous of degree 4, elliptic, non-radial."""

    def ev(y1, y2):
        return np.asarray(y1) ** 4 + np.asarray(y2) ** 4

    return HomogeneousSymbol(4.0, ev, dimension=2, symmetric=True)


@dataclass(frozen=True)
class MeanFunction:
    """Profile p(lambda) on [0, inf) with p(0) = 1.

    `derivative(j, lam)` returns the closed-form j-th derivative when one
    is available; it raises ValueError for orders without a closed form,
    in which case callers fall back to finite differences.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str
    derivative: Optional[Callable[[int, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        p0 = float(np.asarray(self.evaluate(np.array(0.0))).real)
        if abs(p0 - 1.0) > 1e-12:
            raise ValueError(f"mean function must satisfy p(0) = 1, got {p0}")

    def __call__(self, lam) -> np.ndarray:
        return self.evaluate(np.asarray(lam, dtype=float))


def make_riesz_mean(s: float) -> MeanFunction:
    """Riesz profile (1 - lambda)_+^s; s = 0 is the sharp indicator."""
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"Riesz order must be finite and >= 0, got {s}")

    def ev(lam):
        lam = np.asarray(lam, dtype=float)
        if s == 0:
            return np.where(lam <= 1.0, 1.0, 0.0)
        return np.clip(1.0 - lam, 0.0, None) ** s

    def deriv(j, lam):
        # Closed forms only where p^(j) is continuous across lambda = 1;
        # rougher orders go through the finite-difference fallback so the
        # decay checker sees the genuine loss of smoothness.
        if j == 0:
            return ev(lam)
        if j > math.ceil(s) - 1:
            raise ValueError(f"no closed-form derivative of order {j} for s={s}")
        lam = np.asarray(lam, dtype=float)
        coeff = (-1.0) ** j * math.prod(s - i for i in range(j))
        inside = np.clip(1.0 - lam, 0.0, None) ** (s - j)
        return np.where(lam < 1.0, coeff * inside, 0.0)

    return MeanFunction(ev, f"riesz:{s:g}", deriv)


def make_gaussian_mean() -> MeanFunction:
    """p(lambda) = exp(-lambda)."""

    def ev(lam):
        return np.exp(-np.asarray(lam, dtype=float))

    def deriv(j, lam):
        return (-1.0) ** j * np.exp(-np.asarray(lam, dtype=float))

    return MeanFunction(ev, "gaussian", deriv)


def _bridge_jet(x: np.ndarray, tau: float, order: int) -> np.ndarray:
    """Taylor coefficients b^(k)(x)/k!, k = 0..order, of the bridge
    b = 1/(1 + e^s), s(x) = 1/(tau-x) - 1/(x-tau/2), at points of (tau/2, tau).

    Truncated-Taylor ("jet") arithmetic (Griewank & Walther, Evaluating
    Derivatives, 2nd ed., ch. 13): s has closed-form coefficients, the
    exponential and the reciprocal follow their jet recurrences.  Where
    s > 0 the sign is flipped and b = e^{-s}/(1 + e^{-s}), so the
    exponential never exceeds 1.  Returns shape (order + 1,) + x.shape.
    """
    k = np.arange(order + 1).reshape((-1,) + (1,) * x.ndim)
    s = (tau - x) ** -(k + 1.0) - (-1.0) ** k * (x - tau / 2.0) ** -(k + 1.0)
    flip = s[0] > 0
    g = np.where(flip, -s, s)
    e = np.empty_like(g)
    e[0] = np.exp(g[0])
    for n in range(1, order + 1):
        e[n] = sum(j * g[j] * e[n - j] for j in range(1, n + 1)) / n
    r = np.empty_like(g)  # jet of 1/(1 + e)
    r[0] = 1.0 / (1.0 + e[0])
    for n in range(1, order + 1):
        r[n] = -r[0] * sum(e[j] * r[n - j] for j in range(1, n + 1))
    er = [sum(e[j] * r[n - j] for j in range(n + 1)) for n in range(order + 1)]
    return np.where(flip, er, r)


def make_smooth_cutoff_mean(tau: float) -> MeanFunction:
    """C^inf profile: 1 on [0, tau/2], 0 on [tau, inf), smooth bridge between.

    The bridge is e^{-1/(tau-x)} / (e^{-1/(tau-x)} + e^{-1/(x-tau/2)}).
    p itself is evaluated directly; derivatives up to JET_ORDER come
    from the bridge's Taylor jet (`_bridge_jet`), and are exactly 0 on the
    flat pieces.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    half = tau / 2.0

    def ev(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.where(lam <= half, 1.0, 0.0)
        inside = (lam > half) & (lam < tau)
        x = lam[inside]
        s = 1.0 / (tau - x) - 1.0 / (x - half)
        small = np.exp(-np.abs(s))  # e^{-|s|} <= 1, no overflow
        out[inside] = np.where(s > 0, small, 1.0) / (1.0 + small)
        return out

    def deriv(j, lam):
        if not 0 <= j <= JET_ORDER:
            raise ValueError(f"closed-form derivatives available for orders 0..{JET_ORDER}")
        lam = np.asarray(lam, dtype=float)
        if j == 0:
            return ev(lam)
        out = np.zeros(lam.shape)
        inside = (lam > half) & (lam < tau)
        out[inside] = _bridge_jet(lam[inside], tau, j)[j] * math.factorial(j)
        return out

    return MeanFunction(ev, f"cutoff:{tau:g}", deriv)


# ---------------------------------------------------------------------------
# condition checkers


# lambda grid of the T1 checkers: fine on [0, 4], geometric to 1e6
_DECAY_GRID = np.unique(
    np.concatenate([np.linspace(0.0, 4.0, 2001), np.geomspace(1e-3, 1e6, 600)])
)
_DECAY_GRID.flags.writeable = False


@dataclass(frozen=True)
class IntegrabilityResult:
    finite: bool
    value: float
    decay_exponent: float
    reason: str = ""


def check_integrability(p: MeanFunction, N: int, alpha0: float, m: float) -> IntegrabilityResult:
    r"""Test \int_0^inf |p(lambda)| lambda^e dlambda < inf, e = (N-alpha0-1)/m.

    The head [0, end] is integrated by adaptive quadrature on [0, 1] and
    ten geometric pieces of [1, end]; the tail is classified through the
    empirical decay exponent of |p| fitted on [end, 4*end] (finite iff it
    exceeds e + 1 + 0.1).  end is BIG_LAMBDA, or the end of the support
    of p on _DECAY_GRID when that lies above: a support edge above
    BIG_LAMBDA is integrated, not taken for a slow tail.
    """
    if m < 1 or N < 1:
        raise ValueError("need m >= 1 and N >= 1")
    e = (N - alpha0 - 1.0) / m
    if e <= -1.0:
        return IntegrabilityResult(False, math.inf, math.nan, "divergence at 0")

    def integrand(lam):
        return abs(float(p(lam))) * lam**e

    last = np.flatnonzero(p(_DECAY_GRID))[-1]  # p(0) = 1, so there is one
    end = BIG_LAMBDA if last + 1 == _DECAY_GRID.size else max(BIG_LAMBDA, float(_DECAY_GRID[last + 1]))
    # geometric pieces above 1, so a support edge just past lambda = 1 is
    # not lost between the first nodes of a single [1, end] rule
    edges = np.concatenate([[0.0], np.geomspace(1.0, end, 11)])
    value = sum(quad(integrand, a, b, limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))

    lam_tail = np.geomspace(end, 4 * end, 16)
    vals = np.abs(p(lam_tail))
    if np.max(vals) < 1e-300:
        decay = math.inf
    else:
        good = vals > 1e-300
        if np.count_nonzero(good) < 2:
            decay = math.inf
        else:
            slope = np.polyfit(np.log(lam_tail[good]), np.log(vals[good]), 1)[0]
            decay = -float(slope)
    finite = decay > e + 1.0 + 0.1
    return IntegrabilityResult(finite, value, decay, "" if finite else "slow tail")


def _fd_derivative(p: MeanFunction, j: int, lam: np.ndarray, h: np.ndarray):
    """Central finite-difference j-th derivative, 4th-order accurate."""
    npts = j + 4 + (j % 2)  # symmetric stencil wide enough for order >= 4
    half = npts // 2
    offsets = np.arange(-half, half + 1)
    A = np.vstack([offsets.astype(float) ** i / math.factorial(i) for i in range(len(offsets))])
    rhs = np.zeros(len(offsets))
    rhs[j] = 1.0
    coeffs = np.linalg.solve(A, rhs)
    acc = np.zeros_like(lam)
    for c, k in zip(coeffs, offsets):
        acc = acc + c * p(np.clip(lam + k * h, 0.0, None))
    return acc / h**j


@dataclass(frozen=True)
class DerivativeDecayResult:
    constants: Sequence[float]
    passed: bool
    failed_orders: Sequence[int]


def check_derivative_decay(p: MeanFunction, l: int) -> DerivativeDecayResult:
    """Estimate C_j = sup |p^(j)(lambda)| (1+lambda)^j for j = 0..l.

    Passes iff every supremum is stable: no growth across the two largest
    lambda decades, and (for finite-difference orders) the estimate is
    insensitive to halving the step.  A jump in p^(j) makes the step test
    blow up and fails the order, matching loss of C^l smoothness.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    lam = _DECAY_GRID
    constants, failed = [], []
    for j in range(l + 1):
        closed = True
        try:
            if p.derivative is None:
                raise ValueError("no closed form")
            vals = np.asarray(p.derivative(j, lam), dtype=float)
        except ValueError:
            closed = False
            h = 1e-3 * (1.0 + lam)
            vals = _fd_derivative(p, j, lam, h)
            vals_half = _fd_derivative(p, j, lam, h / 2.0)
            scale = max(np.max(np.abs(vals_half)), 1e-12)
            mismatch = np.abs(vals - vals_half) / (1e-6 * scale + np.abs(vals_half))
            step_ok = np.max(mismatch) < 0.1
        weighted = np.abs(vals) * (1.0 + lam) ** j
        cj = float(np.max(weighted))
        constants.append(cj)
        d1 = np.max(weighted[(lam >= 1e4) & (lam < 1e5)], initial=0.0)
        d2 = np.max(weighted[(lam >= 1e5) & (lam <= 1e6)], initial=0.0)
        stable = d2 <= d1 * 1.02 + 1e-12
        ok = stable and (closed or step_ok)
        if not ok:
            failed.append(j)
    return DerivativeDecayResult(tuple(constants), not failed, tuple(failed))


@dataclass(frozen=True)
class BoundednessContinuityResult:
    passed: bool
    bounded: bool
    continuous_near_zero: bool
    sup_estimate: float
    note: str = "continuity checked on the closed interval [0, tau]"


def check_theorem2(p: MeanFunction, tau: float) -> BoundednessContinuityResult:
    """Boundedness on [0, inf) plus continuity on [0, tau].

    Boundedness is decided by refinement: the supremum over successively
    denser grids must not keep growing.  Continuity is decided by the
    maximum adjacent-sample jump on a 10^4-point grid shrinking under
    refinement (a genuine jump stays put).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    span = max(2.0 * tau, 10.0)
    sups = []
    for npts in (10**3, 10**4, 10**5):
        lam = np.concatenate([np.linspace(0.0, span, npts), np.geomspace(span, 1e6, 200)])
        vals = np.abs(p(lam))
        if not np.all(np.isfinite(vals)):
            sups.append(math.inf)
        else:
            sups.append(float(np.max(vals)))
    bounded = np.isfinite(sups[-1]) and sups[-1] <= sups[-2] * 2.0 + 1e-12

    def max_jump(npts):
        lam = np.linspace(0.0, tau, npts)
        vals = np.asarray(p(lam), dtype=float)
        return float(np.max(np.abs(np.diff(vals))))

    j1 = max_jump(10**4)
    j2 = max_jump(2 * 10**4)
    continuous = j1 < 1e-6 or j2 <= 0.6 * j1

    return BoundednessContinuityResult(bounded and continuous, bounded, continuous, sups[-1])


# ---------------------------------------------------------------------------
# hypothesis reports


@dataclass(frozen=True)
class TheoremParameters:
    """Parameter record (N, m, p, p0, alpha, alpha0, beta, l, q, tau)."""

    N: int
    m: float
    p: float
    p0: float
    alpha: float
    beta: float
    l: int = 0
    alpha0: Optional[float] = None
    q: Optional[float] = None
    tau: float = 1.0

    @property
    def eps(self) -> float:
        return self.N * (1.0 / self.p - 1.0 / self.p0)

    def resolved_alpha0(self) -> float:
        if self.alpha0 is not None:
            return self.alpha0
        return self.N / self.p0


def assemble_hypothesis_report(theorem_id: str, params: TheoremParameters, p: MeanFunction) -> dict:
    """Evaluate every inequality of the T1 or T2 condition set: the report
    as the payload dict it prints, which passes iff every check does."""
    if theorem_id not in ("T1", "T2"):
        raise ValueError(f"theorem_id must be 'T1' or 'T2', got {theorem_id}")
    if params.p < 1 or params.p0 < 1 or params.N < 1 or params.m < 1:
        raise ValueError("inconsistent parameter record")

    checks = []
    notes = []
    alpha0 = params.resolved_alpha0()
    eps = params.eps

    def add(name, formula, lhs, rhs, passed):
        checks.append(
            {"condition": name, "formula": formula, "lhs": float(lhs), "rhs": float(rhs), "pass": bool(passed)}
        )

    add("alpha >= 0", "alpha >= 0", params.alpha, 0.0, params.alpha >= 0)
    add(
        "beta lower bound",
        "beta >= alpha0 + alpha + eps",
        params.beta,
        alpha0 + params.alpha + eps,
        params.beta >= alpha0 + params.alpha + eps - 1e-12,
    )
    p0val = float(np.asarray(p(0.0)).real)
    add("p(0) = 1", "p(0) == 1", p0val, 1.0, abs(p0val - 1.0) <= 1e-12)

    if theorem_id == "T1":
        add(
            "exponent range",
            "2 <= p <= p0 < inf",
            params.p,
            params.p0,
            2.0 <= params.p <= params.p0 < math.inf,
        )
        add(
            "alpha0 = N/p0",
            "alpha0 == N/p0",
            alpha0,
            params.N / params.p0,
            abs(alpha0 - params.N / params.p0) <= 1e-12,
        )
        add(
            "smoothness order",
            "l > N(1/2 - 1/p0)",
            params.l,
            params.N * (0.5 - 1.0 / params.p0),
            params.l > params.N * (0.5 - 1.0 / params.p0),
        )
        integ = check_integrability(p, params.N, alpha0, params.m)
        add(
            "integrability",
            "int |p| lambda^((N-alpha0-1)/m) < inf",
            integ.value,
            math.inf,
            integ.finite,
        )
        decay = check_derivative_decay(p, params.l)
        add(
            "derivative decay",
            "|p^(j)| <= C_j (1+lambda)^(-j), j = 0..l",
            max(decay.constants),
            math.inf,
            decay.passed,
        )
        if not decay.passed:
            notes.append(f"derivative decay failed at orders {list(decay.failed_orders)}")
    else:
        range_ok = (1.0 < params.p <= params.p0 <= 2.0) or (
            params.p == params.p0 == 1.0
        )
        add("exponent range", "1 < p <= p0 <= 2 (or p = p0 = 1)", params.p, params.p0, range_ok)
        add(
            "alpha0 bound",
            "alpha0 > N/p0",
            alpha0,
            params.N / params.p0,
            alpha0 > params.N / params.p0,
        )
        bc = check_theorem2(p, params.tau)
        add(
            "bounded and continuous",
            "p in L_inf cap C([0, tau])",
            bc.sup_estimate,
            math.inf,
            bc.passed,
        )
        notes.append(bc.note)
    if params.q is not None:
        add("q range", "1 <= q < inf", params.q, math.inf, 1.0 <= params.q < math.inf)
    return {
        "theorem": theorem_id,
        "parameters": {
            "N": params.N,
            "m": params.m,
            "p": params.p,
            "p0": params.p0,
            "alpha": params.alpha,
            "alpha0": alpha0,
            "beta": params.beta,
            "eps": eps,
            "l": params.l,
            "q": params.q,
            "tau": params.tau,
        },
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
        "notes": notes,
    }
