"""Special functions and Beta-kernel quadrature.

Everything here is pure and reentrant.  The posterior for the level of step i
out of n is Beta(i+1, n-i+1); adaptive integrals against it go through
``quad_beta_weighted``, which handles endpoint singularities and divergence,
and integrands that are polynomials through ``gauss_legendre_01``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as sc

from .errors import DivergentIntegral, DivergentMoment

__all__ = [
    "BetaIndex",
    "QuadratureResult",
    "log_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "beta_moment",
    "digamma",
    "quad_beta_weighted",
    "gauss_legendre_01",
]


@dataclass(frozen=True)
class BetaIndex:
    """Step index i of a sample of size n; the level posterior is Beta(i+1, n-i+1)."""

    i: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got n={self.n}")
        if not 0 <= self.i <= self.n:
            raise ValueError(f"step index must satisfy 0 <= i <= n, got i={self.i}, n={self.n}")

    @property
    def a(self):
        return self.i + 1

    @property
    def b(self):
        return self.n - self.i + 1


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    converged: bool


def log_beta(a, b):
    """ln B(a, b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError(f"log_beta requires positive arguments, got a={a}, b={b}")
    return float(sc.betaln(a, b))


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"reg_inc_beta requires positive shape parameters, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    out = sc.betainc(a, b, x)
    return float(out) if out.ndim == 0 else out


def inv_reg_inc_beta(p, a, b):
    """Inverse of ``reg_inc_beta`` in x: ``betaincinv`` plus one Newton step.

    Where the lower-tail series start (p a B(a, b))^(1/a) is closer in p, it
    replaces ``betaincinv``, which is NaN for p <= 1e-108 at a = b = 3.  A
    non-finite Newton step (pdf 0 or inf) is dropped; the result is clipped to
    [0, 1], and p = 0 and p = 1 map exactly to 0 and 1.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"inv_reg_inc_beta requires positive shape parameters, got a={a}, b={b}")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > 1):
        raise ValueError("inv_reg_inc_beta requires 0 <= p <= 1")
    log_b = sc.betaln(a, b)
    x = sc.betaincinv(a, b, p_arr)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_tail = np.minimum(np.exp((np.log(p_arr) + np.log(a) + log_b) / a), 1.0)
        keep = np.abs(sc.betainc(a, b, x) - p_arr) <= np.abs(sc.betainc(a, b, x_tail) - p_arr)
        x = np.where(keep, x, x_tail)
        step = (sc.betainc(a, b, x) - p_arr) / np.exp(sc.xlogy(a - 1.0, x) + sc.xlog1py(b - 1.0, -x) - log_b)
    out = np.clip(np.where(np.isfinite(step), x - step, x), 0.0, 1.0)
    out = np.where(p_arr == 0.0, 0.0, np.where(p_arr == 1.0, 1.0, out))
    return float(out) if out.ndim == 0 else out


def beta_moment(idx, m):
    """E[T_i^m] for T_i ~ Beta(i+1, n-i+1), evaluated as a gamma ratio in log space."""
    a, b = idx.a, idx.b
    if m <= -a:
        raise DivergentMoment(f"E[T^{m}] diverges for Beta({a},{b}): need m > {-a}")
    return float(np.exp(sc.betaln(a + m, b) - sc.betaln(a, b)))


def digamma(x):
    """Digamma psi(x) for x > 0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("digamma requires x > 0")
    out = sc.digamma(x_arr)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def gauss_legendre_01(m):
    """m-point Gauss-Legendre rule on [0, 1], exact to degree 2m - 1 (cached, read-only)."""
    xi, wi = sc.roots_legendre(m)
    x, w = 0.5 * (xi + 1.0), 0.5 * wi
    x.flags.writeable = w.flags.writeable = False
    return x, w


_GL_NODES, _GL_WEIGHTS = leggauss(16)


def _panel_nodes(breaks):
    """Gauss-Legendre nodes/weights for the panels defined by sorted breakpoints."""
    lo = breaks[:-1]
    width = np.diff(breaks)
    nodes = lo[:, None] + (0.5 * (_GL_NODES + 1.0))[None, :] * width[:, None]
    weights = (0.5 * _GL_WEIGHTS)[None, :] * width[:, None]
    # rounding can push nodes of the outermost panels onto the endpoints
    nodes = np.clip(nodes, 5e-324, np.nextafter(1.0, 0.0))
    return nodes.ravel(), weights.ravel()


def _breakpoints(depth_left, depth_right, n_interior, extra=()):
    # the right endpoint is only resolvable to 1 - 2^-53 in doubles, so the
    # right-side geometric ladder is capped well before that
    left = 2.0 ** -np.arange(1, depth_left + 1)
    right = 1.0 - 2.0 ** -np.arange(1, min(depth_right, 48) + 1)
    pts = np.concatenate(
        [[0.0, 1.0], left, right, np.linspace(0.0, 1.0, n_interior + 1), np.asarray(extra, dtype=float)]
    )
    pts = np.unique(np.clip(pts, 0.0, 1.0))
    return pts


def quad_beta_weighted(g, idx, tol=1e-10, breakpoints=(), max_level=14):
    """Integrate g(t) * C(n,i) t^i (1-t)^(n-i) over (0,1) adaptively.

    Refinement doubles the interior resolution and deepens the geometric
    endpoint panels; convergence is declared when two successive refinements
    agree to ``tol``.  Divergence at an endpoint shows up in the outermost
    panel mass: an integrable power singularity t^-q decays by at least
    2^(-8(1-q)) per level of genuine refinement, while both power-type and
    log-type divergence leave the mass non-decaying.  Three successive
    non-decaying observations raise :class:`DivergentIntegral`.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    i, n = idx.i, idx.n
    log_binom = -np.log(n + 1) - sc.betaln(i + 1, n - i + 1)

    def weighted(t):
        vals = np.asarray(g(t), dtype=float)
        return vals * np.exp(log_binom + i * np.log(t) + (n - i) * np.log1p(-t))

    prev_total = None
    prev_masses = [None, None]
    prev_widths = [None, None]
    streaks = [0, 0]
    total = np.nan
    err = np.inf
    for level in range(max_level):
        # left depth grows fast (the innermost panel's share of an integrable
        # t^-q singularity is ~2^(-depth*(1-q)) and H weights reach q=6/7);
        # right depth grows slowly so stagnation detection sees clean ratios
        breaks = _breakpoints(16 + 24 * level, 16 + 8 * level, 16 * 2 ** min(level, 6), breakpoints)
        t, w = _panel_nodes(breaks)
        contrib = weighted(t) * w
        per_panel = contrib.reshape(-1, 16).sum(axis=1)
        total = float(np.sum(per_panel))
        masses = [abs(per_panel[0]), abs(per_panel[-1])]
        widths = [breaks[1] - breaks[0], breaks[-1] - breaks[-2]]
        for side in (0, 1):
            prev = prev_masses[side]
            if prev_widths[side] is not None and widths[side] >= prev_widths[side]:
                continue  # ladder saturated, mass comparison uninformative
            if prev is not None and prev > 10 * tol and masses[side] > 0.9 * prev:
                streaks[side] += 1
                if streaks[side] >= 3:
                    raise DivergentIntegral(
                        f"non-integrable singularity detected at t={side} for step i={i}, n={n}",
                        endpoint=float(side),
                    )
            else:
                streaks[side] = 0
        if prev_total is not None:
            err = abs(total - prev_total)
            if err <= tol:
                return QuadratureResult(value=total, abs_error_estimate=err, converged=True)
        prev_total = total
        prev_masses = masses
        prev_widths = widths
    return QuadratureResult(value=total, abs_error_estimate=float(err), converged=False)
