"""Best invariant step-estimator weights and data binding.

A step estimator is determined by the sorted sample (knots) and a level vector
u_0 <= ... <= u_n.  The optimal levels solve, independently for each step i,
the scalar problem

    minimize over u:  integral over (0,1) of rho(tau(u) - tau(t)) h_i(t) dt,

where h_i(t) = C(n,i) t^i (1-t)^(n-i), optionally reweighted by H(t).  Closed
forms exist for squared error (posterior means of tau(T_i)); the generic path
is a global grid scan plus golden-section refinement.
"""

import json
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sc

from .errors import (
    DivergentIntegral,
    DivergentMoment,
    DivergentObjective,
    ImproperPosterior,
    NonMonotoneResult,
    TiesDetected,
)
from .model import LossSpec, Transform
from .special import BetaIndex, _panel_nodes, beta_moment, digamma, gauss_legendre_01, inv_reg_inc_beta
from .special import log_beta, quad_beta_weighted

__all__ = [
    "WeightVector",
    "StepEstimator",
    "SelWeights",
    "GenuinenessReport",
    "solve_weight",
    "weighted_solve",
    "best_invariant",
    "sel_tau_weights",
    "maxima_lse_weights",
    "minima_weights",
    "median_nom_weights",
    "mle_nomination_weights",
    "constrained_weights",
    "balanced_combine",
    "genuineness_check",
    "fit",
]

_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class WeightVector:
    """Levels u_0 <= ... <= u_n of a step estimator, all in [0,1]."""

    n: int
    u: tuple

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} weights, got {u.shape}")
        if np.any(u < -_MONOTONE_SLACK) or np.any(u > 1 + _MONOTONE_SLACK):
            raise ValueError("weights must lie in [0, 1]")
        if np.any(np.diff(u) < -_MONOTONE_SLACK):
            raise ValueError("weights must be nondecreasing")
        u = np.maximum.accumulate(np.clip(u, 0.0, 1.0))
        object.__setattr__(self, "u", tuple(float(x) for x in u))

    @classmethod
    def from_array(cls, u):
        u = np.asarray(u, dtype=float)
        return cls(n=len(u) - 1, u=tuple(u))

    def as_array(self):
        return np.asarray(self.u, dtype=float)

    def to_json_dict(self):
        return {"n": self.n, "knots": None, "values": list(self.u), "tail": None}


class SelWeights(NamedTuple):
    """Squared-error optimal levels on both scales: E[tau(T_i)] and its tau-inverse."""

    tau_scale: np.ndarray
    f_scale: WeightVector


@dataclass(frozen=True)
class GenuinenessReport:
    ok: bool
    failing_indices: tuple

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class StepEstimator:
    """Right-continuous step function: value u_i on [y_i, y_{i+1}), y_0 = -inf."""

    knots: tuple
    values: WeightVector
    tail_value: float | None = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or len(knots) != self.values.n:
            raise ValueError("need exactly n knots for n+1 level values")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if self.tail_value is not None and not 0 <= self.tail_value <= 1:
            raise ValueError("tail value must lie in [0, 1]")
        object.__setattr__(self, "knots", tuple(float(x) for x in knots))

    @property
    def n(self):
        return self.values.n

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        u = self.values.as_array()
        idx = np.searchsorted(self.knots, t, side="right")
        out = u[idx]
        if self.tail_value is not None:
            out = np.where(idx == self.n, self.tail_value, out)
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        return self.evaluate(t)

    def quantile(self, p):
        """Generalized inverse inf{t : F(t) >= p}: -inf if p <= u_0, inf if no level reaches p."""
        if np.isnan(p):
            raise ValueError("quantile level must not be NaN")
        u = self.values.as_array().copy()
        if self.tail_value is not None:
            u[-1] = self.tail_value
        hit = np.nonzero(u >= p)[0]
        return ((float("-inf"),) + self.knots)[hit[0]] if len(hit) else float("inf")

    def to_json(self):
        # json round-trips floats via repr (17 significant digits), so re-loading
        # reproduces the estimator bit-exactly
        return json.dumps(
            {
                "n": self.n,
                "knots": list(self.knots),
                "values": list(self.values.u),
                "tail": self.tail_value,
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(
            knots=tuple(obj["knots"]),
            values=WeightVector(n=obj["n"], u=tuple(obj["values"])),
            tail_value=obj["tail"],
        )


# ---------------------------------------------------------------------------
# generic per-step solver


def _objective_nodes(idx, H=None, extra_breaks=(), depth=200, n_interior=64):
    """Node/weight pairs absorbing the (H-weighted) binomial kernel.

    Depth 200 keeps the innermost geometric panel's share of an integrable
    t^-q endpoint singularity (H weights with q up to ~6/7) far below 1e-8.
    """
    left = 2.0 ** -np.arange(1, depth + 1)
    breaks = np.unique(
        np.clip(
            np.concatenate(
                [[0.0, 1.0], left, 1.0 - left, np.linspace(0.0, 1.0, n_interior + 1), np.asarray(extra_breaks, float)]
            ),
            0.0,
            1.0,
        )
    )
    t, w = _panel_nodes(breaks)
    log_binom = -np.log(idx.n + 1) - log_beta(idx.a, idx.b)
    w = w * np.exp(log_binom + idx.i * np.log(t) + (idx.n - idx.i) * np.log1p(-t))
    if H is not None:
        w = w * H.eval(t)
    return t, w


def _effective_tau(loss, tau):
    # entropy-ratio loss contrasts ratios d/F; equivalently rho(z)=e^-z+z-1 on log scale
    if loss.rho == "entropy_ratio":
        return Transform(kind="log")
    return tau


def _check_improper(idx, loss):
    if loss.H is not None and loss.H.kind == "recip" and idx.i in (0, idx.n):
        raise ImproperPosterior(
            f"H(z)=1/(z(1-z)) posterior kernel is improper at i={idx.i}", index=idx.i
        )


def _screen_divergence(idx, loss, tau, u_probe=0.5):
    """Raise DivergentObjective when the objective is infinite for every level.

    Only unbounded transforms can make the integral diverge; divergence is then
    driven by the tail of rho(tau(t)) and does not depend on the candidate u.
    """
    if not tau.open_domain:
        return
    tu = tau.eval(u_probe)
    try:
        quad_beta_weighted(lambda t: loss.rho_eval(tu - tau.eval(t)), idx, tol=1e-8)
    except DivergentIntegral as exc:
        raise DivergentObjective(
            f"objective diverges for every level at step i={idx.i} "
            f"(rho={loss}, tau={tau})",
            index=idx.i,
        ) from exc


def solve_weight(idx, loss, tau=Transform("identity"), tol=1e-10):
    """Globally minimize the per-step Bayes objective over u in [0,1].

    A 1001-point grid scan guards against non-convex rho; golden-section
    refinement on the winning bracket then pins the minimizer to ``tol``.
    """
    _check_improper(idx, loss)
    eff_tau = _effective_tau(loss, tau)
    _screen_divergence(idx, loss, eff_tau)

    t, w = _objective_nodes(idx, H=loss.H)
    tau_t = eff_tau.eval(t)

    eps = 1e-9
    grid = np.linspace(0.0, 1.0, 1001)
    if eff_tau.open_domain:
        grid = np.clip(grid, eps, 1.0 - eps)
    g_vals = loss.rho_eval(eff_tau.eval(grid)[:, None] - tau_t[None, :]) @ w
    if not np.any(np.isfinite(g_vals)):
        raise DivergentObjective(f"objective infinite on the whole grid at i={idx.i}", index=idx.i)
    j = int(np.nanargmin(g_vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]

    kinked = loss.has_kink()

    def objective(u):
        if kinked:
            tt, ww = _objective_nodes(idx, H=loss.H, extra_breaks=(u,))
            return float(loss.rho_eval(eff_tau.eval(u) - eff_tau.eval(tt)) @ ww)
        return float(loss.rho_eval(eff_tau.eval(u) - tau_t) @ w)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    if abs(fc - fd) < 1e-14:
        return float(0.5 * (a + b))
    return float(c if fc < fd else d)


def _weighted_mean_tau(idx, tau, H):
    """Ratio of integrals giving the H-weighted posterior mean of tau(T_i)."""
    num = quad_beta_weighted(lambda t: tau.eval(t) * (H.eval(t) if H is not None else 1.0), idx, tol=1e-11)
    den = quad_beta_weighted(H.eval, idx, tol=1e-11).value if H is not None else 1.0 / (idx.n + 1)
    return num.value / den


def weighted_solve(idx, loss, tau=Transform("identity"), tol=1e-10):
    """Per-step solve under the H-weighted kernel, with limit conventions.

    For H(z) = 1/(z(1-z)) the posterior is improper at i in {0, n}; the limit
    convention u*_0 = 0, u*_n = 1 recovers the empirical cdf.
    """
    try:
        _check_improper(idx, loss)
    except ImproperPosterior:
        return 0.0 if idx.i == 0 else 1.0
    if loss.rho in ("squared",) or (loss.rho == "lp" and loss.p == 2):
        eff_tau = _effective_tau(loss, tau)
        m = _weighted_mean_tau(idx, eff_tau, loss.H)
        return float(eff_tau.inverse(m))
    return solve_weight(idx, loss, tau, tol)


# ---------------------------------------------------------------------------
# closed forms


def _median_nom_levels(i, n, k, reweighted):
    """Median-nomination levels of steps i, exact by the substitution t = Psi(x).

    Psi is the Beta(a, a) cdf, a = (k+1)/2, and h_i(t) = C(n,i) t^i (1-t)^(n-i).
    L1 = (n+1) int x h_i(Psi) Psi' dx; L2 (kernel reweighted by (Psi^-1)') =
    int x h_i(Psi) dx / int h_i(Psi) dx.  The integrands are polynomials of
    degree <= k(n+1), so the Gauss-Legendre rule below is exact.  1 - Psi(x) is
    taken as Psi(1 - x), which has no cancellation.
    """
    a = (k + 1) / 2
    x, w = gauss_legendre_01(k * (n + 1) // 2 + 1)
    i = np.asarray(i, dtype=float)[..., None]
    log_h = -np.log(n + 1) - sc.betaln(i + 1, n - i + 1) + sc.xlogy(i, sc.betainc(a, a, x))
    h = np.exp(log_h + sc.xlogy(n - i, sc.betainc(a, a, 1.0 - x)))
    if reweighted:
        return (h @ (w * x)) / (h @ w)
    dpsi = np.exp((a - 1.0) * (np.log(x) + np.log1p(-x)) - sc.betaln(a, a))
    return (n + 1) * (h @ (w * x * dpsi))


def _mean_tau(idx, tau):
    """E[tau(T_i)] in closed form, or exactly by substitution for median_nom."""
    i, n = idx.i, idx.n
    if tau.kind == "identity":
        return (i + 1) / (n + 2)
    if tau.kind == "power":
        return beta_moment(idx, tau.m)
    if tau.kind == "minima":
        # 1 - T_i ~ Beta(n-i+1, i+1)
        return 1.0 - beta_moment(BetaIndex(n - i, n), 1.0 / tau.k)
    if tau.kind == "log_odds":
        return digamma(i + 1) - digamma(n - i + 1)
    if tau.kind == "log":
        return digamma(i + 1) - digamma(n + 2)
    if tau.kind == "odds":
        if i >= n:
            raise DivergentMoment(f"E[T/(1-T)] diverges at i=n={n}")
        return (i + 1) / (n - i)
    return float(_median_nom_levels(i, n, tau.k, reweighted=False))


def sel_tau_weights(n, tau):
    """Squared-error optimal levels: E[tau(T_i)] per step, plus the F-scale vector."""
    try:
        tau_scale = np.array([_mean_tau(BetaIndex(i, n), tau) for i in range(n + 1)])
    except DivergentMoment as exc:
        raise DivergentMoment(f"{exc} (tau={tau}, n={n})") from exc
    f_scale = WeightVector.from_array(tau.inverse(tau_scale))
    return SelWeights(tau_scale=tau_scale, f_scale=f_scale)


def maxima_lse_weights(n, k):
    """Levels of the tau(F)-reweighted squared-error solution for maxima sets of size k.

    u_i = prod_{j=i..n} (j + 1/k) / (j + 2/k), accumulated in log space.
    """
    if k < 1:
        raise ValueError("set size k must be >= 1")
    j = np.arange(n + 1, dtype=float)
    log_terms = np.log(j + 1.0 / k) - np.log(j + 2.0 / k)
    tail_logsum = np.cumsum(log_terms[::-1])[::-1]
    return WeightVector.from_array(np.exp(tail_logsum))


def minima_weights(n, k):
    """Level vectors (plain and reweighted squared error) for minima sets of size k."""
    if k < 1:
        raise ValueError("set size k must be >= 1")
    u1 = np.empty(n + 1)
    u2 = np.empty(n + 1)
    for i in range(n + 1):
        ref = BetaIndex(n - i, n)  # 1 - T_i ~ Beta(n-i+1, i+1)
        u1[i] = 1.0 - beta_moment(ref, 1.0 / k)
        u2[i] = 1.0 - beta_moment(ref, -(k - 2.0) / k) / beta_moment(ref, -(k - 1.0) / k)
    return WeightVector.from_array(u1), WeightVector.from_array(u2)


def median_nom_weights(n, k, variant="L1"):
    """Optimal levels for median-nomination sets of size k (odd), exact by t = Psi(x).

    L1: posterior mean of the inverse median map; L2: the same mean under the
    kernel reweighted by the derivative of the inverse median map.
    """
    if variant not in ("L1", "L2"):
        raise ValueError("variant must be 'L1' or 'L2'")
    if n < 1:
        raise ValueError("need n >= 1")
    tau = Transform(kind="median_nom", k=k)  # rejects even k
    u = _median_nom_levels(np.arange(n + 1), n, tau.k, reweighted=variant == "L2")
    # enforce the exact reflection symmetry u_{n-i} = 1 - u_i
    u = 0.5 * (u + 1.0 - u[::-1])
    return WeightVector.from_array(u)


def mle_nomination_weights(n, scheme, k):
    """Maximum-likelihood levels: u_0 = 0 and u_n = 1, a genuine-cdf-compatible vector."""
    i = np.arange(n + 1, dtype=float)
    if scheme == "maxima":
        u = (i / n) ** (1.0 / k)
    elif scheme == "minima":
        u = 1.0 - (1.0 - i / n) ** (1.0 / k)
    elif scheme == "median":
        if k % 2 == 0:
            raise ValueError("median scheme requires odd k")
        a = (k + 1) / 2
        u = inv_reg_inc_beta(i / n, a, a)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return WeightVector.from_array(u)


def best_invariant(n, loss, tau=Transform("identity"), tol=1e-10):
    """Best invariant level vector for the given (rho, tau, H) on the F scale.

    Squared-error losses dispatch to posterior-mean closed forms; everything
    else runs the per-step global solver.  DivergentObjective carries the
    offending step index.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    squared = loss.rho == "squared" or (loss.rho == "lp" and loss.p == 2)
    if squared and loss.H is None:
        return sel_tau_weights(n, tau).f_scale
    u = np.array([weighted_solve(BetaIndex(i, n), loss, tau, tol) for i in range(n + 1)])
    return WeightVector.from_array(u)


def constrained_weights(v):
    """Force genuine-cdf endpoints: (0, u_1, ..., u_{n-1}, 1)."""
    u = v.as_array().copy()
    u[0] = 0.0
    u[-1] = 1.0
    return WeightVector(n=v.n, u=tuple(u))


def balanced_combine(spec, d0_star):
    """Entrywise convex combination w*target + (1-w)*invariant of step levels."""
    if len(spec.target_weights) != d0_star.n + 1:
        raise ValueError("balanced spec and invariant vector lengths differ")
    w = np.asarray(spec.w)
    u0 = np.asarray(spec.target_weights)
    ustar = d0_star.as_array()
    combined = w * u0 + (1.0 - w) * ustar
    bad = np.nonzero(np.diff(combined) < -_MONOTONE_SLACK)[0]
    if len(bad):
        raise NonMonotoneResult(
            f"combined weights decrease at steps {list(bad)}", indices=bad
        )
    return WeightVector.from_array(combined)


def genuineness_check(target, invariant):
    """Sufficient condition for every convex combination to stay monotone:
    min(u_{i+1}, u*_{i+1}) >= max(u_i, u*_i) at every step."""
    u = np.asarray(target.as_array() if isinstance(target, WeightVector) else target, float)
    v = np.asarray(
        invariant.as_array() if isinstance(invariant, WeightVector) else invariant, float
    )
    if u.shape != v.shape:
        raise ValueError("vectors must have equal length")
    ok_step = np.minimum(u[1:], v[1:]) >= np.maximum(u[:-1], v[:-1]) - 1e-12
    failing = tuple(int(i) for i in np.nonzero(~ok_step)[0])
    return GenuinenessReport(ok=not failing, failing_indices=failing)


def _break_ties(knots):
    """Move the j-th member of each run of equal sorted values up by j steps of at most
    1e-9 * span, each run staying below the next value.  Untied values are kept exactly."""
    gaps = np.diff(knots)
    if np.all(gaps > 0):
        return knots
    warnings.warn("tied observations perturbed deterministically", TiesDetected)
    pos = np.arange(len(knots))
    j = pos - np.maximum.accumulate(np.where(np.concatenate([[True], gaps > 0]), pos, 0))
    step = min(1e-9 * (np.ptp(knots) or 1.0), np.min(gaps[gaps > 0], initial=np.inf) / (j.max() + 1))
    return np.where(j > 0, knots + j * step, knots)


def fit(data, v, tail=None):
    """Bind a level vector to data: knots are the sorted observations."""
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite: NaN and inf cannot be knots")
    if len(data) != v.n:
        raise ValueError(f"weight vector is for n={v.n}, got {len(data)} observations")
    return StepEstimator(knots=tuple(_break_ties(np.sort(data))), values=v, tail_value=tail)
