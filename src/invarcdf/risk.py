"""Risk evaluation: exact quadrature, Monte Carlo, balanced-loss decompositions.

Monte Carlo works on the probability scale: for a draw with order statistics
y_1 < ... < y_n, the integrated loss of a step estimator reduces to segment
integrals of rho(tau(u_i) - tau(s)) over [F(y_i), F(y_{i+1})], and F(y_i) is
just the i-th sorted uniform driving the draw.  This makes the constant-risk
property sharp and lets all samplers share common random numbers.

Draws come from one Philox counter stream per seed.  Replicate r owns counter
block r (its row is padded to a multiple of the 4 words a Philox block
yields), so a chunk starting at replicate k is one bulk draw after advancing
the counter, and every replicate is the same however the draws are chunked.
For identity tau without H and rho in {squared, absolute, lp}, each segment
integral has the closed form (sgn(z_a)|z_a|^(q+1) - sgn(z_b)|z_b|^(q+1))/(q+1)
with z = u_i - s at the segment ends; every other (rho, tau, H) uses graded
Gauss-Legendre panels, split at the kink s = u_i for kinked rho.  Invariant
level vectors see the same probability-scale losses under every sampler, so a
distribution-free check draws them once and reports them under every label.
"""

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as sc

from .errors import DivergentIntegral, DivergentMoment
from .estimator import StepEstimator, WeightVector, _effective_tau, _objective_nodes, fit
from .model import BalancedSpec, LossSpec, Transform
from .special import BetaIndex, beta_moment, quad_beta_weighted

__all__ = [
    "RiskReport",
    "Sampler",
    "DecomposeReport",
    "ConstancyReport",
    "invariant_risk",
    "sel_invariant_risk",
    "mc_risk",
    "balanced_risk_decompose",
    "balanced_quad_risk",
    "dominance_gap",
    "distribution_free_check",
    "invariant_rule",
]


@dataclass(frozen=True)
class RiskReport:
    value: float
    stderr: float | None = None
    per_step: tuple | None = None
    divergent: bool = False
    divergent_index: int | None = None

    def to_json(self):
        return json.dumps(
            {
                "value": self.value,
                "stderr": self.stderr,
                "per_step": list(self.per_step) if self.per_step is not None else None,
                "divergent": self.divergent,
            }
        )


@dataclass(frozen=True)
class Sampler:
    """Deterministic continuous distribution with inverse-cdf sampling."""

    family: str
    mu: float = 0.0
    sigma: float = 1.0
    rate: float = 1.0
    ppf_fn: Callable | None = None
    cdf_fn: Callable | None = None

    _FAMILIES = ("uniform01", "normal", "exponential", "user")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown sampler family {self.family!r}")
        if self.family == "user" and (self.ppf_fn is None or self.cdf_fn is None):
            raise ValueError("user sampler requires ppf_fn and cdf_fn")
        if self.sigma <= 0 or self.rate <= 0:
            raise ValueError("scale parameters must be positive")

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        if self.family == "uniform01":
            return u
        if self.family == "normal":
            return self.mu + self.sigma * sc.ndtri(u)
        if self.family == "exponential":
            return -np.log1p(-u) / self.rate
        return self.ppf_fn(u)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "uniform01":
            return np.clip(x, 0.0, 1.0)
        if self.family == "normal":
            return sc.ndtr((x - self.mu) / self.sigma)
        if self.family == "exponential":
            return -np.expm1(-self.rate * np.maximum(x, 0.0))
        return self.cdf_fn(x)

    def label(self):
        if self.family == "normal":
            return f"normal({self.mu:g},{self.sigma:g})"
        if self.family == "exponential":
            return f"exponential({self.rate:g})"
        return self.family


def _uniforms(reps, n, seed, offset=0):
    """(reps, n) uniforms; replicate offset+r is counter block offset+r of the
    seed's Philox stream, so results are independent of chunking and scheduling."""
    width = 4 * -(-n // 4)  # a Philox block yields 4 doubles
    bitgen = np.random.Philox(key=np.uint64(seed))
    bitgen.advance(offset * width // 4)
    return np.random.Generator(bitgen).random((reps, width))[:, :n]


def invariant_rule(v, tail=None):
    """Wrap a level vector as a data -> StepEstimator rule."""

    def rule(data):
        return fit(data, v, tail=tail)

    return rule


# ---------------------------------------------------------------------------
# quadrature risks


def invariant_risk(v, loss, tau=Transform("identity"), tol=1e-10):
    """Constant risk of the step estimator with levels v: per-step Beta-kernel
    integrals of rho(tau(u_i) - tau(t)), scaled by optional step weights."""
    eff_tau = _effective_tau(loss, tau)
    u = v.as_array()
    n = v.n
    step_w = np.ones(n + 1) if loss.step_weights is None else np.asarray(loss.step_weights)
    if len(step_w) != n + 1:
        raise ValueError("step weights length must be n+1")
    per_step = []
    for i in range(n + 1):
        ui = u[i]
        if eff_tau.open_domain and (ui <= 0.0 or ui >= 1.0):
            return RiskReport(
                value=float("inf"), per_step=None, divergent=True, divergent_index=i
            )
        tau_u = eff_tau.eval(ui)
        breaks = (ui,) if loss.has_kink() else ()

        def g(t, tau_u=tau_u):
            return loss.rho_eval(tau_u - eff_tau.eval(t))

        if loss.H is not None:
            inner = g

            def g(t, inner=inner):
                return inner(t) * loss.H.eval(t)

        try:
            res = quad_beta_weighted(g, BetaIndex(i, n), tol=tol, breakpoints=breaks)
        except DivergentIntegral:
            return RiskReport(
                value=float("inf"), per_step=None, divergent=True, divergent_index=i
            )
        per_step.append(step_w[i] * res.value)
    return RiskReport(value=float(np.sum(per_step)), per_step=tuple(per_step))


def _var_tau(idx, tau):
    """Var[tau(T_i)], closed form where cheap, quadrature otherwise."""
    if tau.kind in ("identity", "power"):
        m = 1.0 if tau.kind == "identity" else tau.m
        m1 = beta_moment(idx, m)
        m2 = beta_moment(idx, 2 * m)
        return m2 - m1 * m1
    if tau.kind == "log_odds":
        return float(sc.polygamma(1, idx.a) + sc.polygamma(1, idx.b))
    m1 = quad_beta_weighted(lambda t: tau.eval(t), idx, tol=1e-12).value * (idx.n + 1)
    m2 = quad_beta_weighted(lambda t: tau.eval(t) ** 2, idx, tol=1e-12).value * (idx.n + 1)
    return m2 - m1 * m1


def sel_invariant_risk(tau, n):
    """Constant risk of the squared-error best invariant estimator:
    (1/(n+1)) * sum_i Var[tau(T_i)]."""
    try:
        total = sum(_var_tau(BetaIndex(i, n), tau) for i in range(n + 1))
    except DivergentMoment as exc:
        raise DivergentMoment(f"{exc} (tau={tau}, n={n})") from exc
    return float(total / (n + 1))


# ---------------------------------------------------------------------------
# Monte Carlo machinery

# graded sub-panel fractions: endpoint segments get geometric refinement toward
# the outer endpoint so integrable tau singularities stay accurate
_GRADES = np.array([0.0, 2.0**-12, 2.0**-8, 2.0**-4, 1.0])
_EVEN = np.linspace(0.0, 1.0, 5)
# 4 sub-panels of 16 nodes per segment; a segment split at a kink gets 4
# sub-panels of 8 nodes on each side, so the node count stays at 64
_GL = {order: leggauss(order) for order in (8, 16)}


def _segment_nodes(lo, hi, grade_left=False, grade_right=False, order=16):
    """Quadrature nodes/weights on segments [lo, hi]; lo/hi arrays of equal shape."""
    nodes, weights = _GL[order]
    width = hi - lo
    if grade_left:
        fracs = _GRADES
    elif grade_right:
        fracs = 1.0 - _GRADES[::-1]
    else:
        fracs = _EVEN
    sub_lo = lo[..., None] + fracs[:-1] * width[..., None]
    sub_w = np.diff(fracs) * width[..., None]
    t = sub_lo[..., None] + (0.5 * (nodes + 1.0)) * sub_w[..., None]
    w = (0.5 * weights) * sub_w[..., None]
    return t.reshape(*lo.shape, -1), w.reshape(*lo.shape, -1)


def _kink_split_nodes(lo, hi, kink, grade_left, grade_right):
    """Segment nodes with the segment cut at the kink, each side graded toward
    its outer endpoint as the whole segment would be.  A kink not strictly
    inside (lo, hi) leaves the integrand smooth there, so the cut moves to the
    midpoint: both sides keep a positive width and every node stays inside."""
    inside = (kink > lo) & (kink < hi)
    mid = np.where(inside, kink, 0.5 * (lo + hi))
    t1, w1 = _segment_nodes(lo, mid, grade_left=grade_left, order=8)
    t2, w2 = _segment_nodes(mid, hi, grade_right=grade_right, order=8)
    return np.concatenate([t1, t2], axis=-1), np.concatenate([w1, w2], axis=-1)


def _bounds(s_sorted):
    """Segment ends 0, s_1, ..., s_n, 1 for each row of sorted cdf values."""
    reps = s_sorted.shape[0]
    return np.concatenate([np.zeros((reps, 1)), s_sorted, np.ones((reps, 1))], axis=1)


def _power_segment_integrals(levels, bounds, q):
    """Exact integrals of |u_i - s|^q over [bounds_i, bounds_{i+1}]: (reps, n+1)."""
    za = levels - bounds[:, :-1]
    zb = levels - bounds[:, 1:]
    return (np.sign(za) * np.abs(za) ** (q + 1) - np.sign(zb) * np.abs(zb) ** (q + 1)) / (q + 1)


def _closed_form_exponent(loss, eff_tau):
    """q when every segment integral is the exact |u - s|^q form, else None."""
    if eff_tau.kind != "identity" or loss.H is not None:
        return None
    return {"squared": 2.0, "absolute": 1.0, "lp": loss.p}.get(loss.rho)


def _loss_per_draw(s_sorted, weights, loss, tau):
    """Integrated loss for each draw (rows): sum of segment integrals on the
    probability scale.  ``s_sorted``: (reps, n) sorted cdf values at the knots;
    ``weights``: (reps, n+1) step levels."""
    reps, n = s_sorted.shape
    eff_tau = _effective_tau(loss, tau)
    step_w = (
        np.ones(n + 1) if loss.step_weights is None else np.asarray(loss.step_weights)
    )
    bounds = _bounds(s_sorted)
    q = _closed_form_exponent(loss, eff_tau)
    if q is not None:
        return _power_segment_integrals(weights, bounds, q) @ step_w
    kinked = loss.has_kink()
    total = np.zeros(reps)
    for i in range(n + 1):
        lo, hi = bounds[:, i], bounds[:, i + 1]
        if kinked:
            # tau is increasing, so rho(tau(u_i) - tau(s)) bends at s = u_i
            t, w = _kink_split_nodes(lo, hi, weights[:, i], i == 0, i == n)
        else:
            t, w = _segment_nodes(lo, hi, grade_left=(i == 0), grade_right=(i == n))
        # tau rejects levels outside its domain first; the nodes then avoid 0 and 1
        tau_u = eff_tau.eval(weights[:, i])
        vals = loss.rho_eval(tau_u[:, None] - eff_tau.eval(t))
        if loss.H is not None:
            vals = vals * loss.H.eval(t)
        total += step_w[i] * np.sum(vals * w, axis=1)
    return total


def _collect_weights(rule, sampler, U):
    """Apply the estimator rule to each draw; returns (reps, n+1) level matrix."""
    if isinstance(rule, WeightVector):
        return np.tile(rule.as_array(), (U.shape[0], 1))
    reps, n = U.shape
    data = sampler.ppf(U)
    out = np.empty((reps, n + 1))
    for r in range(reps):
        est = rule(data[r])
        out[r] = est.values.as_array()
    return out


def mc_risk(rule, sampler, loss, tau=Transform("identity"), reps=100_000, seed=0, chunk=20_000):
    """Monte Carlo risk of an estimator rule under the given sampler.

    ``rule`` is either a WeightVector (invariant levels, bound to each draw) or
    a callable mapping a data vector to a StepEstimator.  Deterministic given
    the seed; replicate r is counter block r of the seed's Philox stream.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if isinstance(rule, WeightVector):
        n = rule.n
    else:
        n = getattr(rule, "sample_size", None)
        if n is None:
            raise ValueError(
                "callable rules must expose a 'sample_size' attribute so draws can be sized"
            )
    done = 0
    losses_all = []
    while done < reps:
        m = min(chunk, reps - done)
        U = _uniforms(m, n, seed, offset=done)
        W = _collect_weights(rule, sampler, U)
        s_sorted = np.sort(U, axis=1)
        losses_all.append(_loss_per_draw(s_sorted, W, loss, tau))
        done += m
    losses = np.concatenate(losses_all)
    value = float(np.mean(losses))
    stderr = float(np.std(losses, ddof=1) / np.sqrt(reps)) if reps > 1 else None
    return RiskReport(value=value, stderr=stderr)


# ---------------------------------------------------------------------------
# balanced losses


@dataclass(frozen=True)
class DecomposeReport:
    r_h1: float
    r_h2: float
    total: float
    max_residual: float


def balanced_risk_decompose(spec, g, sampler, reps=10_000, seed=0, tau=Transform("identity")):
    """Monte Carlo check of the balanced-risk split for d = d0 + (1-w) g.

    Evaluates, with shared quadrature nodes per draw, the balanced loss of d,
    the w(1-w)-weighted squared loss of d0, and the (1-w)^2-weighted squared
    loss of d0 + g.  The split is algebraic, so the per-draw residual is
    reported and should sit at rounding level.
    """
    w = np.asarray(spec.w)
    d0 = np.asarray(spec.target_weights)
    g = np.asarray(g, dtype=float)
    if g.shape != w.shape:
        raise ValueError("offset g must have length n+1")
    n = spec.n
    d = d0 + (1.0 - w) * g
    bounds = _bounds(np.sort(_uniforms(reps, n, seed), axis=1))
    l_bal = np.zeros(reps)
    l_h1 = np.zeros(reps)
    l_h2 = np.zeros(reps)
    for i in range(n + 1):
        t, wt = _segment_nodes(bounds[:, i], bounds[:, i + 1])
        theta = tau.eval(t)
        sq_d = np.sum((d[i] - theta) ** 2 * wt, axis=1)
        sq_d0 = np.sum((d0[i] - theta) ** 2 * wt, axis=1)
        sq_d0g = np.sum((d0[i] + g[i] - theta) ** 2 * wt, axis=1)
        seg_mass = np.sum(wt, axis=1)
        l_bal += w[i] * (d[i] - d0[i]) ** 2 * seg_mass + (1.0 - w[i]) * sq_d
        l_h1 += w[i] * (1.0 - w[i]) * sq_d0
        l_h2 += (1.0 - w[i]) ** 2 * sq_d0g
    residual = np.max(np.abs(l_bal - l_h1 - l_h2))
    return DecomposeReport(
        r_h1=float(np.mean(l_h1)),
        r_h2=float(np.mean(l_h2)),
        total=float(np.mean(l_bal)),
        max_residual=float(residual),
    )


def balanced_quad_risk(d, d0, alpha, tau=Transform("identity")):
    """Exact (quadrature) constant risk of level vector d under the balanced loss
    with constant weight alpha and target levels d0."""
    d = np.asarray(d.as_array() if isinstance(d, WeightVector) else d, float)
    d0 = np.asarray(d0.as_array() if isinstance(d0, WeightVector) else d0, float)
    n = len(d) - 1
    total = 0.0
    for i in range(n + 1):
        t, w = _objective_nodes(BetaIndex(i, n))
        theta = tau.eval(t)
        total += alpha * (d[i] - d0[i]) ** 2 * np.sum(w)
        total += (1.0 - alpha) * float((d[i] - theta) ** 2 @ w)
    return float(total)


def squared_quad_risk(v, tau=Transform("identity")):
    """Exact constant risk of level vector v under unweighted integrated squared error."""
    return balanced_quad_risk(v, v, 0.0, tau=tau)


def dominance_gap(alpha, d0, d0_star, d1, sampler=None, reps=100_000, seed=0):
    """Balanced-risk gap between alpha*d0+(1-alpha)*d0_star and alpha*d0+(1-alpha)*d1.

    Quadrature mode (sampler=None) evaluates both balanced risks exactly; the
    gap equals (1-alpha)^2 * (R0(d0_star) - R0(d1)) for invariant inputs.
    Monte Carlo mode uses common random numbers across the two compared rules.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0,1)")
    a = np.asarray(d0.as_array() if isinstance(d0, WeightVector) else d0, float)
    b = np.asarray(d0_star.as_array() if isinstance(d0_star, WeightVector) else d0_star, float)
    c = np.asarray(d1.as_array() if isinstance(d1, WeightVector) else d1, float)
    mix_star = alpha * a + (1.0 - alpha) * b
    mix_one = alpha * a + (1.0 - alpha) * c
    if sampler is None:
        return balanced_quad_risk(mix_star, a, alpha) - balanced_quad_risk(mix_one, a, alpha)
    n = len(a) - 1
    bounds = _bounds(np.sort(_uniforms(reps, n, seed), axis=1))
    seg_mass = np.diff(bounds, axis=1)
    gap = np.zeros(reps)
    for sign, mix in ((1.0, mix_star), (-1.0, mix_one)):
        sq = _power_segment_integrals(mix, bounds, 2.0)
        gap += sign * np.sum(alpha * (mix - a) ** 2 * seg_mass + (1.0 - alpha) * sq, axis=1)
    return float(np.mean(gap))


@dataclass(frozen=True)
class ConstancyReport:
    passed: bool
    quad_value: float | None
    mc_values: tuple
    mc_stderrs: tuple
    labels: tuple
    messages: tuple = field(default=())


def distribution_free_check(rule, loss, tau, samplers, reps=100_000, seed=0):
    """Check the distribution-free risk property across several samplers.

    Passes when all pairwise Monte Carlo risks agree within 3 combined standard
    errors and (for invariant level vectors) each matches the quadrature risk.
    Invariant level vectors see the same probability-scale draws under every
    sampler, so their Monte Carlo risk is computed once and reported under
    every label; only callable rules get one run per sampler.
    """
    if len(samplers) < 2:
        raise ValueError("need at least two samplers")
    if isinstance(rule, WeightVector):
        reports = [mc_risk(rule, samplers[0], loss, tau, reps=reps, seed=seed)] * len(samplers)
    else:
        reports = [mc_risk(rule, smp, loss, tau, reps=reps, seed=seed) for smp in samplers]
    values = tuple(r.value for r in reports)
    stderrs = tuple(r.stderr for r in reports)
    messages = []
    passed = True
    for i in range(len(samplers)):
        for j in range(i + 1, len(samplers)):
            tolerance = 3.0 * np.hypot(stderrs[i], stderrs[j])
            # written so that a NaN value fails the check
            if not abs(values[i] - values[j]) <= tolerance:
                passed = False
                messages.append(
                    f"risk differs between {samplers[i].label()} and {samplers[j].label()}: "
                    f"{values[i]:.6g} vs {values[j]:.6g} (> 3 SE)"
                )
    quad_value = None
    if isinstance(rule, WeightVector):
        quad_value = invariant_risk(rule, loss, tau).value
        if not abs(values[0] - quad_value) <= 3.0 * stderrs[0]:
            passed = False
            messages.append(
                f"risk {values[0]:.6g} under {', '.join(s.label() for s in samplers)} "
                f"disagrees with quadrature {quad_value:.6g}"
            )
    return ConstancyReport(
        passed=passed,
        quad_value=quad_value,
        mc_values=values,
        mc_stderrs=stderrs,
        labels=tuple(s.label() for s in samplers),
        messages=tuple(messages),
    )
