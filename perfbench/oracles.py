"""Independent reference values for every task the benchmark can generate.

Nothing here imports invarcdf.  Levels and risks come from closed forms
(posterior means, Beta medians via scipy.special.betaincinv, Gamma-ratio
moments, product formulas, confluent hypergeometric moment generating
functions) or from mpmath quadrature at 30 digits.  Median-nomination levels
use the change of variables t = Psi(x), which turns their integrands into
polynomials.

Regenerate the stored table with

    python3 perfbench/oracles.py

which rewrites perfbench/references.json (about a minute on one core).
"""

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy import special as sc

import catalog

mp.mp.dps = 30

REFERENCES = Path(__file__).resolve().parent / "references.json"
COMMAND = "python3 perfbench/oracles.py"


def _density(i, n):
    """Beta(i+1, n-i+1) density as an mpmath function."""
    norm = 1 / mp.beta(i + 1, n - i + 1)
    return lambda t: norm * t**i * (1 - t) ** (n - i)


# ---------------------------------------------------------------------------
# level vectors


def beta_medians(n):
    i = np.arange(n + 1)
    return [float(x) for x in sc.betaincinv(i + 1, n - i + 1, 0.5)]


def linex_levels(n, a):
    # FOC of E[exp(a(u-T)) - a(u-T) - 1]: exp(a u) E[exp(-a T)] = 1
    return [float(-mp.log(mp.hyp1f1(i + 1, n + 2, -a)) / a) for i in range(n + 1)]


def _lp_deriv(u, i, n, p):
    f = _density(i, n)
    left = mp.quad(lambda t: (u - t) ** (p - 1) * f(t), [0, u])
    right = mp.quad(lambda t: (t - u) ** (p - 1) * f(t), [u, 1])
    return left - right


def _lp_objective(u, i, n, p):
    a, b = i + 1, n - i + 1
    return integrate.quad(
        lambda t: abs(u - t) ** p * t**i * (1 - t) ** (n - i) / sc.beta(a, b),
        0,
        1,
        points=[u],
        limit=200,
    )[0]


def lp_levels(n, p):
    """Global minimizers of E|u - T|^p (p < 1): root of the first-order
    condition, confirmed against a scan of the objective."""
    p = mp.mpf(p)
    out = []
    for i in range(n + 1):
        med = sc.betaincinv(i + 1, n - i + 1, 0.5)
        lo, hi = max(med - 0.06, 1e-6), min(med + 0.06, 1 - 1e-6)
        root = mp.findroot(lambda u: _lp_deriv(u, i, n, p), (mp.mpf(lo), mp.mpf(hi)), solver="anderson")
        root = float(root)
        scan = min(_lp_objective(u, i, n, float(p)) for u in np.linspace(1e-3, 1 - 1e-3, 200))
        if _lp_objective(root, i, n, float(p)) > scan + 1e-12:
            raise RuntimeError(f"lp root at i={i}, n={n} is not the global minimizer")
        out.append(root)
    return out


def maxima_levels(n, k, variant):
    m = mp.mpf(1) / k
    if variant == "L1":  # E[T^(1/k)]
        return [float(mp.beta(i + 1 + m, n - i + 1) / mp.beta(i + 1, n - i + 1)) for i in range(n + 1)]
    if variant == "L2":  # prod_{j=i..n} (j + 1/k) / (j + 2/k)
        return [float(mp.fprod((j + m) / (j + 2 * m) for j in range(i, n + 1))) for i in range(n + 1)]
    return [float(mp.power(mp.mpf(i) / n, m)) for i in range(n + 1)]


def minima_levels(n, k, variant):
    def moment(i, m):  # E[(1-T)^m], 1-T ~ Beta(n-i+1, i+1)
        return mp.beta(n - i + 1 + m, i + 1) / mp.beta(n - i + 1, i + 1)

    if variant == "L1":
        return [float(1 - moment(i, mp.mpf(1) / k)) for i in range(n + 1)]
    if variant == "L2":
        return [
            float(1 - moment(i, -mp.mpf(k - 2) / k) / moment(i, -mp.mpf(k - 1) / k))
            for i in range(n + 1)
        ]
    return [float(1 - mp.power(1 - mp.mpf(i) / n, mp.mpf(1) / k)) for i in range(n + 1)]


def median_levels(n, k, variant):
    a = (k + 1) // 2
    if variant == "MLE":
        return [float(x) for x in sc.betaincinv(a, a, np.arange(n + 1) / n)]
    norm = 1 / mp.beta(a, a)

    def psi(x):  # Beta(a, a) cdf: cdf of the median of k uniforms
        return mp.betainc(a, a, 0, x, regularized=True)

    out = []
    for i in range(n + 1):
        f = _density(i, n)
        if variant == "L1":  # E[Psi^-1(T)] with t = Psi(x)
            val = mp.quad(lambda x: x * f(psi(x)) * norm * x ** (a - 1) * (1 - x) ** (a - 1), [0, 1])
        else:  # H-weighted mean with H = (Psi^-1)'; the Jacobian cancels H
            val = mp.quad(lambda x: x * f(psi(x)), [0, 1]) / mp.quad(lambda x: f(psi(x)), [0, 1])
        out.append(float(val))
    return out


def levels(spec, n):
    """Reference levels for a level spec (see catalog.level_key)."""
    i = np.arange(n + 1)
    if spec in ("absolute/identity", "absolute/log_odds"):
        return beta_medians(n)
    if spec == "linex:1/identity":
        return linex_levels(n, 1)
    if spec == "lp:0.5/identity":
        return lp_levels(n, 0.5)
    if spec in ("entropy_ratio/identity", "best"):
        return [float(x) for x in (i + 1) / (n + 2)]
    if spec == "empirical" or spec == "squared/H=recip":
        return [float(x) for x in i / n]
    if spec == "constrained":
        u = (i + 1) / (n + 2)
        u[0], u[-1] = 0.0, 1.0
        return [float(x) for x in u]
    if spec.startswith("squared/H=pow:"):
        c = float(spec.split(":")[-1])
        return [float(x) for x in (i + c) / (n + 1 + c)]
    if spec.startswith("maxima-lse:"):
        return maxima_levels(n, int(spec.split(":")[1]), "L2")
    scheme, variant = spec.split("/")
    kind, k = scheme.split(":")
    fn = {"maxima": maxima_levels, "minima": minima_levels, "median": median_levels}[kind]
    return fn(n, int(k), variant)


# ---------------------------------------------------------------------------
# constant risks


def risk(u, rho, tau, n):
    """sum_i E[rho(tau(u_i) - tau(T_i))] / (n+1), T_i ~ Beta(i+1, n-i+1)."""
    loss = {"squared": lambda z: z * z, "absolute": abs}[rho]
    trans = {"identity": lambda t: t, "log_odds": lambda t: mp.log(t) - mp.log(1 - t)}[tau]
    total = mp.mpf(0)
    for i in range(n + 1):
        ui = mp.mpf(u[i])
        tu = trans(ui)
        f = _density(i, n)
        pts = [0, ui, 1] if 0 < ui < 1 else [0, 1]
        total += mp.quad(lambda t: loss(tu - trans(t)) * f(t), pts)
    return float(total / (n + 1))


# ---------------------------------------------------------------------------


def build():
    refs = {}
    for spec, n in sorted(catalog.level_specs()):
        refs[catalog.level_key(spec, n)] = levels(spec, n)
        print(f"levels {spec} n={n}", file=sys.stderr)
    for weights, rho, tau, n in sorted(catalog.risk_specs()):
        u = refs.get(catalog.level_key(weights, n)) or levels(weights, n)
        refs[catalog.risk_key(weights, rho, tau, n)] = risk(u, rho, tau, n)
        print(f"risk {weights} {rho} {tau} n={n}", file=sys.stderr)
    return {"command": COMMAND, "references": refs}


if __name__ == "__main__":
    table = build()
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table['references'])} references to {REFERENCES}", file=sys.stderr)
