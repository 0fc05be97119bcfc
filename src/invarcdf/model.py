"""Loss functions, transforms and weight declarations.

The vocabulary layer: a strictly bowl-shaped discrepancy ``rho``, a strictly
increasing transform ``tau`` on [0,1], an optional positive integration weight
``H`` on (0,1), optional per-step invariant weights, and the balanced-loss
specification (target weights plus mixing weights).
"""

from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .errors import InvarcdfError
from .special import inv_reg_inc_beta, reg_inc_beta

__all__ = [
    "Transform",
    "LossSpec",
    "BalancedSpec",
    "WeightFunction",
    "psi_eval",
    "parse_rho",
    "parse_tau",
    "parse_weight_function",
]


def psi_eval(k, z):
    """Cdf of the median of k i.i.d. uniforms: sum_{j>=(k+1)/2} C(k,j) z^j (1-z)^{k-j}.

    Evaluated by direct binomial summation; identical to the Beta((k+1)/2,(k+1)/2)
    cdf, which the tests cross-check.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"set size must be odd and >= 1, got k={k}")
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for j in range((k + 1) // 2, k + 1):
        out = out + sc.comb(k, j) * z**j * (1.0 - z) ** (k - j)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Transform:
    """A strictly increasing continuous map on [0,1] (open interval for odds kinds)."""

    kind: str
    m: float | None = None  # power exponent
    k: int | None = None  # set size for minima / median_nom

    _KINDS = ("identity", "power", "minima", "odds", "log_odds", "median_nom", "log")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "power" and (self.m is None or self.m <= 0):
            raise ValueError("power transform requires m > 0")
        if self.kind == "minima" and (self.k is None or self.k < 1):
            raise ValueError("minima transform requires k >= 1")
        if self.kind == "median_nom":
            if self.k is None or self.k < 1 or self.k % 2 == 0:
                raise ValueError("median_nom transform requires odd k >= 1")

    @property
    def open_domain(self):
        """True when the transform is only defined on the open interval (0,1)."""
        return self.kind in ("odds", "log_odds", "log")

    @property
    def holder_exponent(self):
        """Order of Holder continuity on [0,1]; None for unbounded transforms."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "power":
            return min(self.m, 1.0)
        if self.kind == "minima":
            return 1.0 / self.k
        if self.kind == "median_nom":
            return 2.0 / (self.k + 1)
        return None

    def _median_shape(self):
        return (self.k + 1) / 2

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        if self.open_domain:
            if np.any(z <= 0) or np.any(z >= 1):
                raise ValueError(f"{self.kind} transform requires 0 < z < 1")
        elif np.any(z < 0) or np.any(z > 1):
            raise ValueError("transform requires 0 <= z <= 1")
        if self.kind == "identity":
            out = z
        elif self.kind == "power":
            out = z**self.m
        elif self.kind == "minima":
            out = 1.0 - (1.0 - z) ** (1.0 / self.k)
        elif self.kind == "odds":
            out = z / (1.0 - z)
        elif self.kind == "log_odds":
            out = np.log(z) - np.log1p(-z)
        elif self.kind == "log":
            out = np.log(z)
        else:  # median_nom
            a = self._median_shape()
            out = inv_reg_inc_beta(z, a, a)
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "identity":
            out = y
        elif self.kind == "power":
            out = y ** (1.0 / self.m)
        elif self.kind == "minima":
            out = 1.0 - (1.0 - y) ** self.k
        elif self.kind == "odds":
            out = y / (1.0 + y)
        elif self.kind == "log_odds":
            out = sc.expit(y)
        elif self.kind == "log":
            out = np.exp(y)
        else:  # median_nom
            a = self._median_shape()
            out = reg_inc_beta(y, a, a)
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def __str__(self):
        if self.kind == "power":
            return f"power:{self.m:g}"
        if self.kind in ("minima", "median_nom"):
            return f"{self.kind}:{self.k}"
        return self.kind


@dataclass(frozen=True)
class WeightFunction:
    """Positive integration weight H on (0,1).

    kinds: "one" (H = 1), "pow" (H(z) = c z^(c-1), the d tau(F) reweighting for
    tau = z^c), "recip" (H(z) = 1/(z(1-z)), the empirical-cdf weight),
    "median_nom" (H(z) = d/dz Psi^{-1}(z) for odd set size k).
    """

    kind: str
    c: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("one", "pow", "recip", "median_nom"):
            raise ValueError(f"unknown weight function kind {self.kind!r}")
        if self.kind == "pow" and (self.c is None or self.c <= 0):
            raise ValueError("pow weight requires c > 0")
        if self.kind == "median_nom" and (self.k is None or self.k < 1 or self.k % 2 == 0):
            raise ValueError("median_nom weight requires odd k >= 1")

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "one":
            out = np.ones_like(z)
        elif self.kind == "pow":
            out = self.c * z ** (self.c - 1.0)
        elif self.kind == "recip":
            out = 1.0 / (z * (1.0 - z))
        else:  # median_nom: (Psi^{-1})'(z) = 1 / Psi'(Psi^{-1}(z))
            a = (self.k + 1) / 2
            x = inv_reg_inc_beta(z, a, a)
            log_pdf = (a - 1.0) * (np.log(x) + np.log1p(-x)) - sc.betaln(a, a)
            out = np.exp(-log_pdf)
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def __str__(self):
        if self.kind == "pow":
            return f"pow:{self.c:g}"
        if self.kind == "median_nom":
            return f"median_nom:{self.k}"
        return self.kind


@dataclass(frozen=True)
class LossSpec:
    """Bowl-shaped rho plus optional weight H and invariant step weights."""

    rho: str = "squared"
    p: float | None = None  # Lp exponent
    a: float | None = None  # Linex parameter
    H: WeightFunction | None = None
    step_weights: tuple | None = None

    _RHOS = ("squared", "absolute", "lp", "linex", "entropy_ratio")

    def __post_init__(self):
        if self.rho not in self._RHOS:
            raise ValueError(f"unknown rho {self.rho!r}")
        if self.rho == "lp" and (self.p is None or self.p <= 0):
            raise ValueError("lp loss requires p > 0")
        if self.rho == "linex" and (self.a is None or self.a == 0):
            raise ValueError("linex loss requires a != 0")
        if self.step_weights is not None:
            w = np.asarray(self.step_weights, dtype=float)
            if np.any(w <= 0) or np.any(w > 1):
                raise ValueError("step weights must lie in (0, 1]")
            object.__setattr__(self, "step_weights", tuple(float(x) for x in w))

    def rho_eval(self, z):
        z = np.asarray(z, dtype=float)
        if self.rho == "squared":
            out = z * z
        elif self.rho == "absolute":
            out = np.abs(z)
        elif self.rho == "lp":
            out = np.abs(z) ** self.p
        elif self.rho == "linex":
            az = self.a * z
            out = np.exp(az) - az - 1.0
        else:  # entropy_ratio on z = log d - log F: rho0(e^z) with rho0(r)=1/r+log r-1
            out = np.exp(-z) + z - 1.0
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def rho_deriv(self, z):
        z = np.asarray(z, dtype=float)
        if self.rho == "squared":
            out = 2.0 * z
        elif self.rho == "absolute":
            out = np.sign(z)
        elif self.rho == "lp":
            out = self.p * np.abs(z) ** (self.p - 1.0) * np.sign(z)
            out = np.where(z == 0.0, 0.0, out)
        elif self.rho == "linex":
            out = self.a * (np.exp(self.a * z) - 1.0)
        else:
            out = 1.0 - np.exp(-z)
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def has_kink(self):
        """True when rho has a non-smooth point at 0 (quadrature must split there)."""
        return self.rho == "absolute" or (self.rho == "lp" and self.p < 2)

    def __str__(self):
        if self.rho == "lp":
            return f"lp:{self.p:g}"
        if self.rho == "linex":
            return f"linex:{self.a:g}"
        return self.rho


@dataclass(frozen=True)
class BalancedSpec:
    """Target step weights u_0..u_n and per-step mixing weights w_0..w_n in [0,1]."""

    target_weights: tuple
    w: tuple

    def __post_init__(self):
        u = np.asarray(self.target_weights, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if u.shape != w.shape or u.ndim != 1:
            raise ValueError("target_weights and w must be 1-d vectors of equal length")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("mixing weights must lie in [0, 1]")
        object.__setattr__(self, "target_weights", tuple(float(x) for x in u))
        object.__setattr__(self, "w", tuple(float(x) for x in w))

    @property
    def n(self):
        return len(self.w) - 1


def _split_spec(text):
    head, _, arg = text.partition(":")
    return head.strip(), arg.strip()


def parse_rho(text):
    """Parse e.g. "squared", "lp:0.5", "linex:1"."""
    head, arg = _split_spec(text)
    if head in ("squared", "absolute", "entropy_ratio"):
        return LossSpec(rho=head)
    if head == "lp":
        return LossSpec(rho="lp", p=float(arg))
    if head == "linex":
        return LossSpec(rho="linex", a=float(arg))
    raise InvarcdfError(f"cannot parse rho spec {text!r}")


def parse_tau(text):
    """Parse e.g. "identity", "power:2", "minima:5", "median_nom:5", "odds"."""
    head, arg = _split_spec(text)
    if head in ("identity", "odds", "log_odds", "log"):
        return Transform(kind=head)
    if head == "power":
        return Transform(kind="power", m=float(arg))
    if head in ("minima", "median_nom"):
        return Transform(kind=head, k=int(arg))
    raise InvarcdfError(f"cannot parse tau spec {text!r}")


def parse_weight_function(text):
    """Parse e.g. "one", "pow:0.2", "recip", "median_nom:5"."""
    head, arg = _split_spec(text)
    if head in ("one", "recip"):
        return WeightFunction(kind=head)
    if head == "pow":
        return WeightFunction(kind="pow", c=float(arg))
    if head == "median_nom":
        return WeightFunction(kind="median_nom", k=int(arg))
    raise InvarcdfError(f"cannot parse H spec {text!r}")
