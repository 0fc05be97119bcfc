"""Command-line front end.

Subcommands: weights | estimate | risk | simulate | case-study.
Exit codes: 0 success, 2 usage error, 3 divergence, 4 I/O error.
"""

import argparse
import csv
import io
import json
import sys
from importlib import resources

import numpy as np

from .errors import DivergentIntegral, DivergentMoment, DivergentObjective, NonMonotoneResult
from .estimator import (
    StepEstimator,
    WeightVector,
    balanced_combine,
    best_invariant,
    constrained_weights,
    fit,
    genuineness_check,
    maxima_lse_weights,
    median_nom_weights,
    minima_weights,
    mle_nomination_weights,
    sel_tau_weights,
)
from .model import BalancedSpec, LossSpec, Transform, parse_rho, parse_tau, parse_weight_function
from .risk import (
    Sampler,
    balanced_risk_decompose,
    distribution_free_check,
    invariant_risk,
    mc_risk,
)
from .sampling import NominationScheme, empirical_cdf, generate, true_tau_curve

EXIT_USAGE = 2
EXIT_DIVERGENT = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_scheme(text):
    kind, _, arg = text.partition(":")
    if kind not in ("maxima", "minima", "median"):
        raise CliError(f"unknown scheme {text!r}", EXIT_USAGE)
    if not arg:
        raise CliError(f"scheme needs a set size, e.g. {kind}:5", EXIT_USAGE)
    return kind, int(arg)


def _parse_sampler(text):
    kind, _, arg = text.partition(":")
    if kind in ("uniform", "uniform01"):
        return Sampler("uniform01")
    if kind == "normal":
        mu, sigma = (float(x) for x in arg.split(",")) if arg else (0.0, 1.0)
        return Sampler("normal", mu=mu, sigma=sigma)
    if kind in ("exponential", "exp"):
        return Sampler("exponential", rate=float(arg) if arg else 1.0)
    raise CliError(f"unknown sampler {text!r}", EXIT_USAGE)


def _read_column(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    if not rows:
        raise CliError(f"{path} is empty", EXIT_USAGE)
    body = rows[1:] if not _is_number(rows[0][0]) else rows
    try:
        data = np.array([float(r[0]) for r in body if r])
    except ValueError as exc:
        raise CliError(f"{path}: non-numeric data ({exc})", EXIT_USAGE) from exc
    if not np.all(np.isfinite(data)):
        raise CliError(f"{path}: data must be finite (no nan or inf)", EXIT_USAGE)
    if len(data) == 0:
        raise CliError(f"{path} contains no observations", EXIT_USAGE)
    return data


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _plot_table_csv(grid, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [name for name, _ in columns])
    for row in zip(grid, *(vals for _, vals in columns)):
        writer.writerow([f"{x:.10g}" for x in row])
    return buf.getvalue()


def _nomination_weights(n, scheme_kind, k, variant):
    if variant == "MLE":
        return mle_nomination_weights(n, scheme_kind, k)
    if scheme_kind == "maxima":
        if variant == "L1":
            return WeightVector.from_array(
                sel_tau_weights(n, Transform("power", m=1.0 / k)).tau_scale
            )
        return maxima_lse_weights(n, k)
    if scheme_kind == "minima":
        u1, u2 = minima_weights(n, k)
        return u1 if variant == "L1" else u2
    return median_nom_weights(n, k, variant)


def _weights_from_source(source, n, k_hint=None):
    """Resolve a --weights argument: preset name, scheme spec, or JSON file."""
    if source in ("best", "aggarwal"):
        return best_invariant(n, LossSpec("squared"))
    if source == "empirical":
        return WeightVector.from_array(np.arange(n + 1) / n)
    if ":" in source:
        head, _, arg = source.partition(":")
        if head in ("maxima-lse",):
            return maxima_lse_weights(n, int(arg))
        if head in ("mle-maxima", "mle-minima", "mle-median"):
            return mle_nomination_weights(n, head.split("-")[1], int(arg))
        if head in ("median-l1", "median-l2"):
            return median_nom_weights(n, int(arg), head[-2:].upper())
    if source.endswith(".json"):
        try:
            with open(source, encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read {source}: {exc}", EXIT_IO) from exc
        return WeightVector(n=obj["n"], u=tuple(obj["values"]))
    raise CliError(f"unknown weight source {source!r}", EXIT_USAGE)


# ---------------------------------------------------------------------------
# subcommands


def cmd_weights(args):
    if args.table1:
        rows = [
            ("u1", median_nom_weights(10, 5, "L1")),
            ("u2", median_nom_weights(10, 5, "L2")),
            ("mle", mle_nomination_weights(10, "median", 5)),
        ]
        lines = ["i," + ",".join(name for name, _ in rows)]
        for i in range(6):
            lines.append(
                f"{i}," + ",".join(f"{v.u[i]:.{args.decimals}f}" for _, v in rows)
            )
        _write_text(args.out, "\n".join(lines) + "\n")
        return 0
    try:
        if args.scheme:
            kind, k = _parse_scheme(args.scheme)
            v = _nomination_weights(args.n, kind, k, args.variant)
        else:
            loss = parse_rho(args.rho)
            if args.H:
                loss = LossSpec(
                    rho=loss.rho, p=loss.p, a=loss.a, H=parse_weight_function(args.H)
                )
            v = best_invariant(args.n, loss, parse_tau(args.tau))
    except DivergentObjective as exc:
        raise CliError(
            f"divergent objective (rho={args.rho}, tau={args.tau}) at i={exc.index}",
            EXIT_DIVERGENT,
        ) from exc
    except DivergentMoment as exc:
        raise CliError(str(exc), EXIT_DIVERGENT) from exc
    if args.constrained:
        v = constrained_weights(v)
    if args.format == "json":
        _write_text(args.out, json.dumps(v.to_json_dict()) + "\n")
    else:
        lines = ["i,u"] + [f"{i},{u:.{args.decimals}f}" for i, u in enumerate(v.u)]
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_estimate(args):
    data = _read_column(args.input)
    n = len(data)
    v = _weights_from_source(args.weights, n)
    if args.genuine:
        v = constrained_weights(v)
    est = fit(data, v, tail=args.tail)
    _write_text(args.out, est.to_json() + "\n")
    return 0


def cmd_risk(args):
    loss = parse_rho(args.rho)
    if args.H:
        loss = LossSpec(rho=loss.rho, p=loss.p, a=loss.a, H=parse_weight_function(args.H))
    tau = parse_tau(args.tau)
    v = _weights_from_source(args.weights, args.n)
    if args.decompose:
        w = np.full(args.n + 1, args.w)
        target = _weights_from_source(args.target, args.n)
        spec = BalancedSpec(target_weights=target.u, w=tuple(w))
        g = v.as_array() - target.as_array()
        reps, seed = (args.mc if args.mc else (10_000, 0))
        rep = balanced_risk_decompose(spec, g, _parse_sampler(args.F), reps=int(reps), seed=int(seed))
        _write_text(
            args.out,
            json.dumps(
                {
                    "r_h1": rep.r_h1,
                    "r_h2": rep.r_h2,
                    "total": rep.total,
                    "max_residual": rep.max_residual,
                }
            )
            + "\n",
        )
        return 0
    if args.check_constant:
        samplers = [_parse_sampler(s) for s in args.check_constant.split(",")]
        try:
            reps, seed = (args.mc if args.mc else (100_000, 0))
            report = distribution_free_check(
                v, loss, tau, samplers, reps=int(reps), seed=int(seed)
            )
        except DivergentIntegral as exc:
            raise CliError(str(exc), EXIT_DIVERGENT) from exc
        _write_text(
            args.out,
            json.dumps(
                {
                    "passed": report.passed,
                    "quad_value": report.quad_value,
                    "labels": list(report.labels),
                    "mc_values": list(report.mc_values),
                    "mc_stderrs": list(report.mc_stderrs),
                    "messages": list(report.messages),
                }
            )
            + "\n",
        )
        return 0 if report.passed else 1
    if args.mc:
        reps, seed = args.mc
        report = mc_risk(v, _parse_sampler(args.F), loss, tau, reps=int(reps), seed=int(seed))
    else:
        report = invariant_risk(v, loss, tau)
        if report.divergent:
            sys.stderr.write(
                f"risk divergent at step i={report.divergent_index}\n"
            )
            _write_text(args.out, report.to_json() + "\n")
            return EXIT_DIVERGENT
    _write_text(args.out, report.to_json() + "\n")
    return 0


def cmd_simulate(args):
    kind, k = _parse_scheme(args.scheme)
    scheme = NominationScheme(kind=kind, k=k, n=args.n)
    sampler = _parse_sampler(args.F)
    data = generate(scheme, sampler, seed=args.seed)
    n = args.n
    d1 = _nomination_weights(n, kind, k, "L1")
    d2 = _nomination_weights(n, kind, k, "L2")
    mle = mle_nomination_weights(n, kind, k)
    lo, hi = float(np.min(data)), float(np.max(data))
    iqr = float(np.subtract(*np.percentile(data, [75, 25])))
    grid = np.linspace(lo - 0.5 * iqr, hi + 0.5 * iqr, args.grid_points)
    columns = []
    for name, v in (("d1_star", d1), ("d2_star", d2), ("mle", mle)):
        est = fit(data, v)
        columns.append((name, est.evaluate(grid)))
    columns.append(("empirical", empirical_cdf(data).evaluate(grid)))
    curve = true_tau_curve(scheme, lambda t: sampler.cdf(t), grid)
    columns.append(("true", np.array([y for _, y in curve])))
    _write_text(args.out, _plot_table_csv(grid, columns))
    return 0


def cmd_case_study(args):
    if not 0.0 < args.quantile <= 1.0:
        raise CliError(f"--quantile must be in (0, 1], got {args.quantile}", EXIT_USAGE)
    if args.input:
        data = _read_column(args.input)
    else:
        ref = resources.files("invarcdf.data").joinpath("bilirubin_maxima.csv")
        data = np.array(
            [float(line) for line in ref.read_text().splitlines()[1:] if line]
        )
    n, k = len(data), args.k
    u2 = maxima_lse_weights(n, k)
    mle = mle_nomination_weights(n, "maxima", k)
    # balanced recipe: w = 1/2 below the top order statistic, 1 at and above it
    w = np.full(n + 1, 0.5)
    w[-1] = 1.0
    spec = BalancedSpec(target_weights=mle.u, w=tuple(w))
    try:
        balanced = balanced_combine(spec, u2)
    except NonMonotoneResult as exc:
        raise CliError(str(exc), EXIT_DIVERGENT) from exc
    report = genuineness_check(mle, u2)
    lo, hi = float(np.min(data)), float(np.max(data))
    iqr = float(np.subtract(*np.percentile(data, [75, 25])))
    # left edge at 0: bilirubin concentrations live on (0, inf)
    grid = np.linspace(max(0.0, lo - 0.5 * iqr), hi + 0.5 * iqr, args.grid_points)
    columns = []
    quantiles = {}
    orders = {}
    for name, v in (("d2_star", u2), ("mle", mle), ("balanced", balanced)):
        est = fit(data, v, tail=1.0)
        columns.append((name, est.evaluate(grid)))
        quantiles[name] = est.quantile(args.quantile)
        orders[name] = float(est.evaluate(args.threshold))
    _write_text(args.out, _plot_table_csv(grid, columns))
    summary = {
        "n": n,
        "k": k,
        "genuineness_ok": bool(report),
        "quantile_order": args.quantile,
        "quantiles": quantiles,
        "threshold": args.threshold,
        "estimated_order_at_threshold": orders,
    }
    sys.stderr.write(json.dumps(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invarcdf",
        description="Best invariant (minimax) cdf estimation under integrated losses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="print optimal step-level tables")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--rho", default="squared")
    p.add_argument("--tau", default="identity")
    p.add_argument("--H", default=None)
    p.add_argument("--scheme", default=None, help="maxima:k | minima:k | median:k")
    p.add_argument("--variant", choices=["L1", "L2", "MLE"], default="L1")
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--table1", action="store_true", help="median-nomination n=10 k=5 preset")
    p.add_argument("--decimals", type=int, default=3)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("estimate", help="bind weights to data, write estimator JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", default="best")
    p.add_argument("--tail", type=float, default=None)
    p.add_argument("--genuine", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("risk", help="risk by quadrature or Monte Carlo")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--rho", default="squared")
    p.add_argument("--tau", default="identity")
    p.add_argument("--H", default=None)
    p.add_argument("--weights", default="best")
    p.add_argument("--mc", nargs=2, metavar=("REPS", "SEED"), default=None)
    p.add_argument("--F", default="uniform")
    p.add_argument("--check-constant", default=None, metavar="F1,F2,...")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--w", type=float, default=0.5)
    p.add_argument("--target", default="empirical")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("simulate", help="plot table for simulated nomination data")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--F", default="normal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("case-study", help="bilirubin maxima pipeline (balanced estimator)")
    p.add_argument("--input", default=None, help="CSV of maxima; bundled placeholder by default")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--quantile", type=float, default=0.95)
    p.add_argument("--threshold", type=float, default=17.65)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_case_study)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
