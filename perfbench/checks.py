"""Oracle checks for task outputs.

Each check returns ``(err_over_tol, note)``: the largest deviation from the
reference divided by the tolerance (a task passes when it is at most 1), and
a short note naming the worst entry.  A check raises ``CheckError`` when the
output cannot be read at all.
"""

import csv
import io
import json
import math

from catalog import K_SE, TOL_GOLDEN, TOL_RISK

# `simulate` and `case-study` print columns with "%.10g": a printed value
# carries up to half a unit in its 10th significant digit
PRINT_REL = 5e-10


class CheckError(Exception):
    pass


def _worst(pairs, tol):
    """pairs: (label, got, want[, tol]) -> (max |got - want| / tol, label of the max)."""
    worst, note = 0.0, ""
    for label, got, want, *t in pairs:
        ratio = abs(got - want) / (t[0] if t else tol)
        if not ratio <= worst:  # also catches NaN
            worst, note = (ratio if ratio == ratio else math.inf), f"{label}: got {got!r}, want {want!r}"
    return worst, note


def levels(values, ref, tol):
    if len(values) != len(ref):
        raise CheckError(f"expected {len(ref)} levels, got {len(values)}")
    return _worst(((f"u[{i}]", g, w) for i, (g, w) in enumerate(zip(values, ref))), tol)


def weights_json(stdout, ref, tol):
    return levels(json.loads(stdout)["values"], ref, tol)


def _csv_columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if not body:
        raise CheckError("empty table")
    return {name: [float(r[j]) for r in body] for j, name in enumerate(header)}


def table1(stdout, columns, refs, golden, tol):
    cols = _csv_columns(stdout)
    pairs = []
    for name, key in columns.items():
        ref = refs[key]
        for i, got in zip(cols["i"], cols[name]):
            i = int(i)
            pairs.append((f"{name}[{i}]", got, ref[i], tol))
            pairs.append((f"{name}[{i}] vs golden", got, golden[name][i], TOL_GOLDEN))
    if len(pairs) != 2 * 6 * len(columns):
        raise CheckError("table1 must list steps 0..5")
    return _worst(pairs, tol)


def _step_index(value, ref):
    return min(range(len(ref)), key=lambda i: abs(ref[i] - value))


def _printed_tol(tol, value):
    return tol + PRINT_REL * abs(value)


def simulate(stdout, task, refs):
    """Each estimator column is a step function of the same knots: its values
    must be reference levels, nondecreasing in t, starting at u_0 and ending
    at u_n, with the same step index as every other column at every t."""
    cols = _csv_columns(stdout)
    n, tol = task["n"], task["tol"]
    level_sets = {name: refs[key] for name, key in task["columns"].items()}
    level_sets["empirical"] = [i / n for i in range(n + 1)]
    pairs, index_rows = [], []
    for name, ref in level_sets.items():
        idx = [_step_index(v, ref) for v in cols[name]]
        if idx[0] != 0 or idx[-1] != n or any(b < a for a, b in zip(idx, idx[1:])):
            raise CheckError(f"column {name} is not a step function from u_0 to u_n")
        index_rows.append(idx)
        pairs += [(f"{name}[t={t}]", v, ref[i], _printed_tol(tol, v)) for t, v, i in zip(cols["t"], cols[name], idx)]
    if any(row != index_rows[0] for row in index_rows):
        raise CheckError("estimator columns step at different knots")
    if task["F"] == "normal":
        cdf, pdf = (lambda t: 0.5 * math.erfc(-t / math.sqrt(2))), (lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi))
    else:
        cdf, pdf = (lambda t: -math.expm1(-t) if t > 0 else 0.0), (lambda t: math.exp(-t) if t > 0 else 0.0)
    for t, v in zip(cols["t"], cols["true"]):
        # the printed t is itself rounded, which moves F(t) by up to pdf(t) * PRINT_REL * |t|
        pairs.append((f"true[t={t}]", v, cdf(t), _printed_tol(tol, v) + pdf(t) * PRINT_REL * abs(t)))
    return _worst(pairs, tol)


def case_study(stdout, stderr, task, refs, data):
    """Estimator columns and the stderr summary against the oracle levels bound
    to the bundled data (tail level 1 above the largest observation)."""
    cols = _csv_columns(stdout)
    summary = json.loads(stderr.strip().splitlines()[-1])
    knots = sorted(data)
    n, tol = len(knots), task["tol"]
    u2, mle = refs[task["columns"]["d2_star"]], refs[task["columns"]["mle"]]
    balanced = [0.5 * (a + b) for a, b in zip(mle, u2)]
    balanced[-1] = mle[-1]
    estimators = {"d2_star": u2, "mle": mle, "balanced": balanced}

    def at(levels_, x):
        j = sum(1 for y in knots if y <= x)
        return 1.0 if j == n else levels_[j]

    pairs = []
    for name, lv in estimators.items():
        for t, v in zip(cols["t"], cols[name]):
            if min(abs(t - y) for y in knots) > 1e-8 * max(1.0, abs(t)):  # skip grid points at a knot
                pairs.append((f"{name}[t={t}]", v, at(lv, t), _printed_tol(tol, v)))
        tail = lv[1:-1] + [1.0]
        want_q = next((knots[j] for j, u in enumerate(tail) if u >= task["quantile"]), math.inf)
        if summary["quantiles"][name] != want_q:
            raise CheckError(f"quantile of {name}: got {summary['quantiles'][name]}, want {want_q}")
        pairs.append((f"order[{name}]", summary["estimated_order_at_threshold"][name], at(lv, task["threshold"])))
    genuine = all(min(u2[i + 1], mle[i + 1]) >= max(u2[i], mle[i]) - 1e-12 for i in range(n))
    if summary["genuineness_ok"] != genuine or summary["n"] != n or summary["k"] != task["k"]:
        raise CheckError("case-study summary disagrees with the oracle")
    return _worst(pairs, tol)


def risk_quad(stdout, exact, tol=TOL_RISK):
    report = json.loads(stdout)
    if report["divergent"]:
        raise CheckError("quadrature risk reported divergent")
    return _worst([("value", report["value"], exact)], tol)


def mc_value(value, stderr, exact, label="value"):
    """Monte Carlo value against the exact risk, in units of K_SE standard errors."""
    if not stderr > 0:
        raise CheckError(f"{label}: standard error {stderr!r} is not positive")
    return abs(value - exact) / (K_SE * stderr), f"{label}: {value!r} vs exact {exact!r} (se {stderr!r})"


def constancy_verdict(values, stderrs, quad_value):
    """The pass/fail verdict distribution_free_check must reach from its own numbers."""
    ok = all(
        abs(values[i] - values[j]) <= 3.0 * math.hypot(stderrs[i], stderrs[j])
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )
    if quad_value is not None:
        ok = ok and all(abs(v - quad_value) <= 3.0 * s for v, s in zip(values, stderrs))
    return ok


def constancy(values, stderrs, passed, quad_value, exact):
    """A distribution-free check: every Monte Carlo value near the exact risk,
    the quadrature value (if any) at TOL_RISK, and a verdict consistent with
    the reported numbers."""
    if passed != constancy_verdict(values, stderrs, quad_value):
        raise CheckError(f"verdict passed={passed} disagrees with the reported values")
    worst, note = max(mc_value(v, s, exact, f"mc[{j}]") for j, (v, s) in enumerate(zip(values, stderrs)))
    if quad_value is not None:
        q = _worst([("quad_value", quad_value, exact)], TOL_RISK)
        worst, note = max((worst, note), q)
    return worst, note
