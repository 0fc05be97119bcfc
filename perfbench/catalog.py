"""Seeded task lists for the three workloads, and the reference keys they use.

A workload is an endless sequence of cycles.  Every cycle of a workload has
the same composition of cost classes; the seed only picks cost-neutral
parameters (loss, weights, sampler, Monte Carlo seed, data seed, ...) and
shuffles the order.  Where `tables` varies a row whose cost depends on the
choice, it rotates through the choices by cycle index instead.  Runs
therefore differ in their inputs but not in their mix, which keeps
throughput and percentiles comparable across seeds.

This module imports neither numpy nor invarcdf.
"""

import random

WORKLOADS = ("mc-invariant", "mc-data", "tables")

# tolerances fixed before the first run
TOL_LEVEL = 1e-10  # solver and closed-form levels
TOL_MEDIAN = 1e-11  # median-nomination levels
TOL_RISK = 1e-10  # quadrature risks
TOL_GOLDEN = 5e-4  # the 3-decimal golden Table 1
K_SE = 5.0  # a Monte Carlo value must lie within K_SE of its standard errors of the exact risk

# mc-invariant: CLI `risk --mc` and `risk --check-constant` on WeightVector rules
MC_N = (3, 10, 30)
MC_RHOS = ("squared", "absolute")
MC_TAUS = ("identity", "log_odds")
MC_WEIGHTS = ("best", "maxima-lse:3")
MC_SAMPLERS = ("uniform", "normal", "exponential")
# a `--mc` task draws as many replicates as a 3-sampler check, so both kinds
# cost the same and the median task time falls inside one cost class
CHECK_REPS = 1400
MC_REPS = CHECK_REPS * len(MC_SAMPLERS)

# mc-data: public API mc_risk / distribution_free_check on callable rules
DATA_RULES = ("best", "empirical", "constrained")
DATA_SAMPLERS = (
    {"family": "normal", "mu": 0.0, "sigma": 1.0},
    {"family": "normal", "mu": 5.0, "sigma": 3.0},
    {"family": "exponential", "rate": 1.0},
    {"family": "exponential", "rate": 0.25},
)
# per sampler; checks use 2 samplers.  Small enough that a run holds over 200
# tasks, so task_tail_s can be p95, inside the costliest rows (empirical n=30)
DATA_CHECK_REPS = 600
DATA_REPS = 2 * DATA_CHECK_REPS

# tables: CLI weight tables and quadrature risks, on operations that meet
# their advertised tolerance (the others are in known_defect_tasks)
TABLE_N = (5, 10, 30)
SCHEME_K = (3, 5)
H_SPECS = ("pow:0.5", "pow:2", "recip")
CASE_K = (3, 5, 7)
CASE_QUANTILES = (0.5, 0.9, 0.95)
CASE_THRESHOLDS = (9.0, 12.0, 17.65)
CASE_N = 14  # size of the bundled case-study data
CHEAP_KINDS = ("H", "maxima", "minima", "median-mle", "simulate", "case-study", "risk-quad")
# generic-solver rows, run only as known defects: (rho, tau or None for both, n)
GENERIC_ROWS = (
    ("absolute", None, 5),
    ("absolute", None, 10),
    ("linex:1", "identity", 5),
    ("linex:1", "identity", 10),
    ("lp:0.5", "identity", 5),
    ("lp:0.5", "identity", 10),
    ("entropy_ratio", "identity", 5),
    ("entropy_ratio", "identity", 10),
)
GRID_POINTS = "64"


def level_key(spec, n):
    return f"levels/{spec}/n={n}"


def risk_key(weights, rho, tau, n):
    return f"risk/{weights}/{rho}/{tau}/n={n}"


def _mc_risk_specs():
    return {(w, r, t, n) for w in MC_WEIGHTS for r in MC_RHOS for t in MC_TAUS for n in MC_N}


def _data_risk_specs():
    return {(w, r, "identity", n) for w in DATA_RULES for r in MC_RHOS for n in MC_N}


def _table_risk_specs():
    specs = {(w, r, t, n) for w in MC_WEIGHTS for r in MC_RHOS for t in MC_TAUS for n in TABLE_N}
    return specs | {("empirical", r, "identity", n) for r in MC_RHOS for n in TABLE_N}


def risk_specs():
    return _mc_risk_specs() | _data_risk_specs() | _table_risk_specs()


def level_specs():
    specs = set()
    for rho, tau, n in GENERIC_ROWS:
        for t in (tau,) if tau else ("identity", "log_odds"):
            specs.add((f"{rho}/{t}", n))
    for n in TABLE_N:
        specs |= {(f"squared/H={h}", n) for h in H_SPECS}
        for k in SCHEME_K:
            for kind in ("maxima", "minima"):
                specs |= {(f"{kind}:{k}/{v}", n) for v in ("L1", "L2", "MLE")}
            specs.add((f"median:{k}/MLE", n))
    specs |= {(f"median:{k}/L1", 10) for k in SCHEME_K}
    specs |= {("median:5/L2", 10), ("median:5/MLE", 10)}
    for k in CASE_K:
        specs |= {(f"maxima:{k}/L2", CASE_N), (f"maxima:{k}/MLE", CASE_N)}
    return specs


# ---------------------------------------------------------------------------
# task constructors


def _weights_task(argv, spec, n, tol):
    return {"kind": "weights", "argv": ["weights", *argv, "--format", "json"], "ref": level_key(spec, n), "tol": tol}


def _scheme_task(kind, k, variant, n):
    tol = TOL_MEDIAN if kind == "median" else TOL_LEVEL
    argv = ["--n", str(n), "--scheme", f"{kind}:{k}", "--variant", variant]
    return _weights_task(argv, f"{kind}:{k}/{variant}", n, tol)


def _simulate_task(rng, kind, k, n):
    scheme = f"{kind}:{k}"
    F = rng.choice(("normal", "exponential"))
    seed = rng.randrange(2**31)
    return {
        "kind": "simulate",
        "argv": ["simulate", "--scheme", scheme, "--n", str(n), "--F", F, "--seed", str(seed), "--grid-points", GRID_POINTS],
        "F": F,
        "columns": {
            "d1_star": level_key(f"{scheme}/L1", n),
            "d2_star": level_key(f"{scheme}/L2", n),
            "mle": level_key(f"{scheme}/MLE", n),
        },
        "n": n,
        "tol": TOL_MEDIAN if kind == "median" else TOL_LEVEL,
    }


def _risk_argv(n, rho, tau, weights):
    return ["risk", "--n", str(n), "--rho", rho, "--tau", tau, "--weights", weights]


def _cheap_task(rng, kind, n):
    k = rng.choice(SCHEME_K)
    if kind == "H":
        h = rng.choice(H_SPECS)
        argv = ["--n", str(n), "--rho", "squared", "--H", h]
        return _weights_task(argv, f"squared/H={h}", n, TOL_LEVEL)
    if kind in ("maxima", "minima"):
        return _scheme_task(kind, k, rng.choice(("L1", "L2", "MLE")), n)
    if kind == "median-mle":
        return _scheme_task("median", k, "MLE", n)
    if kind == "simulate":
        return _simulate_task(rng, rng.choice(("maxima", "minima")), k, n)
    if kind == "case-study":
        k = rng.choice(CASE_K)
        q, thr = rng.choice(CASE_QUANTILES), rng.choice(CASE_THRESHOLDS)
        return {
            "kind": "case-study",
            "argv": ["case-study", "--k", str(k), "--quantile", str(q), "--threshold", str(thr), "--grid-points", GRID_POINTS],
            "k": k,
            "quantile": q,
            "threshold": thr,
            "columns": {"d2_star": level_key(f"maxima:{k}/L2", CASE_N), "mle": level_key(f"maxima:{k}/MLE", CASE_N)},
            "tol": TOL_LEVEL,
        }
    rho = rng.choice(MC_RHOS)
    weights = rng.choice(MC_WEIGHTS + ("empirical",))
    tau = "identity" if weights == "empirical" else rng.choice(MC_TAUS)
    return {"kind": "risk-quad", "argv": _risk_argv(n, rho, tau, weights), "ref": risk_key(weights, rho, tau, n), "tol": TOL_RISK}


def _tables_cycle(rng, index):
    """Median-nomination L1 at n=10 for k=3 and k=5 (the heavy rows), and one
    row of each cheap kind, with n rotating by cycle index."""
    tasks = [_scheme_task("median", k, "L1", 10) for k in SCHEME_K]
    for j, kind in enumerate(CHEAP_KINDS):
        tasks.append(_cheap_task(rng, kind, TABLE_N[(index + j) % len(TABLE_N)]))
    return tasks


def known_defect_tasks():
    """Operations that miss their advertised tolerance at the commit that
    added the benchmark: every generic-solver row, median-nomination L2, and
    the two commands that print it (`--table1`, `simulate median:5`).  The
    workloads leave them out, because no operation of a workload may fail;
    defects.py runs and checks them."""
    tasks = []
    for rho, tau, n in GENERIC_ROWS:
        for t in (tau,) if tau else ("identity", "log_odds"):
            tasks.append(_weights_task(["--n", str(n), "--rho", rho, "--tau", t], f"{rho}/{t}", n, TOL_LEVEL))
    tasks.append(_scheme_task("median", 5, "L2", 10))
    tasks.append(
        {
            "kind": "table1",
            "argv": ["weights", "--table1", "--decimals", "17"],
            "columns": {v: level_key(f"median:5/{s}", 10) for v, s in (("u1", "L1"), ("u2", "L2"), ("mle", "MLE"))},
            "tol": TOL_MEDIAN,
        }
    )
    tasks.append(_simulate_task(random.Random("known-defects"), "median", 5, 10))
    return tasks


def _mc_invariant_cycle(rng):
    tasks = []
    for n in MC_N:
        for tau in MC_TAUS:
            rho, weights = rng.choice(MC_RHOS), rng.choice(MC_WEIGHTS)
            seed = str(rng.randrange(2**31))
            base = _risk_argv(n, rho, tau, weights)
            ref = risk_key(weights, rho, tau, n)
            sampler = rng.choice(MC_SAMPLERS)
            tasks.append({"kind": "risk-mc", "argv": base + ["--mc", str(MC_REPS), seed, "--F", sampler], "ref": ref, "total_reps": MC_REPS})
            tasks.append(
                {
                    "kind": "risk-check",
                    "argv": base + ["--check-constant", ",".join(MC_SAMPLERS), "--mc", str(CHECK_REPS), seed],
                    "ref": ref,
                    "total_reps": CHECK_REPS * len(MC_SAMPLERS),
                }
            )
    return tasks


def _mc_data_cycle(rng):
    tasks = []
    for rule in DATA_RULES:
        for n in MC_N:
            rho = rng.choice(MC_RHOS)
            common = {"rule": rule, "n": n, "rho": rho, "seed": rng.randrange(2**31), "ref": risk_key(rule, rho, "identity", n)}
            tasks.append({"kind": "api-mc", "sampler": rng.choice(DATA_SAMPLERS), "reps": DATA_REPS, "total_reps": DATA_REPS, **common})
            pair = rng.sample(DATA_SAMPLERS, 2)
            tasks.append({"kind": "api-check", "samplers": pair, "reps": DATA_CHECK_REPS, "total_reps": DATA_CHECK_REPS * len(pair), **common})
    return tasks


def cycles(workload, seed):
    """Yield the task lists of successive cycles, each shuffled by the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    index = 0
    while True:
        if workload == "tables":
            tasks = _tables_cycle(rng, index)
        elif workload == "mc-invariant":
            tasks = _mc_invariant_cycle(rng)
        else:
            tasks = _mc_data_cycle(rng)
        rng.shuffle(tasks)
        yield tasks
        index += 1
