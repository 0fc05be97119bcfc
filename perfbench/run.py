"""invarcdf benchmark: closed-loop workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload {mc-invariant,mc-data,tables} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  One client runs the seeded task list in cycles (each caller waits
for its result) until about S seconds of task time have passed, checks
every output against perfbench/references.json, and prints one JSON result
as its last line: end-to-end metrics with --trace 0, per-layer metrics from
an outside-in trace with --trace 1 (each cycle run untraced, then traced).
End-to-end task times are scaled by a machine-speed probe run before each
task (calibration.py).  Records and spans go to perfbench/out/.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
import checks
from calibration import REFERENCE_S, Probe
from tracer import LAYERS, Tracer

# nothing imported above this line may load numpy: OpenBLAS reads its thread
# count once, when numpy is first imported in main()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 5
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import invarcdf.cli; sys.exit(invarcdf.cli.main(['weights', '--n', '2']))"
SETUP_OUTPUT = "i,u\n0,0.250\n1,0.500\n2,0.750\n"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_CYCLES = {"mc-invariant": 9, "mc-data": 12, "tables": 23}

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
}
_FUNCTIONS = {
    "risk.mc_risk": ("calls", "self_s", "reps"),
    "risk.distribution_free_check": ("calls", "self_s"),
    "estimator.fit": ("calls", "self_s"),
    "risk.Sampler.ppf": ("calls", "self_s"),
    "model.Transform.eval": ("calls", "self_s"),
    "model.LossSpec.rho_eval": ("calls", "self_s"),
    "special.quad_beta_weighted": ("calls", "self_s", "nonconverged", "divergent"),
    "special.inv_reg_inc_beta": ("calls", "self_s", "points"),
    "estimator.median_nom_weights": ("calls", "self_s"),
    "estimator.sel_tau_weights": ("calls", "self_s"),
    "model.WeightFunction.eval": ("calls", "self_s"),
    "risk.invariant_risk": ("calls", "self_s", "divergent"),
}


def _per_cycle_unit(stat):
    return "s/cycle" if stat == "self_s" else "count/cycle"


PER_LAYER = {f"{f}.{s}": _per_cycle_unit(s) for f, stats in _FUNCTIONS.items() for s in stats}
PER_LAYER |= {f"{layer}.{s}": _per_cycle_unit(s) for layer in LAYERS for s in ("calls", "self_s")}
PER_LAYER |= {
    "risk.mc_risk.reps_per_s": "1/s",
    "risk.distribution_free_check.mc_risk_per_call": "count",
    "trace.overhead_ratio": "ratio",
    "accuracy.max_err_over_tol": "ratio",
    "accuracy.fail_ratio": "ratio",
}


def _limit_blas_threads():
    """Cap OpenBLAS at the cores this process may use (set before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 0 < int(current) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    return nproc, int(os.environ["OPENBLAS_NUM_THREADS"])


def _fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not (SRC / "invarcdf" / "__init__.py").is_file():
        _fail(f"no invarcdf sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import invarcdf
    import invarcdf.cli  # noqa: F401 - the package does not import its CLI

    if Path(invarcdf.__file__).resolve().parent != SRC / "invarcdf":
        _fail(f"imported invarcdf from {invarcdf.__file__}, not from {SRC}")
    return invarcdf


def measure_setup():
    """Median wall time of fresh interpreters importing invarcdf and running `weights --n 2`."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
            _fail(f"set-up call failed (exit {proc.returncode}): {proc.stdout!r} {proc.stderr[-500:]!r}", code=1)
    return statistics.median(times)


def tail_percentile(n_tasks):
    """Highest ladder percentile with at least 10 tasks beyond it."""
    return next((p for p in TAIL_LADDER if n_tasks * (1 - p / 100) >= 10), TAIL_LADDER[-1])


# every untraced run executes at least MIN_CYCLES cycles, so this percentile
# has at least 10 tasks beyond it in every run; fixing it per workload keeps a
# faster program (more tasks in a run) from moving task_tail_s to another one
TAIL_PERCENTILE = {w: tail_percentile(MIN_CYCLES[w] * len(next(catalog.cycles(w, 0)))) for w in catalog.WORKLOADS}


def percentile(values, p):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Bench:
    def __init__(self, ic, workload):
        self.ic, self.workload = ic, workload
        self.refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))["references"]
        data_dir = SRC / "invarcdf" / "data"
        with open(data_dir / "table1_golden.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        self.golden = {col: [float(r[col]) for r in rows] for col in ("u1", "u2", "mle")}
        lines = (data_dir / "bilirubin_maxima.csv").read_text(encoding="utf-8").split()
        self.case_data = [float(x) for x in lines[1:]]

    # -- executing --------------------------------------------------------

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.ic.cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def _api(self, task):
        ic, n = self.ic, task["n"]
        if task["rule"] == "empirical":
            rule = lambda data: ic.empirical_cdf(data)  # noqa: E731 - needs a sample_size attribute
        else:
            v = ic.best_invariant(n, ic.LossSpec("squared"))
            rule = ic.risk.invariant_rule(ic.constrained_weights(v) if task["rule"] == "constrained" else v)
        rule.sample_size = n
        loss, tau = ic.LossSpec(task["rho"]), ic.Transform("identity")
        if task["kind"] == "api-mc":
            return ic.mc_risk(rule, ic.Sampler(**task["sampler"]), loss, tau, reps=task["reps"], seed=task["seed"])
        samplers = [ic.Sampler(**s) for s in task["samplers"]]
        return ic.distribution_free_check(rule, loss, tau, samplers, reps=task["reps"], seed=task["seed"])

    def execute(self, task):
        return self._cli(task["argv"]) if "argv" in task else self._api(task)

    # -- checking ---------------------------------------------------------

    def judge(self, task, output):
        """(err_over_tol, note); a task fails when err_over_tol > 1, when its
        output cannot be read (err_over_tol None) or when it raised."""
        chk, refs, kind = checks, self.refs, task["kind"]
        if kind == "api-mc":
            return chk.mc_value(output.value, output.stderr, refs[task["ref"]])
        if kind == "api-check":
            return chk.constancy(output.mc_values, output.mc_stderrs, output.passed, output.quad_value, refs[task["ref"]])
        rc, stdout, stderr = output
        if kind == "risk-check":
            report = json.loads(stdout)
            if rc != (0 if report["passed"] else 1):
                raise chk.CheckError(f"exit code {rc} with passed={report['passed']}")
            return chk.constancy(report["mc_values"], report["mc_stderrs"], report["passed"], report["quad_value"], refs[task["ref"]])
        if rc != 0:
            raise chk.CheckError(f"exit code {rc}: {stderr.strip()[-300:]}")
        if kind == "risk-mc":
            report = json.loads(stdout)
            return chk.mc_value(report["value"], report["stderr"], refs[task["ref"]])
        if kind == "risk-quad":
            return chk.risk_quad(stdout, refs[task["ref"]], task["tol"])
        if kind == "weights":
            return chk.weights_json(stdout, refs[task["ref"]], task["tol"])
        if kind == "table1":
            return chk.table1(stdout, task["columns"], refs, self.golden, task["tol"])
        if kind == "simulate":
            return chk.simulate(stdout, task, refs)
        return chk.case_study(stdout, stderr, task, refs, self.case_data)

    def run_task(self, task):
        start = time.perf_counter()
        try:
            output = self.execute(task)
            error = None
        except Exception as exc:  # a raising task is a failed task, the run goes on
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                ratio, note = self.judge(task, output)
                error = None if ratio <= 1 else note
            except (checks.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                ratio, error = None, f"unreadable output: {type(exc).__name__}: {exc}"
        else:
            ratio = None
        label = " ".join(task["argv"]) if "argv" in task else f"{task['kind']} {task['rule']} n={task['n']} {task['rho']}"
        return {"kind": task["kind"], "label": label, "seconds": elapsed, "err_over_tol": ratio, "error": error, "reps": task.get("total_reps", 0)}

    # -- phases -------------------------------------------------------------

    def warm_up(self):
        """Let lazy imports and first-call set-up finish before timing."""
        self._cli(["weights", "--n", "2"])
        self._cli(["risk", "--n", "3", "--mc", "10", "0"])
        self._cli(["weights", "--n", "3", "--rho", "absolute"])

    def timed_phase(self, seed, seconds, probe, min_cycles=1, tracer=None):
        """Whole cycles until about `seconds` of untraced task time: start
        another cycle only while that ends nearer to `seconds` than stopping
        now.  With a tracer, each cycle is run again at once with the tracer
        installed, so traced and untraced times of the same tasks are taken
        side by side."""
        untraced, traced, busy, cycles = [], [], 0.0, 0
        for cycle in catalog.cycles(self.workload, seed):
            for task in cycle:
                probe_s = probe()
                untraced.append({**self.run_task(task), "probe_s": probe_s})
                busy += untraced[-1]["seconds"]
            if tracer is not None:
                with tracer:
                    for task in cycle:
                        tracer.task = len(traced)
                        traced.append(self.run_task(task))
            cycles += 1
            if cycles >= min_cycles and busy + 0.5 * busy / cycles >= seconds:
                return untraced, traced, cycles


def _timing(times, p):
    return {"tasks_per_s": len(times) / sum(times), "task_p50_s": statistics.median(times), "task_tail_s": percentile(times, p)}


def end_to_end(results, setup_s, p):
    """Metrics from task times scaled by the machine-speed probe run before
    each task (see calibration.py); the wall-clock figures go to the run
    record as wall_*."""
    wall = [r["seconds"] for r in results]
    speed = [REFERENCE_S / r["probe_s"] for r in results]
    scaled = [t * k for t, k in zip(wall, speed)]
    metrics = {"setup_s": setup_s, **_timing(scaled, p), "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    extra = {
        "fail_ratio": sum(r["error"] is not None for r in results) / len(results),
        "mc_reps_per_s": sum(r["reps"] for r in results) / sum(scaled),
        "tail_percentile": p,
        "tasks": len(wall),
        "busy_s": sum(wall),
        **{f"wall_{k}": v for k, v in _timing(wall, p).items()},
        "wall_mc_reps_per_s": sum(r["reps"] for r in results) / sum(wall),
        "machine_speed": statistics.median(speed),
    }
    return metrics, extra


def per_layer(tracer, untraced, traced, cycles):
    stats = tracer.summary()
    out = {name: stats.get(name, 0.0) / cycles for name in PER_LAYER if PER_LAYER[name].endswith("/cycle")}
    mc_time = stats.get("risk.mc_risk.inclusive_s", 0.0)
    out["risk.mc_risk.reps_per_s"] = stats.get("risk.mc_risk.reps", 0.0) / mc_time if mc_time else 0.0
    checks_ = [i for i, s in enumerate(tracer.spans) if s[0] == "risk.distribution_free_check"]
    parents = set(checks_)
    nested = sum(1 for s in tracer.spans if s[0] == "risk.mc_risk" and s[3] in parents)
    out["risk.distribution_free_check.mc_risk_per_call"] = nested / len(checks_) if checks_ else 0.0
    out["trace.overhead_ratio"] = sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in untraced)
    both = untraced + traced
    out["accuracy.max_err_over_tol"] = max((r["err_over_tol"] for r in both if r["err_over_tol"] is not None), default=0.0)
    out["accuracy.fail_ratio"] = sum(r["error"] is not None for r in both) / len(both)
    return out


def run_record(args, nproc, blas_threads, ic, extra, results):
    import numpy
    import scipy

    by_kind = {}
    for r in results:
        entry = by_kind.setdefault(r["kind"], {"tasks": 0, "failed": 0, "seconds": 0.0, "max_err_over_tol": 0.0})
        entry["tasks"] += 1
        entry["failed"] += r["error"] is not None
        entry["seconds"] += r["seconds"]
        if r["err_over_tol"] is not None:
            entry["max_err_over_tol"] = max(entry["max_err_over_tol"], r["err_over_tol"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "openblas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "invarcdf": ic.__version__,
        **extra,
        "by_kind": by_kind,
        "failures": [{"task": i, "label": r["label"], "error": r["error"]} for i, r in enumerate(results) if r["error"]][:50],
        "task_seconds": [[r["label"], r["seconds"], r.get("probe_s")] for r in results],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc-invariant", "mc-data", "tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, blas_threads = _limit_blas_threads()
    probe = Probe()  # before the program allocates, so its buffers sit apart from the program's heap
    ic = _import_program()
    bench = Bench(ic, args.workload)
    OUT.mkdir(exist_ok=True)
    bench.warm_up()

    if args.trace:
        tracer = Tracer(ic)
        untraced, traced, cycles = bench.timed_phase(args.seed, args.seconds / 2, probe, tracer=tracer)
        results = untraced + traced
        metrics = per_layer(tracer, untraced, traced, cycles)
        units = PER_LAYER
        _, extra = end_to_end(untraced, None, tail_percentile(len(untraced)))
        extra["cycles"] = cycles
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        setup_s = measure_setup()
        results, _, cycles = bench.timed_phase(args.seed, args.seconds, probe, MIN_CYCLES[args.workload])
        metrics, extra = end_to_end(results, setup_s, TAIL_PERCENTILE[args.workload])
        units = END_TO_END
        extra["cycles"] = cycles

    record = run_record(args, nproc, blas_threads, ic, extra, results)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(r["error"] is not None for r in results)
    print(
        f"workload={args.workload} seed={args.seed} tasks={len(results)} cycles={cycles} failed={failed} "
        f"fail_ratio={failed / len(results):.4g} mc_reps_per_s={extra['mc_reps_per_s']:.6g} "
        f"tail=p{extra['tail_percentile']:g} of N={extra['tasks']} machine_speed={extra['machine_speed']:.3g} "
        f"nproc={nproc} openblas_threads={blas_threads}"
    )
    for kind, entry in sorted(record["by_kind"].items()):
        print(f"  {kind}: {entry['tasks']} tasks, {entry['failed']} failed, max err/tol {entry['max_err_over_tol']:.3g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
