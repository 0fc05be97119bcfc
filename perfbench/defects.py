"""Known defects of the program, checked at the tolerances it advertises.

    python3 perfbench/defects.py

Run from the root of a source checkout; takes about 15 seconds.  The
operations in catalog.known_defect_tasks() are left out of the timed
workloads, because no operation of a workload may fail.  This script runs
each of them once, checks its output against perfbench/references.json as
the workloads do, and prints the worst deviation over its tolerance.  It
exits 1 while any of them fails and 0 once all pass; an operation that
passes can return to the `tables` workload in a change to the benchmark.
"""

import sys

import catalog
import run


def main():
    run._limit_blas_threads()
    bench = run.Bench(run._import_program(), "tables")
    bench.warm_up()
    tasks = catalog.known_defect_tasks()
    failed = 0
    for task in tasks:
        result = bench.run_task(task)
        failed += result["error"] is not None
        ratio = result["err_over_tol"]
        verdict = "FAIL" if result["error"] else "ok"
        print(f"{verdict:4} err/tol {ratio if ratio is None else f'{ratio:.3g}':>9}  {result['label']}  {result['error'] or ''}")
    print(f"{failed} of {len(tasks)} known-defect operations outside their advertised tolerance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
