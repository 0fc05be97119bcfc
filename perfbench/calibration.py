"""Machine-speed probe: a fixed kernel of numpy, scipy and plain Python that
uses none of invarcdf.

On a shared machine the same task can take twice as long from one minute to
the next, because other tenants load the cores, caches and memory bus.  The
probe's time moves with that load: on the 2-core machine the baseline was
recorded on, it correlated with the time of the task run right after it at
0.5-0.7 (median over groups of like tasks).  Multiplying a task's wall time
by REFERENCE_S over the time of the probe run just before it therefore
removes most of the drift.  The program under test never runs the probe, so
a change to the program cannot move it.

numpy is imported when a Probe is made, not with this module, because
OpenBLAS reads its thread count when numpy is first imported.
"""

import time

# about the probe's median time inside benchmark runs on the 2-core machine
# the baseline was recorded on, so a scaled time reads as wall seconds there
REFERENCE_S = 0.0125


class Probe:
    """The kernel: per-replicate random streams in a Python loop, vectorized
    numpy and scipy.special work, a pass over an array twice the size of the
    per-core L2 cache, and a plain-Python integrand loop.  Its arrays are
    allocated once, so its time does not depend on what the program left in
    the allocator; they add about 5 MB to the benchmark's resident memory.
    It imports nothing that invarcdf does not load already."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.u = np.empty((150, 10))
        self.grid = np.linspace(0.01, 0.99, 64)
        self.t = np.empty((150, 10, 64))
        self.work = np.empty((150, 10, 64))
        self.big = np.linspace(0.001, 0.999, 500_000)  # 4 MB
        self.points = [i / 2000 for i in range(1, 2000)]

    def __call__(self):
        """Wall time of one run of the kernel."""
        from scipy import special as sc

        np = self.np
        start = time.perf_counter()
        base = np.random.Philox(key=np.uint64(20130808))
        for r in range(150):
            self.u[r] = np.random.Generator(base.jumped(r)).random(10)
        np.multiply(np.sort(self.u, axis=1)[..., None], self.grid, out=self.t)
        np.log1p(self.t, out=self.work)
        sc.ndtri(self.t, out=self.t)
        np.multiply(self.work, self.t, out=self.work)
        self.work.sum()
        self.big.sum()
        self.big.max()
        sum(x**2.5 * (1 - x) ** 3.5 for x in self.points)
        return time.perf_counter() - start
