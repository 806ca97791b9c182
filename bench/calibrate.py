"""Host-speed calibration for the benchmark's timings.

On a host whose physical cores are shared with other machines, the speed of
this process drifts by up to 1.6x while it runs alone, in phases from under
a second to minutes; a raw wall time then depends more on the neighbours than
on the code.  The benchmark therefore runs a fixed kernel before the first
level of every study and after each level, outside the timed steps, and
reports a median wall time scaled by ``REFERENCE_S`` over the median kernel
time of the run: the time at the host speed at which the kernel takes
``REFERENCE_S``.  One kernel sample cannot stand for the speed during the
level next to it, because the speed changes within a level; the median over
a run's samples measures the phase mix the run ran in.  Raw wall times are
kept in the results as well.

The kernel mixes the kinds of work the program does, in equal shares, without
calling the program: a Python loop, a SuperLU factorization and solve of a
2-D Laplacian, a numpy sort over a few MB, and small dense solves.  A change
to ``hho_control`` therefore never moves it.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Kernel time in the fast state of a 2-vCPU Intel Xeon host (Python 3.11,
# numpy 2.4, scipy 1.17); a scale only, shared by every run that compares.
REFERENCE_S = 0.02
REPEATS = 2


class Calibrator:
    def __init__(self):
        n = 40
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._laplacian = (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
        self._ones = np.ones(n * n)
        rng = np.random.default_rng(0)
        self._values = rng.random(600_000)
        self._small = rng.random((600, 6, 6)) + 6.0 * np.eye(6)
        self._rhs = rng.random(6)

    def _python(self):
        s = 0
        for j in range(90_000):
            s += j * j
        return s

    def _superlu(self):
        return spla.splu(self._laplacian).solve(self._ones)

    def _numpy(self):
        return np.sort(self._values).sum()

    def _dense(self):
        for m in self._small:
            np.linalg.solve(m, self._rhs)

    def kernel_s(self):
        """Time of the kernel now: the sum of each part's best of REPEATS."""
        total = 0.0
        for part in (self._python, self._superlu, self._numpy, self._dense):
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t0)
            total += best
        return total


def normalized(wall_s, kernel_s):
    """Wall time scaled to the host speed at which the kernel takes REFERENCE_S.

    ``kernel_s`` is the kernel time that stands for the host speed while the
    wall time was measured.
    """
    return wall_s * REFERENCE_S / kernel_s
