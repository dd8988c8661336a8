"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's host is shared with other tenants, and its speed for
the same code moves by up to 2x, from one second to the next and from
one minute to the next.  The benchmark times this loop right after
each piece of work it measures, for ``SHARE`` of that piece's time.  A
workload's timings are then divided by ``slowdown ** k``: ``slowdown``
is the loop's mean time over ``REFERENCE_SECONDS``, and ``k`` is the
workload's sensitivity to the host, the slope of its log time against
the loop's log time on the baseline host.  Since the loop is timed in
proportion to the work and at the same moments, a host slower over
part of a run stretches both, and the division cancels it.  Timings so
corrected are seconds on a host that runs the loop in
``REFERENCE_SECONDS``.  The loop uses numpy only, never sadprec, so a
change to the package moves the corrected timings in proportion and
leaves the loop alone.
"""

import statistics
import time

import numpy as np

# Mean time of one reference sample on the baseline host (2-vCPU Xeon
# virtual machine, one BLAS thread), rounded.
REFERENCE_SECONDS = 0.05
SHARE = 0.2  # time in the loop per second of measured work

TRIANGLE = 200  # rows of the triangular solve, one Python iteration per row
TRIANGLE_SOLVES = 100


class Reference:
    """Times a fixed piece of work in proportion to the work it follows.

    The piece is a row-by-row triangular solve: small numpy calls in a
    Python loop, bound by the interpreter like most of the package.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        lower = np.tril(rng.standard_normal((TRIANGLE, TRIANGLE)))
        lower[np.diag_indices(TRIANGLE)] = TRIANGLE
        self.lower, self.rhs = lower, rng.standard_normal(TRIANGLE)
        self.owed = 0.0

    def work(self):
        """The fixed piece of work; returns its solution's sum."""
        L, b = self.lower, self.rhs
        x = np.empty(TRIANGLE)
        for _ in range(TRIANGLE_SOLVES):
            for i in range(TRIANGLE):
                x[i] = (b[i] - L[i, :i] @ x[:i]) / L[i, i]
        return float(x.sum())

    def follow(self, seconds, samples):
        """Time the loop for about ``SHARE * seconds``; append each time to ``samples``.

        What a sample overshoots is carried over to the next call, so
        over a run the loop's time stays in proportion to the work's.
        """
        self.owed += SHARE * seconds
        while self.owed > 0.0:
            t0 = time.perf_counter()
            self.work()
            took = time.perf_counter() - t0
            samples.append(took)
            self.owed -= took


def slowdown(samples):
    """How much slower than the baseline host the loop ran, on average."""
    return statistics.mean(samples) / REFERENCE_SECONDS
