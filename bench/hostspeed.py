"""Host-speed reference: a fixed standard-library loop timed between requests.

The benchmark shares a few vCPUs of a host with other tenants, and the speed
it gets from them drifts by up to a factor of two over seconds to minutes
(a short Fraction loop takes either about 24 or about 48 us).  The benchmark
times ``reference()`` right after each request (or each step of a long
request), for a quarter of the step's own time, so that the two see the
same host.  A factor is the mean time of one ``reference()`` call over
``REFERENCE_NS``; a step's time divided by the mean factor of the samples
before and after it reads as if the host had run at the speed for which
``REFERENCE_NS`` was measured.  The correction leaves a change in mukai's own speed in full,
since ``reference()`` runs no mukai code.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

# Time of one reference() call at full speed: the fastest of 3000 calls on
# the calibration host (x86-64 at 2.0 GHz, 2 vCPUs, CPython 3.11.7).  Only
# the unit of the corrected times depends on it.
REFERENCE_NS = 118_000


def reference() -> int:
    """Small mix of what mukai spends its time on: Fraction sums, big ints, dicts."""
    total = Fraction(0)
    for i in range(1, 24):
        total += Fraction(i % 5 - 2, i) * Fraction(3, i + 1)
    poly = {}
    x = 3**80
    for i in range(24):
        x = x * (i + 7) + i
        poly[(i % 6, i // 6)] = poly.get((i % 6, i // 6), 0) + x
    return total.numerator + len(poly)


class HostSpeed:
    """Corrects each timed piece of work by the host speed measured around it."""

    def __init__(self):
        self.factors: list[float] = []
        self.last = self.sample(20 * REFERENCE_NS)

    def sample(self, budget_ns: int) -> float:
        """Run ``reference()`` until ``budget_ns`` is spent, at least once; returns the factor seen."""
        spent = calls = 0
        while spent < budget_ns or not calls:
            t0 = perf_counter_ns()
            reference()
            spent += perf_counter_ns() - t0
            calls += 1
        return spent / calls / REFERENCE_NS

    def start(self) -> None:
        """Start timing a piece of work; ``split()`` ends each of its steps."""
        self.raw_ns = 0
        self.corrected_ns = 0.0
        self.t0 = perf_counter_ns()

    def split(self) -> None:
        """End a step of the work begun by ``start()``: add its time as
        measured to ``raw_ns`` and at reference speed to ``corrected_ns``.

        A long request split into steps has each step corrected by the
        samples around it, which follows the host's speed more closely than
        one factor for the whole request.
        """
        elapsed = perf_counter_ns() - self.t0
        # The step's factor is the mean of those sampled just before and
        # just after it; the sample after it lasts a quarter of its time.
        after = self.sample(elapsed // 4)
        factor = (self.last + after) / 2
        self.last = after
        self.factors.append(factor)
        self.raw_ns += elapsed
        self.corrected_ns += elapsed / factor
        self.t0 = perf_counter_ns()
