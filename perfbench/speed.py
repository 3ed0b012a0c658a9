"""Interpreter-speed probe that puts every timing on one scale across runs.

The speed of a small shared machine moves by up to 2x from minute to minute,
and interpreter-bound code moves the most: one theta_distribution call took
0.15 s in one minute and 0.36 s in another on a shared 2-vCPU Xeon VM.  A probe
of fixed pure-Python work runs between consecutive timed steps, and each step
is scaled by PROBE_REF_S over the mean of the probes just before and just
after it.  The probe is stdlib-only and lives here, so no change to the
package can move it.
"""

from __future__ import annotations

import statistics
import time

PROBE_REF_S = 0.0003  # nominal probe time; a scaled step reads in seconds at that speed


def probe() -> float:
    """Seconds for 2000 dict updates, a fixed amount of interpreter work.

    The faster of two tries, so an interrupt during one try does not count.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(2000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedScale:
    """Scale factors for consecutive steps, from the probes that bracket each step."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def factor(self) -> float:
        """Probe now, after a step ended; the factor for that step."""
        now = probe()
        f = 2.0 * PROBE_REF_S / (self.last + now)
        self.last = now
        self.probes.append(now)
        return f

    def median(self) -> float:
        return statistics.median(self.probes)
