"""How fast the host runs right now, from a fixed piece of interpreter work.

On a shared machine the host's speed swings by 1.5 to 1.8 times in spells of
seconds to minutes, and a spell can hold a whole run.  The probe is a plain
integer loop that calls no muculants code, so no change to the program moves
its time; only the host does.  The benchmark times it next to the
operations and reports their latencies scaled to a host that runs the probe
in ``REFERENCE_S``: a latency measured while the probe took twice that is
halved.  On a 2-vCPU VM, a slow spell moved the probe and the workloads'
operations together; scaling narrowed the 10-90% range of their 2-second
medians from 0.33-0.57 of the median to 0.16-0.25.
"""

import time

PROBE_LOOPS = 30_000
REFERENCE_S = 0.002  # the probe's time on the reference host


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def scale(seconds, probe_s) -> float:
    """``seconds`` measured while the probe took ``probe_s``, on the reference host."""
    return seconds * REFERENCE_S / probe_s

