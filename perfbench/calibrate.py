"""Times scaled to a nominal machine speed.

On a virtual machine that shares its host, the same code was seen to run
30-60% slower for a minute or more at a time, in pure integer loops as much
as in the library.  The runs of one benchmark fall into such spells at
random, and no statistic over one run's own samples removes them, because
every sample of the run is slowed alike.

So every time the benchmark reports is scaled by the speed of the machine
at that moment: a fixed integer loop, which touches nothing of the library,
is timed just before and just after the measured interval, and the interval
is multiplied by NOMINAL_S over the mean of the two loop times.  A change
to the library leaves the loop's time alone, so it shows in full; a
slowdown of the whole machine shows in both and cancels.  NOMINAL_S is
close to the loop's time on an unloaded 2.1 GHz Xeon vCPU, where scaled
times are close to wall times.
"""

import time

LOOP_ITERATIONS = 50000
NOMINAL_S = 0.004


def loop_time():
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    x = 1
    for i in range(LOOP_ITERATIONS):
        x = (x * 3 + i) & 0xFFFF
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` at nominal speed, from the loop times around it."""
    return seconds * 2.0 * NOMINAL_S / (before + after)
