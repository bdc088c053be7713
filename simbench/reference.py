"""The fixed reference kernel that host times are scaled by.

Other tenants of a shared host slow the simulator by up to 2x, for
stretches of seconds to minutes, and no hardware counter is readable
in the VM.  The benchmark therefore times this kernel between the
slices of every repeat and reports host times as multiples of it (see
``run``).  The kernel mixes what the simulator spends its time on:
interpreted heap and dict work plus small numpy vector operations.

Changing this kernel, or ``REFERENCE_SECONDS``, changes every reported
time; keep both fixed so that runs of different commits compare.
"""

import heapq
import time

import numpy as np

#: About the kernel's time on an unloaded 2.0 GHz Xeon vCPU; scaled
#: times read as host seconds there.
REFERENCE_SECONDS = 0.0015


def reference_kernel():
    heap = []
    table = {}
    total = 0
    for i in range(1500):
        key = (i * 7919) % 2003
        heapq.heappush(heap, (key, i))
        table[key & 255] = table.get(key & 255, 0) + i
    while heap:
        total += heapq.heappop(heap)[0]
    values = np.arange(256.0)
    for _ in range(150):
        values = np.minimum(values * 1.001, 300.0)
        total += int(values.argmax())
    return total


def reference_seconds():
    """Host seconds of one run of the reference kernel, now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
