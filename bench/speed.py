"""The host's speed, sampled while a pass runs, to scale its timings.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass can take 1.7 times as long a minute later, in slow phases that
last from seconds to minutes, so medians over a run do not remove them.
``SpeedProbe`` samples that speed with a fixed reference loop, every
``INTERVAL_S`` from a ``SIGALRM`` handler and at every mark, and scales the
wall time between two samples by ``REFERENCE_S`` over their mean reference
time.  A timing so scaled reads in seconds at the speed at which the
reference loop takes ``REFERENCE_S``; the time the probe itself takes is
left out of both the raw and the scaled figures.

The reference loop reads a 16 MB list at pseudo-random places and
allocates nothing that outlives it, so its time depends on the host, not
on what the program under test left on the heap: sampled between the
operations of a pass, a loop that builds dicts ran up to 45 % faster after
a large document was freed, while this one stayed within 6 %.  It
is plain Python and never calls complicial, so a change to the program
cannot move it.  One sample takes about 3 ms.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.25       # time between two samples taken by the timer
REFERENCE_S = 0.0025    # reference loop time that defines a scaled second
_STEPS = 8000           # reads per sample
_BUFFER = list(range(256)) * 8192       # 2**21 pointers, 16 MB


def reference_loop() -> float:
    """Time one run of the reference loop, in seconds."""
    buf, mask = _BUFFER, len(_BUFFER) - 1
    start = perf_counter()
    j = total = 0
    for _ in range(_STEPS):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        total += buf[j & mask]
    return perf_counter() - start


class SpeedProbe:
    """Raw and speed-scaled clocks for one single-threaded process.

    ``mark()`` returns both clocks; the difference between two marks is
    the time of the code run between them, probe time excluded.
    """

    def __init__(self) -> None:
        self.raw = 0.0          # seconds of program time so far
        self.scaled = 0.0       # the same, scaled to the reference speed
        self.samples: list[float] = []
        self._busy = False
        self._last_end = perf_counter()
        self._last_ref = reference_loop()

    def _sample(self, *_signal) -> None:
        if self._busy:          # a timer tick during a mark
            return
        self._busy = True
        begun = perf_counter()
        ref = reference_loop()
        span = begun - self._last_end
        self.raw += span
        self.scaled += span * REFERENCE_S / ((self._last_ref + ref) / 2)
        self.samples.append(ref)
        self._last_ref = ref
        self._last_end = perf_counter()
        self._busy = False

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._last_end = perf_counter()
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """Sample now; return the raw and the scaled clock."""
        self._sample()
        return self.raw, self.scaled
