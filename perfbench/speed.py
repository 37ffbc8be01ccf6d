"""Host-speed normalisation of the benchmark's wall times."""

import signal
import statistics
import sys
import time

#: the speed probe: a fixed pure-Python kernel (~0.5 ms on an idle core).
PROBE_ITERATIONS = 3000
#: the probe time a normalised second is scaled to.
PROBE_REFERENCE_S = 0.0005
PROBE_PERIOD_S = 0.025


def _probe_kernel() -> None:
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i * i


class SpeedSampler:
    """Measures how fast the host runs *during* a timed span.

    Other tenants of a shared host slow a CPU-bound process by up to ~60%,
    switching on and off within a second and changing in intensity over
    minutes, so wall time alone says as much about the neighbours as about
    the code.  Every ``PROBE_PERIOD_S`` a ``SIGALRM`` handler runs a fixed
    kernel in the main thread and records its duration.  :meth:`normalised`
    returns the span's wall time minus the probes' own time, scaled by
    ``PROBE_REFERENCE_S`` over the probes' mean: seconds on a host where
    the probe takes ``PROBE_REFERENCE_S``.  The probes cost ~2% of the span.
    """

    def __init__(self, start: float | None = None):
        #: when the timed span began (default: on entering the sampler).
        self.start = start

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        if self.start is None:
            self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self.start
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum, frame):
        # Hold the GIL for the whole probe, so another thread's bytecode
        # (the service scheduler's) is not counted as probe time.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            start = time.perf_counter()
            _probe_kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            sys.setswitchinterval(interval)

    def normalised(self) -> float:
        if not self.samples:  # a span shorter than one period
            return self.wall_s
        # The slowest tenth are probes a page fault or the OS scheduler
        # interrupted, not the host's speed.
        kept = sorted(self.samples)[: max(1, len(self.samples) * 9 // 10)]
        work = self.wall_s - sum(self.samples)
        return work * PROBE_REFERENCE_S / statistics.fmean(kept)
