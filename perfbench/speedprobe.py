"""A fixed reference kernel, timed at intervals all through the timed phase.

On a shared 2-CPU machine the speed of the same code drifts by about +-25 %
over tens of seconds, so raw instance times of runs made minutes apart
differ by more than any useful bound.  ``Sampler`` times a fixed reference
kernel every ``PERIOD_S`` seconds of wall time, from a ``SIGALRM`` handler
in the measuring process itself, so the kernel runs on the same CPU and at
the same moments as the instances; the kernel's own time is taken out of
each instance's time.  An instance's time divided by the median kernel time
around it cancels the drift while still moving one for one with the
library's own speed.

Two cheaper designs failed on this machine.  Timing the kernel before and
after each instance misses drift within an instance (a depth-2 word takes
15 s).  Timing it in a second process is misled by the two CPUs' different
speeds: the kernel often ran on the faster one while the instance ran on
the slower, so the two moved in opposite directions from run to run.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

#: Wall time between kernel passes; one pass takes about 30 ms, so the
#: kernel takes about 6 % of the timed phase.
PERIOD_S = 0.5
#: Samples within this many seconds of an instance count for its reference.
MARGIN_S = 1.0


class SpeedProbe:
    """Fixed reference work in the mix the library's layers use: tuple-keyed
    dict building, pointer chasing through a list larger than L2, numpy
    elementwise passes over 1 MiB, and the traced lightcone engine's kind of
    pass (cosine damping on a 256 x 256 grid, complex products over 1 MiB).
    It calls no library code."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.chain = [int(k) for k in rng.permutation(100_000)]
        self.array = rng.random(1 << 17)
        self.angles = rng.random(256)
        self.rho = rng.random((256, 256)) + 1j * rng.random((256, 256))

    def seconds(self) -> float:
        """Wall time of one pass over the reference work.

        The garbage collector is held off during the pass: its allocations
        would otherwise set off collections that scan the measured program's
        heap (150 MiB at n=100 000), and the kernel's time would follow the
        program's memory rather than the machine's speed.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._pass()
        finally:
            if enabled:
                gc.enable()

    def _pass(self) -> float:
        start = time.perf_counter()
        merged: dict = {}
        for i in range(30_000):
            merged[(i * 7919) % 30_011, i] = i & 3
        sum((a ^ b) * v for (a, b), v in merged.items())
        k = 0
        for _ in range(60_000):
            k = self.chain[k]
        a = self.array
        for _ in range(6):
            a = np.sqrt(a * a + 1.0)
        x, rho = self.angles, self.rho
        for _ in range(3):
            rho = rho * np.cos(x[:, None] - x[None, :])
            rho *= np.exp(-1j * x)[:, None]
        return time.perf_counter() - start


class Sampler:
    """Samples the kernel for the length of a ``with`` block.

    Sample times are ``time.monotonic()`` at the start of each pass.  The
    handler runs in the main thread between bytecodes, so a pass that starts
    during an instance also ends within it.
    """

    def __enter__(self) -> Sampler:
        self.probe = SpeedProbe()
        self.probe.seconds()
        self.samples: list[tuple[float, float]] = []
        # One sample before the timed phase and one after it, so that even
        # a phase shorter than PERIOD_S has a reference.
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_) -> None:
        self.samples.append((time.monotonic(), self.probe.seconds()))

    def kernel_seconds(self, start: float, end: float) -> float:
        """Kernel time spent within [start, end]."""
        return sum(s for t, s in self.samples if start <= t <= end)

    def reference(self, start: float, end: float) -> float:
        """Median kernel time over samples within ``MARGIN_S`` of [start, end],
        or the sample nearest to the instance if a stall left none there."""
        window = [s for t, s in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        if not window:
            middle = (start + end) / 2
            window = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.median(window)
