"""Host-speed calibration: a fixed kernel timed between repetitions.

On a shared host the speed of a core drifts by tens of percent over minutes
and from one run to the next, and every wall time measured in that stretch
moves with it.  The benchmark times this kernel, which never calls negclap,
before and after every timed section (set-up or repetition).  Dividing a time
by the median kernel time just before and just after it, and multiplying by
``REFERENCE_S``, gives the time it would have taken at the reference speed, so
two runs of the same code agree even when the host ran at different speeds.

The kernel mixes the kinds of work negclap does, because a busy host slows
them by different amounts: a memory-bound part (``np.add.at`` into a
4096 x 64 table and an Adam-style update over it) and an interpreter-bound
part (many small numpy calls at batch 8, and string and dict work like
tokenizing), the second taking about 1.8 times as long as the first.  With
both parts the corrected times of the three workloads followed the host's
speed more closely than with either part alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference host, a 2-core x86-64 VM (Xeon,
# Python 3.11, numpy 2 with one OpenBLAS thread).  It only sets the scale of
# the corrected times, so that on that host they read close to wall seconds.
REFERENCE_S = 0.100
CALLS_PER_SAMPLE = 3


class Calibration:
    """The kernel's times around every timed section of one run.

    ``samples[k]`` and ``samples[k + 1]`` are the samples taken just before
    and just after timed section ``k``.  Creating the object warms the kernel
    up and takes the first sample.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table0 = rng.standard_normal((4096, 64))
        self._w = rng.standard_normal((64, 64)) / 8.0
        self._x = rng.standard_normal((8, 64))
        self._idx = rng.integers(0, 4096, 64)
        self._rows = rng.standard_normal((64, 64))
        self._b = rng.standard_normal(64)
        self._words = [f"tag{i}" for i in range(200)]
        # the large arrays are allocated once and updated in place, so the
        # kernel's time does not depend on the state the program leaves the
        # allocator in
        self._buffers = tuple(np.empty_like(self._table0) for _ in range(5))
        self._sample()  # warm-up, dropped
        self.samples = [self._sample()]

    def kernel(self) -> float:
        """One pass of the fixed kernel; returns its wall time in seconds."""
        table, m, v, grad, tmp = self._buffers
        w, b, words = self._w, self._b, self._words
        start = time.perf_counter()
        # memory-bound part: dense gradient table and Adam-style update
        np.copyto(table, self._table0)
        m.fill(0.0)
        v.fill(0.0)
        for _ in range(10):
            grad.fill(0.0)
            np.add.at(grad, self._idx, self._rows)
            m *= 0.9
            np.multiply(grad, 0.1, out=tmp)
            m += tmp
            v *= 0.999
            np.multiply(grad, grad, out=tmp)
            tmp *= 0.001
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += 1e-8
            np.divide(m, tmp, out=tmp)
            tmp *= 1e-3
            table -= tmp
        # interpreter-bound part: batch-8 layers and caption tokenizing
        x = self._x
        buckets: dict[str, int] = {}
        for _ in range(25):
            for _ in range(100):
                h = x @ w
                h += b
                x = np.tanh(h)
                x = x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))
            for i, word in enumerate(words):
                tokens = (word + " " + words[i - 1]).split()
                buckets[tokens[0] + "|" + tokens[1]] = sum(map(ord, tokens[1])) % 4096
        return time.perf_counter() - start

    def _sample(self) -> list[float]:
        return [self.kernel() for _ in range(CALLS_PER_SAMPLE)]

    def at_reference(self, elapsed_s: float) -> float:
        """A section's wall time, just measured, at the reference speed.

        Takes the sample after the section and scales ``elapsed_s`` by
        ``REFERENCE_S`` over the median kernel time on either side of it.
        """
        self.samples.append(self._sample())
        return elapsed_s * REFERENCE_S / statistics.median(self.samples[-2] + self.samples[-1])

    def host_speed(self) -> float:
        """Reference kernel time over the run's median: below 1 on a slower host."""
        return REFERENCE_S / statistics.median(t for sample in self.samples for t in sample)
