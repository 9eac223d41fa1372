"""Host-speed probe: timings scaled to a reference host speed.

On a shared host the same code runs up to ~1.5 times slower in phases that
last from seconds to minutes, on each core on its own, so raw times of one
pass spread far more between runs than the program's own cost does.  The
probe is a fixed piece of work of the benchmark's own, close in kind to the
library's (a pure-Python dict loop and a batch of small Hermitian
eigensolves), that takes about PROBE_REF_S seconds at the reference speed
and slows with the core it runs on.

During a pass a timer signal runs the probe in the workload's own thread
every PROBE_INTERVAL_S seconds, when the interpreter next gets control
(after a long BLAS call, at its end), and once more when the pass ends.
The time spent in the probe is taken out of the pass, and the rest is
scaled by PROBE_REF_S over the mean probe time.  The scaled time reads as
seconds at the reference speed; the raw times are reported beside it.

The mean is not weighted by the time between probes: a pass made of a few
long BLAS calls then rests on a few probes, and one of them would swing it.
"""

from __future__ import annotations

import signal
import time

# Probe time at the reference speed: about the median of the probe on a
# 2-core x86-64 host with scipy-openblas 0.3.31 and one BLAS thread.  It
# only sets the scale of the scaled times.
PROBE_REF_S = 0.003
PROBE_INTERVAL_S = 0.1
PROBE_LOOP = 8000
PROBE_EIG_BATCH = (40, 16, 16)
SETUP_PROBES = 20


class Probe:
    """The probe kernel, and its sampling during a pass."""

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0)
        m = rng.standard_normal(PROBE_EIG_BATCH)
        self.batch = m + m.transpose(0, 2, 1)
        self.samples = []        # probe times during a pass
        self.excluded_s = 0.0
        for _ in range(3):       # first calls load LAPACK paths; untimed
            self.once()

    def once(self) -> float:
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(PROBE_LOOP):
            table[i & 1023] = i
            acc += table.get((i * 7) & 1023, 0)
        self.np.linalg.eigvalsh(self.batch)
        return time.perf_counter() - t0

    def mean(self, n: int) -> float:
        """Mean of n probes run back to back."""
        return sum(self.once() for _ in range(n)) / n

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.once())
        self.excluded_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.excluded_s = [], 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> dict:
        """Stop sampling and probe once more.  Returns the time spent in
        probes during the pass and the mean probe time."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(self.once())
        return {"excluded_s": self.excluded_s,
                "probe_s": sum(self.samples) / len(self.samples),
                "probes": len(self.samples)}


def scale(seconds: float, probe_s: float) -> float:
    """seconds measured while the probe took probe_s, at reference speed."""
    return seconds * PROBE_REF_S / probe_s
