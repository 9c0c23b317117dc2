"""Op times corrected for the host's speed.

On the shared 2-vCPU VM this benchmark was sized on, identical work runs
up to 30% slower for seconds to minutes at a time: one additivity op took
10.7 s to 13.9 s in six consecutive runs, and a fixed numpy loop flipped
between two speeds 1.5x apart.  A median over ops cannot remove a slowdown
that lasts the whole run, so op times are also kept on a reference clock.

While ops run, a timer signal every ``INTERVAL_S`` runs a fixed loop
(``CAL_CALLS`` eigvalsh calls on one 4x4 Hermitian matrix, the shape of the
package's entropy kernel, no chancap code) and charges the time since the
previous tick at ``REF_S`` / (that loop's time).  ``ref_clock`` therefore
advances in seconds at the reference speed; ``clock`` advances in wall
seconds with the sampling itself left out.  In six additivity runs the
wall time spread 30% and the reference time 12% (5% between quartiles).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2
CAL_CALLS = 250
REF_S = 0.002  # loop time at the reference speed, near this VM's fast state

_MATRIX = np.array(
    [[2, 1j, 0, 0.5], [-1j, 1, 0.3, 0], [0, 0.3, 1.5, 0.2j], [0.5, 0, -0.2j, 1]],
    dtype=np.complex128,
)


def _loop_s() -> float:
    eigvalsh, m = np.linalg.eigvalsh, _MATRIX
    t0 = time.perf_counter()
    for _ in range(CAL_CALLS):
        eigvalsh(m)
    return time.perf_counter() - t0


class SpeedClock:
    def __init__(self):
        self._scale = REF_S / _loop_s()
        self._ref = 0.0
        self._sampling_s = 0.0
        self._last = time.perf_counter()
        self._old_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self._sampling_s

    def ref_clock(self) -> float:
        return self._ref + (time.perf_counter() - self._last) * self._scale

    def sample(self, *_):
        """Charge the time since the last sample at the last speed, then
        measure the speed again.  Also the signal handler."""
        t = time.perf_counter()
        self._ref += (t - self._last) * self._scale
        self._scale = REF_S / _loop_s()
        self._last = time.perf_counter()
        self._sampling_s += self._last - t

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
