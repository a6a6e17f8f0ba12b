"""Host speed, measured with a fixed computation that does not use allab.

The benchmark's 2-core virtual host changes speed from one second to the
next.  Forty back-to-back repetitions of a fixed pure-Python loop took from
0.22 s to 0.34 s, with CPU time equal to wall time and no steal time, so the
cores themselves ran slower; three foliation cases repeated for 150 s with
nothing else running took from 0.72 to 1.41 times their median.  Each
timed case is therefore scaled to a reference speed, by the ratio of
REFERENCE_S to the mean time this calibration took just before and just
after it.  A change to allab moves the scaled time in proportion; a change
of host speed mostly cancels.

Set-up is not scaled: it is mostly process start and imports, which this
calibration does not follow (over thirty launches, scaling widened the
spread of medians of three from 0.145 to 0.168).
"""

from __future__ import annotations

import time

import numpy as np

# median time of calibrate() on the development host; only sets the scale
REFERENCE_S = 0.2


def calibrate() -> float:
    """Seconds for a fixed mix of what allab's hot paths do: an interpreted
    loop, elementwise transcendental functions, FFTs and a large sort."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    s = 0
    for i in range(600_000):
        s += i * i % 7
    b = rng.standard_normal((256, 256))
    for _ in range(20):
        np.sin(b) * np.cos(b) + np.exp(-b * b)
    a = rng.standard_normal((128, 128))
    for _ in range(80):
        a = np.real(np.fft.ifft(np.fft.fft(a, axis=1), axis=1))
    np.sort(rng.standard_normal(1_000_000))
    return time.perf_counter() - t0


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` measured at the speed ``calibration`` shows, expressed at
    the reference speed."""
    return seconds * REFERENCE_S / calibration
