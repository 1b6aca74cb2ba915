"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared host one core's speed drifts by tens of percent over seconds and
minutes, and wptsim's timings drift with it. The workloads run this kernel
between ops and divide each op's time by the kernel's slowdown against
REFERENCE_S around that op. The kernel mixes the kinds of work wptsim does
(small-array numpy calls from Python, long FFTs, float formatting) and never
calls wptsim, so no change to wptsim can move it.
"""

import time

import numpy as np

REFERENCE_S = 2.0e-3  # kernel time at the reference speed, its usual median on a 2-vCPU Xeon
_SMALL = np.random.default_rng(0).standard_normal(180)
_LONG = np.random.default_rng(1).standard_normal(10380)
_KEEP = np.abs(np.fft.fftfreq(180)) < 0.25


def kernel_seconds() -> float:
    start = time.perf_counter()
    for i in range(12):
        y = np.fft.ifft(np.fft.fft(_SMALL) * _KEEP).real
        z = np.clip(y, -1.0, 1.0) * (1.0 + i)
        np.exp(1j * z).sum()
        np.asarray(z, dtype=float).mean()
    for _ in range(2):
        np.fft.irfft(np.fft.rfft(_LONG))
    ", ".join(f"{v:.9g}" for v in _SMALL.tolist())
    return time.perf_counter() - start
