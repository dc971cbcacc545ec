"""Fixed reference process: the benchmark's gauge of the machine's current speed.

It does what a small qknap request does, without qknap: start an
interpreter, import numpy and run ~0.1 s of small-array dominance tests.
It never changes with the program, so the ratio of a request's wall time
to the wall time of the probe run just before it cancels the speed swings
of a shared machine.
"""

import numpy as np

a = np.arange(24, dtype=np.int64).reshape(8, 3)
b = a[::-1].copy()
for _ in range(1000):
    ge = (b[:, None, :] >= a[None, :, :]).all(axis=2)
    keep = np.flatnonzero(~ge.any(axis=0))
    c = np.concatenate((a[keep], b))
