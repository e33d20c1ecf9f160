"""Host speed reference: a fixed computation that uses nothing of the package.

The benchmark runs this file in a fresh interpreter once per chain pass and
times it from process start to exit.  It does the same kinds of work as a
CLI stage: interpreter start-up and the numpy and scipy imports, a
pure-Python loop, small dense solves, and a streaming pass over an array of
fleet size.  Its time moves with the speed the shared host gives this
machine, and with nothing a change to the package can do.
"""

import numpy as np
import scipy.linalg  # noqa: F401  (imported for its load time, as the package does)
import scipy.signal  # noqa: F401
import scipy.sparse  # noqa: F401

total = 0
for i in range(1_000_000):
    total += i * i % 7

rng = np.random.default_rng(0)
a = rng.random((96, 96)) + 96.0 * np.eye(96)
b = np.ones(96)
for _ in range(1500):
    np.linalg.solve(a, b)

x = rng.random((100_000, 96))
for _ in range(6):
    (x < 0.5).sum(axis=1)
