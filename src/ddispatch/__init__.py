"""Toolkit for randomized distributed control of flexible load fleets.

Builds zeta-parameterized families of Markov transition kernels for loads
(individual-optimality, smoothed, and exponential designs), linearizes the
resulting mean-field dynamics, checks passivity of the input-output response,
and simulates mean-field and finite-fleet tracking loops.

Importing the package copies ``DDISPATCH_THREADS`` into the unset BLAS
thread variables before any submodule imports numpy; no other code of the
package touches the environment.
"""

import os

__version__ = "0.1.0"


def _apply_thread_cap():
    cap = os.environ.get("DDISPATCH_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


# numpy reads the BLAS thread variables when it loads
_apply_thread_cap()

from .errors import *  # noqa: E402,F403
from .markov import *  # noqa: E402,F403
from .design import *  # noqa: E402,F403
from .linearize import *  # noqa: E402,F403
from .loads import *  # noqa: E402,F403
from .sim import *  # noqa: E402,F403
