"""Fixed reference computations that tell how fast the cores run.

On a shared machine a core slows down when other tenants load it, for
seconds or minutes at a time.  A probe times a few units of a fixed
computation that does not touch the package, so a change to the engine
cannot move it, and reports the core's speed: the time one unit takes on
a quiet core over the time it takes now.  Timed work is scaled by the
speed read just before and just after it (see README.md).

There are two kinds of unit, one for each kind of work the engine does:

- `interpreter`: a loop of interpreter work and numpy calls on single
  3-vectors and 3x3 matrices, like the stream and the oracle's per-edge
  path.
- `arrays`: numpy operations on 10,000 stacked 3x3 matrices, like an
  evaluation of the refinement objective.  They run on both cores through
  the BLAS library, as the refinement does.
"""

import math
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_MATS = _RNG.standard_normal((32, 3, 3))
_VECS = _RNG.standard_normal((32, 3))
_STACK_A = _RNG.standard_normal((10000, 3, 3))
_STACK_B = _RNG.standard_normal((10000, 3, 3))
_STACK_V = _RNG.standard_normal((10000, 3))


def interpreter_unit():
    acc = 0.0
    table = {}
    for i in range(2000):
        m = _MATS[i & 31]
        v = m @ _VECS[(i * 7) & 31]
        acc += float(np.sqrt(v @ v))
        table[i & 63] = acc
        acc -= table.get((i * 5) & 63, 0.0) * 1e-9
    return acc


def arrays_unit():
    x = np.einsum("nji,njk->nik", _STACK_A, _STACK_B) @ _STACK_B
    return float(np.linalg.norm(np.einsum("nij,nj->ni", x, _STACK_V), axis=1).sum())


# kind -> (unit, its time on a quiet core in ms: a round figure near the
# fastest the development machine reads)
UNITS = {"interpreter": (interpreter_unit, 5.0), "arrays": (arrays_unit, 3.0)}


class Probe:
    """Times the faster of two units; returns the speed (1.0 when quiet)."""

    def __init__(self, kind):
        self.unit, self.quiet_ms = UNITS[kind]

    def __call__(self):
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self.unit()
            best = min(best, time.perf_counter() - t0)
        return self.quiet_ms / (best * 1e3)


def quiet():
    """A probe that runs nothing and reads as a quiet core."""
    return 1.0
