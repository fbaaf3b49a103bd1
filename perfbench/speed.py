"""Host-speed probe: the benchmark's times are scaled by it.

On a shared host the speed of one vCPU drifts: episodes of 0.1 to 1 s run
about 40% slower, and the fast speed itself moves by 15% or more over
minutes.  CPU time drifts with wall time, so neither can be read as the
program's cost.  ``probe()`` times a fixed piece of work that does not
touch modalkit: numpy calls on 12 x 12 arrays, whose per-call cost is most
of the small jobs' time, the same calls on 96 x 96 arrays, where the large
jobs spend theirs, and some bytecode.  Of the probes tried, this mix was the
best compromise across the jobs of all three workloads: the small calls
alone swing more than the large jobs do, the large arrays alone more than
the small jobs do.  It runs between jobs, and each job's latency is
scaled by

    REFERENCE_S / mean(probe before the job, probe after it)

so a time reads as it would on a host where the probe takes REFERENCE_S.
A change to the program moves the scaled times one for one; a change in
the host's speed moves the probe with them and largely cancels.  The raw
pass times are printed in the report line next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0035  # median probe time on the reference host (2-vCPU Xeon, Python 3.11, numpy 2.4)
_SMALL = np.random.default_rng(0).standard_normal((12, 12))
_MEDIUM = np.random.default_rng(1).standard_normal((96, 96))
_FLIP_SMALL = np.random.default_rng(2).permutation(12)
_FLIP_MEDIUM = np.random.default_rng(3).permutation(96)


def _rotations(base, flip, rounds: int) -> None:
    work = base
    for _ in range(rounds):
        norms = np.einsum("ij,ij->j", work, work)
        work = base[:, flip] * 0.5 + work * (0.5 / np.sqrt(norms.max()))


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _rotations(_SMALL, _FLIP_SMALL, 250)
    _rotations(_MEDIUM, _FLIP_MEDIUM, 30)
    table = {}
    for i in range(800):
        table[str(i)] = i * i
    return time.perf_counter() - t0


def scale(raw_s: float, before_s: float, after_s: float) -> float:
    """A raw time scaled to the reference host speed, given the probes around it."""
    return raw_s * REFERENCE_S * 2.0 / (before_s + after_s)
