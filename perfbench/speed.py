"""Timing that corrects for the machine's drifting speed.

On a shared virtual machine the speed of the CPU, and of the cache and
memory it shares with neighbours, drifts by tens of percent over seconds to
minutes. Wall time then says as much about the neighbours as about the code.
``SpeedClock`` times a fixed probe kernel at least every ``PROBE_INTERVAL_S``
inside the measured work and converts each stretch of wall time between two
probes into reference seconds: wall time scaled by ``PROBE_REF_S`` over the
mean duration of the two probes around it. The probes' own time is left out.

``ticking`` lets the pipeline's per-document, per-tree and per-row calls
offer the clock a chance to probe. The probe kernel lives here, outside the
package, so no change under ``src/`` can change what it measures.
"""

from __future__ import annotations

import time

import numpy as np

from tracing import patched
from treefuse import model, trees

PROBE_INTERVAL_S = 0.1
# Defines the unit: a reference second is 200 probe durations (the probe
# took 4-7 ms on the 2-vCPU Xeon KVM guest the benchmark was tuned on).
PROBE_REF_S = 0.005

# The probe mixes the pipeline's three kinds of work in miniature: plain
# Python over small dicts and floats (featurizing, routing rows down trees),
# a Python loop of small matrix-vector products (the LSTM recurrence) and an
# Adam-like update over arrays larger than a private cache.
_rng = np.random.default_rng(0)
_PROBE_ROWS = [{f"c{j}": float(j * i % 7) for j in range(16)} for i in range(64)]
_PROBE_KEYS = [f"c{j}" for j in range(16)]
_PROBE_W = _rng.random((512, 128)) / 128.0
_PROBE_H = _rng.random(128)
_PROBE_M, _PROBE_V, _PROBE_G, _PROBE_P = (_rng.random(100_000) for _ in range(4))

# Called once per document forwarded, tree trained and row routed.
TICK_TARGETS = ((model, "forward"), (trees, "train_tree"), (trees, "assign_leaves"))


def _probe_kernel() -> None:
    acc = 0.0
    for _ in range(6):
        for row in _PROBE_ROWS:
            for key in _PROBE_KEYS:
                value = row.get(key)
                acc += value if value < 3.0 else -value
    h = _PROBE_H
    for _ in range(150):
        z = _PROBE_W @ h
        h = np.tanh(z[:128]) * 0.5 + 0.1
    _PROBE_M[:] = 0.9 * _PROBE_M + 0.1 * _PROBE_G
    _PROBE_V[:] = 0.999 * _PROBE_V + 0.001 * _PROBE_G * _PROBE_G
    _PROBE_P[:] = _PROBE_P - 1e-9 * _PROBE_M / (np.sqrt(_PROBE_V) + 1e-8)


class SpeedClock:
    def __init__(self):
        # (wall time before the probe, probe duration, wall time after it)
        self.marks: list[tuple[float, float, float]] = []

    def probe(self) -> int:
        """Time the probe now; returns the mark's index."""
        start = time.perf_counter()
        _probe_kernel()
        end = time.perf_counter()
        self.marks.append((start, end - start, end))
        return len(self.marks) - 1

    def tick(self) -> None:
        if not self.marks or time.perf_counter() - self.marks[-1][2] >= PROBE_INTERVAL_S:
            self.probe()

    def since(self, mark: int) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the work between ``mark``
        and a probe taken now."""
        self.probe()
        wall = ref = 0.0
        for (_, before, work_start), (work_end, after, _) in zip(
            self.marks[mark:], self.marks[mark + 1:]
        ):
            wall += work_end - work_start
            ref += (work_end - work_start) * 2.0 * PROBE_REF_S / (before + after)
        return wall, ref

    @property
    def probes(self) -> list[float]:
        return [m[1] for m in self.marks]


def ticking(clock: SpeedClock):
    """Let every call to a ``TICK_TARGETS`` function tick ``clock``."""

    def hooked(fn):
        def call(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)

        return call

    return patched([(owner, attr, hooked(getattr(owner, attr)))
                    for owner, attr in TICK_TARGETS])
