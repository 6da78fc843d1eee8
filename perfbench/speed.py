"""A fixed speed probe, and item times adjusted to a reference machine speed.

A shared virtual machine can change speed by up to 1.6x for seconds to
minutes at a time: a neighbour's load slows every instruction of this
process, and CPU time slows with wall time.
A median inside one run cannot take that out, so runs minutes apart disagree.

The probe is a fixed piece of work of the same kind as the program's: a
sparse product of two 24x24 matrices of `Fraction`s held in numpy object
arrays, written here and independent of ``rimealg``, so that no change to the
program can change the probe.  A run times the probe before every item and
after the last.  An item's *adjusted* time is its measured time scaled by
``REFERENCE_PROBE_S / p``, where ``p`` is the median of the probe times
nearest to the item.  It reads in seconds at the speed at which one probe
takes ``REFERENCE_PROBE_S``: when the machine runs slow, the probe and the
item slow together and the ratio stays.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy as np

#: probe time, in seconds, at the reference speed the adjusted times are
#: expressed at; about the probe's median inside a run on a 2-core Xeon VM
#: at 2.1 GHz with Python 3.11
REFERENCE_PROBE_S = 0.0033
#: probes on each side of an item that enter its speed estimate
WINDOW = 2

_SIZE = 24
_ZERO = Fraction(0)


def _operand(rng: random.Random):
    rows = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) if rng.random() < 0.25 else _ZERO
         for _ in range(_SIZE)]
        for _ in range(_SIZE)
    ]
    return np.array(rows, dtype=object)


_RNG = random.Random(20071224)
_A = _operand(_RNG)
_B = _operand(_RNG)


def _product():
    brows = [[(j, v) for j, v in enumerate(row) if v] for row in _B.tolist()]
    out = []
    for arow in _A.tolist():
        orow = [_ZERO] * _SIZE
        for k, av in enumerate(arow):
            if av:
                for j, bv in brows[k]:
                    orow[j] = orow[j] + av * bv
        out.append(orow)
    return np.array(out, dtype=object)


_EXPECTED_TRACE = sum(_product().diagonal().tolist(), _ZERO)


def probe() -> float:
    """Seconds one run of the fixed probe takes now."""
    t0 = time.perf_counter()
    out = _product()
    elapsed = time.perf_counter() - t0
    if sum(out.diagonal().tolist(), _ZERO) != _EXPECTED_TRACE:
        raise RuntimeError("speed probe computed a wrong product")
    return elapsed


def adjust(latencies: list, probes: list) -> list:
    """Adjusted times of consecutive items.

    ``probes[i]`` was taken just before item ``i`` and ``probes[i + 1]`` just
    after it, so there is one more probe than there are items.
    """
    if len(probes) != len(latencies) + 1:
        raise ValueError("need one probe before each item and one after the last")
    out = []
    for i, latency in enumerate(latencies):
        near = probes[max(0, i - WINDOW + 1):i + WINDOW + 1]
        out.append(latency * REFERENCE_PROBE_S / statistics.median(near))
    return out
