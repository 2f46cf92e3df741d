"""A fixed reference kernel that measures the host's current speed.

Host times on a shared machine drift by a third or more between runs
minutes apart as other tenants come and go, and the repetitions of a
run move with them.  ``run.py`` times this kernel between repetitions
and scales each repetition's host metrics by ``NOMINAL_S`` over the
mean of the kernel times around it, so a host metric reads as seconds
on a host where the kernel takes ``NOMINAL_S``.  The kernel touches
nothing under ``src/``: a change to the simulator moves the scaled
metrics by the same share as the raw ones.

The kernel mixes the simulator's two kinds of host work: interpreted
Python (a heap-scheduled event loop over small objects and dicts, as
in the DES and the message layer) and numpy array traffic (arithmetic,
copies and byte serialisation of a few MiB, as in the physics and the
SHDF codec).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Kernel time on the 2-vCPU VM the benchmark was calibrated on.
NOMINAL_S = 0.30


class _Event:
    __slots__ = ("when", "rank", "payload")

    def __init__(self, when, rank, payload):
        self.when = when
        self.rank = rank
        self.payload = payload


def _interpreted(n_events: int = 160_000) -> float:
    queue = []
    mailbox = {}
    seq = 0
    for rank in range(64):
        heapq.heappush(queue, (0.0, seq, _Event(0.0, rank, rank)))
        seq += 1
    total = 0
    for _ in range(n_events):
        when, _, ev = heapq.heappop(queue)
        box = mailbox.setdefault(ev.rank, [])
        box.append(ev.payload)
        if len(box) > 8:
            total += sum(box)
            box.clear()
        nxt = when + 1e-6 * ((ev.payload * 7919) % 97 + 1)
        heapq.heappush(queue, (nxt, seq, _Event(nxt, (ev.rank + 5) % 64, ev.payload + 1)))
        seq += 1
    return total


def _arrays(rounds: int = 9, n: int = 1 << 20) -> float:
    base = np.linspace(0.0, 1.0, n)
    acc = 0.0
    for r in range(rounds):
        field = base * (1.0 + r) + np.sqrt(base)
        packed = np.concatenate([field, base]).tobytes()
        back = np.frombuffer(packed, dtype=np.float64)
        acc += float(back[::4096].sum())
    return acc


def reference_s() -> float:
    """Host seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    _interpreted()
    _arrays()
    return time.perf_counter() - t0
