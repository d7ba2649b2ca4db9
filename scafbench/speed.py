"""The host speed probe.

The host this benchmark was tuned on slows down in spells of seconds
to minutes (other tenants of the machine), by up to twice, without any
steal time or CPU-time signature.  Timings taken minutes apart differ
by 20% and more.  The probe tracks that: a fixed slice of pure-Python
work (dicts keyed by tuples, method calls, small objects, the mix the
analysis code is made of) that does not touch the program, timed
right before and right after each measured interval and never inside
one.  A measured interval's *host factor* is the mean of its two
probes over ``REF_S``; a timing divided by its factor is what it would
have read with the host at its reference speed.

The garbage collector is off while a probe runs.  CPython starts a
collection by allocation count, and a slice allocates tens of
thousands of containers, so with the collector on a probe would walk
(and be charged for) whatever the program left on the heap, and a
program that allocates less would read as a faster host.  With it off,
a probe's reading depends on the host alone.

Every record keeps the raw timings and the factors beside the scaled
values.
"""

from __future__ import annotations

import gc
import time

#: Slices per probe: one slice takes about 5 ms on the reference host,
#: and a single slice often lands in a burst of tens of milliseconds.
SLICES = 8
#: One probe's time on the reference host when it is quiet.
REF_S = 0.037


class _Node:
    __slots__ = ("key", "weight", "edges")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight
        self.edges = []

    def score(self, nodes) -> int:
        return self.weight + sum(nodes[e].weight for e in self.edges[:3])


def _slice() -> int:
    # Edges are indices, not references: no cycles, so reference
    # counting frees everything and the collector owes nothing after.
    memo = {}
    nodes = [_Node((i % 37, i % 11), i) for i in range(3000)]
    for i, node in enumerate(nodes):
        node.edges.append((i * 7) % len(nodes))
        node.edges.append((i * 13) % len(nodes))
    acc = 0
    for round_ in range(4):
        for node in nodes:
            key = (node.key, round_ & 1)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = node.score(nodes) & 0xFFFF
            if isinstance(hit, int):
                acc += hit
    return acc


def probe() -> float:
    """Seconds for one probe: ``SLICES`` slices of fixed work, with the
    garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(SLICES):
            _slice()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Probes:
    """Probe readings taken between measured intervals, in order.  A
    traced run passes its ledger, which books the probes to ``bench``."""

    def __init__(self, ledger=None):
        self.ledger = ledger
        self.readings = [probe()]

    def mark(self) -> float:
        """Probe once more; returns the host factor of the interval
        between this reading and the previous one."""
        if self.ledger is not None:
            with self.ledger.span("bench", "probe"):
                self.readings.append(probe())
        else:
            self.readings.append(probe())
        return (self.readings[-2] + self.readings[-1]) / (2 * REF_S)
