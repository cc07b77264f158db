"""Machine-speed calibration for timings taken on a shared machine.

On the shared 2-core machine this benchmark was written on, other tenants
slowed every process on our cores by up to 2x, in stretches that lasted
from a second to over a minute. A run of the benchmark is too short to wait
that out, so raw times of the same op swung by 60% from run to run. Taking
the fastest of several executions did not help when a whole run fell into
a slow stretch.

The remedy is to time a fixed pure-Python loop, much like the program's own
work (hash lookups over an adjacency structure), right before and right
after every measured op, and to report the op's time scaled by
``REFERENCE_S`` over the loop's time around it: the op's time at the speed
at which the loop takes ``REFERENCE_S``. Raw times stay in the detail line.
"""

from __future__ import annotations

import random
from time import perf_counter

# the loop's time on an idle core of the machine the benchmark was written
# on; calibrated times read as seconds on that machine when it is idle
REFERENCE_S = 0.15


# the loop's graph (vertices, edges) and how many times one call walks it
N, M, REPEAT = 3000, 30000, 3


class Calibration:
    """The fixed loop: common-neighbour tests over a seeded random graph."""

    def __init__(self):
        rng = random.Random(7)
        self.adj: list[set[int]] = [set() for _ in range(N)]
        self.edges: list[tuple[int, int]] = []
        while len(self.edges) < M:
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v and v not in self.adj[u]:
                self.adj[u].add(v)
                self.adj[v].add(u)
                self.edges.append((u, v))

    def __call__(self) -> float:
        """Seconds the loop takes now."""
        adj = self.adj
        start = perf_counter()
        closed = 0
        for _ in range(REPEAT):
            for u, v in self.edges:
                av = adj[v]
                for w in adj[u]:
                    closed += w in av
        return perf_counter() - start
