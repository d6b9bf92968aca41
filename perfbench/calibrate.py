"""Machine-speed calibration: a fixed pure-Python chunk timed around each step.

The benchmark was tuned on a shared 2-vCPU VM whose speed wanders by up
to 2x within seconds and between minutes, and the extra time is user
CPU, so neither the wall nor the CPU time of a step is steady from run to
run.  This module times a fixed chunk of pure-Python work just before
and just after every timed step: integer arithmetic, two breadth-first
walks over a dict-of-lists tree, then a JSON round trip, a keyed sort,
regex matches and string formatting.  It scales the step's time by
:data:`REFERENCE_S` over the mean chunk time.
A step that took 3 s while chunks took twice :data:`REFERENCE_S` counts
as 1.5 s: its time at the reference speed.  The garbage collector is off
during a chunk and the chunk keeps nothing, so what it costs does not
depend on what the step left on the heap.

Only the standard library is used, so no change to the program under
test can change what a chunk costs.
"""

from __future__ import annotations

import gc
import json
import os
import re
import statistics
import time

#: Median chunk time on the reference machine, a 2-vCPU Intel Xeon VM in
#: its fast phase.  Scaled times are seconds at that speed.
REFERENCE_S = 0.0095
#: One chunk per this many seconds of step time, so that the calibration
#: samples the machine about a fourteenth as long as the step ran.
SLICE_S = 0.15
#: At most this many chunks after one step.
MAX_CHUNKS = 40
#: Chunks in the group before a step when no step ran just before it.
WARM_CHUNKS = 5
_TREE_NODES = 4096
_LOOP = 60_000
_WALKS = 2


def _tree(nodes: int) -> dict[int, list[int]]:
    """A random recursive tree from a fixed linear congruential sequence."""
    adjacency: dict[int, list[int]] = {0: []}
    state = 12345
    for node in range(1, nodes):
        state = (state * 1103515245 + 12345) % 2**31
        parent = state % node
        adjacency[node] = [parent]
        adjacency[parent].append(node)
    return adjacency


_ADJACENCY = _tree(_TREE_NODES)
#: A JSON document, words and a pattern for the varied part of a chunk:
#: many small objects and many distinct interpreter paths, as in the cells.
_DOCUMENT = {
    f"k{i}": {"n": i, "xs": list(range(i % 17)), "s": f"v{i * 7919 % 1000}"}
    for i in range(300)
}
_WORDS = [f"w{i * 2654435761 % 100003}" for i in range(2000)]
_PATTERN = re.compile(r"w(\d+)3$")


def _work() -> int:
    total = 0
    for value in range(_LOOP):
        total = (total + value * value) % 1_000_003
    for _ in range(_WALKS):
        depth = {0: 0}
        frontier = [0]
        while frontier:
            following = []
            for node in frontier:
                for neighbour in _ADJACENCY[node]:
                    if neighbour not in depth:
                        depth[neighbour] = depth[node] + 1
                        following.append(neighbour)
            frontier = following
        total += len(depth)
    parsed = json.loads(json.dumps(_DOCUMENT, sort_keys=True))
    ordered = sorted(_WORDS, key=lambda word: (len(word), word[::-1]))
    total += sum(1 for word in ordered if _PATTERN.match(word))
    return total + len(",".join(f"{key}:{value['n']}" for key, value in parsed.items()))


def _chunk_times(count: int) -> list[float]:
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(count):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return times


def chunk_s(count: int, jobs: int = 1) -> float:
    """Median time of ``count`` back-to-back chunks, collector off.

    With ``jobs`` > 1, that many processes run the chunks at once (this
    one and ``jobs - 1`` forks), so the time reflects the speed of as
    many cores as a parallel step keeps busy.  The forks are reaped
    before this returns.
    """
    helpers = []
    for _ in range(jobs - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.write(write_end, json.dumps(_chunk_times(count)).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        helpers.append((pid, read_end))
    times = _chunk_times(count)
    for pid, read_end in helpers:
        with os.fdopen(read_end, "rb") as pipe:
            times += json.loads(pipe.read())
        os.waitpid(pid, 0)
    return statistics.median(times)


class Scaler:
    """Scales each timed step by the chunk times measured around it.

    A step's speed estimate is the mean of the chunk group run just
    before it and the one run just after it, both with as many processes
    as the step keeps busy, so a speed change during the step is split
    evenly.  The group after one step is the group before the next.
    """

    def __init__(self) -> None:
        self._before: dict[int, float] = {}

    def prime(self, jobs: int = 1) -> None:
        """Measure the group before a step, unless the last step left one."""
        if jobs not in self._before:
            self._before[jobs] = chunk_s(WARM_CHUNKS, jobs)

    def scale(self, step_s: float, jobs: int = 1) -> float:
        """Reference seconds / measured seconds for a step that just ended."""
        after = chunk_s(min(MAX_CHUNKS, max(1, round(step_s / SLICE_S))), jobs)
        factor = 2 * REFERENCE_S / (self._before[jobs] + after)
        self._before[jobs] = after
        return factor
