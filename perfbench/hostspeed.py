"""Host speed probe: fixed kernels, timed between the measured calls.

On a shared machine the speed of identical work drifts by 10-40% over
tens of seconds, with spells of 15-20 s (see README.md, "Noise and
steadiness"). That drift, not the program, sets most of the spread of
the read-side times between runs. So a run times four fixed kernels
before each set-up and each read-side command, and its host factor is
how much slower they ran than on the reference machine: the geometric
mean, over the kernels, of the median kernel time in the run over the
kernel's reference time. The set-up and read-side times are divided by
the factor, so they read as on the reference machine at its usual
speed. The generate rate is not: it did not follow the kernels.

The kernels stand for the kinds of work uavnav does, and use none of its
code, so a change to uavnav cannot move them:

- ``interpreter``: a pure-Python integer loop;
- ``heap_dict``: heap pushes and pops into a dict, as in the A* search;
- ``numpy``: small array arithmetic and reductions, as in voxel and
  sight-line code;
- ``memory``: a freshly mapped 16 MB block, filled and summed, as in
  loading a point cloud and building the voxel grid.
"""

from __future__ import annotations

import heapq
import math
import mmap
import statistics
import time

import numpy as np

_ARRAY = np.arange(20000, dtype=float).reshape(200, 100)
_PRODUCT = np.empty_like(_ARRAY)
_ROW = np.empty(100)
_KEYS = [(i * 7919 % 1000, i) for i in range(2000)]


def _interpreter() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def _heap_dict() -> int:
    size = 0
    for _ in range(16):
        heap: list[tuple[int, int]] = []
        for key in _KEYS:
            heapq.heappush(heap, key)
        popped = {}
        while heap:
            key, i = heapq.heappop(heap)
            popped[i] = key
        size += len(popped)
    return size


def _numpy() -> float:
    # Into preallocated buffers, so the allocator's state does not matter.
    total = 0.0
    for i in range(800):
        np.multiply(_ARRAY, 1.0001, out=_PRODUCT)
        np.add(_PRODUCT, i, out=_PRODUCT)
        np.floor_divide(_ARRAY[i % 200], 3, out=_ROW)
        total += float(_PRODUCT.sum()) + float(_ROW.max())
    return total


def _memory() -> float:
    # An anonymous mapping of its own, so every call faults in fresh pages
    # whatever the allocator's state.
    with mmap.mmap(-1, 16 << 20) as block:
        pages = np.frombuffer(block, dtype=np.float64)
        pages.fill(1.0)
        total = float(pages.sum())
        del pages
    return total


# Kernel -> reference seconds: the median time in five gen_desk runs on
# the 2-core x86-64 VM of README.md. Any fixed values would do, since
# both sides of a comparison divide by the same ones.
KERNELS = {
    "interpreter": (_interpreter, 0.028),
    "heap_dict": (_heap_dict, 0.024),
    "numpy": (_numpy, 0.021),
    "memory": (_memory, 0.015),
}


class HostSpeed:
    """Kernel times of one run, and the host factor they give."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}

    def probe(self) -> None:
        for name, (kernel, _) in KERNELS.items():
            started = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - started)

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(times) for name, times in self.samples.items()}

    def factor(self) -> float:
        """> 1 when the host ran slower than the reference machine."""
        logs = [math.log(median / KERNELS[name][1]) for name, median in self.medians().items()]
        return math.exp(sum(logs) / len(logs))
