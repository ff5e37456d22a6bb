"""Fixed reference kernels that track how fast the host runs right now.

On a shared host the same Python code runs up to twice as slowly while
another tenant loads the core, in phases of seconds to minutes.  The
benchmark takes a reading of a kernel just before and just after each
program call and rescales the call's wall time to an uncontended core:

    t_scaled = t / mean(slowdown before, slowdown after)

so a slowdown that hits the program and the kernel alike cancels, while a
change to the program does not touch the kernel.  Code slows by different
amounts: GF(2^32) shift-and-xor loops by up to 1.4x while the mixed kernel
slows by 1.6x, so each workload names the kernel that imitates what its
time goes to (`workloads.py`).
"""
from __future__ import annotations

import statistics
import time

import numpy as np


def _mixed() -> None:
    """Interpreter loops over small ints and bitmasks, list and dict traffic,
    and numpy gathers from a table the size of the GF(2^16) antilog table."""
    counts = [0] * 64
    seen = {}
    x = 0x9E3779B9
    for i in range(18_000):
        x = (x * 1_103_515_245 + 12_345) & 0xFFFF_FFFF
        mask = x >> 7
        counts[mask & 63] += bin(mask).count("1")
        seen[mask & 1023] = seen.get(mask & 1023, 0) ^ i
    sorted(seen.items(), key=lambda kv: kv[1])
    for _ in range(90):
        int((_TABLE[_INDEX] ^ _INDEX).sum())


def _carryless() -> None:
    """Products in GF(2^32) by shift and xor, the deg3 solver's wide field."""
    mod = 0x1_0000_008D
    for j in range(3_000):
        a = (j * 2_654_435_761) & 0xFFFF_FFFF
        b = (j * 40_503) | 1
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a >> 32:
                a ^= mod
            b >>= 1


_TABLE = np.arange(131_070, dtype=np.int64) * 7 % 65_521
_INDEX = np.random.default_rng(0).integers(0, 131_070, size=(40, 120))

# Each kernel with about its fastest time on a vCPU of a 2-vCPU 2.1 GHz Xeon
# VM, so that rescaled times read as seconds on an uncontended such core.
KERNELS = {
    "mixed": (_mixed, 0.0135),
    "carryless": (_carryless, 0.0130),
}


def kernel(kind: str) -> float:
    """Run one reference kernel once; return its wall seconds."""
    work = KERNELS[kind][0]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def slowdown(kind: str, covering: float = 0.0) -> float:
    """One reading of the host's speed: the median time of three kernels, or
    of as many as fill a tenth of `covering` seconds, so that a long call is
    matched by a reading that spans more of the host's swings; as a multiple
    of the kernel's uncontended time."""
    ref = KERNELS[kind][1]
    runs = max(3, int(covering / 10 / ref))
    return statistics.median(kernel(kind) for _ in range(runs)) / ref
