"""Wall-time measurement at reference speed, percentiles and memory.

Wall time on a shared VM is not steady. CPU time equals wall time, but
the CPU itself switches, every few hundred milliseconds, between a fast
and a slow regime (host contention): a fixed pure-Python kernel takes
about twice as long in the slow one. The benchmark therefore times the
kernel between short segments of work and reports every wall time at
*reference speed*:

    time_ref = time_raw * (REF_KERNEL_NS / k) ** elasticity

where ``k`` is the mean kernel time over the segments within
``WINDOW`` of the operation's segment (one kernel timing is itself
noisy) and ``elasticity`` is the workload's measured sensitivity to the
regime. Code paths slow down by different amounts: the Fig-6 codec
work slows as much as the kernel (elasticity 1), the cold query mix's
scans only about half as much in log terms (0.5). The raw times are
recorded beside the reference-speed ones.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: kernel time, in ns, that defines reference speed (a fixed constant,
#: near the kernel's time on a 2-vCPU x86-64 VM in its slow regime)
REF_KERNEL_NS = 3_000_000
#: work between two kernel timings; short enough to follow the regime
SEGMENT_NS = 60_000_000
#: segments on each side whose kernel timings are averaged
WINDOW = 10
#: elasticity applied to set-up times (building a world is scans and
#: inserts, like the cold query path)
SETUP_ELASTICITY = 0.5


def _kernel(n: int = 8000) -> int:
    """Interpreter-bound work shaped like the middleware's: small dicts,
    tuples, float arithmetic and string formatting."""
    d: dict[int, int] = {}
    acc = 0.0
    parts = []
    for i in range(n):
        k = i & 255
        d[k] = d.get(k, 0) + 1
        t = (i, k, float(i) * 0.5)
        acc += t[2]
        if i % 16 == 0:
            parts.append(repr(acc)[:4])
    return len(parts) + len(d)


def kernel_ns() -> int:
    """Time one run of the calibration kernel (best of three)."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _kernel()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None or dt < best else best
    return best


def percentile(values: list[float], pct: float) -> tuple[float, int, int]:
    """Nearest-rank percentile: ``(value, samples beyond it, sample count)``."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct * n / 100.0))
    return sorted(values)[rank - 1], n - rank, n


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed_factor(kernel_ns_mean: float, elasticity: float) -> float:
    """Multiplier taking a raw time to reference speed."""
    return (REF_KERNEL_NS / kernel_ns_mean) ** elasticity


@dataclass
class Meter:
    """Times operations in segments separated by kernel timings.

    ``add`` records one operation's raw wall time; ``tick`` (called
    between operations, outside any timed region) closes the current
    segment once it holds ``SEGMENT_NS`` of work and times the kernel.
    """

    elasticity: float
    segment_ns: int = SEGMENT_NS
    #: kernel timings; segment i lies between kernels i and i + 1
    kernels: list[int] = field(default_factory=list)
    #: per segment: raw ns of each operation in it
    segments: list[list[int]] = field(default_factory=list)
    _open_ns: int = 0

    def start(self) -> None:
        self.kernels.append(kernel_ns())
        self.segments.append([])
        self._open_ns = 0

    def add(self, raw_ns: int) -> None:
        self.segments[-1].append(raw_ns)
        self._open_ns += raw_ns

    def tick(self) -> None:
        if self._open_ns >= self.segment_ns:
            self.start()

    def finish(self) -> None:
        self.kernels.append(kernel_ns())
        if not self.segments[-1]:
            self.segments.pop()
            self.kernels.pop()

    def factors(self) -> list[float]:
        """Per segment: the multiplier to reference speed."""
        n = len(self.segments)
        return [
            speed_factor(
                statistics.fmean(self.kernels[max(0, i - WINDOW): min(n, i + WINDOW + 1) + 1]),
                self.elasticity,
            )
            for i in range(n)
        ]

    def raw_ns(self) -> list[int]:
        return [ns for seg in self.segments for ns in seg]

    def op_factors(self) -> list[float]:
        """The multiplier to reference speed of each operation, in order."""
        return [f for f, seg in zip(self.factors(), self.segments) for _ in seg]

    def ref_ns(self) -> list[float]:
        """Every operation's time at reference speed, in order."""
        return [ns * f for ns, f in zip(self.raw_ns(), self.op_factors())]

