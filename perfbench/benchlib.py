"""Helpers of run.py, the benchmark entry point; stdlib only.

Everything a run generates comes from `random.Random` seeded with the
workload seed, so one seed always yields the same boxes, schedule and
release ids.
"""
from __future__ import annotations

import math
import os
import random
import statistics

# Tail percentiles, highest first (p99 at most); a run reports the highest
# one that has at least TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (0.99, 0.9, 0.75, 0.5)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile: the rank-ceil(q*n) sample, q in (0, 1]."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail(values):
    """Returns (q, value) for the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples strictly beyond its rank."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q * n - 1e-9))
        if n - rank >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1]
    return 0.5, nearest_rank(ordered, 0.5)


def poisson_offsets_us(rng, rate, seconds):
    """Arrival offsets (integer microseconds) of a Poisson process."""
    offsets, t = [], 0.0
    while True:
        t += -math.log(1.0 - rng.random()) / rate
        if t >= seconds:
            return offsets
        offsets.append(int(t * 1e6))


def boxes(rng, count, min_area=1e-3, max_area=1e-2):
    """Boxes inside the unit square with log-uniform area in
    [min_area, max_area] and aspect ratio in [1/2, 2], as (x0, x1, y0, y1)."""
    out = []
    for _ in range(count):
        area = math.exp(rng.uniform(math.log(min_area), math.log(max_area)))
        aspect = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        width = math.sqrt(area * aspect)
        height = area / width
        x0 = rng.uniform(0.0, 1.0 - width)
        y0 = rng.uniform(0.0, 1.0 - height)
        out.append((x0, x0 + width, y0, y0 + height))
    return out


def mean_relative_error(estimates, exact, cardinality):
    """The paper's smoothed error, as eval::MeanRelativeError defines it:
    mean of |est - truth| / max(truth, 0.1% of n)."""
    smoothing = max(0.001 * cardinality, 1e-12)
    return sum(abs(e - t) / max(t, smoothing)
               for e, t in zip(estimates, exact, strict=True)) / len(exact)


def proc_cpu_seconds(pid):
    """utime + stime of a process, in seconds, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_vmhwm_kb(pid):
    """Peak resident set size (VmHWM) of a process, in KiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM for pid {pid}")


def host_cpu_ticks():
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_pct(before, after):
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def binned_rate(times_us, seconds, bins=10):
    """Median completion rate (1/s) over equal sub-windows of a window of
    `seconds`; a stall hits one bin, not the whole figure."""
    width = seconds / bins
    counts = [0] * bins
    for t in times_us:
        b = int(t / 1e6 / width)
        if 0 <= b < bins:
            counts[b] += 1
    return statistics.median(counts) / width


def seeded(workload, seed):
    """The workload's generator: string seeding is stable across Python
    processes and versions (it does not depend on hash randomization)."""
    return random.Random(f"{workload}:{seed}")

